"""Local-move combinatorics on positive arrays.

Implements the geometric RSK and geometric PNG maps as compositions of the
2x2 local move

    (a b)        ( bc/(a(b+c))  b )
    (c d)  |-->  ( c            d(b+c) )

with multiplicative border rules, on staircase arrays (a matrix and a
triangle are staircases), together with the energy and type functionals.

All arithmetic is plain Python (+, *, /) on the entry values, so arrays work
equally with float, fractions.Fraction or mpmath.mpf entries; no numerics
library is involved here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

Cell = Tuple[int, int]


@dataclass(frozen=True)
class IndexSet:
    """Staircase ("Young-diagram-like") index set given by its outer corners.

    corners = [(m_1, n_1), ..., (m_k, n_k)] with m_l strictly increasing and
    n_l strictly decreasing; the index set is the union of the rectangles
    [1, m_l] x [1, n_l].
    """

    corners: Tuple[Cell, ...]

    def __init__(self, corners):
        corners = tuple((int(m), int(n)) for m, n in corners)
        if not corners:
            raise ValueError("index set needs at least one corner")
        prev_m, prev_n = 0, None
        for m, n in corners:
            if m < 1 or n < 1:
                raise ValueError(f"corner ({m},{n}) out of range")
            if m <= prev_m:
                raise ValueError("corner rows m_l must be strictly increasing")
            if prev_n is not None and n >= prev_n:
                raise ValueError("corner columns n_l must be strictly decreasing")
            prev_m, prev_n = m, n
        object.__setattr__(self, "corners", corners)

    @property
    def n_rows(self) -> int:
        return self.corners[-1][0]

    @property
    def n_cols(self) -> int:
        return self.corners[0][1]

    def row_length(self, i: int) -> int:
        """j*(i): number of entries in row i (0 if the row is absent)."""
        for m, n in self.corners:
            if i <= m:
                return n
        return 0

    def col_length(self, j: int) -> int:
        """i*(j): number of entries in column j."""
        best = 0
        for m, n in self.corners:
            if j <= n:
                best = m
        return best

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i and 1 <= j <= self.row_length(i)

    def cells(self) -> List[Cell]:
        out = []
        for i in range(1, self.n_rows + 1):
            for j in range(1, self.row_length(i) + 1):
                out.append((i, j))
        return out


@dataclass
class PolygonalArray:
    """Positive entries on a staircase index set."""

    index: IndexSet
    entries: Dict[Cell, object] = field(default_factory=dict)

    def __post_init__(self):
        cells = set(self.index.cells())
        if set(self.entries) != cells:
            raise ValueError("entries do not exactly cover the index set")
        for cell, v in self.entries.items():
            if not v > 0:
                raise ValueError(f"non-positive entry at {cell}")

    @classmethod
    def from_rows(cls, rows, corners=None) -> "PolygonalArray":
        """Build from a list of row lists; corners inferred if not given."""
        if corners is None:
            corners = []
            lengths = [len(r) for r in rows]
            for i, n in enumerate(lengths, start=1):
                if i == len(lengths) or lengths[i] < n:
                    corners.append((i, n))
        index = IndexSet(corners)
        entries = {}
        for i, row in enumerate(rows, start=1):
            if len(row) != index.row_length(i):
                raise ValueError(f"row {i} has wrong length for index set")
            for j, v in enumerate(row, start=1):
                entries[(i, j)] = v
        return cls(index, entries)

    def rows(self) -> List[List[object]]:
        return [
            [self.entries[(i, j)] for j in range(1, self.index.row_length(i) + 1)]
            for i in range(1, self.index.n_rows + 1)
        ]

    def copy(self) -> "PolygonalArray":
        return PolygonalArray(self.index, dict(self.entries))

    def __getitem__(self, cell: Cell):
        return self.entries[cell]


@dataclass
class TypeVectors:
    row_type: List[object]
    col_type: List[object]


# ---------------------------------------------------------------------------
# local moves
# ---------------------------------------------------------------------------


def _local_move_inplace(entries: Dict[Cell, object], i: int, j: int) -> None:
    if i == 1 and j == 1:
        return
    if i == 1:
        entries[(1, j)] = entries[(1, j - 1)] * entries[(1, j)]
        return
    if j == 1:
        entries[(i, 1)] = entries[(i - 1, 1)] * entries[(i, 1)]
        return
    a = entries[(i - 1, j - 1)]
    b = entries[(i - 1, j)]
    c = entries[(i, j - 1)]
    d = entries[(i, j)]
    entries[(i - 1, j - 1)] = b * c / (a * (b + c))
    entries[(i, j)] = d * (b + c)


def local_move(X: PolygonalArray, i: int, j: int) -> PolygonalArray:
    """Apply the local move l_ij; returns a new array, input untouched."""
    if (i, j) not in X.index:
        raise IndexError(f"({i},{j}) outside the index set")
    out = X.copy()
    _local_move_inplace(out.entries, i, j)
    return out


def _rho_inplace(entries: Dict[Cell, object], i: int, j: int) -> None:
    """Chain of local moves along the north-west diagonal ending at (i,j).

    Applies l_{i,j}, then l_{i-1,j-1}, ... until a border cell is reached.
    """
    while i >= 1 and j >= 1:
        _local_move_inplace(entries, i, j)
        if i == 1 or j == 1:
            break
        i -= 1
        j -= 1


def rho(X: PolygonalArray, i: int, j: int) -> PolygonalArray:
    """The diagonal composition rho^i_j of local moves."""
    if (i, j) not in X.index:
        raise IndexError(f"({i},{j}) outside the index set")
    out = X.copy()
    _rho_inplace(out.entries, i, j)
    return out


# ---------------------------------------------------------------------------
# gRSK and gPNG
# ---------------------------------------------------------------------------


def _chains(W: PolygonalArray, order) -> PolygonalArray:
    """Apply the chains rho^i_j over every cell of W, in the given order.

    Two chains from incomparable cells lie on diagonals at least 2 apart,
    so neither reads a cell the other writes: every order in which (i,j)
    comes after each (i',j') <= (i,j) gives the same array."""
    out = W.copy()
    for i, j in order:
        _rho_inplace(out.entries, i, j)
    return out


def grsk(W: PolygonalArray) -> PolygonalArray:
    """Geometric RSK of a polygonal array.

    Rows are inserted top to bottom; inserting row a applies the diagonal
    chains rho^a_1, ..., rho^a_{j*(a)}.  On a staircase shape the chains of
    row a only touch cells on or below the north-west diagonal through
    (a, j*(a)), which is exactly the restricted action required for
    polygonal inputs; for rectangular W this is the usual matrix gRSK.
    """
    return _chains(W, W.index.cells())


def gpng(W: PolygonalArray) -> PolygonalArray:
    """Geometric PNG of a polygonal array: the same chains as grsk, in
    time-ordered (anti-diagonal) sweeps, i+j ascending, then i ascending.

    The result equals grsk(W); the identity is asserted by the test suite,
    it is not used here.  On the order-n triangle the anti-diagonal entries
    h_{ij}, i+j = n+1, are the point-to-point partition functions Z_{ij}.
    """
    return _chains(W, sorted(W.index.cells(), key=lambda c: (c[0] + c[1], c[0])))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def energy(T) -> object:
    """E(T) = 1/t_11 + sum over cells of (t_{i-1,j} + t_{i,j-1}) / t_{ij},
    with out-of-shape neighbours counted as 0."""
    entries = T.entries
    if (1, 1) not in entries:
        raise ValueError("t_11 is required")
    total = 1 / entries[(1, 1)]
    for (i, j), v in entries.items():
        up = entries.get((i - 1, j))
        left = entries.get((i, j - 1))
        if up is None and left is None:
            continue
        neigh = up if left is None else (left if up is None else up + left)
        total = total + neigh / v
    return total


def type_vectors(T: PolygonalArray) -> TypeVectors:
    """Anti-diagonal quotient products of the output array.

    col_type[j-1] = prod_{r} t_{i*-r, j-r} / prod_{r} t_{i*-r, j-1-r} with
    i* = i*(j), and symmetrically for rows; when T = grsk(W) these equal the
    column/row products of the input weights.
    """
    index = T.index

    def col_tau(j: int):
        istar = index.col_length(j)
        num = _antidiag_product(T, istar, j)
        if j == 1:
            return num
        return num / _antidiag_product(T, istar, j - 1)

    def row_tau(i: int):
        jstar = index.row_length(i)
        num = _antidiag_product(T, i, jstar)
        if i == 1:
            return num
        return num / _antidiag_product(T, i - 1, jstar)

    col = [col_tau(j) for j in range(1, index.n_cols + 1)]
    row = [row_tau(i) for i in range(1, index.n_rows + 1)]
    return TypeVectors(row_type=row, col_type=col)


def _antidiag_product(T, p: int, q: int):
    """prod_{r=0}^{(p^q)-1} t_{p-r, q-r}."""
    prod = None
    for r in range(min(p, q)):
        v = T.entries[(p - r, q - r)]
        prod = v if prod is None else prod * v
    return prod


def gpng_antidiagonal_products(H: PolygonalArray, p: int, q: int):
    """prod_{r=0}^{(p^q)-1} h_{p-r,q-r} for a boundary cell (p,q): inside
    the index set, with (p+1,q+1) outside it (on the order-n triangle,
    p+q in {n, n+1}).  Equals the product of all input weights in the
    [1,p] x [1,q] rectangle when H is a gPNG output."""
    if (p, q) not in H.index or (p + 1, q + 1) in H.index:
        raise ValueError(f"(p,q)=({p},{q}) must lie in the index set "
                         f"with ({p + 1},{q + 1}) outside it")
    return _antidiag_product(H, p, q)
