"""Brute-force references: path sums, non-intersecting tuples, last passage,
numeric Jacobians.  Everything here is deliberately naive; it is the ground
truth the fast implementations are tested against.
"""
from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from .arrays import PolygonalArray

Cell = Tuple[int, int]

# hard cap on states visited during tuple enumeration (desk-scale oracle)
ENUMERATION_CAP = 10**7


class EnumerationCapExceeded(RuntimeError):
    pass


def _check_rect(W, m: int, n: int) -> None:
    entries = W.entries
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if (i, j) not in entries:
                raise IndexError(f"rectangle [1,{m}]x[1,{n}] not inside the array")


def partition_function(W, m: int, n: int):
    """Z_{m,n} = sum over down-right paths (1,1)->(m,n) of the product of
    weights, by the DP  Z_ij = w_ij (Z_{i-1,j} + Z_{i,j-1})."""
    _check_rect(W, m, n)
    Z = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            w = W.entries[(i, j)]
            if i == 1 and j == 1:
                Z[(1, 1)] = w
            else:
                s = Z.get((i - 1, j), 0) + Z.get((i, j - 1), 0)
                Z[(i, j)] = w * s
    return Z[(m, n)]


def last_passage(W, m: int, n: int):
    """tau_{m,n} = max over down-right paths of the sum of weights."""
    _check_rect(W, m, n)
    T = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            w = W.entries[(i, j)]
            if i == 1 and j == 1:
                T[(1, 1)] = w
            else:
                best = None
                for prev in ((i - 1, j), (i, j - 1)):
                    if prev in T:
                        best = T[prev] if best is None else max(best, T[prev])
                T[(i, j)] = w + best
    return T[(m, n)]


def enumerate_paths(source: Cell, sink: Cell) -> List[Tuple[Cell, ...]]:
    """All down-right paths from source to sink (inclusive)."""
    si, sj = source
    ti, tj = sink
    if ti < si or tj < sj:
        return []
    out: List[Tuple[Cell, ...]] = []

    def rec(i, j, acc):
        if (i, j) == (ti, tj):
            out.append(tuple(acc + [(i, j)]))
            return
        if i < ti:
            rec(i + 1, j, acc + [(i, j)])
        if j < tj:
            rec(i, j + 1, acc + [(i, j)])

    rec(si, sj, [])
    return out


def path_sum(W, m: int, n: int):
    """partition_function by explicit enumeration (cross-check only)."""
    total = 0
    for path in enumerate_paths((1, 1), (m, n)):
        prod = 1
        for cell in path:
            prod = prod * W.entries[cell]
        total = total + prod
    return total


def nonintersecting_sum(W, m: int, n: int, r: int):
    """Sum over r-tuples of pairwise vertex-disjoint down-right paths with
    sources (1,1)..(1,r) and sinks (m,n-r+1)..(m,n) of the product of all
    weights on the union of the paths.

    Backtracking over one path at a time with vertex-occupancy pruning;
    aborts with EnumerationCapExceeded past ENUMERATION_CAP visited states.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"r={r} out of range for ({m},{n})")
    _check_rect(W, m, n)
    path_lists = [
        enumerate_paths((1, k), (m, n - r + k)) for k in range(1, r + 1)
    ]
    entries = W.entries
    states = 0
    total = 0

    def rec(k: int, occupied: set, prod):
        nonlocal states, total
        states += 1
        if states > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"more than {ENUMERATION_CAP} states while enumerating tuples"
            )
        if k == r:
            total = total + prod
            return
        for path in path_lists[k]:
            if occupied.isdisjoint(path):
                p = prod
                for cell in path:
                    p = p * entries[cell]
                rec(k + 1, occupied | set(path), p)

    rec(0, set(), 1)
    return total


def numeric_jacobian_logdet(
    mapping: Callable[[object], object],
    W,
    h: float = 1e-5,
) -> float:
    """|det| of the Jacobian of (log w) -> (log t) for an array-to-array map,
    by central differences with step h on each log-coordinate.
    """
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("h must lie in [1e-7, 1e-4]")

    cells = sorted(W.entries)
    base = dict(W.entries)

    cols = []
    for cell in cells:
        up, dn = dict(base), dict(base)
        up[cell] = base[cell] * math.exp(h)
        dn[cell] = base[cell] * math.exp(-h)
        Tu = mapping(PolygonalArray(W.index, up)).entries
        Td = mapping(PolygonalArray(W.index, dn)).entries
        cols.append([(math.log(Tu[c]) - math.log(Td[c])) / (2 * h) for c in cells])
    # cols[j][i] = d log t_i / d log w_j
    det = _det(list(zip(*cols)))
    if det == 0.0:
        raise ArithmeticError("singular finite-difference Jacobian (bad step h?)")
    return abs(det)


def _det(M: Sequence[Sequence[float]]) -> float:
    """LU determinant with partial pivoting (no numpy dependency here)."""
    n = len(M)
    A = [list(map(float, row)) for row in M]
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(A[r][k]))
        if A[piv][k] == 0.0:
            return 0.0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for r in range(k + 1, n):
            f = A[r][k] / A[k][k]
            for c in range(k, n):
                A[r][c] -= f * A[k][c]
    return det
