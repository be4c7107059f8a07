"""Exact combinatorial identities of the local-move maps.

Most expected values are computed with exact rational arithmetic
(fractions.Fraction) so there is no tolerance to argue about; double
precision variants are covered by the acceptance suite.
"""
import math
import random
from fractions import Fraction

import pytest

from grsklab import arrays, oracle
from grsklab.arrays import (
    IndexSet,
    PolygonalArray,
    energy,
    gpng,
    gpng_antidiagonal_products,
    grsk,
    local_move,
    rho,
    type_vectors,
)


def frac_array(rows):
    return PolygonalArray.from_rows(
        [[Fraction(v) for v in row] for row in rows]
    )


def rand_rows(shape_rows, rng, rational=True):
    out = []
    for n in shape_rows:
        if rational:
            out.append([Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
        else:
            out.append([rng.uniform(0.2, 3.0) for _ in range(n)])
    return out


# ---------------------------------------------------------------------------
# local moves
# ---------------------------------------------------------------------------


def test_local_move_identity_at_origin():
    X = frac_array([[2, 3], [5, 7]])
    assert local_move(X, 1, 1).entries == X.entries


def test_local_move_border_row():
    X = frac_array([[2, 3], [5, 7]])
    Y = local_move(X, 1, 2)
    assert Y.entries[(1, 2)] == 6
    assert Y.entries[(1, 1)] == 2
    # input untouched (pure API)
    assert X.entries[(1, 2)] == 3


def test_local_move_border_col():
    X = frac_array([[2, 3], [5, 7]])
    Y = local_move(X, 2, 1)
    assert Y.entries[(2, 1)] == 10


def test_local_move_interior_formula():
    # (a,b;c,d) -> (bc/(a(b+c)), b; c, d(b+c))
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    X = frac_array([[a, b], [c, d]])
    Y = local_move(X, 2, 2)
    assert Y.entries[(1, 1)] == b * c / (a * (b + c))
    assert Y.entries[(1, 2)] == b
    assert Y.entries[(2, 1)] == c
    assert Y.entries[(2, 2)] == d * (b + c)


def test_local_move_sequence_all_ones():
    # l_22 after l_21 after l_12 on unit entries gives ((1/2,1),(1,2))
    X = frac_array([[1, 1], [1, 1]])
    Y = local_move(local_move(local_move(X, 1, 2), 2, 1), 2, 2)
    assert Y.rows() == [[Fraction(1, 2), 1], [1, 2]]


def test_local_move_out_of_range():
    X = frac_array([[1, 1], [1, 1]])
    with pytest.raises(IndexError):
        local_move(X, 3, 1)


def test_rho_is_identity_at_origin():
    X = frac_array([[2, 3], [5, 7]])
    assert rho(X, 1, 1).entries == X.entries


def test_rho_composition_matches_grsk_2x2():
    X = frac_array([[1, 1], [1, 1]])
    Y = rho(rho(rho(rho(X, 1, 1), 1, 2), 2, 1), 2, 2)
    assert Y.entries == grsk(X).entries
    assert Y.rows() == [[Fraction(1, 2), 1], [1, 2]]


def test_distant_local_moves_commute():
    # l_ij and l_i'j' commute when |i-i'| + |j-j'| > 2
    rng = random.Random(7)
    X = frac_array(rand_rows([4, 4, 4, 4], rng))
    pairs = [((2, 2), (4, 4)), ((1, 3), (4, 2)), ((2, 1), (3, 4))]
    for (i1, j1), (i2, j2) in pairs:
        assert abs(i1 - i2) + abs(j1 - j2) > 2
        A = local_move(local_move(X, i1, j1), i2, j2)
        B = local_move(local_move(X, i2, j2), i1, j1)
        assert A.entries == B.entries


# ---------------------------------------------------------------------------
# gRSK
# ---------------------------------------------------------------------------


def test_grsk_2x2_all_ones():
    T = grsk(frac_array([[1, 1], [1, 1]]))
    assert T.rows() == [[Fraction(1, 2), 1], [1, 2]]
    assert T.entries[(2, 2)] == 2  # two down-right paths


def test_grsk_1x1_identity():
    W = frac_array([[Fraction(5, 3)]])
    assert grsk(W).entries == W.entries


def test_grsk_corner_is_partition_function_rect():
    rng = random.Random(11)
    for shape in [(2, 2), (3, 3), (2, 4), (4, 3), (5, 5)]:
        rows = rand_rows([shape[1]] * shape[0], rng)
        W = frac_array(rows)
        T = grsk(W)
        assert T.entries[shape] == oracle.partition_function(W, *shape)


def test_grsk_polygonal_corners():
    rng = random.Random(13)
    for _ in range(10):
        W = frac_array(rand_rows([3, 3, 1], rng))  # corners (2,3),(3,1)
        assert W.index.corners == ((2, 3), (3, 1))
        T = grsk(W)
        assert T.entries[(2, 3)] == oracle.partition_function(W, 2, 3)
        assert T.entries[(3, 1)] == oracle.partition_function(W, 3, 1)


def test_grsk_polygonal_three_blocks():
    rng = random.Random(17)
    for _ in range(5):
        W = frac_array(rand_rows([4, 4, 2, 2, 1], rng))  # corners (2,4),(4,2),(5,1)
        T = grsk(W)
        for m, n in W.index.corners:
            assert T.entries[(m, n)] == oracle.partition_function(W, m, n)


def test_grsk_nonintersecting_tuples():
    # prod_r t_{m-r,n-r} equals the r-tuple non-intersecting path sum
    rng = random.Random(19)
    W = frac_array(rand_rows([3, 3, 3], rng))
    T = grsk(W)
    for r in range(1, 4):
        prod = Fraction(1)
        for k in range(r):
            prod *= T.entries[(3 - k, 3 - k)]
        assert prod == oracle.nonintersecting_sum(W, 3, 3, r)


# ---------------------------------------------------------------------------
# gPNG
# ---------------------------------------------------------------------------


def random_staircase_rows(rng, max_corners=3, max_side=5):
    """Row lengths of a random staircase shape with <= max_corners corners."""
    while True:
        lengths = sorted((rng.randint(1, max_side)
                          for _ in range(rng.randint(1, max_side))), reverse=True)
        if len(set(lengths)) <= max_corners:
            return lengths


def test_gpng_matrix_equals_grsk():
    rng = random.Random(23)
    for n in range(1, 5):
        W = frac_array(rand_rows([n] * n, rng))
        assert gpng(W).entries == grsk(W).entries


def test_gpng_equals_grsk_on_staircases():
    # exact equality: the anti-diagonal sweep and the row-major insertion
    # apply the same chains in two orders that both respect the cell order
    rng = random.Random(24)
    # non-square rectangles, triangles, then random shapes of <= 3 corners
    shapes = [[3, 3], [2, 2, 2, 2], [5], [1, 1, 1], [3, 2, 1], [4, 3, 2, 1],
              [5, 5, 3, 3, 2], [4, 2, 1], [3, 3, 3]]
    shapes += [random_staircase_rows(rng) for _ in range(30)]
    for shape in shapes:
        W = frac_array(rand_rows(shape, rng))
        assert gpng(W).entries == grsk(W).entries


def test_triangle_rows_infer_unit_step_corners():
    W = PolygonalArray.from_rows([[1, 1, 1], [1, 1], [1]])
    assert W.index.corners == ((1, 3), (2, 2), (3, 1))


def test_gpng_triangular_n1_identity():
    W = PolygonalArray.from_rows([[Fraction(3, 2)]])
    assert gpng(W).entries == W.entries


def test_gpng_triangular_n2_all_ones():
    W = PolygonalArray.from_rows([[1, 1], [1]])
    H = gpng(W)
    assert H.entries[(1, 2)] == 1
    assert H.entries[(2, 1)] == 1


def test_gpng_triangular_antidiagonal_partition_functions():
    rng = random.Random(29)
    for n in [3, 4, 5]:
        W = PolygonalArray.from_rows(rand_rows(list(range(n, 0, -1)), rng))
        H = gpng(W)
        for i in range(1, n + 1):
            j = n + 1 - i
            assert H.entries[(i, j)] == oracle.partition_function(W, i, j)


def rectangle_product(W, p, q):
    want = Fraction(1)
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            want *= W.entries[(i, j)]
    return want


def test_gpng_antidiagonal_products():
    rng = random.Random(31)
    for n, pq_list in [(2, [(1, 1)]), (3, [(2, 2), (1, 2), (2, 1)]), (5, [(3, 2), (2, 3), (3, 3)])]:
        W = PolygonalArray.from_rows(rand_rows(list(range(n, 0, -1)), rng))
        H = gpng(W)
        for p, q in pq_list:
            assert gpng_antidiagonal_products(H, p, q) == rectangle_product(W, p, q)


def test_gpng_antidiagonal_products_on_staircase():
    # every boundary cell of a non-triangular staircase: (p,q) inside,
    # (p+1,q+1) outside
    rng = random.Random(32)
    for shape in [[5, 5, 3, 3, 2], [4, 4, 4], [3, 1]]:
        W = frac_array(rand_rows(shape, rng))
        H = gpng(W)
        for p, q in W.index.cells():
            if (p + 1, q + 1) not in W.index:
                assert gpng_antidiagonal_products(H, p, q) == rectangle_product(W, p, q)
            else:
                with pytest.raises(ValueError):
                    gpng_antidiagonal_products(H, p, q)


def test_gpng_antidiagonal_products_rejects_bad_pq():
    H = gpng(PolygonalArray.from_rows([[1, 1], [1]]))
    with pytest.raises(ValueError):
        gpng_antidiagonal_products(H, 2, 2)  # p+q=4 not in {2,3}


# ---------------------------------------------------------------------------
# energy and type
# ---------------------------------------------------------------------------


def test_energy_1x1():
    W = frac_array([[Fraction(4, 7)]])
    assert energy(W) == Fraction(7, 4)


def test_energy_2x2_all_ones():
    T = grsk(frac_array([[1, 1], [1, 1]]))
    assert energy(T) == 4  # = sum of 1/w_ij over unit weights


def test_energy_identity_random_shapes():
    rng = random.Random(37)
    shapes = [[3, 3, 3], [4, 4, 4, 4], [4, 4, 2, 2], [4, 2, 1]]
    for shape in shapes:
        W = frac_array(rand_rows(shape, rng))
        want = sum(1 / v for v in W.entries.values())
        assert energy(grsk(W)) == want


def test_energy_identity_gpng():
    rng = random.Random(41)
    for n in [2, 3, 4]:
        W = PolygonalArray.from_rows(rand_rows(list(range(n, 0, -1)), rng))
        want = sum(1 / v for v in W.entries.values())
        assert energy(gpng(W)) == want


def test_type_vectors_1x1():
    W = frac_array([[Fraction(5, 2)]])
    tv = type_vectors(W)
    assert tv.row_type == [Fraction(5, 2)]
    assert tv.col_type == [Fraction(5, 2)]


def test_type_vectors_2x2_all_ones():
    T = grsk(frac_array([[1, 1], [1, 1]]))
    tv = type_vectors(T)
    assert tv.col_type == [1, 1]
    assert tv.row_type == [1, 1]


def test_type_vectors_random_matrix():
    rng = random.Random(43)
    W = frac_array(rand_rows([5, 5, 5], rng))
    T = grsk(W)
    tv = type_vectors(T)
    for j in range(1, 6):
        want = Fraction(1)
        for i in range(1, 4):
            want *= W.entries[(i, j)]
        assert tv.col_type[j - 1] == want
    for i in range(1, 4):
        want = Fraction(1)
        for j in range(1, 6):
            want *= W.entries[(i, j)]
        assert tv.row_type[i - 1] == want


def test_type_vectors_polygonal():
    rng = random.Random(47)
    W = frac_array(rand_rows([4, 4, 2], rng))  # corners (2,4),(3,2)
    T = grsk(W)
    tv = type_vectors(T)
    index = W.index
    for j in range(1, 5):
        want = Fraction(1)
        for i in range(1, index.col_length(j) + 1):
            want *= W.entries[(i, j)]
        assert tv.col_type[j - 1] == want
    for i in range(1, 4):
        want = Fraction(1)
        for j in range(1, index.row_length(i) + 1):
            want *= W.entries[(i, j)]
        assert tv.row_type[i - 1] == want


# ---------------------------------------------------------------------------
# volume preservation and tropical limit
# ---------------------------------------------------------------------------


def test_jacobian_grsk_3x3():
    rng = random.Random(53)
    W = PolygonalArray.from_rows(rand_rows([3, 3, 3], rng, rational=False))
    det = oracle.numeric_jacobian_logdet(grsk, W, h=1e-5)
    assert abs(det - 1.0) <= 1e-6


def test_jacobian_gpng_triangular():
    rng = random.Random(59)
    W = PolygonalArray.from_rows(rand_rows([4, 3, 2, 1], rng, rational=False))
    det = oracle.numeric_jacobian_logdet(gpng, W, h=1e-5)
    assert abs(det - 1.0) <= 1e-6


def test_jacobian_identity_map():
    rng = random.Random(61)
    W = PolygonalArray.from_rows(rand_rows([2, 2], rng, rational=False))
    det = oracle.numeric_jacobian_logdet(lambda X: X, W, h=1e-5)
    # exact up to float rounding of exp/log in the finite differences
    assert det == pytest.approx(1.0, abs=1e-9)


def test_tropical_limit_matches_last_passage():
    import mpmath

    rng = random.Random(67)
    rows = [[rng.uniform(0.0, 2.0) for _ in range(3)] for _ in range(3)]
    W = PolygonalArray.from_rows(rows)
    tau = oracle.last_passage(W, 3, 3)
    gaps = []
    with mpmath.workdps(60):
        for eps in (1e-2, 1e-4):
            Wexp = PolygonalArray.from_rows(
                [[mpmath.exp(v / eps) for v in row] for row in rows]
            )
            T = grsk(Wexp)
            val = eps * mpmath.log(T.entries[(3, 3)])
            gaps.append(abs(float(val) - tau))
    # the correction term eps*log(1 + sum e^{-gap/eps}) underflows fast, so
    # the smaller eps can only tie (both gaps at rounding level), never lose
    assert gaps[1] <= gaps[0]
    assert gaps[1] < 1e-3


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet([(2, 3), (1, 5)])  # m not increasing
    with pytest.raises(ValueError):
        IndexSet([(2, 3), (3, 3)])  # n not decreasing
    ix = IndexSet([(2, 3), (3, 1)])
    assert (2, 3) in ix and (3, 1) in ix and (3, 2) not in ix
    assert ix.row_length(3) == 1 and ix.col_length(1) == 3 and ix.col_length(2) == 2


def test_polygonal_array_rejects_nonpositive():
    with pytest.raises(ValueError):
        PolygonalArray.from_rows([[1.0, -2.0], [1.0, 1.0]])
