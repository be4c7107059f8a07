"""Acceptance suite.

One test per acceptance criterion, at the stated tolerances and runtime
budgets:

1. combinatorial identity suite, >= 200 seeded inputs, relative 1e-12, < 60 s
2. volume preservation (numeric Jacobians), 1e-6, < 30 s
3. non-intersecting path identity, 20 seeds, relative 1e-10
4. one-point formula vs Monte Carlo (4 stderr at 1e6 samples) and vs the
   Fredholm determinant (1e-4), < 10 min
5. two-point formulas vs Monte Carlo (4 stderr at 1e6 samples); double
   series vs the closed two-point integral (1e-3)
6. special-function suite (Stade, Plancherel, gamma asymptotics, block
   Cauchy, Airy ODE)
7. Airy process suite (marginal reduction, stationarity, decorrelation,
   limit terms vs kernel route)
8. asymptotic diagnostic: the prelimit-vs-limit gap shrinks from N = 8 to
   N = 16 (monotonicity only)
"""
import math
import random
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from grsklab import arrays, oracle
from grsklab.airy import airy_two_point, airy_two_point_series, limit_term
from grsklab.arrays import PolygonalArray
from grsklab.contour import (
    bcr_fredholm,
    block_cauchy_check,
    joint_series_term,
    laplace1,
    laplace2_case_a,
    laplace2_case_b,
    prelimit_term,
)
from grsklab.quadrature import gl_panels
from grsklab.sampling import ParameterSet, mc_laplace
from grsklab.specfun import airy_ai, log_gamma, scaling_constants, stade_check

SQRT_2PI = math.sqrt(2.0 * math.pi)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def random_polygonal_rows(rng, max_corners=3, max_cells=16, max_side=5):
    """Row lengths of a random staircase shape with <= max_corners corners
    and <= max_cells cells."""
    while True:
        n_rows = rng.randint(1, max_side)
        lengths = sorted(
            (rng.randint(1, max_side) for _ in range(n_rows)), reverse=True
        )
        k = len(set(lengths))
        if k <= max_corners and sum(lengths) <= max_cells:
            return lengths


def check_array_identities(W, T):
    """Corner partition functions, energy, and type identities, rel 1e-12."""
    worst = 0.0
    for (m, n) in T.index.corners:
        worst = max(worst, rel(T[(m, n)], oracle.partition_function(W, m, n)))
    want_energy = sum(1.0 / v for v in W.entries.values())
    worst = max(worst, rel(arrays.energy(T), want_energy))
    tv = arrays.type_vectors(T)
    index = W.index
    for j in range(1, index.n_cols + 1):
        want = 1.0
        for i in range(1, index.col_length(j) + 1):
            want *= W.entries[(i, j)]
        worst = max(worst, rel(tv.col_type[j - 1], want))
    for i in range(1, index.n_rows + 1):
        want = 1.0
        for j in range(1, index.row_length(i) + 1):
            want *= W.entries[(i, j)]
        worst = max(worst, rel(tv.row_type[i - 1], want))
    return worst


def tw_gue_cdf_oracle(s, n=240, cut=12.0):
    """F_2(s) by an independent scipy-based Nystrom determinant."""
    x, w = gl_panels(s, s + cut, n, 4)
    u, wu = gl_panels(0.0, 40.0, 400, 8)
    A = scipy.special.airy(x[:, None] + u[None, :])[0]
    K = np.einsum("u,iu,ju->ij", wu, A, A)
    return float(np.linalg.det(np.eye(len(x)) - K * w[None, :]))


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------


def test_criterion_1_combinatorial_suite():
    t0 = time.monotonic()
    rng = random.Random(12345)
    worst = 0.0
    n_inputs = 0

    # matrices up to 5x5
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.uniform(0.2, 3.0) for _ in range(n)] for _ in range(m)]
        W = PolygonalArray.from_rows(rows)
        T = arrays.grsk(W)
        worst = max(worst, check_array_identities(W, T))
        H = arrays.gpng(W)
        for c in T.index.cells():
            worst = max(worst, rel(H[c], T[c]))
        n_inputs += 1

    # polygonal shapes, k <= 3 corners, <= 16 cells
    for _ in range(50):
        lengths = random_polygonal_rows(rng)
        rows = [[rng.uniform(0.2, 3.0) for _ in range(l)] for l in lengths]
        W = PolygonalArray.from_rows(rows)
        T = arrays.grsk(W)
        worst = max(worst, check_array_identities(W, T))
        H = arrays.gpng(W)
        for c in T.index.cells():
            worst = max(worst, rel(H[c], T[c]))
        n_inputs += 1

    # triangles up to n = 6: anti-diagonal gPNG outputs are point-to-point
    # partition functions, and the energy identity holds
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = [[rng.uniform(0.2, 3.0) for _ in range(n - i)]
                for i in range(n)]
        W = PolygonalArray.from_rows(rows)
        H = arrays.gpng(W)
        for i in range(1, n + 1):
            j = n + 1 - i
            worst = max(
                worst, rel(H.entries[(i, j)],
                           oracle.partition_function(W, i, j))
            )
        want_energy = sum(1.0 / v for v in W.entries.values())
        worst = max(worst, rel(arrays.energy(H), want_energy))
        n_inputs += 1

    assert n_inputs >= 200
    assert worst <= 1e-12
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------


def test_criterion_2_volume_preservation():
    t0 = time.monotonic()
    rng = random.Random(777)

    def rand(shape_rows):
        return [[rng.uniform(0.2, 3.0) for _ in range(n)] for n in shape_rows]

    cases = [
        (arrays.grsk, PolygonalArray.from_rows(rand([3, 3, 3]))),
        (arrays.grsk, PolygonalArray.from_rows(rand([4, 4, 4, 4]))),
        (arrays.grsk, PolygonalArray.from_rows(rand([4, 4, 2]))),
        (arrays.gpng, PolygonalArray.from_rows(rand([3, 2, 1]))),
        (arrays.gpng, PolygonalArray.from_rows(rand([4, 3, 2, 1]))),
    ]
    for fn, W in cases:
        det = oracle.numeric_jacobian_logdet(fn, W, h=1e-5)
        assert abs(det - 1.0) <= 1e-6
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------


def test_criterion_3_nonintersecting_identity():
    rng = random.Random(999)
    worst = 0.0
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.uniform(0.2, 3.0) for _ in range(n)] for _ in range(m)]
        W = PolygonalArray.from_rows(rows)
        T = arrays.grsk(W)
        for r in range(1, min(m, n) + 1):
            prod = 1.0
            for k in range(r):
                prod *= T[(m - k, n - k)]
            ref = oracle.nonintersecting_sum(W, m, n, r)
            worst = max(worst, rel(prod, ref))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------


def test_criterion_4_one_point_formula():
    t0 = time.monotonic()
    seed = 0
    for (m, n) in [(1, 1), (2, 2), (3, 2)]:
        for g in (0.8, 1.5):
            a = [0.0] * m
            ah = [g] * n
            p = ParameterSet.flat(g, m, n)
            for u in (0.2, 1.0, 5.0):
                seed += 1
                val = laplace1(m, n, u, a, ah).real
                est = mc_laplace([(m, n)], [u], p, n_samples=10**6,
                                 seed=seed)
                assert abs(val - est.mean) <= 4 * est.stderr, (
                    f"laplace1 vs MC at {(m, n)}, gamma={g}, u={u}: "
                    f"z={(val - est.mean) / est.stderr:.2f}"
                )
                # the small-gamma circle needs more nodes than the
                # default before the determinant resolves to 1e-4
                kw = {"nodes_per_unit": 40.0, "length": 16.0}
                fine = laplace1(m, n, u, a, ah, **kw).real
                det = bcr_fredholm(m, n, u, a, ah, n_circle=256, **kw).real
                assert rel(det, fine) <= 1e-4, (
                    f"bcr vs laplace1 at {(m, n)}, gamma={g}, u={u}"
                )
    assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------


def test_criterion_5_two_point_formulas():
    g = 1.0
    # case a at (1,2),(2,1)
    u1 = u2 = 0.5
    val_a = laplace2_case_a(1, 2, 2, 1, u1, u2, [0.0, 0.0], [g, g], g).real
    est = mc_laplace([(1, 2), (2, 1)], [u1, u2], ParameterSet.flat(g, 2, 2),
                     n_samples=10**6, seed=51)
    assert abs(val_a - est.mean) <= 4 * est.stderr

    # case b at (1,4),(2,3)
    vb = laplace2_case_b(1, 4, 2, 3, 0.3, 0.3, [0.0, 0.0], [g] * 4, g).real
    est = mc_laplace([(1, 4), (2, 3)], [0.3, 0.3], ParameterSet.flat(g, 2, 4),
                     n_samples=10**6, seed=52)
    assert abs(vb - est.mean) <= 4 * est.stderr

    # double series vs the closed integral on the m1 = n2 = 1 geometry
    total = sum(
        joint_series_term(m, n, 1, 2, 2, 1, u1, u2, g).real
        for m in (0, 1)
        for n in (0, 1)
    )
    assert rel(total, val_a) <= 1e-3


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------


def test_criterion_6_special_functions():
    # Stade identity, ranks 1 and 2
    _, _, err1 = stade_check(1, [0.75], [0.75], 1.0)
    assert err1 <= 1e-4
    _, _, err2 = stade_check(2, [0.6, 0.8], [0.7, 0.9], 1.0)
    assert err2 <= 1e-4

    # rank-1 Plancherel isometry (the pairing identity at n = 1 with the
    # closed-form gamma value)
    lhs, rhs, errp = stade_check(1, [0.5], [1.0], 2.0)
    assert abs(rhs - 2.0 ** (-1.5) * math.gamma(1.5)) <= 1e-12
    assert errp <= 1e-4

    # gamma asymptotics ratio at |b| >= 30
    rng = random.Random(4)
    for _ in range(10):
        a = rng.uniform(-2.0, 3.0)
        b = rng.uniform(30.0, 200.0)
        val = abs(np.exp(log_gamma(a + 1j * b)))
        val *= math.exp(math.pi * b / 2) * b ** (0.5 - a)
        assert abs(val - SQRT_2PI) <= 1e-2 * SQRT_2PI

    # block Cauchy identity
    _, _, e11 = block_cauchy_check([0.3], [0.1], [0.35], [0.05], 1.0)
    assert e11 <= 1e-6
    _, _, e22 = block_cauchy_check(
        [0.30, 0.25], [0.10, 0.05], [0.35, 0.28], [0.08, 0.02], 1.0
    )
    assert e22 <= 1e-4

    # Airy ODE residual
    h = 2e-3
    for x in (-2.0, 0.0, 2.0):
        second = (airy_ai(x + h) - 2 * airy_ai(x) + airy_ai(x - h)) / h**2
        assert abs(second - x * airy_ai(x)) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------


def test_criterion_7_airy_suite():
    # equal-time reduction: a vacuous second threshold leaves the
    # one-point marginal
    one = airy_two_point(0.4, 0.4, 0.0, 8.0)
    assert abs(one - tw_gue_cdf_oracle(0.0)) <= 1e-6

    # stationarity
    base = airy_two_point(0.0, 0.9, -0.3, 0.4)
    shifted = airy_two_point(0.7, 1.6, -0.3, 0.4)
    assert abs(base - shifted) <= 1e-6

    # decorrelation at separation 6
    joint = airy_two_point(-3.0, 3.0, 0.0, 0.0)
    marg = tw_gue_cdf_oracle(0.0)
    assert abs(joint - marg**2) <= 5e-2

    # limit terms vs the kernel-route truncation, m + n <= 2
    g, t1, t2, r1, r2 = 1.0, 0.6, 0.5, 0.2, 0.1
    sc = scaling_constants(g)
    partial = airy_two_point_series(
        -sc.c3 * t1, sc.c3 * t2,
        sc.c1 * r1 + sc.c2 * t1**2, sc.c1 * r2 + sc.c2 * t2**2,
        order=2,
    )
    total = sum(
        limit_term(m, n, t1, t2, r1, r2, g)
        for m in range(3)
        for n in range(3 - m)
    )
    assert abs(total - partial[-1]) <= 1e-3


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------


def test_criterion_8_asymptotic_gap_shrinks():
    g, t = 1.0, 0.5
    for (m, n) in [(1, 0), (0, 1)]:
        lim = limit_term(m, n, t, t, 0.0, 0.0, g)
        gap8 = abs(prelimit_term(m, n, 8, g, t, t).real - lim)
        gap16 = abs(prelimit_term(m, n, 16, g, t, t).real - lim)
        assert gap16 < gap8, (
            f"gap did not shrink for {(m, n)}: {gap8:.3e} -> {gap16:.3e}"
        )
