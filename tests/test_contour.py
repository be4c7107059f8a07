"""Contour-integral formula tests.

Each Laplace-transform formula is checked against an independent route:
direct 1-D density quadrature for the single-cell case, Monte Carlo for
the multi-point cases, the Fredholm determinant against the line-integral
form, the double series against the closed two-point integral, and the
semi-discrete (Brownian) formula against a Gaussian quadrature oracle and
the scaling link to the lattice formula.  Heavier high-precision versions
of these cross-checks live in the acceptance suite.
"""
import math

import mpmath
import numpy as np
import pytest

from grsklab import specfun
from grsklab.contour import (
    ContourSpec,
    _contract,
    _safe_sin_pi,
    _sklyanin_pair,
    bcr_fredholm,
    block_cauchy_check,
    circle,
    default_contours,
    fub_bound_margin,
    integrate,
    integrate_with_refinement,
    joint_series_term,
    laplace1,
    laplace2_case_a,
    laplace2_case_b,
    oy_laplace2,
    prelimit_sum,
    prelimit_term,
    scaled_points,
    scaled_u,
    vertical_line,
)
from grsklab.quadrature import QuadratureSpec, gl_nodes
from grsklab.sampling import ParameterSet, mc_laplace


# ---------------------------------------------------------------------------
# contours and quadrature plumbing
# ---------------------------------------------------------------------------


def test_contour_validation():
    with pytest.raises(ValueError):
        ContourSpec(kind="banana")
    with pytest.raises(ValueError):
        ContourSpec(kind="circle", radius=0.0)
    with pytest.raises(ValueError):
        ContourSpec(kind="line", length=-1.0)
    with pytest.raises(ValueError):
        ContourSpec(kind="polyline", points=(1.0,))
    with pytest.raises(ValueError):
        ContourSpec(kind="line", n_nodes=2)


@pytest.mark.parametrize("kw", [
    {"kind": "line", "length": math.nan},
    {"kind": "line", "length": math.inf},
    {"kind": "line", "delta": math.nan},
    {"kind": "line", "delta": -math.inf},
    {"kind": "circle", "radius": math.nan},
    {"kind": "circle", "radius": math.inf},
    {"kind": "circle", "radius": 1.0, "center": complex(0.0, math.nan)},
])
def test_contour_rejects_non_finite_geometry(kw):
    with pytest.raises(ValueError, match="finite"):
        ContourSpec(**kw)


def test_evaluators_reject_non_finite_geometry():
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0] * 2, [1.0] * 2, length=math.nan)
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0] * 2, [1.0] * 2, delta=math.inf)
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0] * 2, [1.0] * 2, delta=math.nan)
    with pytest.raises(ValueError):
        laplace2_case_a(1, 2, 2, 1, 0.5, 0.5, [0.0] * 2, [1.0] * 2, 1.0,
                        length=math.inf)
    with pytest.raises(ValueError):
        joint_series_term(1, 0, 1, 2, 2, 1, 1.0, 1.0, 1.0, length=math.nan)
    with pytest.raises(ValueError):
        oy_laplace2(1, 1.0, 2, 0.5, 1.0, 1.0, [0.0, 0.0], length=math.nan)


def test_circle_residue():
    # (1/2 pi i) int dz/z = winding number
    val = integrate(lambda z: 1.0 / z, circle(0.7))
    assert val == pytest.approx(2j * math.pi, abs=1e-12)


def test_line_integral_gaussian():
    # int_{ell_delta} e^{z^2} dz = i sqrt(pi): e^{z^2} decays like
    # e^{-y^2} on vertical lines, and the value is delta-independent
    for delta in (0.0, 0.4, 1.3):
        val = integrate(lambda z: np.exp(z**2),
                        vertical_line(delta, length=8.0, n_nodes=160))
        assert val == pytest.approx(1j * math.sqrt(math.pi), abs=1e-10)


def test_polyline_matches_line_segment():
    # straight polyline over the same endpoints reproduces the integral
    c = ContourSpec(kind="polyline", points=(0.5 - 6j, 0.5 + 6j), n_nodes=200)
    ref = integrate(lambda z: np.exp(z**2), vertical_line(0.5, 6.0, 200))
    val = integrate(lambda z: np.exp(z**2), c)
    assert val == pytest.approx(ref, abs=1e-10)


def test_integrate_rejects_nonfinite():
    with pytest.raises(ValueError):
        integrate(lambda z: np.full_like(z, np.inf), circle(1.0))


def test_refinement_error_estimate():
    val, err = integrate_with_refinement(
        lambda z: np.exp(z**2), vertical_line(0.2, 8.0, 64)
    )
    assert val == pytest.approx(1j * math.sqrt(math.pi), abs=1e-8)
    assert err < 1e-8


def test_default_contours_ordering():
    d = default_contours(1.0)
    assert 0 < d.delta1 < d.delta < 0.5
    assert d.delta_prime > d.delta
    with pytest.raises(ValueError):
        default_contours(-1.0)


# ---------------------------------------------------------------------------
# one-point transform
# ---------------------------------------------------------------------------


def test_laplace1_single_cell_vs_density_quadrature():
    # E[e^{-u w}] for one inverse-gamma cell of shape a = alpha + alphahat:
    # substitute g = 1/w and integrate the Gamma(a) density directly
    a0, ah0, u = 0.2, 0.9, 1.3
    a = a0 + ah0
    # log substitution g = e^y removes the algebraic endpoint at g = 0
    y, wy = gl_nodes(-40.0, 6.0, 800)
    g = np.exp(y)
    ref = float(np.sum(np.exp(-u / g) * g**a * np.exp(-g) * wy))
    ref /= math.gamma(a)
    val = laplace1(1, 1, u, [a0], [ah0])
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(ref, rel=1e-7)


def test_laplace1_contour_independence():
    # farther-right lines need denser nodes and a longer window before the
    # gamma-product envelope is resolved, so fix a generous quadrature
    q = QuadratureSpec(nodes_per_unit=40.0)
    vals = [laplace1(2, 2, 1.0, [0.0, 0.1], [1.0, 0.9], delta=d,
                     length=20.0, quad=q)
            for d in (1.3, 1.5, 1.9)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)


def test_laplace1_u_limits():
    assert laplace1(2, 1, 0.0, [0.0, 0.0], [1.0]) == 1.0
    small = laplace1(2, 1, 0.1, [0.0, 0.0], [1.0]).real
    big = laplace1(2, 1, 20.0, [0.0, 0.0], [1.0]).real
    assert 0 < big < small < 1


def test_laplace1_validation():
    with pytest.raises(ValueError):
        laplace1(1, 2, 1.0, [0.0], [1.0, 1.0])  # m < n
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0], [1.0, 1.0])  # wrong alpha count
    with pytest.raises(ValueError):
        laplace1(2, 2, -1.0, [0.0, 0.0], [1.0, 1.0])  # negative u
    with pytest.raises(ValueError):
        laplace1(4, 4, 1.0, [0.0] * 4, [1.0] * 4)  # dimension cap
    with pytest.raises(ValueError):
        # contour left of the alphahat poles
        laplace1(2, 2, 1.0, [0.0, 0.0], [1.0, 1.0], delta=0.5)


def test_laplace1_vs_mc_quick():
    val = laplace1(2, 2, 0.7, [0.0, 0.0], [1.2, 1.2]).real
    est = mc_laplace([(2, 2)], [0.7], ParameterSet.flat(1.2, 2, 2),
                     n_samples=2 * 10**5, seed=21)
    assert abs(val - est.mean) <= 4 * est.stderr


# ---------------------------------------------------------------------------
# Fredholm determinant form
# ---------------------------------------------------------------------------


def test_bcr_matches_laplace1():
    # at default resolution the two routes agree to ~1e-4 (the acceptance
    # tolerance); with a denser circle and line they match to ~1e-9
    q = QuadratureSpec(nodes_per_unit=40.0)
    for (m, n), u, g in [((1, 1), 0.5, 1.0), ((2, 2), 1.0, 1.0),
                         ((3, 2), 2.0, 1.5)]:
        a = [0.0] * m
        ah = [g] * n
        line = laplace1(m, n, u, a, ah, quad=q, length=16.0).real
        det = bcr_fredholm(m, n, u, a, ah, n_circle=256, quad=q,
                           length=16.0).real
        assert det == pytest.approx(line, rel=1e-8, abs=1e-10)


def test_bcr_rank_truncation():
    # the kernel has rank <= n, so orders beyond n add nothing
    a, ah = [0.0, 0.0], [1.0, 1.0]
    v2 = bcr_fredholm(2, 2, 1.0, a, ah, order=2)
    v5 = bcr_fredholm(2, 2, 1.0, a, ah, order=5)
    assert abs(v2 - v5) < 1e-12


def test_bcr_u_zero_and_validation():
    assert bcr_fredholm(2, 2, 0.0, [0.0, 0.0], [1.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        bcr_fredholm(2, 2, -1.0, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        # shifted alpha' = alpha + mean(alphahat) must be positive
        bcr_fredholm(2, 2, 1.0, [-2.0, 0.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# two-point transforms
# ---------------------------------------------------------------------------


def test_case_a_degenerate_u_limits():
    a, ah, g = [0.0, 0.0], [1.0, 1.0], 1.0
    # u1 = 0: reduces to the one-point value at (m2, n2)
    v = laplace2_case_a(1, 2, 2, 1, 0.0, 0.8, a, ah, g)
    ref = laplace1(2, 1, 0.8, a, ah[:1])
    assert v == pytest.approx(ref, rel=1e-10)
    # u2 = 0: reduces to the one-point value at (m1, n1) (transposed)
    v = laplace2_case_a(1, 2, 2, 1, 0.8, 0.0, a, ah, g)
    ref = laplace1(2, 1, 0.8, ah, a[:1])
    assert v == pytest.approx(ref, rel=1e-10)


def test_case_a_vs_mc_quick():
    g = 1.0
    val = laplace2_case_a(1, 2, 2, 1, 0.5, 0.5, [0.0, 0.0], [g, g], g).real
    est = mc_laplace([(1, 2), (2, 1)], [0.5, 0.5], ParameterSet.flat(g, 2, 2),
                     n_samples=2 * 10**5, seed=31)
    assert abs(val - est.mean) <= 4 * est.stderr


def test_case_b_vs_mc_quick():
    g = 1.0
    val = laplace2_case_b(1, 4, 2, 3, 0.3, 0.3, [0.0, 0.0], [g] * 4, g).real
    est = mc_laplace([(1, 4), (2, 3)], [0.3, 0.3], ParameterSet.flat(g, 2, 4),
                     n_samples=2 * 10**5, seed=41)
    assert abs(val - est.mean) <= 4 * est.stderr


def test_two_point_validation():
    g = 1.0
    a, ah = [0.0, 0.0], [g, g]
    with pytest.raises(ValueError):
        laplace2_case_a(2, 1, 1, 2, 0.5, 0.5, a, ah, g)  # not ordered
    with pytest.raises(ValueError):
        laplace2_case_a(1, 4, 2, 3, 0.5, 0.5, a, [g] * 4, g)  # m2 < n2
    with pytest.raises(ValueError):
        laplace2_case_b(1, 2, 2, 1, 0.5, 0.5, a, ah, g)  # m2 >= n2
    with pytest.raises(ValueError):
        laplace2_case_a(1, 2, 2, 1, 0.5, 0.5, a, ah, g, delta=0.6)
    with pytest.raises(ValueError):
        laplace2_case_a(1, 2, 2, 1, 0.5, 0.5, [0.5, 0.0], ah, g)  # |alpha|
    with pytest.raises(ValueError):
        laplace2_case_b(1, 4, 2, 3, 0.0, 0.5, a, [g] * 4, g)  # u1 = 0


def test_case_a_contour_independence():
    g = 1.0
    a, ah = [0.0, 0.0], [g, g]
    q = QuadratureSpec(nodes_per_unit=40.0)
    v1 = laplace2_case_a(1, 2, 2, 1, 0.7, 0.4, a, ah, g, delta=0.35, quad=q)
    v2 = laplace2_case_a(1, 2, 2, 1, 0.7, 0.4, a, ah, g, delta=0.45, quad=q)
    assert v1 == pytest.approx(v2, rel=1e-7)


# ---------------------------------------------------------------------------
# double series
# ---------------------------------------------------------------------------


def test_joint_series_sums_to_case_a():
    # on the m1 = n2 = 1 geometry the series truncates at m, n <= 1
    g = 1.0
    u1 = u2 = 0.5
    ref = laplace2_case_a(1, 2, 2, 1, u1, u2, [0.0, 0.0], [g, g], g).real
    total = sum(
        joint_series_term(m, n, 1, 2, 2, 1, u1, u2, g).real
        for m in (0, 1)
        for n in (0, 1)
    )
    assert abs(total - ref) / abs(ref) < 1e-3


def test_joint_series_term_validation():
    with pytest.raises(ValueError):
        joint_series_term(-1, 0, 1, 2, 2, 1, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        joint_series_term(2, 1, 1, 2, 2, 1, 0.5, 0.5, 1.0)  # m + n cap
    with pytest.raises(ValueError):
        joint_series_term(1, 0, 1, 2, 2, 1, 0.5, 0.5, 1.0, delta=0.6)
    assert joint_series_term(0, 0, 1, 2, 2, 1, 0.5, 0.5, 1.0) == 1.0


# ---------------------------------------------------------------------------
# block Cauchy identity
# ---------------------------------------------------------------------------


def test_block_cauchy_rank1():
    lhs, rhs, err = block_cauchy_check([0.3], [0.1], [0.35], [0.05], 1.0)
    assert err < 1e-6


def test_block_cauchy_rank2():
    lhs, rhs, err = block_cauchy_check(
        [0.30, 0.25], [0.10, 0.05], [0.35, 0.28], [0.08, 0.02], 1.0
    )
    assert err < 1e-4


def test_block_cauchy_complex_arguments():
    lhs, rhs, err = block_cauchy_check(
        [0.3 + 0.2j], [0.1 - 0.1j], [0.35 - 0.15j], [0.05 + 0.1j], 1.0
    )
    assert err < 1e-6


def test_block_cauchy_mixed_sizes():
    lhs, rhs, err = block_cauchy_check(
        [0.3], [0.1], [0.35, 0.28], [0.08, 0.02], 1.0
    )
    assert err < 1e-4


def test_block_cauchy_validation():
    with pytest.raises(ValueError):
        block_cauchy_check([0.6], [0.1], [0.3], [0.05], 1.0)  # Re >= gamma/2
    with pytest.raises(ValueError):
        block_cauchy_check([0.1], [0.3], [0.35], [0.05], 1.0)  # Re(w-v) <= 0
    with pytest.raises(ValueError):
        block_cauchy_check([0.3], [0.1, 0.2], [0.35], [0.05], 1.0)
    lhs, rhs, err = block_cauchy_check([], [], [], [], 1.0)
    assert (lhs, rhs, err) == (1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# semi-discrete (Brownian) two-point formula
# ---------------------------------------------------------------------------


def test_oy_one_point_vs_gaussian_quadrature():
    # with m1 = 0, m2 = 1 the formula is the Laplace transform of the
    # level-1 partition function Z = e^{B(t)} with drift -alpha:
    # E[e^{-u e^B}], B ~ N(-alpha t, t)
    t2, u2, a = 0.8, 0.6, 0.1
    x, wx = gl_nodes(-12.0, 12.0, 400)
    dens = np.exp(-((x + a * t2) ** 2) / (2 * t2)) / math.sqrt(
        2 * math.pi * t2
    )
    ref = float(np.sum(np.exp(-u2 * np.exp(x)) * dens * wx))
    val = oy_laplace2(0, t2 + 1.0, 1, t2, 0.0, u2, [a]).real
    assert val == pytest.approx(ref, rel=1e-6)


def test_oy_vs_lattice_scaling_link():
    # the log-gamma transform at points (m_i, N t_i) with all alphahat = N,
    # gamma = N, and u_i^N = u_i exp(N t_i log N - t_i / 2) converges to
    # the Brownian value as N grows; at N = 64 the gap is ~6e-3
    N = 64
    t1, t2 = 1.0, 0.5
    u1, u2 = 0.5, 0.8
    alpha = [0.1, -0.05]
    n1, n2 = round(N * t1), round(N * t2)
    u1N = u1 * math.exp(N * t1 * math.log(N) - t1 / 2)
    u2N = u2 * math.exp(N * t2 * math.log(N) - t2 / 2)
    oy = oy_laplace2(1, t1, 2, t2, u1, u2, alpha).real
    lg = laplace2_case_b(
        1, n1, 2, n2, u1N, u2N, alpha, [float(N)] * n1, gamma=float(N),
        delta=0.4, delta_prime=0.5, length=24.0,
        quad=QuadratureSpec(nodes_per_unit=60.0),
    ).real
    assert 0 < oy < 1
    assert abs(lg - oy) / abs(oy) < 5e-2


def test_oy_validation():
    with pytest.raises(ValueError):
        oy_laplace2(2, 1.0, 1, 0.5, 0.5, 0.5, [0.0])  # m1 >= m2
    with pytest.raises(ValueError):
        oy_laplace2(1, 0.5, 2, 1.0, 0.5, 0.5, [0.0, 0.0])  # t1 <= t2
    with pytest.raises(ValueError):
        oy_laplace2(1, 1.0, 2, 0.5, 0.5, 0.0, [0.0, 0.0])  # u2 = 0
    with pytest.raises(ValueError):
        oy_laplace2(1, 1.0, 2, 0.5, 0.5, 0.5, [0.5, 0.0])  # |alpha| >= delta
    assert oy_laplace2(1, 1.0, 2, 0.5, 0.0, 0.0, [0.0, 0.0]) == 1.0


# ---------------------------------------------------------------------------
# pre-limit terms
# ---------------------------------------------------------------------------


def test_scaled_points_and_u():
    assert scaled_points(2, 0.5, 0.5) == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        scaled_points(2, 2.0, 2.0)  # leaves the lattice
    # f_1 = -2 Psi(1/2) = 2 (gammaE + 2 log 2)
    f = 2.0 * (0.5772156649015329 + 2.0 * math.log(2.0))
    assert scaled_u(2, 1.0, 0.0) == pytest.approx(math.exp(-2.0 * f), rel=1e-12)
    assert scaled_u(2, 1.0, 1.0) < scaled_u(2, 1.0, 0.0)


def test_prelimit_sum_matches_case_a_anchor():
    # at N = 2, t = 0.5 the scaled points are (1,3), (3,1): the series
    # truncates at m, n <= 1 and must equal the closed two-point integral
    g, t = 1.0, 0.5
    u = scaled_u(2, g, 0.0)
    ref = laplace2_case_a(1, 3, 3, 1, u, u, [0.0] * 3, [g] * 3, g).real
    total = prelimit_sum(2, g, t, t).real
    assert abs(total - ref) / abs(ref) < 1e-4


def test_prelimit_term_matches_orthant_values():
    # the paper's tau/x orthant form, integrated by 1024-node
    # Gauss-Legendre per orthant axis; the joint-series term is the same
    # integral with those axes done in closed form
    g, t = 1.0, 0.5
    pins = {(1, 0, 2): -0.027293398234508583,
            (1, 0, 8): -0.026053436460265735,
            (1, 0, 16): -0.025443787747939657,
            (1, 1, 2): 0.002998209025934317}
    for (m, n, N), want in pins.items():
        got = prelimit_term(m, n, N, g, t, t)
        assert got.real == pytest.approx(want, rel=1e-6)
        assert abs(got.imag) < 1e-12
    # at t1 = t2 the two groups see the same geometry and u
    for N in (2, 8, 16):
        assert prelimit_term(0, 1, N, g, t, t) == pytest.approx(
            prelimit_term(1, 0, N, g, t, t), rel=1e-12)


def test_joint_series_term_resolves_scaled_u():
    # at the scaled points u^w oscillates with period 2 pi / |log u|; the
    # default line length follows the decay of the group, so the fixed node
    # count resolves it (references: 40 and 80 nodes per unit agree)
    g, t = 1.0, 0.5
    for N, want in ((16, -0.0254437877479), (24, -0.0246191304244)):
        pts = scaled_points(N, t, t)
        u = scaled_u(N, g, 0.0)
        got = joint_series_term(1, 0, *pts, u, u, g)
        assert got.real == pytest.approx(want, rel=1e-8)


def test_prelimit_term_validation():
    with pytest.raises(ValueError):
        prelimit_term(2, 1, 8, 1.0, 0.5, 0.5)  # m + n cap
    with pytest.raises(ValueError):
        prelimit_term(1, 0, 30, 1.0, 0.5, 0.5)  # N cap
    with pytest.raises(ValueError):
        prelimit_term(1, 0, 8, 1.0, 0.5, 0.5, delta=0.1, delta1=0.2)
    assert prelimit_term(0, 0, 8, 1.0, 0.5, 0.5) == 1.0


def test_fub_bound_margin_stays_bounded():
    # the decay bound must dominate the gamma part to exponential order:
    # the margin may pick up the polynomial/log Stirling corrections, so it
    # can creep up logarithmically, but it must grow sublinearly in |Im|
    ys = [2.0, 20.0, 80.0]
    ms = [
        fub_bound_margin(8, 1.0, 0.5, 0.5,
                         0.45 + 1j * y, 0.45 + 1j * y,
                         0.2 + 0.1j, 0.2 + 0.1j)
        for y in ys
    ]
    assert ms[2] - ms[0] <= 0.05 * (ys[2] - ys[0])
    # slope keeps shrinking: log-type growth, not linear
    s1 = (ms[1] - ms[0]) / (ys[1] - ys[0])
    s2 = (ms[2] - ms[1]) / (ys[2] - ys[1])
    assert s2 < s1


# ---------------------------------------------------------------------------
# the hot layers: Sklyanin pairs, the overflow-safe sine, the 4-axis sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta, half_length, n_nodes", [
    (0.4, 12.0, 240),    # the default line
    (0.5, 47.75, 955),   # the mu line of oy_laplace2(1, 1.0, 2, 0.5, ...)
])
def test_sklyanin_pair_matches_log_gamma_route(delta, half_length, n_nodes):
    mu = vertical_line(delta, half_length, n_nodes).nodes()[0]
    P = _sklyanin_pair(mu)
    assert np.all(np.diag(P) == 0)
    i, j = np.nonzero(~np.eye(len(mu), dtype=bool))
    d = mu[i] - mu[j]
    assert np.max(np.abs(d.imag)) >= 2 * half_length - 0.1
    ref = specfun.sklyanin([mu[i], mu[j]]) * (2j * math.pi) ** 2 * 2
    # the reference is exp(-log_gamma(d) - log_gamma(-d)): it carries the
    # rounding of log-gamma values of size up to ~450 on the long line,
    # about eps |log Gamma| relative, on top of the 1e-13 budget
    log_size = np.abs(specfun.log_gamma(d)) + np.abs(specfun.log_gamma(-d))
    tol = 1e-13 + 2 * np.finfo(float).eps * log_size
    assert np.all(np.abs(P[i, j] - ref) <= tol * np.abs(ref))
    # where the reference's rounding matters, mpmath decides
    far = np.argsort(np.abs(d.imag))[-3:]
    with mpmath.workdps(40):
        exact = [complex(1 / (mpmath.gamma(mpmath.mpc(z.real, z.imag))
                              * mpmath.gamma(-mpmath.mpc(z.real, z.imag))))
                 for z in d[far]]
    assert np.allclose(P[i[far], j[far]], exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("z", [
    0.5 + 0.5j, 1e-8, 1e-8j, 1 + 1e-6j, 3 - 1e-9, 2 + 1e-7j,          # |Im z| < 20
    7 + 19.9j, 0.5 + 20j, 1 - 20j, 1e-8 + 25j, -3 + 1e-7 + 40j, 2.25 - 95.5j,
])
def test_safe_sin_pi_matches_mpmath(z):
    z = complex(z)
    with mpmath.workdps(40):
        x = mpmath.pi * mpmath.mpc(z.real, z.imag)
        ref = complex(mpmath.sin(x))
        # pi z rounds by about eps |pi z|, which sin(pi z) amplifies by its
        # condition number |pi z cot(pi z)|: near a nonzero integer no
        # double-precision sin(pi z) does better, near 0 it must be exact
        cond = 1.0 + float(abs(x * mpmath.cot(x)))
    got = complex(_safe_sin_pi(np.array([z]))[0])
    assert abs(got - ref) <= 4 * np.finfo(float).eps * cond * abs(ref)


def test_contract_four_axes_matches_einsum():
    rng = np.random.default_rng(7)
    sizes = [7, 11, 5, 13]

    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    vecs = [crand(n) for n in sizes]
    keys = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 1), (2, 3)]  # (3, 1) reversed
    pairs = {(k, l): crand(sizes[k], sizes[l]) for k, l in keys}
    labels = ",".join("abcd"[k] + "abcd"[l] for k, l in keys)
    ref = np.einsum("a,b,c,d," + labels + "->", *vecs, *pairs.values())
    assert abs(_contract(vecs, pairs) - ref) <= 1e-12 * abs(ref)
    del pairs[(0, 3)]
    with pytest.raises(ValueError):
        _contract(vecs, pairs)


@pytest.mark.parametrize("call, value", [
    (lambda: joint_series_term(1, 1, 1, 2, 2, 1, 1.0, 1.0, 1.0),
     0.6336050442706933),
    (lambda: prelimit_term(1, 1, 8, 1.0, 0.5, 0.5), 0.004652294966855276),
    (lambda: laplace2_case_a(2, 4, 4, 2, 0.25, 0.25, [0.0] * 4, [1.0] * 4, 1.0,
                             quad=QuadratureSpec(nodes_per_unit=5)),
     0.012557521864752995),
    (lambda: laplace2_case_b(1, 5, 3, 4, 1.0, 1.0, [0.0] * 3, [1.0] * 5, 1.0,
                             quad=QuadratureSpec(nodes_per_unit=5)),
     0.0006013260861868613),
])
def test_four_axis_values_are_pinned(call, value):
    # values of the log-gamma pair matrices and the 4-D einsum
    assert call().real == pytest.approx(value, rel=1e-12, abs=0)


def test_oy_laplace2_four_axes_rejected():
    # four axes gave -0.199, 0.330 and 0.511 at 4, 6 and 8 nodes per unit
    with pytest.raises(ValueError):
        oy_laplace2(1, 1.0, 3, 0.5, 1.0, 1.0, [0.0] * 3,
                    quad=QuadratureSpec(nodes_per_unit=4))


@pytest.mark.parametrize("call", [
    lambda: laplace1(2, 2, 1e-12, [0.0, 0.0], [1.0, 1.0]),      # was 5.898
    lambda: bcr_fredholm(2, 2, 1e8, [0.0, 0.0], [1.0, 1.0]),    # was 613.4
])
def test_transform_outside_unit_interval_raises(call):
    with pytest.raises(ArithmeticError):
        call()
