"""Contour-integral formula tests.

Each Laplace-transform formula is checked against an independent route:
direct 1-D density quadrature for the single-cell case, Monte Carlo for
the multi-point cases, the Fredholm determinant against the line-integral
form, the double series against the closed two-point integral, and the
semi-discrete (Brownian) formula against a Gaussian quadrature oracle and
the scaling link to the lattice formula.  Heavier high-precision versions
of these cross-checks live in the acceptance suite.
"""
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from grsklab import specfun
from grsklab import contour
from grsklab.contour import (
    _circle_line_kernel,
    _circle_nodes,
    _bcr_fredholm,
    _fredholm_contours,
    _gamma_cross,
    _line_nodes_for_dim,
    _pi_csc_circle_line,
    _sklyanin_pair,
    bcr_fredholm,
    block_cauchy_check,
    circle,
    _two_group_integral,
    fub_bound_margin,
    joint_series_term,
    laplace1,
    laplace2,
    oy_laplace2,
    prelimit_sum,
    prelimit_term,
    scaled_points,
    scaled_u,
    vertical_line,
)
from grsklab.quadrature import gl_nodes
from grsklab.sampling import ParameterSet, mc_laplace


# ---------------------------------------------------------------------------
# contours and quadrature plumbing
# ---------------------------------------------------------------------------


def test_contour_validation():
    with pytest.raises(ValueError):
        circle(0.0)
    with pytest.raises(ValueError):
        vertical_line(0.0, length=-1.0)
    with pytest.raises(ValueError):
        vertical_line(0.0, n_nodes=2)
    with pytest.raises(ValueError):
        circle(1.0, n_nodes=3)


@pytest.mark.parametrize("kw", [
    {"kind": "line", "delta": 0.0, "length": math.nan},
    {"kind": "line", "delta": 0.0, "length": math.inf},
    {"kind": "line", "delta": math.nan},
    {"kind": "line", "delta": -math.inf},
    {"kind": "circle", "radius": math.nan},
    {"kind": "circle", "radius": math.inf},
    {"kind": "circle", "radius": -math.inf},
])
def test_contour_rejects_non_finite_geometry(kw):
    geometry = dict(kw)
    make = vertical_line if geometry.pop("kind") == "line" else circle
    with pytest.raises(ValueError, match="finite"):
        make(**geometry)


def test_evaluators_reject_non_finite_geometry():
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0] * 2, [1.0] * 2, length=math.nan)
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0] * 2, [1.0] * 2, delta=math.inf)
    with pytest.raises(ValueError):
        laplace1(2, 2, 1.0, [0.0] * 2, [1.0] * 2, delta=math.nan)
    with pytest.raises(ValueError):
        laplace2(1, 2, 2, 1, 0.5, 0.5, [0.0] * 2, [1.0] * 2, 1.0,
                 length=math.inf)


def _geometry(f, kw):
    """The id of an evaluator at an input: its name, and the corners where
    it takes several geometries."""
    if f is laplace2:
        return "laplace2[{m1},{n1},{m2},{n2}]".format(**kw)
    return f.__name__


# each evaluator at a valid input, by keyword; laplace2 at points on either
# side of the diagonal, both below it and both above it
VALID_INPUTS = [
    (laplace1, dict(m=2, n=2, u=1.0, alpha=[0.0] * 2, alphahat=[1.0] * 2)),
    (laplace2, dict(m1=1, n1=3, m2=3, n2=1, u1=1.0, u2=1.0,
                    alpha=[0.0] * 3, alphahat=[1.0] * 3, gamma=1.0)),
    (laplace2, dict(m1=1, n1=4, m2=2, n2=3, u1=1.0, u2=1.0,
                    alpha=[0.0] * 2, alphahat=[1.0] * 4, gamma=1.0, delta=0.4)),
    (laplace2, dict(m1=3, n1=2, m2=4, n2=1, u1=1.0, u2=1.0,
                    alpha=[0.0] * 4, alphahat=[1.0] * 2, gamma=1.0)),
    (oy_laplace2, dict(m1=1, t1=1.0, m2=2, t2=0.5, u1=1.0, u2=1.0,
                       alpha=[0.0] * 2)),
    (bcr_fredholm, dict(m=2, n=2, u=1.0, alpha=[0.0] * 2, alphahat=[1.0] * 2)),
    (joint_series_term, dict(m=1, n=0, m1=1, n1=2, m2=2, n2=1, u1=1.0,
                             u2=1.0, gamma=1.0)),
    (prelimit_term, dict(m=1, n=0, N=8, gamma=1.0, t1=0.5, t2=0.5,
                         r1=0.0, r2=0.0)),
]

# the inputs near VALID_INPUTS at which an evaluator returns without a line:
# a zero Laplace argument or the (0,0) series term
EARLY_RETURNS = [
    (f, {**kw, **early}) for (f, kw), early in zip(VALID_INPUTS, [
        dict(u=0.0), dict(u2=0.0), dict(u2=0.0), dict(u2=0.0),
        dict(u1=0.0, u2=0.0), dict(u=0.0), dict(m=0), dict(m=0)])
]


def _bad_inputs():
    """Each evaluator's valid input with one Laplace argument non-finite or
    negative (zero too where u must be positive; prelimit_term's r = +-inf
    gives u = 0 or inf), a non-finite gamma, a NaN among the alpha or
    alphahat it reads, or a line density that is not finite and > 0, also
    at the input where it returns early."""
    for tag, inputs in (("", VALID_INPUTS), ("early-", EARLY_RETURNS)):
        for f, kw in inputs:
            for bad in (0.0, -1.0, math.nan, math.inf):
                yield pytest.param(f, {**kw, "nodes_per_unit": bad},
                                   id=f"{_geometry(f, kw)}-{tag}nodes_per_unit={bad}")
    for f, kw in VALID_INPUTS:
        for key, value in kw.items():
            if key in ("u", "u1", "u2"):
                bads = [math.nan, math.inf, -math.inf, -1.0]
                if f is joint_series_term:
                    bads.append(0.0)
            elif key in ("r1", "r2"):
                bads = [math.nan, math.inf, -math.inf]
            elif key in ("alpha", "alphahat"):
                bads = [[math.nan] + value[1:]]
            elif key == "gamma":
                bads = [math.nan, math.inf]
            else:
                continue
            for bad in bads:
                yield pytest.param(f, {**kw, key: bad},
                                   id=f"{_geometry(f, kw)}-{key}={bad}")


def test_valid_inputs_evaluate():
    for f, kw in VALID_INPUTS:
        assert math.isfinite(abs(f(**kw))), _geometry(f, kw)


@pytest.mark.parametrize("f, kw", list(_bad_inputs()))
def test_evaluators_reject_bad_arguments_without_warnings(f, kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            f(**kw)


def test_circle_residue():
    # (1/2 pi i) int dz/z = winding number
    z, dz = circle(0.7)
    assert np.sum(dz / z) == pytest.approx(2j * math.pi, abs=1e-12)


def test_line_integral_gaussian():
    # int_{ell_delta} e^{z^2} dz = i sqrt(pi): e^{z^2} decays like
    # e^{-y^2} on vertical lines, and the value is delta-independent
    for delta in (0.0, 0.4, 1.3):
        z, dz = vertical_line(delta, length=8.0, n_nodes=160)
        val = np.sum(np.exp(z**2) * dz)
        assert val == pytest.approx(1j * math.sqrt(math.pi), abs=1e-10)


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
    vals = [laplace1(2, 2, 1.0, [0.0, 0.1], [1.0, 0.9], delta=d,
                     length=20.0, nodes_per_unit=40.0)
            for d in (1.3, 1.5, 1.9)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)


def test_laplace1_u_limits():
    assert laplace1(2, 1, 0.0, [0.0, 0.0], [1.0]) == 1.0
    small = laplace1(2, 1, 0.1, [0.0, 0.0], [1.0]).real
    big = laplace1(2, 1, 20.0, [0.0, 0.0], [1.0]).real
    assert 0 < big < small < 1


def test_laplace1_transposes_m_below_n():
    # Z_{(2,3)} of (alpha, alphahat) is Z_{(3,2)} of (alphahat, alpha)
    a, ah = [0.0, 0.0], [1.0, 1.0, 1.0]
    val = laplace1(2, 3, 1.0, a, ah)
    assert val == laplace1(3, 2, 1.0, ah, a)
    assert val.real == pytest.approx(0.03204122488961, abs=1e-13)


def test_laplace1_small_u_cancellation_raises():
    # the node sum cancels to ~1 from weights of size u^{-delta}: the value
    # 0.99999875 was 1.3e-6 off, and 200 nodes per unit read 1.00000017
    with pytest.raises(ArithmeticError, match="rounding"):
        laplace1(2, 2, 1e-13, [0.0, 0.0], [1.0, 1.0], nodes_per_unit=80 / 3)


def test_laplace1_validation():
    with pytest.raises(ValueError):
        laplace1(0, 2, 1.0, [], [1.0, 1.0])  # m < 1
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
    kw = {"nodes_per_unit": 40.0, "length": 16.0}
    for (m, n), u, g in [((1, 1), 0.5, 1.0), ((2, 2), 1.0, 1.0),
                         ((3, 2), 2.0, 1.5)]:
        a = [0.0] * m
        ah = [g] * n
        line = laplace1(m, n, u, a, ah, **kw).real
        det = bcr_fredholm(m, n, u, a, ah, n_circle=256, **kw).real
        assert det == pytest.approx(line, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("m, n, u, rel, abs_", [
    (3, 3, 4.0, 1e-9, 0.0),      # the 240-node w-line gave 9.67e-4 (0.33 off)
    (3, 3, 0.25, 1e-9, 0.0),     # was 3.2e-3 off
    (2, 2, 1e6, 0.0, 1e-10),     # was 0.134; the transform is 3.7e-18
])
def test_bcr_default_resolution_matches_laplace1(m, n, u, rel, abs_):
    a, ah = [0.0] * m, [1.0] * n
    line = laplace1(m, n, u, a, ah, nodes_per_unit=40.0)
    det = bcr_fredholm(m, n, u, a, ah)
    assert det.real == pytest.approx(line.real, rel=rel, abs=abs_)


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


def test_bcr_order_zero_is_constant_term_and_negative_order_raises():
    a, ah = [0.0, 0.0], [1.0, 1.0]
    assert bcr_fredholm(2, 2, 1.0, a, ah, order=0) == pytest.approx(1.0, abs=1e-12)
    for u in (0.0, 1.0):
        with pytest.raises(ValueError):
            bcr_fredholm(2, 2, u, a, ah, order=-1)
    # partial sums come from traces up to order 3; beyond it, only the whole
    # determinant (order >= n)
    with pytest.raises(ValueError, match="order"):
        bcr_fredholm(5, 5, 1.0, [0.0] * 5, [1.0] * 5, order=4)


def test_circle_nodes_follow_the_nearest_singularity():
    # rho = 0.08/0.35 with a simple pole: 1 + 56/log2(1/rho) = 27.3
    assert _circle_nodes(0.08, 0.0, 0.35, 1) == 28
    # rho = 0.5: 56 nodes beyond the pole order, rounded up to even
    assert _circle_nodes(0.25, 0.0, 0.5, 2) == 58
    assert _circle_nodes(0.25, 0.0, 0.5, 3) == 60
    # an inner singularity counts as an outer one does: rho = 0.2/0.25
    assert _circle_nodes(0.25, 0.2, 1.0, 0) == _circle_nodes(0.2, 0.0, 0.25, 0) == 174
    with pytest.raises(ArithmeticError, match="delta1 = 0.495.*under 0.46"):
        _circle_nodes(0.495, 0.0, 0.5, 2)
    with pytest.raises(ArithmeticError, match="delta1 = 0.101.*over 0.1"):
        _circle_nodes(0.101, 0.1, 0.5, 2)


# every circle user at the rule's node count and at 4 times it
RULE_INPUTS = {
    **{f"fredholm {m},{n} u={u}": (lambda m=m, n=n, u=u: bcr_fredholm(
        m, n, u, [0.0] * m, [1.0] * n)) for (m, n) in [(2, 2), (3, 2), (3, 3)]
       for u in (0.25, 1.0, 4.0)},
    # rho = 0.4/0.5: 176 nodes
    **{f"fredholm 2,2 alphahat=0.7,1.3 u={u}": (lambda u=u: bcr_fredholm(
        2, 2, u, [0.0, 0.0], [0.7, 1.3])) for u in (0.25, 1.0, 4.0)},
    **{f"series {m},{n}": (lambda m=m, n=n: joint_series_term(
        m, n, 1, 2, 2, 1, 1.0, 1.0, 1.0))
       for (m, n) in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]},
    # rho = 0.2/0.4
    **{f"prelimit {m},{n} N=2": (lambda m=m, n=n: prelimit_term(
        m, n, 2, 1.0, 0.5, 0.5)) for (m, n) in [(1, 0), (1, 1)]},
}


@pytest.mark.parametrize("name", RULE_INPUTS)
def test_circle_rule_is_converged(name, monkeypatch):
    value = RULE_INPUTS[name]()
    monkeypatch.setattr(contour, "_circle_nodes",
                        lambda *args: 4 * _circle_nodes(*args))
    ref = RULE_INPUTS[name]()
    if name.startswith("fredholm"):
        # det(I + K) sums coefficients of size up to 1: its rounding noise
        # is a few ulps of 1 at every value, 5.3e-15 at most on these inputs
        assert value == pytest.approx(ref, rel=1e-13, abs=1e-14)
    else:
        # the (2,0) and (0,2) terms vanish here but for rounding
        assert value == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_fixed_circle_counts_miss_near_a_singularity(monkeypatch):
    # the tolerances above tell the rule from fixed counts: 128 nodes at
    # rho = 0.8 are 4.6e-11 relative off, 32 nodes at rho = 0.5 7.6e-9
    ref = bcr_fredholm(2, 2, 4.0, [0.0, 0.0], [0.7, 1.3], n_circle=1024)
    fixed = bcr_fredholm(2, 2, 4.0, [0.0, 0.0], [0.7, 1.3], n_circle=128)
    assert abs(fixed - ref) > 1e-11 * abs(ref)
    ref = prelimit_term(1, 0, 2, 1.0, 0.5, 0.5)
    monkeypatch.setattr(contour, "_circle_nodes", lambda *args: 32)
    assert abs(prelimit_term(1, 0, 2, 1.0, 0.5, 0.5) - ref) > 1e-9 * abs(ref)


def test_bcr_fredholm_circle_near_its_bound():
    # at 128 nodes delta1 = 0.45 aliased at 0.9^128 and failed the rounding
    # guard; the rule takes 372 nodes there
    a, ah = [0.0, 0.0], [1.0, 1.0]
    near = bcr_fredholm(2, 2, 1.0, a, ah, delta1=0.45)
    assert near == pytest.approx(bcr_fredholm(2, 2, 1.0, a, ah), abs=1e-14)
    assert near.real == pytest.approx(laplace1(2, 2, 1.0, a, ah).real, abs=1e-12)
    assert _fredholm_contours(2, 2, a, ah, delta1=0.45)[4] == 372
    with pytest.raises(ArithmeticError, match="delta1 = 0.495"):
        bcr_fredholm(2, 2, 1.0, a, ah, delta1=0.495)
    # an explicit node count skips the rule, and its aliasing then fails
    # the rounding guard
    with pytest.raises(ArithmeticError, match="rounding error bound"):
        bcr_fredholm(2, 2, 1.0, a, ah, delta1=0.495, n_circle=128)


@pytest.mark.parametrize("n, u, value", [
    # an FFT of det(I + z K) on roots of unity read 3.5816e-10, 2.54e-11 and
    # 6.77e-10 here: its noise grows with max |det(I + z K)| on |z| = 1
    (6, 4.0, 3.5541544e-10),
    (7, 1.0, 3.7842344e-11),
    (8, 1.0, 3.05663e-14),
])
def test_bcr_fredholm_small_values(n, u, value):
    got = bcr_fredholm(n, n, u, [0.0] * n, [1.0] * n)
    assert got.real == pytest.approx(value, rel=1e-5)


# flat (n, n) at three u, and two non-flat alphahat at two u
ESTIMATE_GRID = [((n, n), [0.0] * n, [1.0] * n, u)
                 for n in (2, 3, 5, 6) for u in (0.01, 1.0, 100.0)]
ESTIMATE_GRID += [((2, 2), [0.0, 0.0], ah, u)
                  for ah in ([0.7, 1.3], [0.5, 0.5]) for u in (0.25, 4.0)]


def test_bcr_fredholm_error_estimate_covers_the_error(monkeypatch):
    # the reference doubles the circle nodes, the line density and the line
    # length; the vanishing coefficients n + 1 and n + 2 of det(I + z K)
    # read 1.5e-15 at alphahat = (0.7, 1.3), u = 4, where the value is
    # 8e-11 off
    got = [_bcr_fredholm(m, n, u, a, ah) for (m, n), a, ah, u in ESTIMATE_GRID]
    monkeypatch.setattr(contour, "_circle_nodes",
                        lambda *args: 2 * _circle_nodes(*args))
    for ((m, n), a, ah, u), (value, estimate) in zip(ESTIMATE_GRID, got):
        ref = bcr_fredholm(m, n, u, a, ah, nodes_per_unit=40.0, length=24.0)
        assert estimate + 1e-20 >= abs(value - ref), (m, n, ah, u)


# partial sums by an FFT of det(I + z K) on roots of unity, which agrees
# with the traces to rounding where both apply; a partial sum is not a
# transform and may lie outside [0, 1]
PARTIAL_SUMS = {
    (2, 2, 0.01): [0.7175899981407958, 0.7237744513832812, 0.7237744513832812],
    (2, 2, 0.05): [0.440221500841116, 0.48689477248604807, 0.48689477248604807],
    (2, 2, 1.0): [-0.6563562127124616, 0.07469853882814548, 0.07469853882814548],
    (3, 2, 0.01): [0.5281648581872447, 0.5452879736003747, 0.5452879736003747],
    (3, 2, 0.05): [0.21905693767715007, 0.3075050834210754, 0.3075050834210754],
    (3, 3, 0.01): [0.2612737044399197, 0.31504805974098793, 0.31377518459495224],
    (3, 3, 0.05): [-0.03912943184848716, 0.15242662804160184, 0.1329026594292928],
    (3, 3, 0.25): [-0.4765876705241623, 0.23514902554602335, 0.03547316216342622],
    (3, 3, 1.0): [-1.397074671973379, 0.9594126349122019, 0.006891079804872247],
}


@pytest.mark.parametrize("m, n, u", PARTIAL_SUMS)
def test_bcr_fredholm_partial_sums(m, n, u):
    a, ah = [0.0] * m, [1.0] * n
    assert bcr_fredholm(m, n, u, a, ah, order=0) == 1.0
    for order, want in enumerate(PARTIAL_SUMS[m, n, u], start=1):
        got = bcr_fredholm(m, n, u, a, ah, order=order)
        assert got.real == pytest.approx(want, rel=0, abs=1e-13)


# ---------------------------------------------------------------------------
# two-point transforms
# ---------------------------------------------------------------------------


def test_case_a_degenerate_u_limits():
    a, ah, g = [0.0, 0.0], [1.0, 1.0], 1.0
    # u1 = 0: reduces to the one-point value at (m2, n2)
    v = laplace2(1, 2, 2, 1, 0.0, 0.8, a, ah, g)
    ref = laplace1(2, 1, 0.8, a, ah[:1])
    assert v == pytest.approx(ref, rel=1e-10)
    # u2 = 0: reduces to the one-point value at (m1, n1) (transposed)
    v = laplace2(1, 2, 2, 1, 0.8, 0.0, a, ah, g)
    ref = laplace1(2, 1, 0.8, ah, a[:1])
    assert v == pytest.approx(ref, rel=1e-10)


def test_case_a_degenerate_u_keeps_length_and_delta():
    # the fallbacks run the one-point transform on the caller's line: the
    # L = 12 value was 0.38834578 here
    a, ah, g = [0.0] * 3, [1.0] * 3, 1.0
    v = laplace2(1, 3, 3, 1, 0.25, 0.0, a, ah, g, length=3.0)
    ref = laplace1(3, 1, 0.25, ah, a[:1], length=3.0)
    assert v == ref
    assert v.real == pytest.approx(0.38834606, abs=5e-9)
    # a given delta is the lam line (transposed form) or mu - gamma
    v = laplace2(1, 3, 3, 1, 0.25, 0.0, a, ah, g, delta=0.3, length=3.0)
    assert v == laplace1(3, 1, 0.25, ah, a[:1], delta=0.3, length=3.0)
    v = laplace2(1, 3, 3, 1, 0.0, 0.25, a, ah, g, delta=0.3, length=3.0)
    assert v == laplace1(3, 1, 0.25, a, ah, delta=1.3, length=3.0)


def test_case_b_degenerate_u_limits():
    # a zero u leaves the one-point value at the other point, m < n there
    a, ah, g = [0.0, 0.0], [1.0] * 4, 1.0
    v = laplace2(1, 4, 2, 3, 0.0, 0.5, a, ah, g)
    assert v == laplace1(2, 3, 0.5, a, ah[:3])
    v = laplace2(1, 4, 2, 3, 0.5, 0.0, a, ah, g)
    assert v == laplace1(1, 4, 0.5, a[:1], ah)
    assert v.real == pytest.approx(laplace1(4, 1, 0.5, ah, a[:1]).real, abs=0)


def test_case_a_vs_mc_quick():
    g = 1.0
    val = laplace2(1, 2, 2, 1, 0.5, 0.5, [0.0, 0.0], [g, g], g).real
    est = mc_laplace([(1, 2), (2, 1)], [0.5, 0.5], ParameterSet.flat(g, 2, 2),
                     n_samples=2 * 10**5, seed=31)
    assert abs(val - est.mean) <= 4 * est.stderr


def test_case_b_vs_mc_quick():
    g = 1.0
    val = laplace2(1, 4, 2, 3, 0.3, 0.3, [0.0, 0.0], [g] * 4, g).real
    est = mc_laplace([(1, 4), (2, 3)], [0.3, 0.3], ParameterSet.flat(g, 2, 4),
                     n_samples=2 * 10**5, seed=41)
    assert abs(val - est.mean) <= 4 * est.stderr


def test_two_point_validation():
    g = 1.0
    a, ah = [0.0, 0.0], [g, g]
    with pytest.raises(ValueError):
        laplace2(2, 1, 1, 2, 0.5, 0.5, a, ah, g)  # not ordered
    with pytest.raises(ValueError):
        laplace2(1, 2, 2, 1, 0.5, 0.5, a, ah, g, delta=0.6)
    with pytest.raises(ValueError):
        laplace2(1, 2, 2, 1, 0.5, 0.5, [0.5, 0.0], ah, g)  # |alpha|
    # points on either side put mu on ell_{delta+gamma}: no delta' to choose
    with pytest.raises(ValueError, match="delta_prime"):
        laplace2(1, 2, 2, 1, 0.5, 0.5, a, ah, g, delta_prime=0.9)
    # above the diagonal the message says the parameters were transposed
    with pytest.raises(ValueError, match="transposed"):
        laplace2(3, 2, 4, 1, 0.5, 0.5, [0.5, 0.0, 0.0, 0.0], ah, g)


def test_case_a_contour_independence():
    g = 1.0
    a, ah = [0.0, 0.0], [g, g]
    v1 = laplace2(1, 2, 2, 1, 0.7, 0.4, a, ah, g, delta=0.35,
                  nodes_per_unit=40.0)
    v2 = laplace2(1, 2, 2, 1, 0.7, 0.4, a, ah, g, delta=0.45,
                  nodes_per_unit=40.0)
    assert v1 == pytest.approx(v2, rel=1e-7)


# both points above the diagonal, and a non-flat polymer there
ABOVE = (3, 2, 4, 1)
ALPHA, ALPHAHAT = [0.1, -0.05, 0.08, 0.0], [1.1, 0.95]


def test_points_above_the_diagonal_are_the_transposed_pair():
    # on the flat polymer (alphahat - gamma, alpha + gamma) is (alpha,
    # alphahat) again, so the transposed pair gives the same bits
    v = laplace2(*ABOVE, 0.3, 0.5, [0.0] * 4, [1.0] * 2, 1.0)
    assert v == laplace2(1, 4, 2, 3, 0.5, 0.3, [0.0] * 2, [1.0] * 4, 1.0)
    assert v.real == pytest.approx(0.0517480929, abs=1e-10)


def test_points_above_the_diagonal_vs_mc():
    val = laplace2(*ABOVE, 0.3, 0.5, ALPHA, ALPHAHAT, 1.0).real
    est = mc_laplace([(3, 2), (4, 1)], [0.3, 0.5],
                     ParameterSet(alpha=ALPHA, alphahat=ALPHAHAT, gamma=1.0),
                     n_samples=2 * 10**5, seed=5)
    assert abs(val - est.mean) <= 4 * est.stderr


def test_points_above_the_diagonal_zero_u():
    # u1 = 0 leaves the one-point transform at (4, 1), on the line of the
    # transposed form, which reads the shifted parameters
    v = laplace2(*ABOVE, 0.0, 0.5, ALPHA, ALPHAHAT, 1.0)
    shifted = ([a + 1.0 for a in ALPHA], [a - 1.0 for a in ALPHAHAT])
    assert v == laplace1(4, 1, 0.5, *shifted)
    assert v.real == pytest.approx(laplace1(4, 1, 0.5, ALPHA, ALPHAHAT).real,
                                   abs=1e-14)
    # u2 = 0 leaves (3, 2), the mu point of the transposed form, on delta'
    v = laplace2(*ABOVE, 0.5, 0.0, ALPHA, ALPHAHAT, 1.0, delta=0.3,
                 delta_prime=0.9)
    assert v == laplace1(3, 2, 0.5, *shifted, delta=0.9)


# ---------------------------------------------------------------------------
# double series
# ---------------------------------------------------------------------------


def test_joint_series_sums_to_case_a():
    # on the m1 = n2 = 1 geometry the series truncates at m, n <= 1
    g = 1.0
    u1 = u2 = 0.5
    ref = laplace2(1, 2, 2, 1, u1, u2, [0.0, 0.0], [g, g], g).real
    total = sum(
        joint_series_term(m, n, 1, 2, 2, 1, u1, u2, g).real
        for m in (0, 1)
        for n in (0, 1)
    )
    assert abs(total - ref) / abs(ref) < 1e-3


@pytest.mark.parametrize("m2, n2", [(3, 2), (4, 2)])
@pytest.mark.parametrize("u2", [0.25, 1.0])
def test_one_group_series_sums_to_laplace1(m2, n2, u2):
    # the (k, 0) terms alone are the Fredholm expansion of the one-point
    # transform at the second point; with n2 = 2 it ends at k = 2, whose
    # term is nonzero only on a group of rank >= 2
    terms = [joint_series_term(k, 0, 1, n2 + 1, m2, n2, 1.0, u2, 1.0) for k in (1, 2)]
    ref = laplace1(m2, n2, u2, [0.0] * m2, [1.0] * n2)
    assert abs(1.0 + sum(terms) - ref) <= 1e-6


def full_circle_term_11(m1, n1, m2, n2, u1, u2, g, delta, delta1):
    """The (1,1) series term on joint_series_term's nodes, summed over every
    circle node of both groups:
    sum g2(v, w) g1(v', w') P(v, w) P(v', w') Gamma(g - v - v')
    Gamma(g - w - w') / (Gamma(g - v' - w) Gamma(g - v - w')) / (2 pi i)^4,
    with the pair weight g_i = u_i^{w - v} (Gamma(g - w)/Gamma(g - v))^e
    (Gamma(v)/Gamma(w))^f dv dw and the Cauchy factor
    P = pi/sin(pi (v - w))/(w - v)."""
    log_gamma = specfun.log_gamma
    length = min(12.0, max(2.0, 80.0 / (min(m1 + n1, m2 + n2) * math.pi / 2.0)))
    v, dv = circle(delta1, _circle_nodes(delta1, 0.0, min(delta, 1.0 - delta, g - delta1),
                                         max(n2, m1)))
    w, dw = vertical_line(delta, length, _line_nodes_for_dim(4, 20.0))

    def phi(z, u, e, f):
        return np.log(u) * z + e * log_gamma(g - z) - f * log_gamma(z)

    (g2v, g2w), (g1v, g1w) = [(np.exp(-phi(v, *p)) * dv, np.exp(phi(w, *p)) * dw)
                              for p in ((u2, m2, n2), (u1, n1, m1))]
    P = _pi_csc_circle_line(v, w) / (w[None, :] - v[:, None])
    vv = np.exp(log_gamma(g - v[:, None] - v[None, :]))
    ww = np.exp(log_gamma(g - w[:, None] - w[None, :]))
    vw = np.exp(-log_gamma(g - v[:, None] - w[None, :]))
    total = 0j
    for a in range(len(v)):  # v: a; v': b; w: j; w': k
        total += g2v[a] * np.einsum("j,b,k,j,bk,b,jk,bj,k->", g2w, g1v, g1w, P[a],
                                    P, vv[a], ww, vw, vw[a], optimize=True)
    return total / (2j * math.pi) ** 4


@pytest.mark.parametrize("case", [
    # the defaults, delta = 0.35 gamma and delta1 = 0.08 at gamma = 1
    (1, 2, 2, 1, 1.0, 1.0, 0.35, 0.08),
    # prelimit_term's points and offsets, delta = 0.4, delta1 = 0.2
    *[(*scaled_points(N, 0.5, 0.5), scaled_u(N, 1.0, 0.0), scaled_u(N, 1.0, 0.0),
       0.4, 0.2) for N in (2, 8, 24)],
], ids=["1,2,2,1", "prelimit-N2", "prelimit-N8", "prelimit-N24"])
def test_term_11_sums_circle_nodes_in_conjugate_pairs(case):
    *args, delta, delta1 = case
    got = joint_series_term(1, 1, *args, 1.0, delta, delta1)
    assert got.imag == 0.0
    ref = full_circle_term_11(*args, 1.0, delta, delta1)
    assert got.real == pytest.approx(ref.real, rel=1e-14)


# one-group terms at the benchmark's inputs and prelimit_term's, as an FFT
# of det(I + z K) on roots of unity read them
ONE_GROUP_PINS = {
    ("1,2,2,1", 1): -0.7763872468744931,
    ("1,2,2,1", 2): 0.0,
    ("scaled N=8", 1): -0.02605343646022596,
    ("scaled N=8", 2): 2.6537814600437785e-06,
    ("prelimit N=2", 1): -0.027293401715550447,
    ("prelimit N=8", 1): -0.026053436460225413,
    ("prelimit N=8", 2): 2.653781459972903e-06,
    ("prelimit N=16", 1): -0.025443787661084835,
    ("prelimit N=16", 2): 2.03784943760194e-06,
}


@pytest.mark.parametrize("where, k", ONE_GROUP_PINS)
def test_one_group_terms_match_the_fft_route(where, k):
    if where.startswith("prelimit"):
        N = int(where.split("=")[1])
        terms = [prelimit_term(m, n, N, 1.0, 0.5, 0.5) for m, n in ((k, 0), (0, k))]
    else:
        args = ((1, 2, 2, 1, 1.0, 1.0) if where == "1,2,2,1" else
                (*scaled_points(8, 0.5, 0.5), *[scaled_u(8, 1.0, 0.0)] * 2))
        terms = [joint_series_term(m, n, *args, 1.0) for m, n in ((k, 0), (0, k))]
    for got in terms:
        assert got.real == pytest.approx(ONE_GROUP_PINS[where, k], rel=0, abs=1e-15)


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
    lg = laplace2(
        1, n1, 2, n2, u1N, u2N, alpha, [float(N)] * n1, gamma=float(N),
        delta=0.4, delta_prime=0.5, length=24.0, nodes_per_unit=60.0,
    ).real
    assert 0 < oy < 1
    assert abs(lg - oy) / abs(oy) < 5e-2


def test_oy_zero_u1_is_the_one_point_form():
    # math.log(u1/u2) raised "math domain error" here; the small-u1 values
    # approach the m1 = 0 form, 0.565569023 at u1 = 1e-8
    alpha = [0.1, -0.05]
    val = oy_laplace2(1, 1.0, 2, 0.5, 0.0, 1.0, alpha)
    assert val == oy_laplace2(0, 1.0, 2, 0.5, 0.0, 1.0, alpha)
    assert val.real == pytest.approx(0.565569034, abs=1e-9)
    near = oy_laplace2(1, 1.0, 2, 0.5, 1e-8, 1.0, alpha).real
    assert near == pytest.approx(val.real, abs=2e-8)


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
    ref = laplace2(1, 3, 3, 1, u, u, [0.0] * 3, [g] * 3, g).real
    total = prelimit_sum(2, g, t, t).real
    assert abs(total - ref) / abs(ref) < 1e-4


def test_prelimit_term_matches_orthant_values():
    # the (1,0) values are the paper's tau/x orthant form, integrated by
    # 1024-node Gauss-Legendre per orthant axis; the joint-series term is
    # the same integral with those axes done in closed form.  The (1,1)
    # value at N = 2 is the case-a anchor: 1 + 2 I_10 + I_11 equals
    # laplace2(1, 3, 3, 1, u, u) at 60 nodes per unit to 1.8e-15
    g, t = 1.0, 0.5
    pins = {(1, 0, 2): -0.027293398234508583,
            (1, 0, 8): -0.026053436460265735,
            (1, 0, 16): -0.025443787747939657,
            (1, 1, 2): 0.0029981499940916}
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
    assert prelimit_term(0, 0, 8, 1.0, 0.5, 0.5) == 1.0
    # the (0,0) term is checked like every other term
    with pytest.raises(ValueError):
        prelimit_term(0, 0, 30, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        prelimit_term(0, 0, 8, 1.0, 0.5, 0.5, r1=math.nan)


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
    mu, dmu = vertical_line(delta, half_length, n_nodes)
    h = dmu[0].imag
    P = _sklyanin_pair(n_nodes, h)
    assert np.all(np.diag(P) == 0)
    i, j = np.nonzero(~np.eye(len(mu), dtype=bool))
    # the Toeplitz form takes d at the exact offsets i h (i - j); the node
    # differences mu_i - mu_j equal them up to the rounding of the nodes
    d = 1j * h * (i - j)
    assert np.max(np.abs(mu[i] - mu[j] - d)) <= 1e-12 * half_length
    assert np.max(np.abs(d.imag)) >= 2 * half_length - 0.1
    ref = specfun.sklyanin([d, np.zeros_like(d)]) * (2j * math.pi) ** 2 * 2
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


@pytest.mark.parametrize("im_w", [0.5, 19.0, 21.0, 100.0, 300.0])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_pi_csc_circle_line_matches_mpmath(im_w, side):
    # circle nodes of radius delta1 = 0.15 against w on the delta2 = 0.5
    # line, on both sides of |Im| = 20 and beyond |Im w| = 226, where
    # cos(pi w) overflows; at 300 the value itself underflows to 0
    v = circle(0.15, 8)[0]
    w = np.array([0.5 + 1j * side * im_w])
    got = _pi_csc_circle_line(v, w)[:, 0]
    for a, z in enumerate(v - w[0]):
        with mpmath.workdps(40):
            x = mpmath.pi * (mpmath.mpf(v[a].real) - mpmath.mpf(w[0].real)
                             + 1j * (mpmath.mpf(v[a].imag) - mpmath.mpf(w[0].imag)))
            ref = complex(mpmath.pi / mpmath.sin(x))
        # pi v and pi w round by eps |pi v|, eps |pi w| in the exponents
        tol = 4 * np.finfo(float).eps * (1.0 + math.pi * (abs(v[a]) + abs(w[0])))
        assert abs(got[a] - ref) <= tol * abs(ref)


def test_circle_line_kernel_matches_direct_sum():
    # the bcr_fredholm kernel at u = 4, alpha' = (1, 1), alphahat' = (0, 0)
    # on a 16 x 40 grid, against its defining sum over the line nodes
    v, dv = circle(0.3, 16)
    y, wy = gl_nodes(-5.0, 5.0, 40)
    w, dw = 0.5 + 1j * y, 1j * wy

    def phi(z):
        return math.log(4.0) * z + 2 * specfun.log_gamma(1.0 - z) - 2 * specfun.log_gamma(z)

    direct = np.zeros((16, 16), dtype=complex)
    for a in range(16):
        for b in range(16):
            terms = (np.pi / np.sin(np.pi * (v[a] - w)) * np.exp(phi(w) - phi(v[a]))
                     * dw * dv[b] / (w - v[b]))
            direct[a, b] = terms.sum() / (2j * np.pi) ** 2
    A, B = _circle_line_kernel(v, dv, w, dw, phi(v), phi(w))
    assert np.max(np.abs(A @ B - direct) / np.abs(direct)) <= 1e-13
    # every 2nd line node at twice its weight, sliced from the same factors
    A2, B2 = _circle_line_kernel(v, dv, w[::2], 2 * dw[::2], phi(v), phi(w[::2]))
    sub = A2 @ B2
    assert np.max(np.abs((2 * A[:, ::2]) @ B[::2] - sub) / np.abs(sub)) <= 1e-13


def _brute_two_group(gl, k1, gm, k2, cross, h):
    """The node sum of _two_group_integral term by term: every tuple of k1
    lam nodes and k2 mu nodes, its weights, Sklyanin pairs and cross
    factors.  Tuples with a repeated node have a zero pair factor."""
    Pl = _sklyanin_pair(len(gl), h).tolist() if k1 else None
    Pm = _sklyanin_pair(len(gm), h).tolist()
    gl = gl.tolist() if k1 else None
    gm, cross = gm.tolist(), (None if cross is None else cross.tolist())
    total = 0j
    for lam in itertools.permutations(range(len(gl or [])), k1):
        wl = 1.0
        for a in lam:
            wl *= gl[a]
        for a, b in itertools.combinations(lam, 2):
            wl *= Pl[a][b]
        for mu in itertools.permutations(range(len(gm)), k2):
            term = wl
            for b in mu:
                term *= gm[b]
                for a in lam:
                    term *= cross[a][b]
            for b, c in itertools.combinations(mu, 2):
                term *= Pm[b][c]
            total += term
    norm = (2j * math.pi) ** (k1 + k2) * math.factorial(k1) * math.factorial(k2)
    return total / norm


@pytest.mark.parametrize("k1, k2, n_lam, n_mu", [
    (0, 1, 0, 24), (0, 2, 0, 24), (0, 3, 0, 24), (0, 4, 0, 16),
    (1, 3, 20, 14), (2, 2, 16, 18), (2, 3, 12, 10),
])
def test_two_group_integral_matches_brute_force(k1, k2, n_lam, n_mu):
    # random complex weights and cross factors on short lines of one
    # spacing; the determinant route must reproduce the explicit node sum
    rng = np.random.default_rng(100 * k1 + k2)
    h = 0.25

    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    gl = crand(n_lam) if k1 else None
    gm = crand(n_mu)
    cross = crand(n_lam, n_mu) if k1 else None
    ref = _brute_two_group(gl, k1, gm, k2, cross, h)
    val, _ = _two_group_integral(gl, k1, gm, k2, cross, h)
    assert abs(val - ref) <= 1e-13 * abs(ref)
    if k1:
        # the same sum with the groups given the other way round
        swapped, _ = _two_group_integral(gm, k2, gl, k1, cross.T, h)
        assert abs(swapped - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("call, value", [
    (lambda: joint_series_term(1, 1, 1, 2, 2, 1, 1.0, 1.0, 1.0),
     0.6336049719987555),
    (lambda: prelimit_term(1, 1, 8, 1.0, 0.5, 0.5), 0.004652294966762942),
    # the two line integrals are pinned on trapezoid lines at 5 nodes per
    # unit, far from converged (the second tends to 0.000948662): they pin
    # the structured matrices and the 4-axis contraction, not the transform,
    # so the second keeps its mu line at delta' = 0.5 rather than its default
    (lambda: laplace2(2, 4, 4, 2, 0.25, 0.25, [0.0] * 4, [1.0] * 4, 1.0,
                      nodes_per_unit=5),
     0.011698547113378125),
    (lambda: laplace2(1, 5, 3, 4, 1.0, 1.0, [0.0] * 3, [1.0] * 5, 1.0,
                      delta_prime=0.5, nodes_per_unit=5),
     0.0011110090157402121),
])
def test_four_axis_values_are_pinned(call, value):
    # values of the pair and cross matrices and the 4-D contraction
    assert call().real == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("call, ref, rel", [
    # both points below the diagonal: delta' in {0.9, 1.2} at 40 to 80
    # nodes per unit agree to 3e-15
    (lambda: laplace2(1, 4, 2, 3, 0.25, 0.25, [0.0] * 2, [1.0] * 4, 1.0),
     0.072648692465633, 1e-8),
    (lambda: laplace2(1, 4, 2, 3, 1.0, 1.0, [0.0] * 2, [1.0] * 4, 1.0),
     0.0152742691419596, 1e-8),
    (lambda: laplace2(1, 4, 2, 3, 4.0, 4.0, [0.0] * 2, [1.0] * 4, 1.0),
     0.00158350099849129, 1e-8),
    # oy_laplace2 at delta' = 0.9 and 60 nodes per unit
    (lambda: oy_laplace2(1, 1.0, 2, 0.5, 1.0, 1.0, [0.0, 0.0]),
     0.2334077802311763, 1e-9),
    (lambda: oy_laplace2(1, 2.0, 2, 1.0, 0.5, 2.0, [0.0, 0.0]),
     0.11068031886275963, 1e-9),
    # series terms: trapezoid lines at 80 nodes per unit with delta from
    # 0.36 to 0.42 agree to 6e-15
    (lambda: prelimit_term(1, 0, 2, 1.0, 0.5, 0.5), -0.02729340172771272, 1e-8),
    (lambda: joint_series_term(1, 1, 1, 2, 2, 1, 1.0, 1.0, 1.0),
     0.6336049719590332, 1e-9),
])
def test_default_lines_resolve_converged_values(call, ref, rel):
    # each default line sits off the poles it faces, so the trapezoid rule
    # resolves the value at its default density
    assert call().real == pytest.approx(ref, rel=rel, abs=0)


@pytest.mark.parametrize("d_lam, d_mu, n_lam, n_mu, hankel", [
    (0.4, 1.4, 240, 240, True),     # case a: Gamma(lam + mu) on ell_delta, ell_{delta+gamma}
    (0.4, 0.5, 240, 240, False),    # case b: Gamma(mu - lam) on ell_delta, ell_delta'
    (0.4, 0.5, 200, 331, False),    # oy_laplace2: two lengths, one spacing
    # (1,1) series term: Gamma(gamma - w - w') on the pair (gamma - w, -w),
    # w on ell_0.35 at gamma = 1; reversing both lines gives this pair
    (0.65, -0.35, 240, 240, True),
])
def test_structured_matrices_match_dense(d_lam, d_mu, n_lam, n_mu, hankel):
    h = 0.1
    lam = vertical_line(d_lam, 0.5 * n_lam * h, n_lam)[0]
    mu = vertical_line(d_mu, 0.5 * n_mu * h, n_mu)[0]
    z = lam[:, None] + mu[None, :] if hankel else mu[None, :] - lam[:, None]
    dense = np.exp(specfun.log_gamma(z))
    got = _gamma_cross(lam, mu, hankel)
    assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-13
    for z in (lam, mu):
        d = z[:, None] - z[None, :]
        off = ~np.eye(len(z), dtype=bool)
        dense = np.exp(-specfun.log_gamma(d[off]) - specfun.log_gamma(-d[off]))
        got = _sklyanin_pair(len(z), h)
        assert np.all(np.diag(got) == 0)
        assert np.max(np.abs(got[off] - dense) / np.abs(dense)) <= 1e-13


def test_oy_laplace2_four_axes_rejected():
    # four axes gave -0.199, 0.330 and 0.511 at 4, 6 and 8 nodes per unit
    with pytest.raises(ValueError):
        oy_laplace2(1, 1.0, 3, 0.5, 1.0, 1.0, [0.0] * 3, nodes_per_unit=4)


@pytest.mark.parametrize("call", [
    lambda: laplace1(2, 2, 1e-20, [0.0, 0.0], [1.0, 1.0]),      # reads -8.71
    # a 144-node w-line, 0.3 of the default density: 75.6
    lambda: bcr_fredholm(2, 2, 1e7, [0.0, 0.0], [1.0, 1.0],
                         nodes_per_unit=6.0),
])
def test_transform_outside_unit_interval_raises(call):
    with pytest.raises(ArithmeticError):
        call()


def test_complex_transform_raises():
    # I + K has condition ~1e21 here: the coefficients n + 1 and n + 2 of
    # det(I + z K), which vanish in exact arithmetic, read above 1
    with pytest.raises(ArithmeticError, match="rounding error bound"):
        bcr_fredholm(2, 2, 1e20, [0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("length", [48.0, 100.0])
def test_bcr_fredholm_nodes_follow_length(length):
    # a fixed 480-node w-line read 2.7e-6 at length 48 and -860.8 at 100;
    # the transform is about 1e-11 here, which lengths 6 to 24 agree on
    val = bcr_fredholm(2, 2, 1e8, [0.0, 0.0], [1.0, 1.0], length=length)
    assert abs(val) < 1e-9
