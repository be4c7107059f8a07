"""Airy-side tests: kernel accuracy against scipy-based quadrature oracles,
process-level invariances (marginal reduction, stationarity, decorrelation),
and the limiting series terms against both a direct double-quadrature oracle
and the kernel-route evaluation.

scipy is used on the test side only, as the independent reference.
"""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from grsklab.airy import (
    AiryQuery,
    _ai,
    _nystrom_matrix,
    airy_two_point,
    airy_two_point_series,
    conjecture_rhs,
    extended_airy_kernel,
    limit_term,
)
from grsklab.quadrature import gl_panels
from grsklab.specfun import scaling_constants


def scipy_ai(x):
    return scipy.special.airy(x)[0]


def airy_kernel_oracle(x, y, upper=40.0):
    val, _ = scipy.integrate.quad(
        lambda u: scipy_ai(x + u) * scipy_ai(y + u), 0.0, upper, limit=200
    )
    return val


def tw_gue_cdf_oracle(s, n=240, cut=12.0):
    """F_2(s) by an independent scipy-based Nystrom determinant."""
    x, w = gl_panels(s, s + cut, n, 4)
    K = np.empty((n, n))
    u, wu = gl_panels(0.0, 40.0, 400, 8)
    A = scipy.special.airy(x[:, None] + u[None, :])[0]
    K = np.einsum("u,iu,ju->ij", wu, A, A)
    return float(np.linalg.det(np.eye(len(x)) - K * w[None, :]))


# ---------------------------------------------------------------------------
# Airy function and kernel
# ---------------------------------------------------------------------------


def test_ai_matches_scipy_wide_range():
    x = np.linspace(-40.0, 12.0, 521)
    err = np.abs(_ai(x) - scipy.special.airy(x)[0])
    assert float(err.max()) < 1e-7


def test_equal_time_kernel_vs_scipy_quadrature():
    for xi, xip in [(0.0, 0.0), (-1.0, 0.5), (1.5, 2.0)]:
        ref = airy_kernel_oracle(xi, xip)
        val = extended_airy_kernel(0.7, xi, 0.7, xip)
        assert val == pytest.approx(ref, abs=1e-8)


def test_equal_time_kernel_symmetry_and_positivity():
    assert extended_airy_kernel(0.0, -0.5, 0.0, 1.2) == pytest.approx(
        extended_airy_kernel(0.0, 1.2, 0.0, -0.5), abs=1e-12
    )
    for xi in (-1.0, 0.0, 1.0):
        assert extended_airy_kernel(0.0, xi, 0.0, xi) > 0


def test_forward_time_kernel_vs_scipy_quadrature():
    # t > t': exponentially damped positive branch
    ref, _ = scipy.integrate.quad(
        lambda u: math.exp(-1.3 * u) * scipy_ai(0.2 + u) * scipy_ai(-0.4 + u),
        0.0, 40.0, limit=200,
    )
    val = extended_airy_kernel(1.5, 0.2, 0.2, -0.4)
    assert val == pytest.approx(ref, abs=1e-8)


def test_backward_time_kernel_vs_scipy_quadrature():
    # t < t': negative branch probes Ai on the oscillatory side
    rate = 1.1
    ref, _ = scipy.integrate.quad(
        lambda u: math.exp(-rate * u) * scipy_ai(0.3 - u) * scipy_ai(0.1 - u),
        0.0, 120.0, limit=400,
    )
    val = extended_airy_kernel(0.2, 0.3, 1.3, 0.1)
    assert val == pytest.approx(-ref, abs=1e-7)


def test_backward_branch_rejects_tiny_separation():
    # the required truncation window diverges as |t - t'| -> 0
    with pytest.raises(ArithmeticError):
        extended_airy_kernel(0.0, 0.0, 1e-4, 0.0)


# ---------------------------------------------------------------------------
# two-time probabilities
# ---------------------------------------------------------------------------


def test_query_validation():
    with pytest.raises(ValueError):
        AiryQuery([0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        AiryQuery([0.0, 1.0], [0.0, 1.0], order=0)
    with pytest.raises(ValueError):
        AiryQuery([0.0, 1.0], [0.0, -6.0])
    with pytest.raises(ValueError):
        airy_two_point_series(0.0, 1.0, 0.0, 0.0, order=4)


@pytest.mark.parametrize("args", [(0.0, 1.0, math.nan, 0.0),
                                  (0.0, 1.0, 0.0, math.inf),
                                  (math.nan, 1.0, 0.0, 0.0),
                                  (0.0, -math.inf, 0.0, 0.0)])
def test_non_finite_query_rejected(args):
    with pytest.raises(ValueError):
        airy_two_point(*args)


def test_one_point_marginal_vs_tracy_widom_oracle():
    # a vacuous second threshold reduces the joint probability to the
    # Tracy-Widom GUE marginal, checked against an independent oracle
    for s in (-0.5, 0.0, 1.0):
        ref = tw_gue_cdf_oracle(s)
        val = airy_two_point(0.2, 0.5, s, 8.0)
        assert val == pytest.approx(ref, abs=1e-6)


def test_equal_time_reduction():
    # at equal times the pair probability with one vacuous threshold is
    # exactly the one-point value at the other threshold
    one = airy_two_point(0.4, 0.4, 0.0, 8.0)
    ref = tw_gue_cdf_oracle(0.0)
    assert one == pytest.approx(ref, abs=1e-6)


def test_stationarity_shift_invariance():
    base = airy_two_point(0.0, 0.9, -0.3, 0.4)
    for s in (0.7, -1.2):
        shifted = airy_two_point(0.0 + s, 0.9 + s, -0.3, 0.4)
        assert shifted == pytest.approx(base, abs=1e-6)


def test_decorrelation_at_large_separation():
    # |t1 - t2| = 6: the joint probability factorizes to within 5e-2
    joint = airy_two_point(-3.0, 3.0, 0.0, 0.0)
    marg = tw_gue_cdf_oracle(0.0)
    assert abs(joint - marg**2) < 5e-2
    # and the factorization error is far smaller than the correlation at
    # small separation
    near = airy_two_point(0.0, 0.5, 0.0, 0.0)
    assert abs(near - marg**2) > abs(joint - marg**2)


def test_equal_time_is_one_point_at_lower_threshold():
    # at t1 == t2 both thresholds constrain one variable: P = F2(min xi)
    for xi1, xi2 in [(0.0, 0.0), (-3.0, -3.0), (-1.0, 2.0)]:
        val = airy_two_point(0.5, 0.5, xi1, xi2)
        assert val == pytest.approx(tw_gue_cdf_oracle(min(xi1, xi2)), abs=1e-6)


def test_one_point_marginal_deep_left_tail():
    # a vacuous second threshold leaves F2, also deep in the left tail
    val = airy_two_point(0.0, 1.0, -3.0, 8.0)
    assert val == pytest.approx(tw_gue_cdf_oracle(-3.0), abs=1e-6)


def test_two_point_between_product_and_min_of_marginals():
    # F2(xi1) F2(xi2) <= P <= min F2(xi): positive association of the
    # Airy process, and the marginal bound
    xis = (-5.0, -3.0, -1.0, 0.0, 2.0)
    f2 = {xi: tw_gue_cdf_oracle(xi) for xi in xis}
    for xi1 in xis:
        for xi2 in xis:
            val = airy_two_point(0.0, 1.0, xi1, xi2)
            assert f2[xi1] * f2[xi2] - 1e-8 <= val <= min(f2[xi1], f2[xi2]) + 1e-8


def test_determinant_in_the_left_tail():
    # the order-3 truncation gives -0.0455 and -0.73 here
    assert airy_two_point(0.0, 1.0, -3.0, -3.0) == pytest.approx(0.017540, abs=1e-6)
    assert airy_two_point(0.0, 1.0, -4.0, -4.0) == pytest.approx(1.541e-4, abs=1e-7)


@pytest.mark.parametrize("args,ref", [
    ((0.0, 0.25, -2.0, -2.0), 0.29530495199364126),
    ((0.0, 1.0, -1.0, -1.0), 0.6847527948592628),
    ((0.0, 1.0, 1.0, -1.0), 0.8063912672830733),
    ((0.0, 3.0, -2.0, -2.0), 0.1860139098993196),
    ((0.0, 1.0, -3.0, -3.0), -0.04550624035832146),
])
def test_order_3_partial_sum_unchanged(args, ref):
    # reference values computed with the 400-node wedge contour at every
    # Ai point; the interpolant must not move the block expansion
    assert airy_two_point_series(*args)[-1] == pytest.approx(ref, abs=1e-10)


def test_partial_sums_alternate_and_converge():
    p = airy_two_point_series(0.0, 1.0, 0.0, 0.0, order=3)
    assert len(p) == 4
    assert p[0] == 1.0
    # successive corrections shrink
    assert abs(p[3] - p[2]) < abs(p[2] - p[1]) < abs(p[1] - p[0])
    assert 0.0 < p[3] < 1.0


# ---------------------------------------------------------------------------
# limiting series terms
# ---------------------------------------------------------------------------


def test_limit_term_10_vs_double_quadrature_oracle():
    # I_{1,0} = -int_0^inf dtau int_0^inf dx Ai(theta2 + x + tau)^2
    g, t1, t2, r2 = 1.0, 0.5, 0.5, 0.3
    sc = scaling_constants(g)
    theta2 = sc.c1 * r2 + sc.c2 * t2**2

    def inner(tau):
        v, _ = scipy.integrate.quad(
            lambda x: scipy_ai(theta2 + x + tau) ** 2, 0.0, 30.0, limit=200
        )
        return v

    ref, _ = scipy.integrate.quad(inner, 0.0, 12.0, limit=100)
    val = limit_term(1, 0, t1, t2, 0.0, r2, g)
    assert val == pytest.approx(-ref, abs=1e-8)


def test_limit_sum_matches_kernel_route():
    # sum of I_{m,n} over m + n <= 2 equals the order-2 truncation of the
    # block Fredholm expansion under the scaling map
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
    assert total == pytest.approx(partial[-1], abs=1e-3)


def test_limit_term_validation():
    with pytest.raises(ValueError):
        limit_term(-1, 0, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        limit_term(2, 2, 0.5, 0.5, 0.0, 0.0)  # cost cap
    with pytest.raises(ValueError):
        # mixed blocks need the times bounded away from zero
        limit_term(1, 1, 0.01, 0.01, 0.0, 0.0)
    assert limit_term(0, 0, 0.5, 0.5, 0.0, 0.0) == 1.0


def test_conjecture_rhs_monotone_and_limits():
    lo = conjecture_rhs(0.5, 0.5, -1.0, -1.0)
    mid = conjecture_rhs(0.5, 0.5, 0.0, 0.0)
    hi = conjecture_rhs(0.5, 0.5, 4.0, 4.0)
    assert 0.0 < lo < mid < hi <= 1.0 + 1e-9
    assert hi > 0.999


def christoffel_darboux_kernel(x, y):
    """K_Ai(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y) on a grid of
    pairs, with the diagonal limit Ai'(x)^2 - x Ai(x)^2."""
    ax, apx, _, _ = scipy.special.airy(x)
    ay, apy, _, _ = scipy.special.airy(y)
    d = x - y
    off = np.abs(d) > 1e-12
    safe = np.where(off, d, 1.0)
    return np.where(off, (ax * apy - apx * ay) / safe, apx**2 - x * ax**2)


def limit_11_oracle(t1, t2, r1, r2, g=1.0):
    """I_{1,1} = tr A' tr D' + int int e^{-rate(x+y)}
    K_Ai(th1 - x, th1 + y) K_Ai(th2 - x, th2 + y) dx dy: each K_Ai pairs the
    two ends of one time group, as the extended-kernel expansion does."""
    sc = scaling_constants(g)
    th1 = sc.c1 * r1 + sc.c2 * t1**2
    th2 = sc.c1 * r2 + sc.c2 * t2**2
    rate = sc.c3 * (t1 + t2)

    def trace(th):
        v, _ = scipy.integrate.quad(
            lambda s: float(christoffel_darboux_kernel(s, s)), th, th + 30.0,
            epsabs=1e-14, epsrel=1e-13, limit=200)
        return v

    def panels(b, n_panels, per=40):
        t, w = np.polynomial.legendre.leggauss(per)
        e = np.linspace(0.0, b, n_panels + 1)
        h = 0.5 * np.diff(e)[:, None]
        return ((e[:-1, None] + h * (1 + t)).ravel(), (h * w).ravel())

    x, wx = panels(45.0 / rate, 120)
    y, wy = panels(20.0, 10)
    k1 = christoffel_darboux_kernel(th1 - x[:, None], th1 + y[None, :])
    k2 = christoffel_darboux_kernel(th2 - x[:, None], th2 + y[None, :])
    cross = (np.exp(-rate * x) * wx) @ (k1 * k2) @ (np.exp(-rate * y) * wy)
    return trace(th1) * trace(th2) + cross


@pytest.mark.parametrize("args", [
    (0.6, 0.5, 0.2, 0.1),
    (0.3, 0.8, -0.5, 0.4),
])
def test_limit_term_11_pairs_thresholds_within_groups(args):
    # at theta1 != theta2 the mixed blocks must not swap the thresholds
    # of the two groups
    assert limit_term(1, 1, *args) == pytest.approx(
        limit_11_oracle(*args), abs=1e-9)


def test_limit_sum_matches_kernel_route_tight():
    # the limit terms are coefficients of the same determinant whose
    # order-2 truncation the kernel route sums
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
    assert total == pytest.approx(partial[-1], abs=1e-9)


@pytest.mark.parametrize("t2", [0.2, 1.0, 3.0])
def test_partial_sums_match_eigenvalue_recursion(t2):
    # at the supported threshold floor the two-time operator has the
    # highest numerical degree; the FFT coefficients must not alias
    Mw = _nystrom_matrix([0.0, t2], [-5.0, -5.0], 64)
    e = np.zeros(4, dtype=complex)
    e[0] = 1.0
    for lam in np.linalg.eigvals(Mw):
        e[1:] = e[1:] + lam * e[:-1].copy()
    ref = np.cumsum([(-1) ** j * e[j].real for j in range(4)])
    p = airy_two_point_series(0.0, t2, -5.0, -5.0, order=3)
    assert np.max(np.abs(np.array(p) - ref)) < 1e-12
