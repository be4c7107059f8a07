"""Special-function accuracy tests.

Independent oracles: mpmath (arbitrary precision) for gamma-family values
and Bessel-type integrals; closed forms where they exist.  The library
itself never uses mpmath/scipy — these are test-side cross-checks only.
"""
import math
import random

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from grsklab.quadrature import gl_nodes
from grsklab.specfun import (
    WhittakerArg,
    _airy_ai_wedge,
    airy_ai,
    digamma,
    gamma,
    log_gamma,
    polygamma,
    scaling_constants,
    sklyanin,
    stade_check,
    whittaker_givental,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-13
    assert abs(log_gamma(2.0)) < 1e-13


def test_gamma_half_is_sqrt_pi():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-12


def test_log_gamma_recursion():
    rng = random.Random(1)
    for _ in range(20):
        z = complex(rng.uniform(-5, 8), rng.uniform(-30, 30))
        if abs(z - round(z.real)) < 0.1 and z.real <= 0:
            continue
        lhs = np.exp(log_gamma(z + 1))
        rhs = z * np.exp(log_gamma(z))
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_log_gamma_vs_mpmath_grid():
    pts = [3.7 + 4.2j, 0.5 + 50j, -3.3 + 0.7j, 10 - 200j, 0.45 + 12j,
           700 + 3j, 0.3 + 1000j, -0.2 - 0.9j]
    for z in pts:
        ref = complex(mpmath.loggamma(z))
        # compare after exponentiation: reflection may shift by 2 pi i
        assert abs(np.exp(log_gamma(z) - ref) - 1) <= 1e-11


def test_log_gamma_pole_error():
    for z in [0.0, -1.0, -7.0]:
        with pytest.raises(ValueError):
            log_gamma(z)


def test_gamma_asymptotics_ratio():
    # |Gamma(a+ib)| e^{pi|b|/2} |b|^{1/2-a} -> sqrt(2 pi)
    a, b = 0.5, 50.0
    val = abs(np.exp(log_gamma(a + 1j * b))) * math.exp(math.pi * b / 2) * b ** (0.5 - a)
    assert abs(val - SQRT_2PI) <= 1e-3

    rng = random.Random(2)
    for _ in range(20):
        a = rng.uniform(-2.0, 3.0)
        b = rng.uniform(30.0, 200.0)
        val = abs(np.exp(log_gamma(a + 1j * b))) * math.exp(math.pi * b / 2) * b ** (0.5 - a)
        assert abs(val - SQRT_2PI) <= 1e-2 * SQRT_2PI


def test_reflection_modulo_2pi():
    rng = random.Random(3)
    for _ in range(10):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 5))
        resid = log_gamma(z) + log_gamma(1 - z) - (
            math.log(math.pi) - np.log(np.sin(math.pi * z))
        )
        k = resid / (2j * math.pi)
        assert abs(k - round(k.real)) <= 1e-10


# ---------------------------------------------------------------------------
# digamma / polygamma
# ---------------------------------------------------------------------------


def test_digamma_at_one():
    assert abs(digamma(1.0) + 0.5772156649015329) <= 1e-12


def test_trigamma_at_one():
    assert abs(polygamma(1, 1.0) - math.pi**2 / 6) <= 1e-12


def test_polygamma2_at_one():
    # Psi''(1) = -2 zeta(3)
    assert abs(polygamma(2, 1.0) + 2 * 1.2020569031595943) <= 1e-11


def test_digamma_recurrence():
    for z in (0.3, 1.3, 2.3):
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) <= 1e-10
        assert abs(polygamma(1, z + 1) - polygamma(1, z) + 1.0 / z**2) <= 1e-10
        assert abs(polygamma(2, z + 1) - polygamma(2, z) - 2.0 / z**3) <= 1e-10


def test_polygamma_cap():
    with pytest.raises(ValueError):
        polygamma(3, 1.0)


# ---------------------------------------------------------------------------
# Sklyanin density
# ---------------------------------------------------------------------------


def test_sklyanin_rank1():
    assert sklyanin([0.7j]) == pytest.approx(1.0 / (2j * math.pi))


def test_sklyanin_rank2_formula_and_positivity():
    y = 0.43
    lam = [1j * y, -1j * y]
    val = sklyanin(lam)
    ref = (2j * math.pi) ** (-2) / 2 / complex(
        mpmath.gamma(2j * y) * mpmath.gamma(-2j * y)
    )
    assert abs(val - ref) <= 1e-12 * abs(ref)
    # measure convention: s_2(lam) dlam with dlam = (i dy)^2 is positive
    assert (val * (1j) ** 2).real > 0


def test_sklyanin_permutation_symmetry():
    lam = [0.3 + 1.1j, -0.2 + 0.4j, 0.1 - 0.8j]
    a = sklyanin(lam)
    b = sklyanin([lam[2], lam[0], lam[1]])
    assert abs(a - b) <= 1e-13 * abs(a)


# ---------------------------------------------------------------------------
# Airy
# ---------------------------------------------------------------------------


def test_airy_at_zero():
    # Ai(0) = 3^{-2/3} / Gamma(2/3)
    ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert abs(airy_ai(0.0) - ref) <= 1e-10


def test_airy_accuracy_vs_mpmath():
    for x in [-10, -5.5, -2, -0.5, 0.7, 3, 10]:
        assert abs(airy_ai(float(x)) - float(mpmath.airyai(x))) <= 1e-10


AIRY_GRID = np.linspace(-10.0, 10.0, 201)


def test_airy_interpolant_vs_mpmath_grid():
    ref = np.array([float(mpmath.airyai(x)) for x in AIRY_GRID])
    assert float(np.abs(airy_ai(AIRY_GRID) - ref).max()) <= 1e-12


def test_airy_interpolant_matches_wedge_contour():
    diff = np.abs(airy_ai(AIRY_GRID) - _airy_ai_wedge(AIRY_GRID))
    assert float(diff.max()) <= 1e-12


def test_airy_monotone_decay_positive_axis():
    xs = np.linspace(0.0, 10.0, 21)
    vals = airy_ai(xs)
    assert np.all(np.diff(vals) < 0)
    assert airy_ai(1.0) < airy_ai(0.0)


def test_airy_ode_residual():
    h = 2e-3
    for x in (-2.0, 0.0, 2.0):
        second = (airy_ai(x + h) - 2 * airy_ai(x) + airy_ai(x - h)) / h**2
        assert abs(second - x * airy_ai(x)) <= 1e-6


def test_airy_out_of_range():
    with pytest.raises(ValueError):
        airy_ai(11.0)


# ---------------------------------------------------------------------------
# scaling constants
# ---------------------------------------------------------------------------


def test_scaling_constants_gamma2():
    sc = scaling_constants(2.0)
    # f_2 = -2 Psi(1) = 2 * EulerGamma
    assert abs(sc.f_gamma - 1.1544313298030657) <= 1e-10


def test_scaling_constants_signs_and_zeros():
    for g in (0.5, 1.0, 2.0, 4.0):
        sc = scaling_constants(g)
        assert sc.c1 > 0 and sc.c2 > 0 and sc.c3 > 0
        assert sc.Gppp < 0 < sc.Fpp
    # derivative ledger: G''' = 2 Psi'', F'' = 2 Psi'
    sc = scaling_constants(1.0)
    assert abs(sc.Gppp - 2 * float(mpmath.polygamma(2, 0.5))) <= 1e-9
    assert abs(sc.Fpp - 2 * float(mpmath.polygamma(1, 0.5))) <= 1e-9


@pytest.mark.parametrize("g", [0.05, 0.3, 0.37, 1600.0, 1e4])
def test_scaling_constants_closed_forms(g):
    # the constants are closed forms in Psi, Psi' and Psi'' at gamma/2 for
    # every gamma > 0, far from gamma = 1 too
    sc = scaling_constants(g)
    half = mpmath.mpf(g) / 2
    assert sc.f_gamma == pytest.approx(-2 * float(mpmath.psi(0, half)), rel=1e-12)
    assert sc.Fpp == pytest.approx(2 * float(mpmath.psi(1, half)), rel=1e-12)
    assert sc.Gppp == pytest.approx(2 * float(mpmath.psi(2, half)), rel=1e-12)
    c1 = (-sc.Gppp / 2) ** (-1 / 3)
    assert sc.c1 == pytest.approx(c1, rel=1e-12)
    assert sc.c2 == pytest.approx(-c1 * sc.Fpp**2 / (2 * sc.Gppp), rel=1e-12)
    assert sc.c3 == pytest.approx(-sc.Fpp / sc.Gppp, rel=1e-12)


@pytest.mark.parametrize("g", [0.05, 0.3, 1.0, 1600.0])
def test_scaling_point_is_a_degenerate_critical_point(g):
    # with f_gamma = -2 Psi(gamma/2), z = gamma/2 is a double critical point
    # of G(z) = log Gamma(z) - log Gamma(gamma - z) + f_gamma z, and the third
    # derivative of G and second of F = log Gamma(z) + log Gamma(gamma - z)
    # there are the constants' Gppp and Fpp
    with mpmath.workdps(40):
        g_ = mpmath.mpf(g)
        f = -2 * mpmath.psi(0, g_ / 2)

        def G(z):
            return mpmath.loggamma(z) - mpmath.loggamma(g_ - z) + f * z

        def F(z):
            return mpmath.loggamma(z) + mpmath.loggamma(g_ - z)

        d1, d2, d3 = (mpmath.diff(G, g_ / 2, k) for k in (1, 2, 3))
        assert abs(d1) <= 1e-25 * abs(d3) and abs(d2) <= 1e-25 * abs(d3)
        sc = scaling_constants(g)
        assert sc.Gppp == pytest.approx(float(d3), rel=1e-12)
        assert sc.Fpp == pytest.approx(float(mpmath.diff(F, g_ / 2, 2)), rel=1e-12)


# ---------------------------------------------------------------------------
# Whittaker / Stade / Plancherel
# ---------------------------------------------------------------------------


def test_whittaker_rank1_closed_form():
    arg = WhittakerArg((0.4 + 0j,), (2.0,))
    assert whittaker_givental(arg) == pytest.approx(2.0 ** (-0.4))


def test_whittaker_rank2_vs_independent_quadrature():
    x1, x2 = 1.3, 0.8
    a1, a2 = 0.3, 0.7
    arg = WhittakerArg((a1 + 0j, a2 + 0j), (x1, x2))
    val = whittaker_givental(arg)
    f = lambda z: z ** (-a1) * (x1 * x2 / z) ** (-a2) * mpmath.exp(-(z / x1 + x2 / z)) / z
    ref = complex(mpmath.quad(f, [0, mpmath.inf]))
    assert abs(val - ref) <= 1e-6 * abs(ref)


def test_whittaker_rank2_symmetry():
    a = whittaker_givental(WhittakerArg((0.3 + 0j, 0.7 + 0j), (1.3, 0.8)))
    b = whittaker_givental(WhittakerArg((0.7 + 0j, 0.3 + 0j), (1.3, 0.8)))
    assert abs(a - b) <= 1e-6 * abs(a)


def test_whittaker_rank3_needs_flag():
    # No rank-3 evaluation path exists; the argument is rejected when built.
    with pytest.raises(ValueError):
        whittaker_givental(WhittakerArg((0.3 + 0j, 0.5 + 0j, 0.7 + 0j), (1.0, 1.0, 1.0)))


def test_whittaker_rank_cap():
    with pytest.raises(ValueError):
        WhittakerArg((0.1,) * 4, (1.0,) * 4)


def test_stade_n1_exact():
    lhs, rhs, err = stade_check(1, 0.75, 0.75, 1.0)
    assert abs(rhs - math.gamma(1.5)) <= 1e-12
    assert err <= 1e-6

    lhs, rhs, err = stade_check(1, 0.5, 1.0, 2.0)
    assert abs(rhs - 2.0 ** (-1.5) * math.gamma(1.5)) <= 1e-12
    assert err <= 1e-6


def test_stade_n2():
    lhs, rhs, err = stade_check(2, (0.6, 0.8), (0.7, 0.9), 1.0)
    assert err <= 1e-4


def test_stade_precondition():
    with pytest.raises(ValueError):
        stade_check(1, -1.0, 0.5, 1.0)


def test_plancherel_rank1():
    # f(x) = e^{-x-1/x}: direct L2 norm vs transform-side norm
    y, wy = gl_nodes(-12.0, 12.0, 400)
    x = np.exp(y)
    lhs = float(np.sum(np.exp(-2 * x - 2.0 / x) * wy))
    # fhat(i t) = int f(x) x^{-i t} dx/x  (rank-1 Whittaker is a power)
    t, wt = gl_nodes(-60.0, 60.0, 1200)
    fhat = np.exp(-x - 1.0 / x)[None, :] * np.exp(
        -1j * np.outer(t, y)
    )
    fhat = fhat @ wy
    dens = sklyanin([1j * t]) * 1j  # s_1(lambda) dlambda with dlambda = i dt
    rhs = float(np.real(np.sum(np.abs(fhat) ** 2 * dens * wt)))
    assert abs(lhs - rhs) <= 1e-4 * lhs
