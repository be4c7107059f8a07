"""Complex special functions used by the contour formulas.

Everything here is self-contained (no scipy): log-gamma via a Lanczos
approximation with explicitly listed coefficients, digamma/polygamma via
recurrence + Bernoulli asymptotics, the Airy function as a cached Chebyshev
interpolant of its wedge-contour representation, the Sklyanin density, and
small-rank Whittaker (Givental) integrals with the Stade identity check.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .quadrature import gl_nodes

# ---------------------------------------------------------------------------
# log-gamma (Lanczos, g = 607/128, 15 coefficients), vectorized over ndarrays
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_right(z: np.ndarray) -> np.ndarray:
    """log Gamma for Re z >= 0.5 (no reflection needed)."""
    zm1 = z - 1.0
    s = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def log_gamma(z):
    """Principal-branch log Gamma, complex, >= 12 significant digits on the
    working range.  Reflection formula for Re z < 0.5; note that after
    reflection the result is only guaranteed modulo 2*pi*i (all callers
    exponentiate or use integer-coefficient combinations).
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    on_pole = (z.imag == 0) & (z.real <= 0) & (z.real == np.round(z.real))
    if np.any(on_pole):
        raise ValueError("log_gamma pole at non-positive integer")
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _lanczos_right(z[right])
    if np.any(~right):
        zr = z[~right]
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        out[~right] = (
            math.log(math.pi) - _log_sin_pi(zr) - _lanczos_right(1.0 - zr)
        )
    return out[0] if scalar else out


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log(sin(pi z)) computed overflow-safely for large |Im z|.

    Factor out the exponentially dominant half of
    sin(pi z) = (e^{i pi z} - e^{-i pi z}) / (2i):
      Im z > 0:  sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2i)
      Im z <= 0: sin(pi z) = e^{ i pi z} (1 - e^{-2 i pi z}) / (2i)
    """
    ipz = 1j * math.pi * z
    upper = z.imag > 0
    big = np.where(upper, -ipz, ipz)
    decaying = np.exp(np.where(upper, 2 * ipz, -2 * ipz))  # always |.| <= 1
    rest = np.where(upper, decaying - 1.0, 1.0 - decaying)
    return big + np.log(rest / 2j)


def gamma(z):
    return np.exp(log_gamma(z))


# ---------------------------------------------------------------------------
# digamma / polygamma
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_14
_BERN = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6]


def digamma(z):
    """Psi(z) = (log Gamma)'(z); real or complex, poles at 0, -1, -2, ..."""
    return polygamma(0, z)


def polygamma(k: int, z):
    """Psi^(k)(z) for k in {0, 1, 2}; real or complex, poles at 0, -1, -2, ...

    The recurrence Psi^(k)(z) = Psi^(k)(z+1) - (-1)^k k!/z^{k+1} moves z to
    |z| >= 15 and Re z >= 15, where the k-th derivative of the Stirling
    series Psi(z) ~ log z - 1/(2z) - sum_n B_2n/(2n z^{2n}) is summed."""
    if k not in (0, 1, 2):
        raise ValueError("polygamma implemented for k <= 2 only")
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == round(z.real):
        raise ValueError("polygamma pole at non-positive integer")
    sign = (-1) ** (k + 1)
    acc = 0.0 + 0.0j
    while abs(z) < 15 or z.real < 15:
        acc += sign * math.factorial(k) / z ** (k + 1)
        z += 1.0
    # the k-th derivatives of log z, -1/(2z) and -B_2n/(2n z^{2n}), in
    # powers of w = 1/z, which underflow where powers of a huge z overflow
    w = 1.0 / z
    val = np.log(z) if k == 0 else sign * math.factorial(k - 1) * w**k
    val += sign * math.factorial(k) * w ** (k + 1) / 2
    for n, b in enumerate(_BERN, start=1):
        coef = math.factorial(2 * n + k - 1) / math.factorial(2 * n)
        val += sign * coef * b * w ** (2 * n + k)
    val += acc
    return val.real if abs(val.imag) < 1e-14 else val


# ---------------------------------------------------------------------------
# Sklyanin density
# ---------------------------------------------------------------------------


def sklyanin(lam: Sequence[complex]):
    """s_n(lambda) = (2 pi i)^{-n} (n!)^{-1} prod_{i != j} Gamma(l_i - l_j)^{-1}.

    Vectorized: each lambda_k may be an ndarray (broadcastable); returns the
    density evaluated elementwise.
    """
    lam = [np.asarray(l, dtype=complex) for l in lam]
    n = len(lam)
    log_inv = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                log_inv = log_inv + log_gamma(lam[i] - lam[j])
    pref = (2j * math.pi) ** (-n) / math.factorial(n)
    return pref * np.exp(-log_inv)


# ---------------------------------------------------------------------------
# Airy function: a cached Chebyshev interpolant of the wedge contour
# ---------------------------------------------------------------------------

_AIRY_RAY_LENGTH = 8.0
_AIRY_RAY_NODES = 400
_AIRY_X_MAX = 10.0
# the trailing coefficients at degree 80 are below 4e-15, and the
# interpolant matches Ai to 1.3e-13 on [-10, 10]
_AIRY_CHEB_DEGREE = 80


def _airy_ai_wedge(x: np.ndarray) -> np.ndarray:
    """Ai(x) from the contour integral over the two rays at angles +-pi/3:

        Ai(x) = (1/pi) * Im  int_0^R  e^{i pi/3} exp(-t^3/3 - x t e^{i pi/3}) dt

    by a 400-node Gauss-Legendre rule on each ray (2.2e-13 absolute on
    [-10, 10]); costs one complex exponential per node and point."""
    t, w = gl_nodes(0.0, _AIRY_RAY_LENGTH, _AIRY_RAY_NODES)
    phase = np.exp(1j * math.pi / 3.0)
    # integrand on the upper ray; the lower ray is its conjugate
    expo = -(t**3) / 3.0 - np.multiply.outer(x, t) * phase
    vals = np.exp(expo) * (w * phase)
    return vals.sum(axis=-1).imag / math.pi


@functools.cache
def _airy_ai_series() -> np.polynomial.Chebyshev:
    """The Chebyshev interpolant of the wedge contour on [-10, 10], built
    on the first call from its values at the Chebyshev points."""
    return np.polynomial.Chebyshev.interpolate(
        _airy_ai_wedge, _AIRY_CHEB_DEGREE, domain=[-_AIRY_X_MAX, _AIRY_X_MAX])


def airy_ai(x):
    """Ai(x) on the supported range x in [-10, 10] (the spec'd desk-scale
    window), from the cached Chebyshev interpolant of the wedge contour;
    vectorized."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xv = np.atleast_1d(xa)
    if np.any(np.abs(xv) > _AIRY_X_MAX + 1e-12):
        raise ValueError("airy_ai supported for |x| <= 10")
    out = _airy_ai_series()(xv)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# scaling constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingConstants:
    f_gamma: float
    c1: float
    c2: float
    c3: float
    Gppp: float
    Fpp: float


def scaling_constants(gamma_: float) -> ScalingConstants:
    """Constants of the KPZ scaling window for the (0, gamma) polymer.

    With G(z) = log Gamma(z) - log Gamma(gamma - z) + f_gamma z and
    F(z) = log Gamma(z) + log Gamma(gamma - z):
      f_gamma   = -2 Psi(gamma/2)
      G'''(gamma/2) = 2 Psi''(gamma/2)   (< 0)
      F''(gamma/2)  = 2 Psi'(gamma/2)    (> 0)
      c1 = (-G'''/2)^{-1/3},  c2 = -c1 F''^2 / (2 G'''),  c3 = -F''/G'''.
    """
    if not (math.isfinite(gamma_) and gamma_ > 0):
        raise ValueError("gamma must be positive and finite")
    half = gamma_ / 2.0
    f_gamma = -2.0 * float(np.real(digamma(half)))
    Gppp = 2.0 * float(np.real(polygamma(2, half)))
    Fpp = 2.0 * float(np.real(polygamma(1, half)))
    if not (Gppp < 0 < Fpp):
        raise ArithmeticError("sign assumptions on G''' and F'' violated")
    c1 = (-Gppp / 2.0) ** (-1.0 / 3.0)
    c2 = -c1 * Fpp**2 / (2.0 * Gppp)
    c3 = -Fpp / Gppp
    return ScalingConstants(f_gamma, c1, c2, c3, Gppp, Fpp)


# ---------------------------------------------------------------------------
# Whittaker functions at small rank (Givental integral)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhittakerArg:
    alpha: Tuple[complex, ...]
    x: Tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.x):
            raise ValueError("rank mismatch between parameters and base point")
        if len(self.alpha) > 2:
            raise ValueError("rank capped at 2")
        if any(xi <= 0 for xi in self.x):
            raise ValueError("base point must be positive")

    @property
    def rank(self) -> int:
        return len(self.alpha)


# half-length of the log-variable window y in [-L, L] of the Givental and
# Stade integrals, and the Gauss-Legendre nodes on it
_GIVENTAL_HALF_LENGTH = 12.0
_WHITTAKER_NODES = 200
_STADE_NODES = 120  # each of stade_check's outer and inner integrals


def _givental(alpha, x, n_nodes: int):
    """Psi^{(n)}_alpha at the base points x = (x_1, ..., x_n), arrays that
    broadcast together, rank n <= 2.  Rank 1 is the closed form
    x_1^{-alpha_1}.  At rank 2 the one integration variable z_11 is
    substituted z = e^y with y on [-L, L]; the pattern potential couples it
    to the top row x:
      int z^{-alpha_1} (x_1 x_2 / z)^{-alpha_2} e^{-(z/x_1 + x_2/z)} dz/z,
    by n_nodes-point Gauss-Legendre quadrature in y.
    """
    a = np.asarray(alpha, dtype=complex)
    if len(a) == 1:
        return x[0] ** (-a[0])
    L = _GIVENTAL_HALF_LENGTH
    y, wy = gl_nodes(-L, L, n_nodes)
    z = np.exp(y)  # dz/z = dy
    x1, x2 = (np.asarray(v)[..., None] for v in x)
    vals = z ** (-a[0]) * (x1 * x2 / z) ** (-a[1]) * np.exp(-(z / x1 + x2 / z))
    return np.sum(vals * wy, axis=-1)


def whittaker_givental(arg: WhittakerArg):
    """Psi^{(n)}_alpha(x) by quadrature of the Givental integral, rank <= 2
    (see _givental)."""
    return complex(_givental(arg.alpha, arg.x, _WHITTAKER_NODES))


def stade_check(n: int, nu, lam, r: float):
    """Evaluate both sides of the gamma-product pairing identity

        int e^{-r x_1} Psi_{-nu}(x) Psi_{-lam}(x) prod dx_i/x_i
          = r^{-sum(nu_i + lam_i)} prod_{ij} Gamma(nu_i + lam_j)

    for rank n <= 2; returns (lhs, rhs, relerr).
    """
    if n > 2:
        raise ValueError("stade_check capped at n <= 2")
    nu = np.atleast_1d(np.asarray(nu, dtype=complex))
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if len(nu) != n or len(lam) != n:
        raise ValueError("parameter length mismatch")
    for ni in nu:
        for lj in lam:
            if (ni + lj).real <= 0:
                raise ValueError("need Re(nu_i + lam_j) > 0")
    rhs = r ** (-float(np.sum(nu + lam).real)) * np.prod(
        [gamma(ni + lj) for ni in nu for lj in lam]
    )
    # the base point x_i = e^{y_i} on the product grid: dx_i/x_i = dy_i
    L = _GIVENTAL_HALF_LENGTH
    y, wy = gl_nodes(-L, L, _STADE_NODES)
    x = np.exp(y)
    base = (x,) if n == 1 else (x[:, None], x[None, :])
    vals = np.exp(-r * base[0]) * (_givental(-nu, base, _STADE_NODES)
                                   * _givental(-lam, base, _STADE_NODES))
    lhs = np.sum(vals * wy) if n == 1 else np.einsum("i,j,ij->", wy, wy, vals)
    lhs = complex(lhs)
    rhs = complex(rhs)
    relerr = abs(lhs - rhs) / abs(rhs)
    return lhs, rhs, relerr
