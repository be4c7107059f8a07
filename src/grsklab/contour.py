"""Complex-contour quadrature and the Laplace-transform formulas.

Implements the one- and two-point Laplace transforms of the log-gamma
polymer partition functions as multi-dimensional contour integrals, the
Fredholm-determinant form of the one-point transform, the Fredholm-like
double series for two points, the semi-discrete (Brownian) polymer
two-point formula, a numeric check of the block Cauchy identity, and the
pre-limit terms of the two-point Airy asymptotics.

Conventions:
  - vertical lines ell_delta = delta + i R are traced upwards;
  - circles C_r are centred at 0 and traced counter-clockwise;
  - the Sklyanin density s_n(mu) = (2 pi i)^{-n}/n! prod_{i != j}
    Gamma(mu_i - mu_j)^{-1} is used with the plain complex line elements
    d mu, so every n-fold line integral carries (2 pi i)^{-n}/n!.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .quadrature import QuadratureSpec, _graded_det_coefficients, gl_panels
from .specfun import digamma, log_gamma, polygamma

TWO_PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """A quadrature-ready contour: vertical line, circle, or polyline.

    kind "line": z = delta + i y, y in [-L, L], traced upwards.
    kind "circle": z = center + radius e^{i theta}, counter-clockwise.
    kind "polyline": straight segments through the listed complex points.
    """

    kind: str
    delta: float = 0.0
    length: float = 12.0
    center: complex = 0.0
    radius: float = 0.0
    points: Tuple[complex, ...] = ()
    n_nodes: int = 240

    def __post_init__(self):
        if self.kind not in ("line", "circle", "polyline"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        geometry = (self.delta, self.length, self.center, self.radius, *self.points)
        if not all(cmath.isfinite(x) for x in geometry):
            raise ValueError("contour geometry must be finite")
        if self.kind == "circle" and self.radius <= 0:
            raise ValueError("circle radius must be positive")
        if self.kind == "line" and self.length <= 0:
            raise ValueError("line half-length must be positive")
        if self.kind == "polyline" and len(self.points) < 2:
            raise ValueError("polyline needs at least two points")
        if self.n_nodes < 4:
            raise ValueError("need at least 4 nodes")

    def nodes(self, n_nodes: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Return (z, dz): node locations and complex line elements."""
        n = int(n_nodes or self.n_nodes)
        if self.kind == "line":
            y, wy = gl_panels(-self.length, self.length, n, max(1, n // 48))
            return self.delta + 1j * y, 1j * wy
        if self.kind == "circle":
            # trapezoid rule: spectrally accurate for periodic integrands
            theta = 2.0 * math.pi * np.arange(n) / n
            z = self.center + self.radius * np.exp(1j * theta)
            dz = 1j * self.radius * np.exp(1j * theta) * (2.0 * math.pi / n)
            return z, dz
        zs, dzs = [], []
        per = max(4, n // (len(self.points) - 1))
        for a, b in zip(self.points[:-1], self.points[1:]):
            t, wt = gl_panels(0.0, 1.0, per, max(1, per // 48))
            zs.append(a + (b - a) * t)
            dzs.append((b - a) * wt)
        return np.concatenate(zs), np.concatenate(dzs)


def vertical_line(delta: float, length: float = 12.0, n_nodes: int = 240) -> ContourSpec:
    return ContourSpec(kind="line", delta=delta, length=length, n_nodes=n_nodes)


def circle(radius: float, n_nodes: int = 128, center: complex = 0.0) -> ContourSpec:
    return ContourSpec(kind="circle", radius=radius, center=center, n_nodes=n_nodes)


def integrate(f, c: ContourSpec, n_nodes: Optional[int] = None) -> complex:
    z, dz = c.nodes(n_nodes)
    vals = np.asarray(f(z))
    if not np.all(np.isfinite(vals)):
        raise ValueError(
            "non-finite integrand value on contour (pole on contour?); "
            "move the contour parameter"
        )
    return complex(np.sum(vals * dz))


def integrate_with_refinement(
    f, c: ContourSpec, refinement: int = 2
) -> Tuple[complex, float]:
    """Value at the refined node count plus an error estimate from the
    difference against the base resolution."""
    coarse = integrate(f, c)
    fine = integrate(f, c, n_nodes=refinement * c.n_nodes)
    return fine, abs(fine - coarse)


@dataclass(frozen=True)
class ContourDefaults:
    """Default contour offsets for the two-point formulas at a given gamma."""

    delta: float
    delta1: float
    delta2: float
    delta_prime: float


def default_contours(gamma: float) -> ContourDefaults:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    delta = 0.4 * gamma
    return ContourDefaults(
        delta=delta,
        delta1=0.2 * min(delta, 1.0 - delta) if delta < 1.0 else 0.1,
        delta2=delta,
        delta_prime=delta + 0.1 * gamma,
    )


# ---------------------------------------------------------------------------
# dense tensor-product contraction
# ---------------------------------------------------------------------------

_AXES = "abcd"


def _contract(vectors: List[np.ndarray], pairs: Dict[Tuple[int, int], np.ndarray]) -> complex:
    """Sum over a tensor-product grid of prod_k vectors[k][i_k] times
    prod pairs[(k,l)][i_k, i_l], for at most four axes.

    Up to three axes this is one einsum.  Four axes must form a complete
    pair graph (one matrix per unordered pair; a key (l,k) with l > k is
    used as its transpose).  With a and c the two shortest axes and b, d
    the other two, the sum runs as a loop over a of one (c,b) @ (b,d)
    matmul each: X[c,b] = v_a P_ac P_ab (v_c P_cb v_b), Y[c,d] = P_ad (P_cd
    v_d), total += sum((X @ P_bd) * Y).  The loop keeps the temporaries at
    C x max(B, D); the full (A C) x B tensor at once would not.
    """
    dim = len(vectors)
    if dim == 0:
        return 1.0 + 0j
    if dim > len(_AXES):
        raise ValueError("contraction dimension cap exceeded")
    if dim < 4:
        terms = [v.astype(complex) for v in vectors]
        labels = [_AXES[k] for k in range(dim)]
        for (k, l), mat in pairs.items():
            terms.append(mat.astype(complex))
            labels.append(_AXES[k] + _AXES[l])
        expr = ",".join(labels) + "->"
        return complex(np.einsum(expr, *terms, optimize=True))

    P = {}
    for (k, l), mat in pairs.items():
        P[(k, l)] = np.asarray(mat, dtype=complex)
        P[(l, k)] = P[(k, l)].T
    if len(pairs) != 6 or len(P) != 12:
        raise ValueError("a 4-axis contraction needs a complete pair graph")
    v = [np.asarray(x, dtype=complex) for x in vectors]
    a, c, b, d = sorted(range(4), key=lambda k: len(v[k]))
    W = v[c][:, None] * P[(c, b)] * v[b][None, :]
    Z = P[(c, d)] * v[d][None, :]
    Pbd = P[(b, d)]
    total = 0j
    for i in range(len(v[a])):
        X = (v[a][i] * P[(a, c)][i][:, None]) * P[(a, b)][i][None, :] * W
        total += np.sum((X @ Pbd) * (P[(a, d)][i][None, :] * Z))
    return complex(total)


def _line_nodes_for_dim(dim: int, quad: Optional[QuadratureSpec]) -> int:
    # the 4-d joint terms carry a slowly-decaying cross term along the
    # lines, so they need denser panels than the lower-dimensional cases
    base = {1: 240, 2: 240, 3: 200}.get(dim, 320)
    if quad is not None:
        base = max(32, int(base * quad.nodes_per_unit / 20.0))
    return base


def _sklyanin_pair(mu: np.ndarray) -> np.ndarray:
    """Pairwise factor of the Sklyanin density, 1/(Gamma(d) Gamma(-d)) with
    d = a - b.  By the reflection formula Gamma(d) Gamma(-d) =
    -pi/(d sin(pi d)) this is -d sin(pi d)/pi, exactly zero on the diagonal
    (the density vanishes at coincident points).  The sine is the
    overflow-safe one: long lines reach |Im d| near 100."""
    d = mu[:, None] - mu[None, :]
    return -d * _safe_sin_pi(d) / math.pi


def _safe_sin_pi(z: np.ndarray) -> np.ndarray:
    """sin(pi z), the one sine of the module.  For |Im z| >= 20 it keeps
    only the dominant half of (e^{i pi z} - e^{-i pi z})/2i (the other is
    below e^{-125} relative), so nothing overflows before the result does.
    Written as exp(specfun._log_sin_pi(z)) it would lose digits where
    1 - e^{-2 pi i z} cancels: 3.9e-10 relative at z = 1e-8."""
    z = np.asarray(z, dtype=complex)
    im = np.imag(z)
    small = np.abs(im) < 20
    out = np.empty_like(z)
    out[small] = np.sin(np.pi * z[small])
    big = ~small
    if np.any(big):
        zb = z[big]
        s = np.sign(np.imag(zb))
        # sin(pi z) = (e^{i pi z} - e^{-i pi z}) / 2i; keep dominant term
        out[big] = np.exp(-1j * np.pi * zb * s) * (-s) / 2j
    return out


def _lg(z):
    return log_gamma(np.asarray(z, dtype=complex))


# ---------------------------------------------------------------------------
# one-point Laplace transform
# ---------------------------------------------------------------------------


def laplace1(
    m: int,
    n: int,
    u: float,
    alpha: Sequence[float],
    alphahat: Sequence[float],
    delta: Optional[float] = None,
    quad: Optional[QuadratureSpec] = None,
    length: float = 12.0,
) -> complex:
    """E[exp(-u Z_{(m,n)})] for an (alpha, alphahat)-log-gamma polymer,
    m >= n, as an n-fold integral over the vertical line ell_delta.

    The integrand is the Sklyanin density times
    prod_{j,j'} Gamma(-alphahat_{j'} + mu_j) and the ratio
    u^{-mu} F_m^alpha(mu) / (u^{-alphahat_j} F_m^alpha(alphahat_j)) with
    F_m^alpha(mu) = prod_i Gamma(mu + alpha_i).  The line must lie to the
    right of every alphahat_j and every -alpha_i.
    """
    alpha = [float(a) for a in alpha][:m]
    alphahat = [float(a) for a in alphahat][:n]
    if len(alpha) != m or len(alphahat) != n:
        raise ValueError("need m alpha values and n alphahat values")
    if not (m >= n >= 1):
        raise ValueError("requires m >= n >= 1")
    if n > 3:
        raise ValueError("dimension cap: n <= 3")
    if u < 0:
        raise ValueError("Laplace argument must be >= 0")
    if u == 0:
        return 1.0 + 0j
    lower = max(max(alphahat), -min(alpha))
    if delta is None:
        delta = lower + 0.5
    if delta <= lower:
        raise ValueError("contour must lie right of all poles: delta > "
                         f"{lower}")

    nn = _line_nodes_for_dim(n, quad)
    mu, dmu = vertical_line(delta, length, nn).nodes()
    logg = np.zeros(len(mu), dtype=complex)
    for ah in alphahat:
        logg += _lg(mu - ah)
    for a in alpha:
        logg += _lg(mu + a)
    logg -= np.log(u) * mu
    # constant normalization: prod_j u^{-alphahat_j} F_m^alpha(alphahat_j)
    log_den = 0.0
    for ah in alphahat:
        log_den += -math.log(u) * ah
        for a in alpha:
            log_den += float(_lg(ah + a).real)
    g = np.exp(logg - log_den / n) * dmu
    return _two_group_integral(g, mu, n, None, None, 0, None)


# ---------------------------------------------------------------------------
# two-point Laplace transforms
# ---------------------------------------------------------------------------


def _two_group_integral(gl, lam, k1, gm, mu, k2, cross) -> complex:
    """(2 pi i)^{-(k1+k2)}/(k1! k2!) times the sum over k1 axes on the nodes
    lam and k2 axes on mu of the per-axis weights gl and gm (line elements
    included), the Sklyanin pair factors within each group, and
    cross[i, j] between every lam-axis and every mu-axis."""
    pairs: Dict[Tuple[int, int], np.ndarray] = {}
    for k, z, first in ((k1, lam, 0), (k2, mu, k1)):
        if k >= 2:
            P = _sklyanin_pair(z)
            for i, j in combinations(range(first, first + k), 2):
                pairs[(i, j)] = P
    for i in range(k1):
        for j in range(k1, k1 + k2):
            pairs[(i, j)] = cross
    val = _contract([gl] * k1 + [gm] * k2, pairs)
    return _checked_transform(
        val / (TWO_PI_I ** (k1 + k2) * math.factorial(k1) * math.factorial(k2))
    )


def _checked_transform(val: complex) -> complex:
    """val, or ArithmeticError when its real part lies outside [0, 1] by more
    than 1e-6: a Laplace transform of a positive variable cannot, so the
    contour quadrature did not resolve the integrand."""
    if not -1e-6 <= val.real <= 1.0 + 1e-6:
        raise ArithmeticError(
            f"transform {val.real:.6g} lies outside [0, 1]: the contour "
            "quadrature does not resolve this input"
        )
    return val


def _check_two_points(m1, n1, m2, n2):
    if not (m1 < m2 and n1 > n2 and min(m1, n2) >= 1):
        raise ValueError("points must satisfy m1 < m2, n1 > n2, both >= (1,1)")


def laplace2_case_a(
    m1: int,
    n1: int,
    m2: int,
    n2: int,
    u1: float,
    u2: float,
    alpha: Sequence[float],
    alphahat: Sequence[float],
    gamma: float,
    delta: Optional[float] = None,
    quad: Optional[QuadratureSpec] = None,
    length: float = 12.0,
) -> complex:
    """Joint Laplace transform E[exp(-u1 Z_{(m1,n1)} - u2 Z_{(m2,n2)})] in
    the case m2 >= n2 (with m1 <= n1): an (m1 + n2)-fold contour integral,
    lambda over (ell_delta)^{m1} and mu over (ell_{delta+gamma})^{n2}, with
    the cross factor prod Gamma(lambda_i + mu_j) / Gamma(alpha_i + alphahat_j).
    Requires gamma/2 > delta > 0, |alpha| < delta, |alphahat - gamma| < delta.
    """
    _check_two_points(m1, n1, m2, n2)
    if not (m1 <= n1 and m2 >= n2):
        raise ValueError("case a requires m1 <= n1 and m2 >= n2")
    if m1 + n2 > 4:
        raise ValueError("dimension cap: m1 + n2 <= 4")
    alpha = [float(a) for a in alpha][:m2]
    alphahat = [float(a) for a in alphahat][:n1]
    if len(alpha) != m2 or len(alphahat) != n1:
        raise ValueError("need m2 alpha values and n1 alphahat values")
    if delta is None:
        delta = default_contours(gamma).delta
    if not (0 < delta < gamma / 2):
        raise ValueError("requires 0 < delta < gamma/2")
    if max(abs(a) for a in alpha) >= delta:
        raise ValueError("requires |alpha_i| < delta")
    if max(abs(a - gamma) for a in alphahat) >= delta:
        raise ValueError("requires |alphahat_j - gamma| < delta")
    if min(u1, u2) < 0:
        raise ValueError("Laplace arguments must be >= 0")
    if u2 == 0:
        return _case_a_u2zero(m1, n1, u1, alpha, alphahat, quad)
    if u1 == 0:
        return laplace1(m2, n2, u2, alpha, alphahat, quad=quad)

    nn = _line_nodes_for_dim(m1 + n2, quad)
    lam, dlam = vertical_line(delta, length, nn).nodes()
    mu, dmu = vertical_line(delta + gamma, length, nn).nodes()

    # per-axis lambda factor
    log_l = np.zeros(len(lam), dtype=complex)
    for a in alpha[:m1]:
        log_l += _lg(lam - a)
    for ah in alphahat[n2:n1]:
        log_l += _lg(lam + ah)
    log_l -= np.log(u1) * lam
    log_dl = 0.0
    for a in alpha[:m1]:
        log_dl += -math.log(u1) * a
        for ah in alphahat[n2:n1]:
            log_dl += float(_lg(a + ah).real)

    # per-axis mu factor
    log_m = np.zeros(len(mu), dtype=complex)
    for ah in alphahat[:n2]:
        log_m += _lg(mu - ah)
    for a in alpha[m1:m2]:
        log_m += _lg(mu + a)
    log_m -= np.log(u2) * mu
    log_dm = 0.0
    for ah in alphahat[:n2]:
        log_dm += -math.log(u2) * ah
        for a in alpha[m1:m2]:
            log_dm += float(_lg(ah + a).real)

    # cross factor Gamma(lambda + mu) / Gamma(alpha_i + alphahat_j)
    log_cross_den = 0.0
    for a in alpha[:m1]:
        for ah in alphahat[:n2]:
            log_cross_den += float(_lg(a + ah).real)
    cross = np.exp(
        _lg(lam[:, None] + mu[None, :]) - log_cross_den / (m1 * n2)
    )

    gl = np.exp(log_l - log_dl / m1) * dlam
    gm = np.exp(log_m - log_dm / n2) * dmu
    return _two_group_integral(gl, lam, m1, gm, mu, n2, cross)


def _case_a_u2zero(m1, n1, u1, alpha, alphahat, quad):
    # with u2 = 0 the joint transform degenerates to the one-point value at
    # (m1, n1); transpose if m1 <= n1 puts it in the m >= n orientation
    if m1 >= n1:
        return laplace1(m1, n1, u1, alpha[:m1], alphahat[:n1], quad=quad)
    return laplace1(n1, m1, u1, alphahat[:n1], alpha[:m1], quad=quad)


def laplace2_case_b(
    m1: int,
    n1: int,
    m2: int,
    n2: int,
    u1: float,
    u2: float,
    alpha: Sequence[float],
    alphahat: Sequence[float],
    gamma: float,
    delta: Optional[float] = None,
    delta_prime: Optional[float] = None,
    quad: Optional[QuadratureSpec] = None,
    length: float = 12.0,
) -> complex:
    """Joint Laplace transform in the case m2 < n2 (with m1 <= n1): lambda
    over (ell_delta)^{m1}, mu over (ell_{delta'})^{m2} with delta' > delta,
    and the cross factor prod Gamma(-lambda_i + mu_{i'})."""
    _check_two_points(m1, n1, m2, n2)
    if not (m1 <= n1 and m2 < n2):
        raise ValueError("case b requires m1 <= n1 and m2 < n2 "
                         "(m2 >= n2 routes to case a)")
    if m1 + m2 > 4:
        raise ValueError("dimension cap: m1 + m2 <= 4")
    alpha = [float(a) for a in alpha][:m2]
    alphahat = [float(a) for a in alphahat][:n1]
    if len(alpha) != m2 or len(alphahat) != n1:
        raise ValueError("need m2 alpha values and n1 alphahat values")
    dflt = default_contours(gamma)
    if delta is None:
        delta = dflt.delta
    if delta_prime is None:
        delta_prime = delta + 0.1 * gamma
    if not (0 < delta < delta_prime):
        raise ValueError("requires 0 < delta < delta'")
    if max(abs(a) for a in alpha) >= delta:
        raise ValueError("requires |alpha_i| < delta")
    if max(abs(a - gamma) for a in alphahat) >= delta:
        raise ValueError("requires |alphahat_j - gamma| < delta")
    if min(u1, u2) <= 0:
        raise ValueError("requires u1, u2 > 0")

    nn = _line_nodes_for_dim(m1 + m2, quad)
    lam, dlam = vertical_line(delta, length, nn).nodes()
    mu, dmu = vertical_line(delta_prime, length, nn).nodes()
    u12 = u1 / u2

    log_l = np.zeros(len(lam), dtype=complex)
    for a in alpha[:m1]:
        log_l += _lg(lam - a)
    for ah in alphahat[n2:n1]:
        log_l += _lg(lam + ah)
    log_l -= np.log(u12) * lam
    log_dl = 0.0
    for a in alpha[:m1]:
        log_dl += -math.log(u12) * a
        for ah in alphahat[n2:n1]:
            log_dl += float(_lg(a + ah).real)

    log_m = np.zeros(len(mu), dtype=complex)
    for a in alpha[m1:m2]:
        log_m += _lg(mu - a)
    for ah in alphahat[:n2]:
        log_m += _lg(mu + ah)
    log_m -= np.log(u2) * mu
    log_dm = 0.0
    for a in alpha[:m2]:
        log_dm += -math.log(u2) * a
        for ah in alphahat[:n2]:
            log_dm += float(_lg(a + ah).real)

    cross = np.exp(_lg(mu[None, :] - lam[:, None]))

    gl = np.exp(log_l - log_dl / m1) * dlam
    gm = np.exp(log_m - log_dm / m2) * dmu
    return _two_group_integral(gl, lam, m1, gm, mu, m2, cross)


def oy_laplace2(
    m1: int,
    t1: float,
    m2: int,
    t2: float,
    u1: float,
    u2: float,
    alpha: Sequence[float],
    delta: float = 0.4,
    delta_prime: float = 0.5,
    quad: Optional[QuadratureSpec] = None,
    length: Optional[float] = None,
) -> complex:
    """Two-point Laplace transform of the semi-discrete Brownian polymer:
    same contour structure as the m2 < n2 log-gamma case, with the gamma
    ratios replaced by Gaussian factors exp(((t1-t2)/2)(lambda^2-alpha^2))
    and exp((t2/2)(mu^2-alpha^2)); the Gaussians make the integrals
    absolutely convergent.

    Contour truncation: the reciprocal-gamma pair factors of the Sklyanin
    density *grow* like exp(pi |y_i - y_j|), so the Gaussian only wins far
    out on the line; by default each group's half-length Y solves
    (rate/2) Y^2 - (growth) Y = 30 for its own Gaussian rate, rather than
    using a fixed window."""
    if not (m1 < m2 and t1 > t2 > 0):
        raise ValueError("requires m1 < m2 and t1 > t2 > 0")
    if m1 + m2 > 3:
        # four axes do not converge within reach of the node counts
        raise ValueError("dimension cap: m1 + m2 <= 3")
    if min(u1, u2) < 0:
        raise ValueError("Laplace arguments must be >= 0")
    if u1 == 0 and u2 == 0:
        return 1.0 + 0j
    alpha = [float(a) for a in alpha][:m2]
    if len(alpha) != m2:
        raise ValueError("need m2 alpha (drift) values")
    if max(abs(a) for a in alpha) >= delta or delta >= delta_prime:
        raise ValueError("requires |alpha| < delta < delta'")
    if u2 == 0:
        raise ValueError("u2 must be > 0 (take m1 as the only point instead)")

    def half_length(rate: float, growth: float) -> float:
        # smallest Y with (rate/2) Y^2 - growth * Y >= 30
        return (growth + math.sqrt(growth**2 + 60.0 * rate)) / rate

    if length is None:
        len_l = 2.0 * half_length(t1 - t2, math.pi * (m1 - 1) + math.pi * m2 / 2)
        len_m = 2.0 * half_length(t2, math.pi * (m2 - 1) + math.pi * m1 / 2)
    else:
        len_l = len_m = float(length)
    npu = 20.0 if quad is None else quad.nodes_per_unit
    nl = max(64, int(len_l * npu))
    nm = max(64, int(len_m * npu))
    lam, dlam = vertical_line(delta, len_l, nl).nodes()
    mu, dmu = vertical_line(delta_prime, len_m, nm).nodes()

    log_l = np.zeros(len(lam), dtype=complex)
    log_dl = 0.0
    if m1 > 0:
        u12 = u1 / u2
        for a in alpha[:m1]:
            log_l += _lg(lam - a)
        log_l += -np.log(u12) * lam + 0.5 * (t1 - t2) * lam**2
        log_dl = sum(-math.log(u12) * a + 0.5 * (t1 - t2) * a**2
                     for a in alpha[:m1])

    log_m = np.zeros(len(mu), dtype=complex)
    for a in alpha[m1:m2]:
        log_m += _lg(mu - a)
    log_m += -np.log(u2) * mu + 0.5 * t2 * mu**2
    log_dm = sum(-math.log(u2) * a + 0.5 * t2 * a**2 for a in alpha[:m2])

    cross = np.exp(_lg(mu[None, :] - lam[:, None]))
    gl = np.exp(log_l - log_dl / m1) * dlam if m1 > 0 else dlam
    gm = np.exp(log_m - log_dm / m2) * dmu
    return _two_group_integral(gl, lam, m1, gm, mu, m2, cross)


# ---------------------------------------------------------------------------
# Fredholm determinant form of the one-point transform
# ---------------------------------------------------------------------------


def bcr_fredholm(
    m: int,
    n: int,
    u: float,
    alpha: Sequence[float],
    alphahat: Sequence[float],
    delta1: Optional[float] = None,
    delta2: Optional[float] = None,
    quad: Optional[QuadratureSpec] = None,
    order: Optional[int] = None,
    n_circle: int = 128,
    length: float = 12.0,
) -> complex:
    """E[exp(-u Z_{(m,n)})] as det(I + K_u) on L^2(C_{delta1}).

    The partition-function law is invariant under the re-parameterization
    (alpha + s, alphahat - s); we shift by s = mean(alphahat) so the
    shifted alphahat' are small (|alphahat'| < delta1 is required) and the
    shifted alpha' are positive (delta2 < min alpha' is required).

    Kernel: K_u(v,v') = (1/2 pi i) int_{ell_delta2} dw/(w - v')
    * pi/sin(pi(v-w)) * [u^w prod_i Gamma(alpha'_i - w)] /
    [u^v prod_i Gamma(alpha'_i - v)] * prod_j Gamma(v + alphahat'_j) /
    Gamma(w + alphahat'_j).  The determinant has rank <= n (its only poles
    in v inside the circle are at -alphahat'_j), so the series truncates.
    """
    alpha = [float(a) for a in alpha][:m]
    alphahat = [float(a) for a in alphahat][:n]
    if len(alpha) != m or len(alphahat) != n:
        raise ValueError("need m alpha values and n alphahat values")
    if u < 0:
        raise ValueError("Laplace argument must be >= 0")
    if u == 0:
        return 1.0 + 0j
    s = sum(alphahat) / n
    ap = [a + s for a in alpha]
    ahp = [a - s for a in alphahat]
    if min(ap) <= 0:
        raise ValueError("shifted alpha' must be positive")
    if delta2 is None:
        delta2 = 0.5 * min(1.0, min(ap))
    if not (0 < delta2 < min(1.0, min(ap))):
        raise ValueError("requires 0 < delta2 < min(1, min alpha')")
    cap = min(delta2, 1.0 - delta2)
    ahp_max = max(abs(a) for a in ahp)
    if delta1 is None:
        delta1 = 0.5 * (cap + ahp_max)
    if not (ahp_max < delta1 < cap):
        raise ValueError("requires max|alphahat'| < delta1 < min(delta2, 1-delta2)")
    if order is None:
        order = n

    nw = _line_nodes_for_dim(1, quad)
    v, dv = circle(delta1, n_circle).nodes()
    w, dw = vertical_line(delta2, length, nw).nodes()

    def log_F(z):
        out = np.log(u) * z
        for a in ap:
            out = out + _lg(a - z)
        return out

    def log_G(z):
        out = np.zeros_like(z, dtype=complex)
        for a in ahp:
            out = out + _lg(z + a)
        return out

    lFw, lFv = log_F(w), log_F(v)
    lGw, lGv = log_G(w), log_G(v)
    dvw = v[:, None] - w[None, :]
    # pi/sin(pi z), overflow-safe via logs off the real axis
    sin_fac = np.pi / _safe_sin_pi(dvw)
    core = sin_fac * np.exp(
        (lFw[None, :] - lFv[:, None]) + (lGv[:, None] - lGw[None, :])
    )
    # K[a, b] = (1/2 pi i) sum_w dw/(w - v_b) core[a, w]
    K = (core * dw[None, :]) @ (1.0 / (w[:, None] - v[None, :])) / TWO_PI_I
    # L^2(C_{delta1}) carries the measure dv/(2 pi i): this normalization
    # is fixed by the numeric match with the n-fold line-integral form
    Kt = K * dv[None, :] / TWO_PI_I
    # det(I + z K) has degree <= n, the kernel's rank, so n + 1 roots of
    # unity give its coefficients exactly; the series is truncated at `order`
    c = _graded_det_coefficients(Kt, [len(Kt)], n + 1)
    return _checked_transform(complex(np.sum(c[: order + 1])))


# ---------------------------------------------------------------------------
# Fredholm-like double series for two points at (0, gamma)
# ---------------------------------------------------------------------------


def joint_series_term(
    m: int,
    n: int,
    m1: int,
    n1: int,
    m2: int,
    n2: int,
    u1: float,
    u2: float,
    gamma: float,
    delta: Optional[float] = None,
    delta1: Optional[float] = None,
    quad: Optional[QuadratureSpec] = None,
    n_circle: int = 64,
    length: Optional[float] = None,
) -> complex:
    """The (m, n) summand of the double series for the (0, gamma) joint
    Laplace transform.  The first index m counts contour pairs (v, w)
    attached to the second point (m2, n2) with u2; the second index n
    counts pairs (v', w') attached to the first point (m1, n1) with u1.
    Summing the terms over m <= n2, n <= m1 reproduces laplace2_case_a.

    Each pair contributes a circle C_{delta1} and a line ell_delta
    integral; pairs interact through Cauchy determinants within a group
    and through the gamma-function cross term across groups.

    The line half-length defaults to min(12, max(2, 80/decay)), where
    decay = (pi/2) min(m_i + n_i) over the points whose group the term
    uses: a group's w-factor decays like exp(-decay |Im w|), and a short
    line keeps the fixed node count dense against the oscillation of u^w
    when u is far from 1.
    """
    if m < 0 or n < 0:
        raise ValueError("term indices must be >= 0")
    if m + n > 2:
        raise ValueError("dimension cap: m + n <= 2")
    if m == 0 and n == 0:
        return 1.0 + 0j
    dflt = default_contours(gamma)
    if delta is None:
        delta = dflt.delta
    if delta1 is None:
        delta1 = dflt.delta1
    if not (0 < delta1 < min(delta, 1.0 - delta) and delta < gamma / 2):
        raise ValueError("requires 0 < delta1 < min(delta, 1-delta), delta < gamma/2")

    if length is None:
        sizes = ([m2 + n2] if m else []) + ([m1 + n1] if n else [])
        decay = min(sizes) * math.pi / 2.0
        length = min(12.0, max(2.0, 80.0 / decay))
    nl = _line_nodes_for_dim(2 * (m + n), quad)
    v, dv = circle(delta1, n_circle).nodes()
    w, dw = vertical_line(delta, length, nl).nodes()

    def axis_factors(u, expo_gamma, expo_zero):
        # w-axis: u^w Gamma(gamma-w)^expo_gamma / Gamma(w)^expo_zero
        fw = np.exp(
            np.log(u) * w + expo_gamma * _lg(gamma - w) - expo_zero * _lg(w)
        )
        fv = np.exp(
            -np.log(u) * v - expo_gamma * _lg(gamma - v) + expo_zero * _lg(v)
        )
        return fv * dv, fw * dw

    sin_vw = np.pi / _safe_sin_pi(v[:, None] - w[None, :])
    inv_wv = 1.0 / (w[None, :] - v[:, None])  # (v, w) orientation

    g2v, g2w = axis_factors(u2, m2, n2)  # second-point group
    g1v, g1w = axis_factors(u1, n1, m1)  # first-point group

    # each (v, w) pair carries (2 pi i)^{-2}: one factor from the
    # kernel's w-integral and one from the circle measure dv/(2 pi i)
    # (the same normalization that makes the Fredholm form match the
    # line-integral form)
    pref = 1.0 / (
        math.factorial(m) * math.factorial(n) * TWO_PI_I ** (2 * (m + n))
    )

    if (m, n) in ((1, 0), (0, 1)):
        gv, gw = (g2v, g2w) if m == 1 else (g1v, g1w)
        val = complex(np.einsum("a,b,ab,ab->", gv, gw, sin_vw, inv_wv))
        return pref * val

    if (m, n) == (1, 1):
        ct = _cross_term_pairs(v, w, gamma)
        vecs = [g2v, g2w, g1v, g1w]
        pairs = {
            (0, 1): sin_vw * inv_wv,
            (2, 3): sin_vw * inv_wv,
            (1, 3): ct["ww"],
            (0, 2): ct["vv"],
            (0, 3): ct["vw"],
            (2, 1): ct["vw"],
        }
        return pref * _contract(vecs, pairs)

    # (2,0) / (0,2): one group with a 2x2 Cauchy determinant
    gv, gw = (g2v, g2w) if m == 2 else (g1v, g1w)
    sv = sin_vw
    # det(1/(w_k - v_l)) = 1/(w1-v1)(w2-v2) - 1/(w1-v2)(w2-v1)
    diag = np.einsum("a,b,ab,ab->", gv, gw, sv, inv_wv)
    swap = np.einsum("a,b,c,d,ab,cd,ad,cb->", gv, gw, gv, gw, sv, sv,
                     inv_wv, inv_wv, optimize=True)
    val = complex(diag) ** 2 - complex(swap)
    return pref * val


def _cross_term_pairs(v: np.ndarray, w: np.ndarray,
                      gamma: float) -> Dict[str, np.ndarray]:
    """Cross-term pair matrices Gamma(gamma-a-b) between the two groups:
    'ww' for (w, w'), 'vv' for (v, v'), 'vw' for mixed, with numerators on
    the like pairs and denominators on the mixed ones."""
    ww = np.exp(_lg(gamma - w[:, None] - w[None, :]))
    vv = np.exp(_lg(gamma - v[:, None] - v[None, :]))
    vw = np.exp(-_lg(gamma - v[:, None] - w[None, :]))
    return {"ww": ww, "vv": vv, "vw": vw}


# ---------------------------------------------------------------------------
# block Cauchy identity check
# ---------------------------------------------------------------------------


def block_cauchy_check(
    w: Sequence[complex],
    v: Sequence[complex],
    ws: Sequence[complex],
    vs: Sequence[complex],
    gamma: float,
    n_nodes: int = 96,
) -> Tuple[complex, complex, float]:
    """Evaluate both sides of the block Cauchy identity.

    lhs: det(1/(w_k - v_l)) det(1/(ws_k - vs_l)) times the product of
    linear-factor ratios (gamma-ws-v)(gamma-vs-w)/((gamma-ws-w)(gamma-vs-v)).
    rhs: integral over the positive orthant of the exponential block
    determinant, as the determinant of its per-axis column integrals, each
    by Gauss-Legendre quadrature.  Returns (lhs, rhs, relerr).
    """
    w = [complex(z) for z in w]
    v = [complex(z) for z in v]
    ws = [complex(z) for z in ws]
    vs = [complex(z) for z in vs]
    n, mm = len(w), len(ws)
    if len(v) != n or len(vs) != mm:
        raise ValueError("need equally many w/v and ws/vs values")
    if n + mm == 0:
        return 1.0, 1.0, 0.0
    if n + mm > 4:
        raise ValueError("dimension cap: n + m <= 4")
    for z in w + ws + v + vs:
        if z.real >= gamma / 2:
            raise ValueError("requires Re < gamma/2 for all arguments")
    for a in w:
        for b in v:
            if (a - b).real <= 0:
                raise ValueError("requires Re(w - v) > 0")
    for a in ws:
        for b in vs:
            if (a - b).real <= 0:
                raise ValueError("requires Re(ws - vs) > 0")

    def cauchy_det(ww, vv):
        k = len(ww)
        if k == 0:
            return 1.0 + 0j
        M = 1.0 / (np.array(ww)[:, None] - np.array(vv)[None, :])
        return complex(np.linalg.det(M))

    lhs = cauchy_det(w, v) * cauchy_det(ws, vs)
    for k in range(n):
        for l in range(mm):
            lhs *= ((gamma - ws[l] - v[k]) * (gamma - vs[l] - w[k])) / (
                (gamma - ws[l] - w[k]) * (gamma - vs[l] - v[k])
            )

    # rhs: the exponent of entry (i, j) is x_j * S[i, j]; the slowest decay
    # in column j sets the truncation length of the x_j axis
    dim = n + mm
    W, V, WS, VS = (np.array(z, dtype=complex) for z in (w, v, ws, vs))
    S = np.block([
        [W[:, None] - V[None, :], gamma - W[:, None] - WS[None, :]],
        [gamma - VS[:, None] - V[None, :], WS[None, :] - VS[:, None]],
    ])
    rates = S.real.min(axis=0)
    if min(rates) <= 0:
        raise ValueError("integrand does not decay: check Re constraints")

    # each column of the block determinant depends on one x_j, so its
    # orthant integral is det of the matrix of column integrals (Leibniz)
    A = np.empty((dim, dim), dtype=complex)
    for j, r in enumerate(rates):
        x, wx = gl_panels(0.0, 40.0 / r, n_nodes, max(1, n_nodes // 24))
        A[:, j] = np.exp(-np.outer(S[:, j], x)) @ wx
    A[:n, n:] *= -1.0
    rhs = complex(np.linalg.det(A))
    relerr = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return lhs, rhs, relerr


# ---------------------------------------------------------------------------
# pre-limit terms of the two-point Airy asymptotics
# ---------------------------------------------------------------------------


def scaled_points(N: int, t1: float, t2: float) -> Tuple[int, int, int, int]:
    """Lattice points (m1,n1) = (N - t1 N^{2/3}, N + t1 N^{2/3}) and
    (m2,n2) = (N + t2 N^{2/3}, N - t2 N^{2/3}), rounded to nearest ints."""
    s1 = t1 * N ** (2.0 / 3.0)
    s2 = t2 * N ** (2.0 / 3.0)
    m1, n1 = round(N - s1), round(N + s1)
    m2, n2 = round(N + s2), round(N - s2)
    if min(m1, n2) < 1:
        raise ValueError("scaled points leave the lattice; reduce t or raise N")
    return int(m1), int(n1), int(m2), int(n2)


def scaled_u(N: int, gamma: float, r: float) -> float:
    """u = exp(-N f_gamma - r N^{1/3}) with f_gamma = -2 Psi(gamma/2)."""
    f = -2.0 * float(digamma(gamma / 2.0))
    return math.exp(-N * f - r * N ** (1.0 / 3.0))


def prelimit_term(
    m: int,
    n: int,
    N: int,
    gamma: float,
    t1: float,
    t2: float,
    r1: float = 0.0,
    r2: float = 0.0,
    delta: Optional[float] = None,
    delta1: Optional[float] = None,
    quad: Optional[QuadratureSpec] = None,
) -> complex:
    """The pre-limit summand I^{(N)}_{m,n} of the two-point expansion, for
    the (0, gamma) polymer at the N^{2/3}-separated points, with
    u_i = exp(-N f_gamma - r_i N^{1/3}).

    This is joint_series_term at (m1,n1,m2,n2) = scaled_points(N, t1, t2)
    and u_i = scaled_u(N, gamma, r_i), on the pre-limit offsets
    delta = 0.45 gamma, delta1 = 0.2 gamma.  The paper writes the term as
    tau and x orthant integrals of a block determinant; the two forms agree
    exactly.  int_0^inf e^{x s} dx = -1/s (Re s < 0) collapses the tau and
    x integrals of a pair to its Cauchy factor, and at (1,1) the identity
    Gamma(1+s)/s = Gamma(s) turns the mixed-block term into the block
    Cauchy determinant (see block_cauchy_check).

    Index convention matches joint_series_term: m counts (v, w) pairs of
    the second point (u2, m2, n2), n counts pairs of the first point.
    Summing over m <= n2, n <= m1 reproduces the joint Laplace transform.
    """
    if m < 0 or n < 0 or m + n > 2:
        raise ValueError("dimension cap: m + n <= 2")
    if m == 0 and n == 0:
        return 1.0 + 0j
    if N > 24:
        raise ValueError("N cap: N <= 24")
    m1, n1, m2, n2 = scaled_points(N, t1, t2)
    if m > n2 or n > m1:
        raise ValueError("term indices exceed the series range (n2, m1)")
    if delta is None:
        delta = 0.45 * gamma
    if delta1 is None:
        delta1 = 0.2 * gamma
    if not (0 < delta1 < delta < gamma / 2):
        raise ValueError("requires 0 < delta1 < delta < gamma/2")
    u1 = scaled_u(N, gamma, r1)
    u2 = scaled_u(N, gamma, r2)
    return joint_series_term(m, n, m1, n1, m2, n2, u1, u2, gamma,
                             delta=delta, delta1=delta1, quad=quad)


def prelimit_sum(
    N: int,
    gamma: float,
    t1: float,
    t2: float,
    r1: float = 0.0,
    r2: float = 0.0,
    **kw,
) -> complex:
    """Sum of all pre-limit terms with m <= n2, n <= m1 capped at m+n <= 2;
    for geometries where n2 = m1 = 1 this is the full joint Laplace
    transform."""
    m1, n1, m2, n2 = scaled_points(N, t1, t2)
    total = 0.0 + 0j
    for m in range(min(n2, 2) + 1):
        for n in range(min(m1, 2 - m) + 1):
            total += prelimit_term(m, n, N, gamma, t1, t2, r1, r2, **kw)
    return total


def fub_bound_margin(
    N: int, gamma: float, t1: float, t2: float,
    w: complex, ws: complex, v: complex, vs: complex,
) -> float:
    """log|gamma-function part of the (1,1) pre-limit integrand| minus the
    log of its exponential decay bound
    exp(-pi/2 |ws+w| + pi/2 (|w|+|ws|) - pi (n1-m1)/2 |ws|
        - pi (m2-n2)/2 |w|)
    (imaginary parts in the absolute values).  A spot-check that the
    margin stays bounded above as |Im w|, |Im ws| grow confirms the decay
    estimate that justifies the integral interchange."""
    m1, n1, m2, n2 = scaled_points(N, t1, t2)
    gam_part = float(
        (m2 * _lg(gamma - w) - n2 * _lg(w)
         + n1 * _lg(gamma - ws) - m1 * _lg(ws)
         + _lg(1 + gamma - ws - w) + _lg(1 + gamma - vs - v)
         - _lg(1 + gamma - ws - v) - _lg(1 + gamma - vs - w)).real
    )
    log_bound = (
        -(math.pi / 2.0) * abs(ws.imag + w.imag)
        + (math.pi / 2.0) * (abs(w.imag) + abs(ws.imag))
        - (math.pi / 2.0) * (n1 - m1) * abs(ws.imag)
        - (math.pi / 2.0) * (m2 - n2) * abs(w.imag)
    )
    return gam_part - log_bound
