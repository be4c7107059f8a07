"""Extended Airy kernel, two-time Airy process probabilities, and the
limiting terms of the double series expansion.

The two-time distribution is the Fredholm determinant det(I - f Ai f) of
the extended Airy kernel on L^2({t1,t2} x R), computed in full as the
determinant of its weighted Nystrom matrix K (Bornemann, Math. Comp. 79
(2010) 871).  One lambda rule, _lambda_rule, integrates the kernel: each
block of that matrix is a weighted product of two Ai tables, evaluated once
per threshold and grid.  The series terms are coefficients of the
graded determinant det(I - z1 P1 K - z2 P2 K), where P_l keeps the rows
of time l.  They have total degree <= 3 and come from the traces of
products of the blocks of K (the Plemelj-Smithies expansion of log det,
then its exponential): the limit terms I_{m,n} are the z2^m z1^n
coefficients at the scaled times and thresholds, and the block Fredholm
expansion, kept as a partial-sum diagnostic, sums the coefficients of
det(I - z K) by total order.  grsklab.contour reads its determinants the
same two ways; its prelimit_term, the pre-limit counterpart of I_{m,n}, is
the double-series term of the polymer at the N^{2/3}-scaled points, whose
orthant form is the identity it rests on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .quadrature import _trace_det_coefficients, gl_panels
from .specfun import airy_ai, scaling_constants

_TAU_MAX = 10.0  # orthant truncation; Ai decay makes the tail < 1e-10
_N_TAU = 64  # Gauss-Legendre nodes on [0, _TAU_MAX] per time
_LAMBDA_MAX = 12.0
_MIN_THRESHOLD = -5.0


# ---------------------------------------------------------------------------
# Airy function over the extended range
# ---------------------------------------------------------------------------

# Coefficients u_k of the large-argument asymptotics of Ai on the negative
# axis (oscillatory regime):
#   Ai(-z) = pi^{-1/2} z^{-1/4} [ cos(zeta - pi/4) * sum (-1)^k u_{2k} zeta^{-2k}
#                               + sin(zeta - pi/4) * sum (-1)^k u_{2k+1} zeta^{-2k-1} ]
# with zeta = (2/3) z^{3/2}.  Truncated at u_4; absolute error < 1e-7 for
# z >= 10.
_U_K = [
    1.0,
    5.0 / 72.0,
    385.0 / 10368.0,
    85085.0 / 2239488.0,
    37182145.0 / 644972544.0,
]


def _ai_negative_asymptotic(x: np.ndarray) -> np.ndarray:
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    even = _U_K[0] - _U_K[2] / zeta**2 + _U_K[4] / zeta**4
    odd = _U_K[1] / zeta - _U_K[3] / zeta**3
    phase = zeta - math.pi / 4.0
    return (np.cos(phase) * even + np.sin(phase) * odd) / (
        math.sqrt(math.pi) * z**0.25
    )


def _ai(x) -> np.ndarray:
    """Ai(x) over the full real line as needed by the kernel integrals:
    specfun.airy_ai (the cached interpolant) on [-10, 10], the oscillatory
    asymptotic expansion below -10, and zero above +10 (|Ai(10)| ~ 1e-10)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xv)
    mid, neg = np.abs(xv) <= 10.0, xv < -10.0
    out[mid] = airy_ai(xv[mid])
    out[neg] = _ai_negative_asymptotic(xv[neg])
    return out


# ---------------------------------------------------------------------------
# extended Airy kernel
# ---------------------------------------------------------------------------


def _lambda_rule(s, lam_max=_LAMBDA_MAX, n_lam=200):
    """Nodes and weights of the extended Airy kernel's lambda integral at
    s = t - t', with e^{-lambda s} folded into the weights: over lambda > 0
    for s >= 0, and minus the integral over lambda < 0 for s < 0.

    The negative branch runs on lambda = -x with negated weights.  Ai(. - x)
    only decays polynomially there, so the exponential must do the work:
    the window stretches to 40/rate (capped at 400), its node density
    tracks the Airy oscillation, and an error is raised when the dropped
    tail is not negligible."""
    if s >= 0:
        lam, w = gl_panels(0.0, lam_max, n_lam, 4)
    else:
        rate = max(-s, 1e-300)
        x_max = min(max(lam_max, 40.0 / rate), 400.0)
        tail = 0.3 * math.exp(-x_max * rate) / rate
        if tail > 1e-8:
            raise ArithmeticError(
                "negative-time branch needs |t - t'| large enough for the "
                f"truncation window (dropped tail ~ {tail:.2e})"
            )
        xg, wx = gl_panels(0.0, x_max, max(n_lam, int(10.0 * x_max)), 16)
        lam, w = -xg, -wx
    return lam, np.exp(-lam * s) * w


def extended_airy_kernel(t: float, xi: float, tp: float, xip: float) -> float:
    """The extended Airy kernel Ai(t, xi; t', xi'), checked against a
    longer, denser rule."""
    if not all(math.isfinite(v) for v in (t, xi, tp, xip)):
        raise ValueError("times and arguments must be finite")
    rules = _lambda_rule(t - tp), _lambda_rule(t - tp, _LAMBDA_MAX + 4.0, 300)
    val, ref = (float(w @ (_ai(xi + lam) * _ai(xip + lam))) for lam, w in rules)
    if abs(val - ref) > 1e-8 + 1e-8 * abs(ref):
        raise ArithmeticError("extended Airy kernel did not converge under refinement")
    return ref


# ---------------------------------------------------------------------------
# two-time block Fredholm expansion
# ---------------------------------------------------------------------------


@dataclass
class AiryQuery:
    """A multi-time Airy process query: P(Ai(t_l) <= xi_l for all l)."""

    times: List[float]
    thresholds: List[float]

    def __post_init__(self):
        if len(self.times) != len(self.thresholds):
            raise ValueError("need one threshold per time")
        if not all(math.isfinite(x) for x in [*self.times, *self.thresholds]):
            raise ValueError("times and thresholds must be finite")
        if any(x < _MIN_THRESHOLD for x in self.thresholds):
            raise ValueError(
                f"thresholds below {_MIN_THRESHOLD} are outside the "
                "supported (non-oscillatory) window"
            )


def _operator(q: AiryQuery):
    """The times and thresholds of the operator whose determinant is the
    two-time query's probability.  Equal times constrain one variable, so
    they merge into one time at the lower threshold: on two copies of one
    time every block is K_Ai and the determinant would be det(I - 2 K_Ai)."""
    (t1, t2), (xi1, xi2) = q.times, q.thresholds
    if t1 == t2:
        return [t1], [min(xi1, xi2)]
    return q.times, q.thresholds


def _nystrom_matrix(times, thresholds, n_tau):
    """Weighted Nystrom matrix of f Ai f on the union of the per-time
    half-lines [xi_l, inf), truncated at xi_l + TAU_MAX.  Block (a, b) is
    (A_a * w)^T A_b on the lambda rule of t_a - t_b, with one Ai table A
    per threshold and grid: the blocks with t_a >= t_b share the positive
    grid, and each negative window is keyed by its rate."""
    tau, wt = gl_panels(0.0, _TAU_MAX, n_tau, 4)
    tables = {}

    def block(ta, xa, tb, xb):
        lam, w = _lambda_rule(ta - tb)
        rate = max(tb - ta, 0.0)
        for xi in (xa, xb):
            if (xi, rate) not in tables:
                tables[xi, rate] = _ai((xi + tau)[None, :] + lam[:, None])
        return (tables[xa, rate] * w[:, None]).T @ tables[xb, rate]

    return np.block([
        [block(ta, xa, tb, xb) for tb, xb in zip(times, thresholds)]
        for ta, xa in zip(times, thresholds)
    ]) * np.tile(wt, len(times))[None, :]


def airy_two_point_series(
    t1: float,
    t2: float,
    xi1: float,
    xi2: float,
    order: int = 3,
) -> List[float]:
    """Partial sums of the block Fredholm expansion of
    P(Ai(t1) <= xi1, Ai(t2) <= xi2) through the given total order.

    The sum over per-time multiplicities (n1, n2) with n1 + n2 = j of the
    block-determinant terms is the z^j coefficient of det(I - z M_w),
    computed from tr(M_w^i), i <= j (_trace_det_coefficients).  Equal
    times reduce to one time at the lower threshold, as in
    airy_two_point."""
    if not 1 <= order <= 3:
        raise ValueError("order must be in 1..3")
    times, thresholds = _operator(AiryQuery([t1, t2], [xi1, xi2]))
    Mw = _nystrom_matrix(times, thresholds, _N_TAU)
    c = _trace_det_coefficients(-Mw, [len(Mw)], order)
    return [float(p) for p in np.cumsum(c)]


def airy_two_point(
    t1: float,
    t2: float,
    xi1: float,
    xi2: float,
    n_tau: int = _N_TAU,
) -> float:
    """Two-time Airy process probability P(Ai(t1) <= xi1, Ai(t2) <= xi2)
    as the full Fredholm determinant det(I - f Ai f), evaluated as
    det(I - M_w) of the weighted Nystrom matrix (Bornemann's method): no
    truncation of the block expansion, and exponential convergence in
    n_tau.  At t1 == t2 it is the one-time F2 at min(xi1, xi2)."""
    Mw = _nystrom_matrix(*_operator(AiryQuery([t1, t2], [xi1, xi2])), n_tau)
    return float(np.linalg.det(np.eye(len(Mw)) - Mw))


# ---------------------------------------------------------------------------
# limiting terms of the double series
# ---------------------------------------------------------------------------


def _limit_query(t1, t2, r1, r2, gamma) -> AiryQuery:
    """The scaling map of the two-point limit: the Airy query at times
    (-c3 t1, c3 t2) and thresholds c1 r_l + c2 t_l^2 for the scaling
    constants of gamma, checked by AiryQuery.  t * t, not t**2: an
    overflowing square is then an infinite threshold, which AiryQuery
    rejects, not an OverflowError."""
    sc = scaling_constants(gamma)
    return AiryQuery(
        [-sc.c3 * t1, sc.c3 * t2],
        [sc.c1 * r1 + sc.c2 * t1 * t1, sc.c1 * r2 + sc.c2 * t2 * t2],
    )


def limit_term(
    m: int,
    n: int,
    t1: float,
    t2: float,
    r1: float,
    r2: float,
    gamma: float = 1.0,
) -> float:
    """The (m, n) term of the limiting double series: m indexes the
    second-point group (threshold c1 r2 + c2 t2^2), n the first-point
    group (threshold c1 r1 + c2 t1^2), mirroring the contour-route
    prelimit_term convention.

    I_{m,n} = (-1)^{m+n}/(m! n!) times the orthant integral of the
    (m+n)-point block determinant of the extended Airy kernel at the
    times and thresholds of _limit_query.  That is the
    z2^m z1^n coefficient of the graded Fredholm determinant
    det(I - z1 P1 K - z2 P2 K) of the weighted Nystrom matrix K, computed
    from the traces of products of at most m + n blocks of K
    (_trace_det_coefficients); summed over (m, n) the terms give
    conjecture_rhs."""
    if m < 0 or n < 0:
        raise ValueError("term indices must be >= 0")
    q = _limit_query(t1, t2, r1, r2, gamma)
    if m + n == 0:
        return 1.0
    if m + n > 3:
        raise ValueError("cost cap: m + n <= 3")
    if m > 0 and n > 0 and q.times[1] - q.times[0] <= 0.05:
        raise ValueError("mixed blocks need Airy times more than 0.05 apart")

    # the groups the term uses: (multiplicity, time, threshold)
    ks, times, thetas = zip(*[g for g in zip((n, m), q.times, q.thresholds) if g[0]])
    Mw = _nystrom_matrix(times, thetas, _N_TAU)
    c = _trace_det_coefficients(-Mw, [len(Mw) // len(ks)] * len(ks), m + n)
    return float(c[ks])


def conjecture_rhs(
    t1: float,
    t2: float,
    r1: float,
    r2: float,
    gamma: float = 1.0,
) -> float:
    """Right-hand side of the two-point limit conjecture:
    P(Ai(-c3 t1) <= c1 r1 + c2 t1^2, Ai(c3 t2) <= c1 r2 + c2 t2^2)
    with the scaling constants of the given gamma."""
    q = _limit_query(t1, t2, r1, r2, gamma)
    return airy_two_point(*q.times, *q.thresholds)
