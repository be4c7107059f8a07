"""Extended Airy kernel, two-time Airy process probabilities, and the
limiting terms of the double series expansion.

The two-time distribution is the Fredholm determinant det(I - f Ai f) of
the extended Airy kernel on L^2({t1,t2} x R), computed in full as the
determinant of its weighted Nystrom matrix K (Bornemann, Math. Comp. 79
(2010) 871).  The series terms are coefficients of the graded determinant
det(I - z1 P1 K - z2 P2 K), where P_l keeps the rows of time l, read off
by an FFT over roots of unity: the limit terms I_{m,n} are its z2^m z1^n
coefficients at the scaled times and thresholds, and the block Fredholm
expansion, kept as a partial-sum diagnostic, sums the coefficients of
det(I - z K) by total order.  The pre-limit counterparts of I_{m,n},
grsklab.contour.prelimit_term, are the double-series terms of the polymer
at the N^{2/3}-scaled points; the orthant form of those terms is the
identity they rest on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .quadrature import _graded_det_coefficients, gl_panels
from .specfun import airy_ai, scaling_constants

_TAU_MAX = 10.0  # orthant truncation; Ai decay makes the tail < 1e-10
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
    mid = (xv >= -10.0) & (xv <= 10.0)
    neg = xv < -10.0
    if np.any(mid):
        out[mid] = airy_ai(xv[mid])
    if np.any(neg):
        out[neg] = _ai_negative_asymptotic(xv[neg])
    return out


# ---------------------------------------------------------------------------
# extended Airy kernel
# ---------------------------------------------------------------------------


def extended_airy_kernel(
    t: float,
    xi: float,
    tp: float,
    xip: float,
    lam_max: float = _LAMBDA_MAX,
    n_nodes: int = 200,
) -> float:
    """The extended Airy kernel Ai(t, xi; t', xi').

    For t >= t': int_0^inf e^{-lambda(t-t')} Ai(xi+lambda) Ai(xi'+lambda).
    For t < t': -int_{-inf}^0 of the same integrand; the truncated tail is
    bounded by the decaying exponential and an error is raised when the
    truncation at lam_max cannot represent the branch."""
    val, _ = _kernel_with_tail(t, xi, tp, xip, lam_max, n_nodes)
    # refinement check: a longer, denser rule must agree
    ref, tail = _kernel_with_tail(t, xi, tp, xip, lam_max + 4.0, int(1.5 * n_nodes))
    if abs(val - ref) > 1e-8 + 1e-8 * abs(ref):
        raise ArithmeticError(
            "extended Airy kernel did not converge under refinement"
        )
    return ref


def _kernel_with_tail(t, xi, tp, xip, lam_max, n_nodes):
    if t >= tp:
        lam, w = gl_panels(0.0, lam_max, n_nodes, 4)
        vals = np.exp(-lam * (t - tp)) * _ai(xi + lam) * _ai(xip + lam)
        return float(np.sum(vals * w)), 0.0
    # t < t': lambda = -x, x > 0; integrand decays like e^{-x(t'-t)} but
    # Ai(xi - x) only decays polynomially, so the exponential must do the
    # work: extend the truncation to where the tail is negligible and
    # reject only when that would require an unreasonable window
    rate = tp - t
    x_max, n, tail = _negative_branch_window(rate, lam_max)
    x, w = gl_panels(0.0, x_max, max(n, n_nodes), 16)
    vals = np.exp(-x * rate) * _ai(xi - x) * _ai(xip - x)
    return -float(np.sum(vals * w)), tail


def _negative_branch_window(rate: float, lam_max: float = _LAMBDA_MAX):
    """Truncation window and node count for integrals of
    e^{-rate x} Ai(. - x) Ai(. - x): the window stretches to 40/rate
    (capped at 400) and the node density tracks the Airy oscillation."""
    x_max = min(max(lam_max, 40.0 / max(rate, 1e-300)), 400.0)
    tail = 0.3 * math.exp(-x_max * rate) / max(rate, 1e-300)
    if tail > 1e-8:
        raise ArithmeticError(
            "negative-time branch needs |t - t'| large enough for the "
            f"truncation window (dropped tail ~ {tail:.2e})"
        )
    n = max(200, int(10.0 * x_max))
    return x_max, n, tail


# ---------------------------------------------------------------------------
# two-time block Fredholm expansion
# ---------------------------------------------------------------------------


@dataclass
class AiryQuery:
    """A multi-time Airy process query: P(Ai(t_l) <= xi_l for all l)."""

    times: List[float]
    thresholds: List[float]
    order: int = 3

    def __post_init__(self):
        if len(self.times) != len(self.thresholds):
            raise ValueError("need one threshold per time")
        if not all(math.isfinite(x) for x in [*self.times, *self.thresholds]):
            raise ValueError("times and thresholds must be finite")
        if self.order < 1:
            raise ValueError("order must be >= 1")
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
    half-lines [xi_l, inf), truncated at xi_l + TAU_MAX.  The Ai table of
    each time on the positive lambda grid is evaluated once and shared by
    every block with t_a >= t_b."""
    tau, wt = gl_panels(0.0, _TAU_MAX, n_tau, 4)
    k = len(times)
    ys = [thresholds[l] + tau for l in range(k)]
    lam_pos, wl_pos = gl_panels(0.0, _LAMBDA_MAX, 200, 4)
    ai_pos = [_ai(y[None, :] + lam_pos[:, None]) for y in ys]
    blocks = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            ta, tb = times[a], times[b]
            if ta >= tb:
                ew = np.exp(-lam_pos * (ta - tb)) * wl_pos
                blocks[a][b] = np.einsum("l,li,lj->ij", ew, ai_pos[a], ai_pos[b])
            else:
                rate = tb - ta
                x_max, nx, _ = _negative_branch_window(rate)
                xg, wx = gl_panels(0.0, x_max, nx, 16)
                fa = _ai(ys[a][None, :] - xg[:, None])
                fb = _ai(ys[b][None, :] - xg[:, None])
                ew = np.exp(-xg * rate) * wx
                blocks[a][b] = -np.einsum("l,li,lj->ij", ew, fa, fb)
    M = np.block(blocks)
    w_full = np.concatenate([wt] * k)
    return M * w_full[None, :]


def airy_two_point_series(
    t1: float,
    t2: float,
    xi1: float,
    xi2: float,
    order: int = 3,
    n_tau: int = 64,
) -> List[float]:
    """Partial sums of the block Fredholm expansion of
    P(Ai(t1) <= xi1, Ai(t2) <= xi2) through the given total order.

    The sum over per-time multiplicities (n1, n2) with n1 + n2 = j of the
    block-determinant terms is the z^j coefficient of det(I - z M_w), read
    off by the FFT on 8 roots of unity per time (the operator's numerical
    degree is <= 6 per time at thresholds >= -5).  Equal times reduce to
    one time at the lower threshold, as in airy_two_point."""
    q = AiryQuery([t1, t2], [xi1, xi2], order)
    if order > 3:
        raise ValueError("order cap: order <= 3")
    times, thresholds = _operator(q)
    Mw = _nystrom_matrix(times, thresholds, n_tau)
    c = _graded_det_coefficients(-Mw, [len(Mw)], 8 * len(times))
    return [float(p) for p in np.cumsum(c[: order + 1].real)]


def airy_two_point(
    t1: float,
    t2: float,
    xi1: float,
    xi2: float,
    n_tau: int = 64,
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


def limit_term(
    m: int,
    n: int,
    t1: float,
    t2: float,
    r1: float,
    r2: float,
    gamma: float = 1.0,
    n_tau: int = 64,
) -> float:
    """The (m, n) term of the limiting double series: m indexes the
    second-point group (threshold c1 r2 + c2 t2^2), n the first-point
    group (threshold c1 r1 + c2 t1^2), mirroring the contour-route
    prelimit_term convention.

    I_{m,n} = (-1)^{m+n}/(m! n!) times the orthant integral of the
    (m+n)-point block determinant of the extended Airy kernel at times
    (-c3 t1, c3 t2) and thresholds (theta1, theta2).  That is the
    z2^m z1^n coefficient of the graded Fredholm determinant
    det(I - z1 P1 K - z2 P2 K) of the weighted Nystrom matrix K, read off
    by an FFT on 8 roots of unity per variable; summed over (m, n) the
    terms give conjecture_rhs."""
    if m < 0 or n < 0:
        raise ValueError("term indices must be >= 0")
    if m + n == 0:
        return 1.0
    if m + n > 3:
        raise ValueError("cost cap: m + n <= 3")
    sc = scaling_constants(gamma)
    theta1 = sc.c1 * r1 + sc.c2 * t1**2
    theta2 = sc.c1 * r2 + sc.c2 * t2**2
    if min(theta1, theta2) < _MIN_THRESHOLD:
        raise ValueError("mapped threshold below the supported window")
    if m > 0 and n > 0 and sc.c3 * (t1 + t2) <= 0.05:
        raise ValueError(
            "mixed blocks need c3 * (t1 + t2) bounded away from zero"
        )

    # the groups the term uses: (multiplicity, time, threshold)
    ks, times, thetas = zip(*[
        g for g in ((n, -sc.c3 * t1, theta1), (m, sc.c3 * t2, theta2)) if g[0] > 0
    ])
    Mw = _nystrom_matrix(times, thetas, n_tau)
    c = _graded_det_coefficients(-Mw, [len(Mw) // len(ks)] * len(ks), 8)
    return float(c[ks].real)


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
    sc = scaling_constants(gamma)
    return airy_two_point(
        -sc.c3 * t1,
        sc.c3 * t2,
        sc.c1 * r1 + sc.c2 * t1**2,
        sc.c1 * r2 + sc.c2 * t2**2,
    )
