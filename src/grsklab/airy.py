"""Extended Airy kernel, two-time Airy process probabilities, and the
limiting terms of the double series expansion.

The two-time distribution is the Fredholm determinant det(I - f Ai f) of
the extended Airy kernel on L^2({t1,t2} x R), computed in full as the
determinant of its weighted Nystrom matrix (Bornemann, Math. Comp. 79
(2010) 871).  Its block Fredholm expansion, summed over per-time
multiplicities, is kept as a partial-sum diagnostic: each term is an
orthant integral of a determinant of extended-Airy-kernel blocks.  The
limit terms I_{m,n} use the closed-form block entries
A', B', C', D' (1-D x-integrals of Airy products).  Their pre-limit
counterparts, grsklab.contour.prelimit_term, are the double-series terms
of the polymer at the N^{2/3}-scaled points; the orthant form of those
terms is the identity they rest on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import List

import numpy as np

from .quadrature import gl_panels
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
    block-determinant terms equals the j-th elementary symmetric function
    of the weighted kernel matrix (with sign (-1)^j), so the truncation is
    computed from the Nystrom eigenvalues.  Equal times reduce to one
    time at the lower threshold, as in airy_two_point."""
    q = AiryQuery([t1, t2], [xi1, xi2], order)
    if order > 3:
        raise ValueError("order cap: order <= 3")
    Mw = _nystrom_matrix(*_operator(q), n_tau)
    ev = np.linalg.eigvals(Mw)
    # elementary symmetric sums e_0..e_order via the Newton-free recursion
    e = np.zeros(order + 1, dtype=complex)
    e[0] = 1.0
    for lam in ev:
        e[1:] = e[1:] + lam * e[:-1].copy()
    partial = []
    acc = 0.0 + 0j
    for j in range(order + 1):
        acc = acc + (-1.0) ** j * e[j]
        partial.append(float(acc.real))
    return partial


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


def _limit_blocks(m, n, theta1, theta2, rate, tau, n_x=160):
    """The closed-form block entries on the tau grid: A' couples the
    theta2 group to itself, D' the theta1 group, B'/C' mix the groups with
    the e^{-rate * x} weight.  All are (len(tau), len(tau)) matrices."""
    x, wx = gl_panels(0.0, _TAU_MAX, n_x, 4)
    a2 = _ai(theta2 + x[:, None] + tau[None, :])
    A = np.einsum("x,xi,xj->ij", wx, a2, a2)
    out = {"A": A}
    if n > 0:
        a1 = _ai(theta1 + x[:, None] + tau[None, :])
        out["D"] = np.einsum("x,xi,xj->ij", wx, a1, a1)
    if m > 0 and n > 0:
        # B'/C' probe Ai on the negative axis; the exponential with the
        # given rate controls the tail
        xm, nxb, _ = _negative_branch_window(rate)
        xb, wxb = gl_panels(0.0, xm, max(n_x, nxb), 16)
        ew = np.exp(-rate * xb) * wxb
        b1 = _ai(theta1 - xb[:, None] + tau[None, :])
        b2 = _ai(theta2 - xb[:, None] + tau[None, :])
        c1 = _ai(theta1 + xb[:, None] + tau[None, :])
        c2 = _ai(theta2 + xb[:, None] + tau[None, :])
        out["B"] = -np.einsum("x,xi,xj->ij", ew, b1, b2)
        out["C"] = np.einsum("x,xi,xj->ij", ew, c1, c2)
    return out


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

    I_{m,n} = (-1)^{m+n}/(m! n!) * int over the tau orthant of the block
    determinant with entries A', B', C', D'."""
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
    rate = sc.c3 * (t1 + t2)
    if m > 0 and n > 0 and rate <= 0.05:
        raise ValueError(
            "mixed blocks need c3 * (t1 + t2) bounded away from zero"
        )

    tau, wt = gl_panels(0.0, _TAU_MAX, n_tau, 4)
    blocks = _limit_blocks(m, n, theta1, theta2, rate, tau)

    def entry(i, j):
        if i < m and j < m:
            return blocks["A"]
        if i >= m and j >= m:
            return blocks["D"]
        if i < m:
            return blocks["B"]
        return blocks["C"]

    # orthant integral of det(M(tau_i, tau_j)): expand over permutations;
    # each cycle contributes a trace of a product of weighted matrices, and
    # each even-length cycle flips the sign of the permutation
    d = m + n
    W = np.diag(wt)
    total = 0.0
    for sigma in permutations(range(d)):
        sign = 1
        visited = [False] * d
        contrib = 1.0
        for start in range(d):
            if visited[start]:
                continue
            cyc = [start]
            visited[start] = True
            k = sigma[start]
            while k != start:
                cyc.append(k)
                visited[k] = True
                k = sigma[k]
            if len(cyc) % 2 == 0:
                sign = -sign
            P = None
            for idx in range(len(cyc)):
                a, b = cyc[idx], cyc[(idx + 1) % len(cyc)]
                step = entry(a, b) @ W
                P = step if P is None else P @ step
            contrib *= float(np.trace(P).real)
        total += sign * contrib
    pref = (-1.0) ** (m + n) / (math.factorial(m) * math.factorial(n))
    return pref * total


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
