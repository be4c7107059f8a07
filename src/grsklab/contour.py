"""Complex-contour quadrature and the Laplace-transform formulas.

Implements the one- and two-point Laplace transforms of the log-gamma
polymer partition functions as multi-dimensional contour integrals, the
Fredholm-determinant form of the one-point transform, the Fredholm-like
double series for two points, the semi-discrete (Brownian) polymer
two-point formula, a numeric check of the block Cauchy identity, and the
pre-limit terms of the two-point Airy asymptotics.

Conventions:
  - vertical lines ell_delta = delta + i R are traced upwards, truncated to
    [-L, L] and discretized by one rule, the trapezoid nodes of
    vertical_line(delta, L, n): uniform nodes at a fixed spacing h,
    so a longer line gets more nodes, not coarser ones.  The rule converges
    geometrically in the distance from the line to the nearest pole of the
    integrand (Trefethen & Weideman, SIAM Rev. 56 (2014) 385), so each
    default line sits off the poles it faces: the second line of the
    Gamma(mu - lambda) integrals half a unit right of the first, and the
    (1,1) series line at 0.35 gamma, 0.3 gamma from the Gamma(gamma - w - w')
    pole.  On uniform lines the pair factor of a group is Toeplitz and the
    cross factor between groups is Hankel (Gamma(lambda + mu)) or
    Toeplitz (Gamma(mu - lambda)): each matrix is gathered from its 2n-1
    generating values instead of n^2 special-function evaluations;
  - on such a line the Sklyanin pair product of k axes is a product of two
    Vandermonde determinants, so the k-fold node sum is k! det A of a k x k
    matrix of 1-D sums (Andreief's identity, _andreief): exact on the
    nodes at O(k^2 n) cost instead of n^k.  Of the two groups of a
    two-point integral the larger goes through the determinant, the smaller
    (at most 2 axes) stays an explicit sum over its nodes.  The evaluators
    keep their dimension caps: beyond them the fixed line length and
    spacing, not the cost, limit the accuracy;
  - the contour evaluators take one resolution argument, nodes_per_unit
    (default 20, finite and > 0, checked with the Laplace arguments before
    any early return).  A line's node count is its base count on L = 12
    (240, 240, 200 and 320 nodes for 1, 2, 3 and 4 axes, a spacing of 0.1
    on 1-D and 2-D lines) scaled by nodes_per_unit/20 and by L/12;
    oy_laplace2 spaces its nodes 2/nodes_per_unit apart;
  - laplace1, laplace2 and bcr_fredholm return the values of _laplace1,
    _laplace2 and _bcr_fredholm, which also return an error estimate from
    subsets of the line nodes they sum (_subset_error), not from a second
    evaluation;
  - _laplace2 takes every ordered pair of corners, those above the
    diagonal as the transposed polymer;
  - every Sklyanin line group takes its per-axis weight u^{-z}
    prod Gamma(z - p) prod Gamma(z + q), over its normalization, from
    _axis_weights;
  - bcr_fredholm and joint_series_term build the circle x line kernel
    pi/sin(pi(v - w)) e^{Phi(w) - Phi(v)}/(w - v') with _circle_line_kernel
    from per-node values: e^{Phi(w) - Phi(v)} is a row factor times a
    column factor, and pi/sin(pi(v - w)) a rational function of
    e^{-+i pi v} e^{+-i pi w}, so no exponential or sine runs on the
    circle x line matrix, with Phi from _phi.  A determinant is read whole
    by one LU, or to order <= 3 from traces of powers of K
    (_trace_det_coefficients): the (k,0) series terms are the z^k
    coefficients of det(I + z K) at alpha' = gamma, alphahat' = 0.  The
    (1,1) term sums its second-group circle nodes in conjugate pairs;
  - circles C_r are centred at 0 and traced counter-clockwise, on the
    even node count _circle_nodes takes from the distance to the nearest
    singularity in or outside the circle: the trapezoid rule converges
    like rho^n there too, and the count puts its aliasing error at 2^-56;
  - the Sklyanin density s_n(mu) = (2 pi i)^{-n}/n! prod_{i != j}
    Gamma(mu_i - mu_j)^{-1} is used with the plain complex line elements
    d mu, so every n-fold line integral carries (2 pi i)^{-n}/n!.
"""
from __future__ import annotations

import inspect
import math
from collections import Counter
from typing import Optional, Sequence, Tuple

import numpy as np

from .quadrature import _trace_det_coefficients, gl_panels
from .specfun import digamma, log_gamma

TWO_PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------


def vertical_line(delta: float, length: float = 12.0,
                  n_nodes: int = 240) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes z and line elements dz of the line delta + i[-length, length],
    traced upwards, by the trapezoid rule: y_k = h (k - (n-1)/2), k < n,
    with h = 2 length/n (0.1 at the defaults) and dz = i h, the one rule of
    every vertical line in this module.  Node differences are multiples of
    i h, which makes the pair and cross matrices on such lines Toeplitz or
    Hankel."""
    if not math.isfinite(delta):
        raise ValueError("line offset must be finite")
    length = _checked_length(length)
    if n_nodes < 4:
        raise ValueError("need at least 4 nodes")
    h = 2.0 * length / n_nodes
    y = h * (np.arange(n_nodes) - (n_nodes - 1) / 2.0)
    return delta + 1j * y, np.full(n_nodes, 1j * h)


def circle(radius: float, n_nodes: int = 128) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes z and line elements dz of the circle |z| = radius, traced
    counter-clockwise, by the trapezoid rule.  On an integrand analytic in
    an annulus inner < |z| < outer about the circle the error falls like
    rho^n_nodes, rho = max(radius/outer, inner/radius); the evaluators take
    n_nodes from that rate, by _circle_nodes."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("circle radius must be finite and positive")
    if n_nodes < 4:
        raise ValueError("need at least 4 nodes")
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    e = np.exp(1j * theta)
    return radius * e, 1j * radius * e * (2.0 * math.pi / n_nodes)


# most trapezoid nodes on a circle; a circle that needs more sits too close
# to a singularity for the rule to pay
_MAX_CIRCLE_NODES = 512


def _circle_nodes(radius: float, inner: float, outer: float, poles: int) -> int:
    """Trapezoid nodes for the circle |v| = radius, centred on a pole of
    order <= poles at v = 0, of an integrand with no other singularity in
    inner < |v| < outer: the smallest even n >= poles + 56/log2(1/rho),
    rho = max(radius/outer, inner/radius), so that the aliasing error
    rho^(n - poles) is at most 2^-56 (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385).  Even, so that conjugate nodes pair up.  Above
    _MAX_CIRCLE_NODES it raises ArithmeticError, naming the radius delta1
    would have to keep."""
    rho = max(radius / outer, inner / radius)
    n = 2 * math.ceil((poles - 56.0 / math.log2(rho)) / 2)
    if n > _MAX_CIRCLE_NODES:
        # the rho at which the rule needs _MAX_CIRCLE_NODES nodes
        rho_max = 2.0 ** (-56.0 / (_MAX_CIRCLE_NODES - poles))
        if radius / outer >= inner / radius:
            where = (f"a singularity at distance {outer:.6g}: keep delta1 "
                     f"under {rho_max * outer:.6g}")
        else:
            where = (f"a singularity at distance {inner:.6g} inside it: keep "
                     f"delta1 over {inner / rho_max:.6g}")
        raise ArithmeticError(
            f"circle radius delta1 = {radius:.6g} lies too close to {where}; "
            f"the trapezoid rule would need {n} > {_MAX_CIRCLE_NODES} nodes")
    return n


def _checked_length(length: float) -> float:
    if not (math.isfinite(length) and length > 0):
        raise ValueError("line half-length must be finite and positive")
    return float(length)


def _leading(values: Sequence[float], k: int, name: str) -> list:
    """The first k of values (alpha or alphahat) as finite floats."""
    out = [float(a) for a in values][:k]
    if len(out) != k:
        raise ValueError(f"need {k} {name} values")
    if not all(math.isfinite(a) for a in out):
        raise ValueError(f"{name} values must be finite")
    return out


def _check_laplace_args(nodes_per_unit: float, *us: float) -> None:
    """Line density finite and > 0, Laplace arguments finite and >= 0."""
    if not (math.isfinite(nodes_per_unit) and nodes_per_unit > 0):
        raise ValueError("nodes_per_unit must be finite and > 0")
    if not all(math.isfinite(u) and u >= 0 for u in us):
        raise ValueError("Laplace arguments must be finite and >= 0")


def _value_only(evaluate):
    """The public form of a private evaluator that returns (value, error
    estimate): the same arguments and docstring, the value alone."""
    def public(*args, **kwargs):
        return evaluate(*args, **kwargs)[0]
    public.__name__ = public.__qualname__ = evaluate.__name__[1:]
    public.__doc__ = evaluate.__doc__
    public.__signature__ = inspect.signature(evaluate).replace(
        return_annotation="complex")
    return public


def _line_nodes_for_dim(dim: int, nodes_per_unit: float,
                        length: float = 12.0) -> int:
    """Nodes on a line of half-length `length`: the base count belongs to
    L = 12 at 20 nodes per unit, scales with the density and with the
    length, so the spacing stays fixed."""
    # the 4-d joint terms carry a slowly-decaying cross term along the
    # lines, so they need denser nodes than the lower-dimensional cases
    length = _checked_length(length)
    base = {1: 240, 2: 240, 3: 200}.get(dim, 320)
    base = max(32, int(base * nodes_per_unit / 20.0))
    return max(32, round(base * length / 12.0))


def _toeplitz_index(rows: int, cols: int) -> np.ndarray:
    """index[i, j] = j - i + rows - 1 into a vector of rows + cols - 1
    generating values, first column reversed then first row."""
    return np.arange(cols)[None, :] - np.arange(rows)[:, None] + (rows - 1)


def _sklyanin_pair(n: int, h: float) -> np.ndarray:
    """Pairwise factor of the Sklyanin density on n trapezoid nodes of
    spacing h, 1/(Gamma(d) Gamma(-d)) with d = mu_i - mu_j = i t, t = h (i - j).
    By the reflection formula Gamma(d) Gamma(-d) = -pi/(d sin(pi d)) and
    sin(pi i t) = i sinh(pi t) this is the real t sinh(pi t)/pi, exactly
    zero on the diagonal (the density vanishes at coincident points).  The
    matrix is Toeplitz: it is gathered from the 2n-1 offsets.  sinh
    overflows only beyond |t| = 226, where the product already has."""
    t = h * np.arange(1 - n, n)
    return (t * np.sinh(np.pi * t) / math.pi)[_toeplitz_index(n, n).T]


def _gamma_cross(lam: np.ndarray, mu: np.ndarray, hankel: bool,
                 log_scale: float = 0.0) -> np.ndarray:
    """exp(log_gamma(z_ij) - log_scale) between two trapezoid lines of one
    spacing, with z_ij = lam_i + mu_j (Hankel in i + j) if hankel, else
    z_ij = mu_j - lam_i (Toeplitz in j - i).  log_gamma and exp run once on
    the len(lam) + len(mu) - 1 generating values, the entries of the first
    column and the last row (Hankel) or first row (Toeplitz); a gather fills
    the grid."""
    nl, nm = len(lam), len(mu)
    if hankel:
        z = np.concatenate([lam + mu[0], lam[-1] + mu[1:]])
        index = np.arange(nl)[:, None] + np.arange(nm)[None, :]
    else:
        z = np.concatenate([mu[0] - lam[::-1], mu[1:] - lam[0]])
        index = _toeplitz_index(nl, nm)
    return np.exp(log_gamma(z) - log_scale)[index]


def _axis_weights(z, dz, k, poles, shifts, log_u, quad=0.0, norm=None):
    """Per-axis weight of a Sklyanin-line group of k axes, line elements
    included: exp(log f(z) - log C / k) dz, with f(z) = prod_p Gamma(z - p)
    F(z), F(z) = u^{-z} e^{quad z^2/2} prod_q Gamma(z + q) over the shifts q,
    and C = prod_{p in norm} F(p), norm defaulting to the poles.  The k axes
    of the group together carry the normalization 1/C."""
    poles = np.asarray(poles, dtype=float)
    norm = poles if norm is None else np.asarray(norm, dtype=float)

    def log_F(x):
        return (-log_u * x + 0.5 * quad * x * x
                + log_gamma(np.add.outer(x, np.asarray(shifts, dtype=float))).sum(-1))

    log_f = log_gamma(np.subtract.outer(z, poles)).sum(-1) + log_F(z)
    log_c = float(np.sum(log_F(norm).real))
    return np.exp(log_f - log_c / k) * dz


def _pi_csc_circle_line(v, w):
    """pi/sin(pi (v_a - w_b)) for circle nodes v and line nodes w, from the
    per-node exponentials e^{-+i pi v} and e^{+-i pi w}.  With s = +1 for
    Im w >= 0, else -1, and E = e^{-i s pi (v - w)}, the value is
    2 pi i s E/(1 - E^2); |E| <= e^{pi |Im v|}, so nothing overflows for any
    line length.  Both callers have Re(v - w) in (-1, 0), which keeps
    1 - E^2 away from 0."""
    s = np.where(np.imag(w) >= 0, 1.0, -1.0)
    ev = np.exp(-1j * np.pi * v)
    # in-place steps: each fresh circle x line temporary costs page faults
    E = np.where(s > 0, ev[:, None], 1.0 / ev[:, None])
    E *= np.exp(1j * np.pi * s * w)
    D = E * E
    np.subtract(1.0, D, out=D)
    E /= D
    E *= TWO_PI_I * s
    return E


def _circle_line_kernel(v, dv, w, dw, log_v, log_w):
    """The circle x line Fredholm kernel on the circle nodes v,
    K[a, b] = (2 pi i)^{-2} sum_w pi/sin(pi (v_a - w)) e^{log_w - log_v_a}
    dw dv_b/(w - v_b), as the factors (A, B) of K = A B: B is the Cauchy
    matrix dv/((2 pi i)^2 (w - v)) and the circle x line A holds the rest,
    so the kernel on the line nodes `nodes` at s times their spacing is
    s A[:, nodes] B[nodes].  One 1/(2 pi i) is the w-integral's, one the
    circle measure's; this normalization is fixed by the numeric match of
    the Fredholm form with the line-integral form.
    e^{log_w - log_v} is the row factor e^{c - log_v} times the column
    factor e^{log_w - c}; with c = max Re log_w the row factor overflows
    only where e^{log_w - log_v} itself would."""
    c = np.max(log_w.real)
    A = _pi_csc_circle_line(v, w)
    A *= np.exp(log_w - c) * dw
    A *= np.exp(c - log_v)[:, None]
    return A, (dv / TWO_PI_I**2) / np.subtract.outer(w, v)


def _phi(z, log_u, upper, lower):
    """Phi(z) = log of u^z prod Gamma(a - z)^k / prod Gamma(z + b)^k, with
    upper and lower mapping each distinct a and b to its multiplicity k, so
    one log_gamma call per distinct value.  e^{Phi(w) - Phi(v)} is the pair
    weight of bcr_fredholm's kernel and of every series term."""
    return (log_u * z + sum(k * log_gamma(a - z) for a, k in upper.items())
            - sum(k * log_gamma(z + b) for b, k in lower.items()))


# ---------------------------------------------------------------------------
# one-point Laplace transform
# ---------------------------------------------------------------------------


def _laplace1(m: int, n: int, u: float, alpha: Sequence[float],
              alphahat: Sequence[float], delta: Optional[float] = None,
              nodes_per_unit: float = 20.0,
              length: float = 12.0) -> Tuple[complex, float]:
    """E[exp(-u Z_{(m,n)})] for an (alpha, alphahat)-log-gamma polymer,
    m >= n, as an n-fold integral over the vertical line ell_delta.

    The integrand is the Sklyanin density times
    prod_{j,j'} Gamma(-alphahat_{j'} + mu_j) and the ratio
    u^{-mu} F_m^alpha(mu) / (u^{-alphahat_j} F_m^alpha(alphahat_j)) with
    F_m^alpha(mu) = prod_i Gamma(mu + alpha_i).  The line must lie to the
    right of every alphahat_j and every -alpha_i.  For m < n it evaluates
    the transposed polymer: Z_{(m,n)} of (alpha, alphahat) has the law of
    Z_{(n,m)} of (alphahat, alpha).
    """
    if not min(m, n) >= 1:
        raise ValueError("requires m, n >= 1")
    alpha, alphahat = _leading(alpha, m, "alpha"), _leading(alphahat, n, "alphahat")
    if m < n:
        return _laplace1(n, m, u, alphahat, alpha, delta, nodes_per_unit, length)
    if n > 3:
        raise ValueError("dimension cap: n <= 3")
    _check_laplace_args(nodes_per_unit, u)
    if u == 0:
        return 1.0 + 0j, 0.0
    lower = max(max(alphahat), -min(alpha))
    if delta is None:
        delta = lower + 0.5
    if delta <= lower:
        raise ValueError("contour must lie right of all poles: delta > "
                         f"{lower}")

    nn = _line_nodes_for_dim(n, nodes_per_unit, length)
    mu, dmu = vertical_line(delta, length, nn)
    g = _axis_weights(mu, dmu, n, alphahat, alpha, math.log(u))
    return _estimated_transform(None, 0, g, n, None, dmu[0].imag)


# ---------------------------------------------------------------------------
# two-point Laplace transforms
# ---------------------------------------------------------------------------


def _andreief(F: np.ndarray, k: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """For each row f of F, the sum over k-tuples of the n trapezoid nodes
    y_a = h (a - (n-1)/2) of prod_l f(y_{a_l}) times the Sklyanin pair
    factors of the tuple, and a bound on its rounding error.

    With d = i t the pair factor is t sinh(pi t)/pi, so a tuple's pair
    product is (-L/2 pi)^{k(k-1)/2} det[(y_a/L)^i] det[e^{pi (k-1-2j) y_a}],
    L = n h/2 (the line offset cancels in d), and Andreief's identity (de
    Bruijn, J. Indian Math. Soc. 19 (1955) 133) makes the sum
    k! (-L/2 pi)^{k(k-1)/2} det A with A_ij = sum_y f(y) (y/L)^i
    e^{pi (k-1-2j) y}: exact on the nodes, at O(k^2 n) per row.  The bound
    is eps times the same constant times the Hadamard bound
    prod_i ||B_i,:|| of B, built like A from |f| and the |basis|."""
    n = F.shape[-1]
    L = 0.5 * n * h
    y = h * (np.arange(n) - 0.5 * (n - 1))
    i = np.arange(k)
    basis = ((y / L)[:, None, None] ** i[None, :, None]
             * np.exp(math.pi * np.outer(y, k - 1 - 2 * i))[:, None, :])
    basis = basis.reshape(n, k * k)
    A = (F @ basis).reshape(len(F), k, k)
    B = (np.abs(F) @ np.abs(basis)).reshape(len(F), k, k)
    c = math.factorial(k) * (-L / (2.0 * math.pi)) ** (k * (k - 1) // 2)
    hadamard = np.prod(np.linalg.norm(B, axis=2), axis=1)
    return c * np.linalg.det(A), abs(c) * np.finfo(float).eps * hadamard


def _two_group_integral(gl, k1, gm, k2, cross, h) -> Tuple[complex, float]:
    """(2 pi i)^{-(k1+k2)}/(k1! k2!) times the sum over k1 axes on the lam
    line and k2 axes on the mu line of the per-axis weights gl and gm (line
    elements included), the Sklyanin pair factors within each group, and
    cross[i, j] between every lam-axis and every mu-axis, with a bound on
    its rounding error.  Both lines are trapezoid lines of spacing h.

    The larger group is summed by _andreief for every node of the smaller
    one, which has at most 2 axes under the evaluators' dimension caps."""
    if k1 > k2:
        gl, k1, gm, k2, cross = gm, k2, gl, k1, cross.T
    if k1 == 0:
        val, bound = _andreief(gm[None], k2, h)
        val, bound = val[0], bound[0]
    elif k1 == 1:
        dets, bounds = _andreief(cross * gm, k2, h)
        val, bound = gl @ dets, np.abs(gl) @ bounds
    elif k1 == 2:
        # one lam node at a time keeps the temporaries at n x n
        P = _sklyanin_pair(len(gl), h)
        val, bound = 0j, 0.0
        for a in range(len(gl)):
            dets, bounds = _andreief(cross * (cross[a] * gm), k2, h)
            val += gl[a] * ((gl * P[a]) @ dets)
            bound += abs(gl[a]) * ((np.abs(gl) * np.abs(P[a])) @ bounds)
    else:
        raise ValueError("the smaller group has more than 2 axes")
    norm = TWO_PI_I ** (k1 + k2) * math.factorial(k1) * math.factorial(k2)
    return complex(val / norm), float(bound / abs(norm))


def _checked_sum(val: complex, err: float = 0.0) -> complex:
    """val, or ArithmeticError when err, a bound on its rounding error or
    an error estimate, exceeds 1e-6 or its imaginary part exceeds 1e-6 in
    size: the quadrature sum of a real quantity did not resolve it."""
    if not err <= 1e-6:
        raise ArithmeticError(
            f"transform rounding error bound or estimate {err:.3g} exceeds "
            "1e-6: the quadrature sum does not resolve this input"
        )
    if abs(val.imag) > 1e-6:
        raise ArithmeticError(
            f"transform imaginary part {val.imag:.6g} is not 0: the contour "
            "quadrature does not resolve this input"
        )
    return val


def _checked_transform(val: complex, err: float = 0.0) -> complex:
    """_checked_sum(val, err), which also raises ArithmeticError when the
    real part lies outside [0, 1] by more than 1e-6: the Laplace transform
    of a positive variable is real and in [0, 1], so the contour
    quadrature did not resolve the integrand."""
    if err <= 1e-6 and not -1e-6 <= val.real <= 1.0 + 1e-6:
        raise ArithmeticError(
            f"transform real part {val.real:.6g} lies outside [0, 1]: the "
            "contour quadrature does not resolve this input"
        )
    return _checked_sum(val, err)


def _subset_error(val, on, n: int) -> float:
    """Discretization and truncation error of val = I(h), a trapezoid sum
    on lines of n nodes, from on(nodes, s), the sum on the nodes `nodes` of
    each line at s times the spacing.  With d1 = |I(h) - I(2h)| and
    d2 = |I(2h) - I(4h)|: d1^2/d2 (the error at 4h/3 under geometric
    convergence), or d1 where d1 >= d2, plus |I(h) - I(inner 3/4)|."""
    i2, i4 = on(slice(None, None, 2), 2), on(slice(None, None, 4), 4)
    d1, d2 = abs(val - i2), abs(i2 - i4)
    trunc = abs(val - on(slice(n // 8, n - n // 8), 1))
    return (d1 if d1 >= d2 else d1 * d1 / d2) + trunc


def _estimated_transform(gl, k1, gm, k2, cross, h) -> Tuple[complex, float]:
    """_two_group_integral's value, checked by _checked_transform against
    its rounding bound, and an error estimate: _subset_error on the nodes of
    both lines plus the rounding bound."""
    val, bound = _two_group_integral(gl, k1, gm, k2, cross, h)
    val = _checked_transform(val, bound)

    def on(nodes, s):
        return _two_group_integral(
            None if gl is None else gl[nodes] * s, k1, gm[nodes] * s, k2,
            None if cross is None else cross[nodes, nodes], s * h)[0]

    return val, _subset_error(val, on, len(gm)) + bound


def _laplace2(m1: int, n1: int, m2: int, n2: int, u1: float, u2: float,
              alpha: Sequence[float], alphahat: Sequence[float], gamma: float,
              delta: Optional[float] = None,
              delta_prime: Optional[float] = None,
              nodes_per_unit: float = 20.0,
              length: float = 12.0) -> Tuple[complex, float]:
    """Joint Laplace transform E[exp(-u1 Z_{(m1,n1)} - u2 Z_{(m2,n2)})] at
    points with m1 < m2, n1 > n2: lambda over (ell_delta)^{m1}, mu over k
    axes of a second line, the geometry choosing the form:
      - points on either side of the diagonal (m1 <= n1, m2 >= n2; the
        paper's case a): k = n2 axes on ell_{delta+gamma}, the cross factor
        prod Gamma(lambda_i + mu_j) / Gamma(alpha_i + alphahat_j), and
        delta < gamma/2; this form fixes mu's line, so delta_prime is None;
      - both below it (m2 < n2; case b): k = m2 axes on ell_{delta'},
        delta' > delta, and the cross factor prod Gamma(mu_j - lambda_i);
        delta' defaults to delta + 0.5, half a unit off the poles of
        Gamma(mu - lambda) at the integers mu - lambda <= 0;
      - both above it (m1 > n1): the transposed polymer, points (n2, m2)
        and (n1, m1) at (u2, u1) with (alphahat - gamma, alpha + gamma)
        for (alpha, alphahat), which lies below the diagonal.
    Every form requires delta > 0, |alpha_i| < delta and
    |alphahat_j - gamma| < delta; delta defaults to 0.4 gamma.  A zero u
    leaves the one-point transform at the other point, on its line as given.
    """
    if not (m1 < m2 and n1 > n2 and min(m1, n2) >= 1):
        raise ValueError("points must satisfy m1 < m2, n1 > n2, both >= (1,1)")
    alpha, alphahat = _leading(alpha, m2, "alpha"), _leading(alphahat, n1, "alphahat")
    if m1 > n1:
        # Z_{(m,n)} of (alpha, alphahat) has the law of Z_{(n,m)} of
        # (alphahat, alpha); the shift by gamma keeps every alpha_i +
        # alphahat_j and maps each condition on alpha, alphahat onto the other
        try:
            return _laplace2(n2, m2, n1, m1, u2, u1, [a - gamma for a in alphahat],
                             [a + gamma for a in alpha], gamma, delta,
                             delta_prime, nodes_per_unit, length)
        except ValueError as exc:
            raise ValueError(f"{exc} (points above the diagonal are taken "
                             "transposed, alphahat - gamma for alpha and "
                             "alpha + gamma for alphahat)") from None
    opposite = m2 >= n2
    k = n2 if opposite else m2
    if m1 + k > 4:
        raise ValueError(f"dimension cap: m1 + {'n2' if opposite else 'm2'} <= 4")
    _check_laplace_args(nodes_per_unit, u1, u2)
    given, given_mu = delta, delta_prime
    if delta is None:
        delta = 0.4 * gamma
    if opposite:
        if delta_prime is not None:
            raise ValueError("points on either side of the diagonal put mu on "
                             "delta + gamma: delta_prime must be None")
        if not (0 < delta < gamma / 2):
            raise ValueError("requires 0 < delta < gamma/2")
        delta_prime = delta + gamma
        if given is not None:
            given_mu = delta_prime
    else:
        if delta_prime is None:
            delta_prime = delta + 0.5
        if not (0 < delta < delta_prime):
            raise ValueError("requires 0 < delta < delta'")
    # phrased so that a NaN gamma fails the check
    if not all(abs(a) < delta for a in alpha):
        raise ValueError("requires |alpha_i| < delta")
    if not all(abs(a - gamma) < delta for a in alphahat):
        raise ValueError("requires |alphahat_j - gamma| < delta")
    # a zero u leaves the one-point transform at the other point: (m1, n1)
    # in its transposed form on the lam line, (m2, n2) on the mu line
    if u2 == 0:
        return _laplace1(n1, m1, u1, alphahat, alpha[:m1], given,
                         nodes_per_unit, length)
    if u1 == 0:
        return _laplace1(m2, n2, u2, alpha, alphahat, given_mu,
                         nodes_per_unit, length)

    nn = _line_nodes_for_dim(m1 + k, nodes_per_unit, length)
    lam, dlam = vertical_line(delta, length, nn)
    mu, dmu = vertical_line(delta_prime, length, nn)
    gl = _axis_weights(lam, dlam, m1, alpha[:m1], alphahat[n2:n1],
                       math.log(u1 if opposite else u1 / u2))
    if opposite:
        gm = _axis_weights(mu, dmu, n2, alphahat[:n2], alpha[m1:m2], math.log(u2))
        # cross factor Gamma(lambda + mu) / Gamma(alpha_i + alphahat_j)
        log_cross_den = float(np.sum(log_gamma(np.add.outer(alpha[:m1], alphahat[:n2])).real))
        cross = _gamma_cross(lam, mu, True, log_cross_den / (m1 * n2))
    else:
        gm = _axis_weights(mu, dmu, m2, alpha[m1:m2], alphahat[:n2], math.log(u2),
                           norm=alpha[:m2])
        cross = _gamma_cross(lam, mu, False)
    return _estimated_transform(gl, m1, gm, k, cross, dlam[0].imag)


def oy_laplace2(
    m1: int,
    t1: float,
    m2: int,
    t2: float,
    u1: float,
    u2: float,
    alpha: Sequence[float],
    delta: float = 0.4,
    delta_prime: Optional[float] = None,
    nodes_per_unit: float = 20.0,
) -> complex:
    """Two-point Laplace transform of the semi-discrete Brownian polymer:
    same contour structure as the m2 < n2 log-gamma case, with the gamma
    ratios replaced by Gaussian factors exp(((t1-t2)/2)(lambda^2-alpha^2))
    and exp((t2/2)(mu^2-alpha^2)); the Gaussians make the integrals
    absolutely convergent.  As there, delta' defaults to delta + 0.5.

    Contour truncation: the reciprocal-gamma pair factors of the Sklyanin
    density *grow* like exp(pi |y_i - y_j|), so the Gaussian only wins far
    out on the line; each group's half-length Y solves
    (rate/2) Y^2 - (growth) Y = 30 for its own Gaussian rate, rather than
    using a fixed window."""
    if not (m1 < m2 and t1 > t2 > 0):
        raise ValueError("requires m1 < m2 and t1 > t2 > 0")
    if m1 + m2 > 3:
        # four axes do not converge within reach of the node counts
        raise ValueError("dimension cap: m1 + m2 <= 3")
    alpha = _leading(alpha, m2, "alpha (drift)")
    _check_laplace_args(nodes_per_unit, u1, u2)
    if u1 == 0 and u2 == 0:
        return 1.0 + 0j
    if delta_prime is None:
        delta_prime = delta + 0.5
    if max(abs(a) for a in alpha) >= delta or delta >= delta_prime:
        raise ValueError("requires |alpha| < delta < delta'")
    if u2 == 0:
        raise ValueError("u2 must be > 0 (take m1 as the only point instead)")
    if u1 == 0:
        # the transform at the second point alone: the m1 = 0 form
        m1 = 0

    def half_length(rate: float, growth: float) -> float:
        # smallest Y with (rate/2) Y^2 - growth * Y >= 30
        return (growth + math.sqrt(growth**2 + 60.0 * rate)) / rate

    len_l = 2.0 * half_length(t1 - t2, math.pi * (m1 - 1) + math.pi * m2 / 2)
    len_m = 2.0 * half_length(t2, math.pi * (m2 - 1) + math.pi * m1 / 2)
    # both lines share the spacing h (2/nodes_per_unit, finer if a line
    # would get fewer than 64 nodes), so the cross matrix is Toeplitz
    h = min(2.0 / nodes_per_unit, len_l / 32.0, len_m / 32.0)
    nm = round(2.0 * len_m / h)
    mu, dmu = vertical_line(delta_prime, 0.5 * nm * h, nm)
    gm = _axis_weights(mu, dmu, m2, alpha[m1:m2], [], math.log(u2), t2,
                       norm=alpha[:m2])
    # with m1 = 0 the first group has no axes: its line and the cross
    # matrix would go unread
    gl = cross = None
    if m1 > 0:
        nl = round(2.0 * len_l / h)
        lam, dlam = vertical_line(delta, 0.5 * nl * h, nl)
        gl = _axis_weights(lam, dlam, m1, alpha[:m1], [], math.log(u1 / u2), t1 - t2)
        cross = _gamma_cross(lam, mu, False)
    val, err = _two_group_integral(gl, m1, gm, m2, cross, h)
    return _checked_transform(val, err)


# ---------------------------------------------------------------------------
# Fredholm determinant form of the one-point transform
# ---------------------------------------------------------------------------


def _fredholm_contours(m: int, n: int, alpha: Sequence[float],
                       alphahat: Sequence[float], delta1: Optional[float] = None,
                       delta2: Optional[float] = None,
                       nodes_per_unit: float = 20.0,
                       n_circle: Optional[int] = None, length: float = 12.0):
    """The shifted parameters alpha', alphahat' and the contours of
    _bcr_fredholm: (alpha', alphahat', delta1, delta2, n_circle, n_line),
    the offsets checked or chosen, n_circle by _circle_nodes unless given,
    and n_line the node count of the w-line."""
    alpha, alphahat = _leading(alpha, m, "alpha"), _leading(alphahat, n, "alphahat")
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
    # inside the circle the kernel has its poles at -alphahat'; outside,
    # pi/sin(pi (v - w)) and 1/(w - v') have theirs on the lines Re w = delta2
    # and Re w - 1; det(I + K) has rank <= n
    if n_circle is None:
        n_circle = _circle_nodes(delta1, ahp_max, cap, n)
    # u^w oscillates along the w-line at large u and the integrand decays
    # slowly at small u: the line takes twice the 1-d node count
    n_line = 2 * _line_nodes_for_dim(1, nodes_per_unit, length)
    return ap, ahp, delta1, delta2, n_circle, n_line


def _bcr_fredholm(m: int, n: int, u: float, alpha: Sequence[float],
                  alphahat: Sequence[float], delta1: Optional[float] = None,
                  delta2: Optional[float] = None,
                  nodes_per_unit: float = 20.0,
                  order: Optional[int] = None, n_circle: Optional[int] = None,
                  length: float = 12.0) -> Tuple[complex, float]:
    """E[exp(-u Z_{(m,n)})] as det(I + K_u) on L^2(C_{delta1}).

    The partition-function law is invariant under the re-parameterization
    (alpha + s, alphahat - s); we shift by s = mean(alphahat) so the
    shifted alphahat' are small (|alphahat'| < delta1 is required) and the
    shifted alpha' are positive (delta2 < min alpha' is required).

    Kernel: K_u(v,v') = (1/2 pi i) int_{ell_delta2} dw/(w - v')
    * pi/sin(pi(v-w)) * [u^w prod_i Gamma(alpha'_i - w)] /
    [u^v prod_i Gamma(alpha'_i - v)] * prod_j Gamma(v + alphahat'_j) /
    Gamma(w + alphahat'_j).  The circle takes n_circle nodes, by default
    _circle_nodes(delta1, max|alphahat'|, min(delta2, 1 - delta2), n): 58
    at a flat (2,2) polymer, and ArithmeticError where delta1 lies so close
    to either bound that more than 512 would be needed.  K has rank <= n
    (its only poles in v inside the circle are at -alphahat'_j): order None
    or >= n is the whole det(I + K), by one LU (Bornemann, Math. Comp. 79
    (2010) 871); order 0..3 the partial sum from traces of powers of K;
    4 <= order < n raises ValueError.  The error estimate is _subset_error
    on the w-line plus |Im value| and n_circle eps |value|; the circle's
    aliasing is below 2^-56 by its node count.  Above 1e-6 it raises
    ArithmeticError, as does a value off the real axis or, for the whole
    det(I + K), outside [0, 1]; a partial sum may lie outside [0, 1].
    """
    alpha, alphahat = _leading(alpha, m, "alpha"), _leading(alphahat, n, "alphahat")
    _check_laplace_args(nodes_per_unit, u)
    if order is None:
        order = n
    if order < 0:
        raise ValueError("order must be >= 0")
    if 3 < order < n:
        raise ValueError(f"order must be <= 3, or >= n = {n} (the whole det)")
    if u == 0:
        return 1.0 + 0j, 0.0
    ap, ahp, delta1, delta2, n_circle, n_line = _fredholm_contours(
        m, n, alpha, alphahat, delta1, delta2, nodes_per_unit, n_circle, length)
    v, dv = circle(delta1, n_circle)
    w, dw = vertical_line(delta2, length, n_line)
    args = (np.log(u), Counter(ap), Counter(ahp))
    A, B = _circle_line_kernel(v, dv, w, dw, _phi(v, *args), _phi(w, *args))

    def on(nodes=slice(None), s=1):
        # the value on the w-line nodes `nodes` at s times their spacing
        K = s * (A[:, nodes] @ B[nodes])
        if order >= n:
            return complex(np.linalg.det(np.eye(n_circle) + K))
        return complex(np.sum(_trace_det_coefficients(K, [n_circle], order)))

    val = on()
    err = (_subset_error(val, on, n_line) + abs(val.imag)
           + n_circle * np.finfo(float).eps * abs(val))
    # a partial sum of the series is not a transform: no range to check
    check = _checked_transform if order >= n else _checked_sum
    return check(val, err), err


# the public evaluators: the private forms' values alone
laplace1 = _value_only(_laplace1)
laplace2 = _value_only(_laplace2)
# the former name of laplace2, which perfbench still calls
laplace2_case_a = laplace2
bcr_fredholm = _value_only(_bcr_fredholm)


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
    nodes_per_unit: float = 20.0,
) -> complex:
    """The (m, n) summand of the double series for the (0, gamma) joint
    Laplace transform.  The first index m counts contour pairs (v, w)
    attached to the second point (m2, n2) with u2; the second index n
    counts pairs (v', w') attached to the first point (m1, n1) with u1.
    Summing the terms over m <= n2, n <= m1 reproduces laplace2.

    Each pair contributes a circle C_{delta1} and a line ell_delta
    integral; pairs interact through Cauchy determinants within a group
    and through the gamma-function cross term across groups.  delta
    defaults to 0.4 gamma for the one-group terms and to 0.35 gamma for
    the (1,1) term, whose cross factor Gamma(gamma - w - w') has a pole
    gamma - 2 delta from the line.  delta1 defaults to 0.2 min(d, 1 - d)
    with d = 0.4 gamma at every term, or to 0.1 when d >= 1.  u1 and u2
    must be positive.  At 20 nodes_per_unit the line takes 240 (one pair)
    or 320 (two pairs) nodes at every length.  The circle takes
    _circle_nodes(delta1, 0, min(delta, 1 - delta, gamma - delta1), e) nodes,
    e the largest pole order at v = 0 of the groups the term uses (n2 for
    the second, m1 for the first): 26 for the one-group terms and 28 for
    the (1,1) term at (1,2,2,1) on the default offsets.

    The line half-length is min(12, max(2, 80/decay)), where
    decay = (pi/2) min(m_i + n_i) over the points whose group the term
    uses: a group's w-factor decays like exp(-decay |Im w|), and a short
    line keeps the fixed node count dense against the oscillation of u^w
    when u is far from 1.
    """
    if m < 0 or n < 0:
        raise ValueError("term indices must be >= 0")
    if m + n > 2:
        raise ValueError("dimension cap: m + n <= 2")
    _check_laplace_args(nodes_per_unit, u1, u2)
    if min(u1, u2) == 0:
        raise ValueError("requires u1, u2 > 0")
    if m == 0 and n == 0:
        return 1.0 + 0j
    if delta is None:
        delta = 0.35 * gamma if m and n else 0.4 * gamma
    if delta1 is None:
        d = 0.4 * gamma
        delta1 = 0.2 * min(d, 1.0 - d) if d < 1.0 else 0.1
    if not (0 < delta1 < min(delta, 1.0 - delta) and delta < gamma / 2):
        raise ValueError("requires 0 < delta1 < min(delta, 1-delta), delta < gamma/2")

    sizes = ([m2 + n2] if m else []) + ([m1 + n1] if n else [])
    decay = min(sizes) * math.pi / 2.0
    length = min(12.0, max(2.0, 80.0 / decay))
    nl = _line_nodes_for_dim(2 * (m + n), nodes_per_unit)
    # e^{-Phi(v)} has a pole of order e_zero (below) at v = 0, the only
    # singularity inside the circle; outside, pi/sin(pi (v - w)) and
    # 1/(w - v) have theirs on the lines Re v = delta and delta - 1, and
    # Gamma(gamma - v - v') at distance gamma - delta1
    poles = max(([n2] if m else []) + ([m1] if n else []))
    v, dv = circle(delta1, _circle_nodes(
        delta1, 0.0, min(delta, 1.0 - delta, gamma - delta1), poles))
    w, dw = vertical_line(delta, length, nl)

    # each group's Phi: u^z Gamma(gamma - z)^e_gamma / Gamma(z)^e_zero
    second, first = [(np.log(u), {gamma: e_gamma}, {0.0: e_zero})
                     for u, e_gamma, e_zero in ((u2, m2, n2), (u1, n1, m1))]
    if n == 0 or m == 0:
        # one group: the term is the z^k coefficient of det(I + z K)
        k, group = (m, second) if m else (n, first)
        A, B = _circle_line_kernel(v, dv, w, dw, _phi(v, *group), _phi(w, *group))
        return complex(_trace_det_coefficients(A @ B, [len(v)], k)[k])

    # (1,1): one pair (v, w) per group, each with its Cauchy factor P, and
    # the cross term Gamma(gamma-a-b) between the groups, numerators on the
    # like pairs and denominators on the mixed ones; one step per circle
    # node a of the second group keeps the temporaries at circle x line size.
    # Circle node N - a is the conjugate of node a, the line is symmetric
    # about the real axis, each of the four measures dv, dw turns into minus
    # its conjugate there, and the integrand is real on the real axis: so
    # the step of node N - a is the conjugate of the step of node a.  For an
    # even node count N the steps of nodes 0..N/2 suffice, the interior ones
    # counted twice, and the sum is their real part
    (g2v, g2w), (g1v, g1w) = [(np.exp(-_phi(v, *g)) * dv, np.exp(_phi(w, *g)) * dw)
                              for g in (second, first)]
    P = _pi_csc_circle_line(v, w) / (w[None, :] - v[:, None])
    ww = _gamma_cross(gamma - w, -w, True)
    vv = np.exp(log_gamma(gamma - v[:, None] - v[None, :]))
    vw = np.exp(-log_gamma(gamma - v[:, None] - w[None, :]))
    Pg1w = P * g1w
    half = len(v) // 2
    total = 0.0
    for a in range(half + 1):
        X = (g1v * vv[a])[:, None] * vw * (P[a] * g2w)
        Y = (Pg1w * vw[a]) @ ww.T
        step = (g2v[a] * np.sum(X * Y)).real
        total += step if a in (0, half) else 2.0 * step
    return complex(total) / TWO_PI_I**4


# ---------------------------------------------------------------------------
# block Cauchy identity check
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per orthant axis, in panels of 24
_CAUCHY_NODES = 96

def block_cauchy_check(
    w: Sequence[complex],
    v: Sequence[complex],
    ws: Sequence[complex],
    vs: Sequence[complex],
    gamma: float,
) -> Tuple[complex, complex, float]:
    """Evaluate both sides of the block Cauchy identity.

    lhs: det(1/(w_k - v_l)) det(1/(ws_k - vs_l)) times the product of
    linear-factor ratios (gamma-ws-v)(gamma-vs-w)/((gamma-ws-w)(gamma-vs-v)).
    rhs: integral over the positive orthant of the exponential block
    determinant, as the determinant of its per-axis column integrals, each
    by Gauss-Legendre quadrature on 96 nodes.  Returns (lhs, rhs, relerr).
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
        x, wx = gl_panels(0.0, 40.0 / r, _CAUCHY_NODES, _CAUCHY_NODES // 24)
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
    """u = exp(-N f_gamma - r N^{1/3}) with f_gamma = -2 Psi(gamma/2); a
    NaN or overflowing u raises ValueError, and so does a u below the
    smallest normal double: at gamma = 1, r = 0 that is from N = 181, and
    from N = 190 the exponential is 0.0, which mc_laplace would read as
    u = 0 (a transform of exactly 1)."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
    f = -2.0 * float(digamma(gamma / 2.0))
    x = -N * f - r * N ** (1.0 / 3.0)
    if not x <= math.log(np.finfo(float).max):
        raise ValueError(f"u = exp({x}) is NaN or overflows")
    u = math.exp(x)
    if u < np.finfo(float).tiny:
        raise ValueError(f"u = exp({x}) underflows below the smallest normal double")
    return u


def prelimit_term(
    m: int,
    n: int,
    N: int,
    gamma: float,
    t1: float,
    t2: float,
    r1: float = 0.0,
    r2: float = 0.0,
    nodes_per_unit: float = 20.0,
) -> complex:
    """The pre-limit summand I^{(N)}_{m,n} of the two-point expansion, for
    the (0, gamma) polymer at the N^{2/3}-separated points, with
    u_i = exp(-N f_gamma - r_i N^{1/3}).

    This is joint_series_term at (m1,n1,m2,n2) = scaled_points(N, t1, t2)
    and u_i = scaled_u(N, gamma, r_i), on the pre-limit offsets
    delta = 0.4 gamma, delta1 = 0.2 gamma.  The paper writes the term as
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
    if N > 24:
        raise ValueError("N cap: N <= 24")
    m1, n1, m2, n2 = scaled_points(N, t1, t2)
    if m > n2 or n > m1:
        raise ValueError("term indices exceed the series range (n2, m1)")
    u1 = scaled_u(N, gamma, r1)
    u2 = scaled_u(N, gamma, r2)
    return joint_series_term(m, n, m1, n1, m2, n2, u1, u2, gamma,
                             0.4 * gamma, 0.2 * gamma, nodes_per_unit)


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
        (m2 * log_gamma(gamma - w) - n2 * log_gamma(w)
         + n1 * log_gamma(gamma - ws) - m1 * log_gamma(ws)
         + log_gamma(1 + gamma - ws - w) + log_gamma(1 + gamma - vs - v)
         - log_gamma(1 + gamma - ws - v) - log_gamma(1 + gamma - vs - w)).real
    )
    log_bound = (
        -(math.pi / 2.0) * abs(ws.imag + w.imag)
        + (math.pi / 2.0) * (abs(w.imag) + abs(ws.imag))
        - (math.pi / 2.0) * (n1 - m1) * abs(ws.imag)
        - (math.pi / 2.0) * (m2 - n2) * abs(w.imag)
    )
    return gam_part - log_bound
