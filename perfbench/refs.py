"""References made apart from grsklab: scipy closed forms and quadratures,
Bornemann's Fredholm determinant for F2, and the Monte Carlo reference
table written by make_mc_table.py.

Nothing here imports grsklab, so a fault in the program cannot leak into
the numbers it is checked against.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import integrate, special

HERE = os.path.dirname(os.path.abspath(__file__))
MC_TABLE = os.path.join(HERE, "mc_reference.json")


# ---------------------------------------------------------------------------
# log-gamma polymer, flat (0, gamma) weights: 1/w ~ Gamma(gamma)
# ---------------------------------------------------------------------------


def one_cell_laplace(s, a: float = 1.0):
    """E[exp(-s w)] with 1/w ~ Gamma(a): 2 s^{a/2} K_a(2 sqrt s) / Gamma(a)."""
    s = np.asarray(s, dtype=float)
    return 2.0 * s ** (a / 2.0) * special.kv(a, 2.0 * np.sqrt(s)) / special.gamma(a)


def corner_pair_laplace(u1: float, u2: float, a: float = 1.0) -> float:
    """E[exp(-u1 Z_{1,2} - u2 Z_{2,1})] = E_g[phi(u1/g) phi(u2/g)] with
    Z_{1,2} = w11 w12, Z_{2,1} = w11 w21 and g = 1/w11 ~ Gamma(a)."""

    def f(g):
        return (one_cell_laplace(u1 / g, a) * one_cell_laplace(u2 / g, a)
                * g ** (a - 1.0) * math.exp(-g) / special.gamma(a))

    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# Airy: F2 by Bornemann's method, one-time limit terms, scaling constants
# ---------------------------------------------------------------------------


def airy_kernel(x, y):
    """K_Ai(x_i, y_j) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y) on the grid
    of two 1-D arrays, with the diagonal limit Ai'(x)^2 - x Ai(x)^2."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    ax, apx, _, _ = special.airy(x)
    ay, apy, _, _ = special.airy(y)
    d = x[:, None] - y[None, :]
    near = np.abs(d) < 1e-10
    num = ax[:, None] * apy[None, :] - apx[:, None] * ay[None, :]
    diag = np.broadcast_to((apx**2 - x * ax**2)[:, None], d.shape)
    return np.where(near, diag, num / np.where(near, 1.0, d))


def tracy_widom_f2(s: float, n: int = 80, length: float = 16.0) -> float:
    """F2(s) = det(I - K_Ai) on L^2(s, inf) by Gauss-Legendre Nystrom
    (Bornemann, Math. Comp. 79 (2010) 871); the window [s, s + 16] drops
    a tail below 1e-15."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = s + 0.5 * length * (x + 1.0)
    w = 0.5 * length * w
    sw = np.sqrt(w)
    K = airy_kernel(x, x)
    return float(np.linalg.det(np.eye(n) - sw[:, None] * K * sw[None, :]))


def scaling_constants(gamma: float):
    """(c1, c2, c3) of the KPZ window for the (0, gamma) polymer from
    scipy's polygamma: G''' = 2 psi''(gamma/2), F'' = 2 psi'(gamma/2)."""
    gppp = 2.0 * float(special.polygamma(2, gamma / 2.0))
    fpp = 2.0 * float(special.polygamma(1, gamma / 2.0))
    c1 = (-gppp / 2.0) ** (-1.0 / 3.0)
    return c1, -c1 * fpp**2 / (2.0 * gppp), -fpp / gppp


def _gl(a: float, b: float, panels: int, per: int = 30):
    """Composite Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(per)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    xs = (edges[:-1] + half)[:, None] + half[:, None] * x[None, :]
    return xs.ravel(), (half[:, None] * w[None, :]).ravel()


def airy_trace(theta: float) -> float:
    """int_theta^inf K_Ai(s, s) ds, the first Fredholm term of F2(theta)."""
    val, _ = integrate.quad(lambda s: float(airy_kernel(s, s)[0, 0]), theta, theta + 20.0,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return float(val)


def limit_terms(t1: float, t2: float, r1: float, r2: float, gamma: float = 1.0):
    """The limit terms I_{1,0}, I_{0,1}, I_{1,1} of the two-point series.

    I_{1,0} = -tr A', I_{0,1} = -tr D', and
    I_{1,1} = tr A' tr D' + int int e^{-rate (x+y)}
              K_Ai(th1 - x, th2 + y) K_Ai(th2 - x, th1 + y) dx dy,
    where the tau integrals of the Airy products are done in closed form by
    the Christoffel-Darboux kernel K_Ai."""
    c1, c2, c3 = scaling_constants(gamma)
    th1 = c1 * r1 + c2 * t1**2
    th2 = c1 * r2 + c2 * t2**2
    rate = c3 * (t1 + t2)
    tr_a, tr_d = airy_trace(th2), airy_trace(th1)
    x, wx = _gl(0.0, 45.0 / rate, 100)
    y, wy = _gl(0.0, 14.0, 10)
    ex = np.exp(-rate * x) * wx
    ey = np.exp(-rate * y) * wy
    k1 = airy_kernel(th1 - x, th2 + y)
    k2 = airy_kernel(th2 - x, th1 + y)
    cross = float(ex @ (k1 * k2) @ ey)
    return {(1, 0): -tr_a, (0, 1): -tr_d, (1, 1): tr_a * tr_d + cross}


# ---------------------------------------------------------------------------
# Monte Carlo reference table
# ---------------------------------------------------------------------------


def _mc_doc() -> dict:
    with open(MC_TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def mc_table() -> dict:
    """{key: (mean, sigma)} from mc_reference.json; see make_mc_table.py."""
    return {row["key"]: (row["mean"], row["sigma"]) for row in _mc_doc()["rows"]}


def mc_table_samples() -> int:
    """The number of samples behind each row of the table."""
    return int(_mc_doc()["samples"])


def table_key(points, us) -> str:
    pts = ";".join(f"{m},{n}" for m, n in points)
    return f"{pts}|" + ",".join(repr(float(u)) for u in us)
