"""Shared quadrature plumbing: Gauss-Legendre panels and the graded
Fredholm-determinant coefficients."""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np


@lru_cache(maxsize=256)
def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gl_nodes(a: float, b: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(int(n))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def gl_panels(a: float, b: float, n_total: int, n_panels: int = 1):
    """Composite Gauss-Legendre: n_panels equal panels, ~n_total nodes total."""
    n_panels = max(1, int(n_panels))
    per = max(4, int(np.ceil(n_total / n_panels)))
    xs, ws = [], []
    edges = np.linspace(a, b, n_panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gl_nodes(lo, hi, per)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _graded_det_coefficients(M: np.ndarray, sizes: Sequence[int],
                             K: int) -> np.ndarray:
    """Taylor coefficients c[k_1, ..., k_g], 0 <= k_l < K, of
    det(I + sum_l z_l P_l M), where P_l keeps the l-th block of sizes[l]
    consecutive rows.  Each z_l runs over the K-th roots of unity and an FFT
    turns the determinant values into coefficients by the trapezoid rule
    (Bornemann, Math. Comp. 79 (2010) 871).  Coefficients of degree >= K in
    some z_l alias into the result, so K must exceed the numerical degree.
    The determinants are taken one at a time to keep memory flat, and
    c[0, ..., 0] = det(I) = 1 is set exactly.  Subnormal parts are zeroed
    before each det: numpy's complex LU returns NaN on a subnormal pivot."""
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    group = np.repeat(np.arange(len(sizes)), sizes)
    eye = np.eye(len(M))
    tiny = np.finfo(float).tiny
    vals = np.empty((K,) * len(sizes), dtype=complex)
    for idx in np.ndindex(vals.shape):
        z = roots[np.asarray(idx)][group]
        A = eye + z[:, None] * M
        for part in (A.real, A.imag):
            part[np.abs(part) < tiny] = 0.0
        vals[idx] = np.linalg.det(A)
    c = np.fft.fftn(vals) / vals.size
    c[(0,) * len(sizes)] = 1.0
    return c
