"""Shared quadrature plumbing: Gauss-Legendre panels and the low-order
coefficients of Fredholm determinants from traces; a whole determinant is
one LU in its caller."""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
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


def _trace_det_coefficients(M: np.ndarray, sizes: Sequence[int],
                            order: int) -> np.ndarray:
    """Taylor coefficients c[k_1, ..., k_g] of total degree <= order of
    det(I + sum_l z_l P_l M), where P_l keeps the l-th block of sizes[l]
    consecutive rows; entries of higher total degree are 0.

    Plemelj-Smithies: log det(I + X) = sum_j (-1)^{j+1} tr(X^j)/j with
    X = sum_l z_l P_l M, and tr(X^j) is the sum over words l_1 ... l_j of
    z_{l_1} ... z_{l_j} tr(M_{l_1 l_2} ... M_{l_j l_1}) in the blocks
    M_{ab} of M.  The trace of a product A B is sum(A * B^T).  The
    degree-n part E_n of the determinant then follows from Newton's
    recursion n E_n = sum_{j=1}^n (-1)^{j+1} tr(X^j) E_{n-j}, E_0 = 1,
    which exponentiates the truncated series exactly."""
    edges = np.cumsum([0, *sizes])
    blocks = [[M[a0:a1, b0:b1] for b0, b1 in zip(edges[:-1], edges[1:])]
              for a0, a1 in zip(edges[:-1], edges[1:])]
    shape = (order + 1,) * len(sizes)
    power_traces = [None]
    for j in range(1, order + 1):
        p = np.zeros(shape, dtype=M.dtype)
        for word in product(range(len(sizes)), repeat=j):
            last = blocks[word[-1]][word[0]]
            chain = [blocks[a][b] for a, b in zip(word, word[1:])]
            t = np.sum(reduce(np.matmul, chain) * last.T) if chain else np.trace(last)
            p[tuple(np.bincount(word, minlength=len(sizes)))] += t
        power_traces.append(p)

    def times(a, b):
        # product of two polynomials whose total degrees fit in the shape
        out = np.zeros(shape, dtype=np.result_type(a, b))
        for k in zip(*np.nonzero(a)):
            out[tuple(slice(i, None) for i in k)] += (
                a[k] * b[tuple(slice(None, order + 1 - i) for i in k)])
        return out

    parts = [np.zeros(shape, dtype=M.dtype)]
    parts[0][(0,) * len(sizes)] = 1.0
    for n in range(1, order + 1):
        parts.append(sum((-1) ** (j + 1) * times(power_traces[j], parts[n - j])
                         for j in range(1, n + 1)) / n)
    return sum(parts)
