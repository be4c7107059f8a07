"""The Monte Carlo polymer DP kernel.

Given a batch of weights on the c cells of a staircase, stored cell-major
in row-major cell order (the order of IndexSet.cells()), run the
partition-function DP in place over the weights and return
exp(-sum_l u_l * Z_l) per sample.  Cells outside the staircase have no
storage, so they are never drawn or read.
"""
from __future__ import annotations

import numpy as np

from .arrays import IndexSet


def mc_chunk(w: np.ndarray, points, us) -> np.ndarray:
    """w: (c, S) weights, row k holding cell k of IndexSet(points).cells()
    for each of the S samples.  The kernel overwrites w: on return row k
    holds Z of cell k.

    The DP runs cell by cell (a few dozen cells at desk scale) with the
    sample axis last, so each cell update is one or two in-place ufunc
    calls over S contiguous values.  A cell's weight is read only at its
    own update, and its neighbours come before it in row-major order, so Z
    can replace w row by row.  A staircase is closed under moving up or
    left, so a neighbour is missing only on the first row or column:
    there Z is the other neighbour times w, and Z_11 = w_11.

    A Z past the largest double is inf, and its term is exp(-u * inf) = 0
    for u > 0; a corner with u = 0 adds nothing to the exponent, and is
    skipped so that an inf Z there does not make 0 * inf = NaN.
    """
    cells = IndexSet(points).cells()
    if w.ndim != 2 or w.shape[0] != len(cells):
        raise ValueError(f"need ({len(cells)}, S) weights, got {w.shape}")
    at = {cell: k for k, cell in enumerate(cells)}
    row = np.empty(w.shape[1])
    for k, (i, j) in enumerate(cells):
        nbrs = [at[c] for c in ((i - 1, j), (i, j - 1)) if c in at]
        if len(nbrs) == 2:
            np.add(w[nbrs[0]], w[nbrs[1]], out=row)
            w[k] *= row
        elif nbrs:
            w[k] *= w[nbrs[0]]
    expo = np.zeros(w.shape[1])
    for (m, n), u in zip(points, us):
        if u != 0:
            np.multiply(w[at[(m, n)]], u, out=row)
            expo += row
    np.negative(expo, out=expo)
    return np.exp(expo, out=expo)
