"""The Monte Carlo polymer DP kernel.

Given a batch of weights on the c cells of a staircase, stored cell-major
in row-major cell order (the order of IndexSet.cells()), run the
partition-function DP and return exp(-sum_l u_l * Z_l) per sample.  Cells
outside the staircase have no storage, so they are never drawn or read.
"""
from __future__ import annotations

import numpy as np

from .arrays import IndexSet


def mc_chunk(w: np.ndarray, points, us) -> np.ndarray:
    """w: (c, S) weights, row k holding cell k of IndexSet(points).cells()
    for each of the S samples.

    The DP runs cell by cell (a few dozen cells at desk scale) with the
    sample axis last, so each cell update is one or two in-place ufunc
    calls over S contiguous values.  A staircase is closed under moving up
    or left, so a neighbour is missing only on the first row or column:
    there Z is the other neighbour times w, and Z_11 = w_11.
    """
    cells = IndexSet(points).cells()
    if w.ndim != 2 or w.shape[0] != len(cells):
        raise ValueError(f"need ({len(cells)}, S) weights, got {w.shape}")
    at = {cell: k for k, cell in enumerate(cells)}
    Z = np.empty(w.shape)
    for k, (i, j) in enumerate(cells):
        nbrs = [at[c] for c in ((i - 1, j), (i, j - 1)) if c in at]
        if len(nbrs) == 2:
            np.add(Z[nbrs[0]], Z[nbrs[1]], out=Z[k])
            Z[k] *= w[k]
        elif nbrs:
            np.multiply(Z[nbrs[0]], w[k], out=Z[k])
        else:
            Z[k] = w[k]
    expo = np.zeros(w.shape[1])
    for (m, n), u in zip(points, us):
        expo += u * Z[at[(m, n)]]
    return np.exp(-expo)
