"""The Monte Carlo polymer DP kernel.

Given a batch of weight arrays embedded in the bounding rectangle (zeros
outside the shape), run the partition-function DP and return
exp(-sum_l u_l * Z_l) per sample.
"""
from __future__ import annotations

import numpy as np


def mc_chunk(w: np.ndarray, points, us) -> np.ndarray:
    """w: (S, M, N) weights, zero-padded outside the staircase shape.

    The DP runs cell by cell (a few dozen cells at desk scale) with the
    sample axis last, so each cell update is one in-place add and one
    in-place multiply over S contiguous values.  Pass the transpose of an
    (M, N, S) array to make the weight rows contiguous too; any (S, M, N)
    array gives the same result.
    """
    S, M, N = w.shape
    wt = w.transpose(1, 2, 0)
    Z = np.zeros((M + 1, N + 1, S))
    Z[0, 1] = 1.0  # seeds Z[1, 1] = w_11 through the common recursion
    for i in range(1, M + 1):
        for j in range(1, N + 1):
            np.add(Z[i - 1, j], Z[i, j - 1], out=Z[i, j])
            Z[i, j] *= wt[i - 1, j - 1]
    expo = np.zeros(S)
    for (m, n), u in zip(points, us):
        expo += u * Z[m, n]
    return np.exp(-expo)
