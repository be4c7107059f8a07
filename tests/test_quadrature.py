"""Tests of the low-order Fredholm-determinant coefficients: each coefficient
of det(I + sum_l z_l P_l M) against the sum of principal minors over the
index subsets with that many indices in each group, enumerated by brute
force, and the trace route against an FFT of determinants on roots of
unity at the Airy queries of the limit terms."""
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grsklab.airy import _N_TAU, _limit_query, _nystrom_matrix
from grsklab.quadrature import _trace_det_coefficients


def minor_sum(M, sizes, ks):
    """Sum of det M[S, S] over the S with ks[l] indices in group l (none,
    so 0, when ks[l] exceeds the group's size)."""
    starts = np.cumsum([0, *sizes[:-1]])
    picks = [combinations(range(s, s + n), k)
             for s, n, k in zip(starts, sizes, ks)]
    total = 0.0
    for parts in product(*picks):
        S = [i for part in parts for i in part]
        # a subnormal pivot raises floating-point flags in the LU, which
        # numpy reports as RuntimeWarnings; the draws admit subnormals
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            total += np.linalg.det(M[np.ix_(S, S)]) if S else 1.0
    return total


def fft_coefficients(M, sizes, K=8):
    """The Taylor coefficients c[k], 0 <= k_l < K, of
    det(I + sum_l z_l P_l M) by an FFT of its values on K roots of unity
    per group."""
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    group = np.repeat(np.arange(len(sizes)), sizes)
    vals = np.empty((K,) * len(sizes), dtype=complex)
    for idx in np.ndindex(vals.shape):
        z = roots[np.asarray(idx)][group]
        vals[idx] = np.linalg.det(np.eye(len(M)) + z[:, None] * M)
    return np.fft.fftn(vals) / vals.size


@st.composite
def grouped_matrices(draw, max_groups):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_groups))
    d = sum(sizes)
    M = draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    return M, sizes


@settings(max_examples=60, deadline=None)
@given(grouped_matrices(2))
# subnormal entries: numpy's complex det of I + zM read NaN on this matrix
@example((np.array([[-1.0, 5e-324], [5e-324, 5e-324]]), [1, 1]))
def test_coefficients_are_principal_minor_sums(case):
    M, sizes = case
    c = _trace_det_coefficients(M, sizes, 3)
    assert c.shape == (4,) * len(sizes)
    assert c[(0,) * len(sizes)] == 1.0
    # Hadamard: every coefficient is at most prod_i (1 + |row i|)
    scale = np.prod(1.0 + np.linalg.norm(M, axis=1))
    for ks in np.ndindex(c.shape):
        want = minor_sum(M, sizes, ks) if sum(ks) <= 3 else 0.0
        assert abs(c[ks] - want) <= 1e-13 * scale


# the Airy query of the benchmark's limit terms: t = (0.5, 0.5), r = 0
_LIMIT = _limit_query(0.5, 0.5, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("times,thresholds", [
    (_LIMIT.times, _LIMIT.thresholds),
    (_LIMIT.times[:1], _LIMIT.thresholds[:1]),
    # the lowest supported thresholds, where the coefficients reach ~6
    ([0.0], [-5.0]),
    ([0.0, 1.0], [-5.0, -5.0]),
    ([-1.0, 0.5], [-5.0, -5.0]),
], ids=["limit-query", "limit-query-one-time", "one-time-at-5", "two-time-at-5",
        "negative-window-at-5"])
def test_trace_route_matches_fft_route_on_nystrom_matrix(times, thresholds):
    M = -_nystrom_matrix(times, thresholds, _N_TAU)
    sizes = [len(M) // len(times)] * len(times)
    c = _trace_det_coefficients(M, sizes, 3)
    ref = fft_coefficients(M, sizes)
    for ks in np.ndindex(c.shape):
        if sum(ks) <= 3:
            assert abs(c[ks] - ref[ks]) <= 1e-14, ks
