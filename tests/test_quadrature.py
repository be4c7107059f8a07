"""Tests of the graded Fredholm-determinant coefficients: each coefficient of
det(I + sum_l z_l P_l M) against the sum of principal minors over the index
subsets with that many indices in each group, enumerated by brute force."""
from itertools import combinations, product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grsklab.quadrature import _graded_det_coefficients


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


@st.composite
def grouped_matrices(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    d = sum(sizes)
    M = draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    return M, sizes


@settings(max_examples=60, deadline=None)
@given(grouped_matrices())
# subnormal entries: numpy's complex det of I + zM read NaN on this matrix
@example((np.array([[-1.0, 5e-324], [5e-324, 5e-324]]), [1, 1]))
def test_coefficients_are_principal_minor_sums(case):
    M, sizes = case
    c = _graded_det_coefficients(M, sizes, 8)
    assert c.shape == (8,) * len(sizes)
    assert c[(0,) * len(sizes)] == 1.0
    # Hadamard: every coefficient is at most prod_i (1 + |row i|)
    scale = np.prod(1.0 + np.linalg.norm(M, axis=1))
    for ks in np.ndindex(c.shape):
        assert abs(c[ks] - minor_sum(M, sizes, ks)) <= 1e-13 * scale
