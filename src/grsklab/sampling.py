"""Log-gamma measure on polygonal arrays and Monte Carlo Laplace transforms.

The measure puts independent weights w_ij with 1/w_ij ~ Gamma(a_ij, 1),
a_ij = alpha_i + alphahat_j, on the cells of a staircase index set.  The
Monte Carlo estimator evaluates E[exp(-sum_l u_l Z_{m_l,n_l})] with the
partition function Z computed by the DP recursion per sample.

Samples are drawn in chunks; the per-sample DP runs in the numpy kernel
grsklab._mc_numpy with the sample axis last, and a shape shared by every
cell is drawn with one scalar-shape call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from . import _mc_numpy
from .arrays import IndexSet, PolygonalArray


@dataclass
class ParameterSet:
    """Model parameters: per-row alpha_i, per-column alphahat_j, plus the
    symbols used by the flat (0, gamma) specialization and the N -> infinity
    scaling (N, t1, t2, r1, r2)."""

    alpha: List[float] = field(default_factory=list)
    alphahat: List[float] = field(default_factory=list)
    gamma: float = 1.0
    u1: float = 1.0
    u2: float = 1.0
    N: int = 1
    t1: float = 0.0
    t2: float = 0.0
    r1: float = 0.0
    r2: float = 0.0

    @classmethod
    def flat(cls, gamma: float, m: int, n: int, **kw) -> "ParameterSet":
        """The (0, gamma) specialization: alpha_i = 0, alphahat_j = gamma."""
        if not (math.isfinite(gamma) and gamma > 0):
            raise ValueError("gamma must be positive and finite")
        return cls(alpha=[0.0] * m, alphahat=[gamma] * n, gamma=gamma, **kw)

    def shape_at(self, i: int, j: int) -> float:
        if i > len(self.alpha) or j > len(self.alphahat):
            raise ValueError(
                f"cell ({i},{j}) outside declared alpha/alphahat ranges"
            )
        return self.alpha[i - 1] + self.alphahat[j - 1]


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples for a stderr")

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n": self.n_samples,
            "seed": self.seed,
        }


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    # Counter-based Philox generator; independent per-worker streams come
    # from the same entropy with distinct spawn keys, so results are
    # reproducible for any (seed, stream) pair.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _inverse_gamma_weights(rng: np.random.Generator, shapes: np.ndarray) -> np.ndarray:
    """Draw w with 1/w ~ Gamma(shape, rate 1), any positive shape.

    For shape >= 1 we use the generator's standard gamma directly.  For
    shape < 1 we use the boost transformation: if G ~ Gamma(shape + 1) and
    U ~ Uniform(0,1) independently, then G * U^{1/shape} ~ Gamma(shape).
    This avoids the density blow-up at 0 for small shapes.

    When every shape is the same value a, one scalar-shape call consumes
    the stream in the same order as the per-element draw, so it returns the
    same weights, faster.
    """
    shapes = np.asarray(shapes, dtype=float)
    if not np.all(shapes > 0):
        raise ValueError("all Gamma shapes alpha_i + alphahat_j must be > 0")
    if shapes.size and np.all(shapes == shapes.flat[0]):
        a = shapes.flat[0]
        if a >= 1.0:
            g = rng.standard_gamma(a, size=shapes.shape)
        else:
            g = rng.standard_gamma(a + 1.0, size=shapes.shape)
            # a full exponent array keeps numpy's elementwise power; a scalar
            # exponent of 2 (a = 0.5) takes a squaring shortcut that differs
            # in the last bit
            g *= rng.random(shapes.shape) ** np.full(shapes.shape, 1.0 / a)
        return np.reciprocal(g, out=g)
    g = np.empty(shapes.shape)
    small = shapes < 1.0
    if np.any(~small):
        g[~small] = rng.standard_gamma(shapes[~small])
    if np.any(small):
        boost = rng.standard_gamma(shapes[small] + 1.0)
        u = rng.random(int(np.count_nonzero(small)))
        g[small] = boost * u ** (1.0 / shapes[small])
    return 1.0 / g


def sample_array(index: IndexSet, params: ParameterSet, seed: int) -> PolygonalArray:
    """One draw of the log-gamma measure on the given staircase shape."""
    rng = _stream_rng(int(seed), 0)
    cells = index.cells()
    shapes = np.array([params.shape_at(i, j) for (i, j) in cells])
    w = _inverse_gamma_weights(rng, shapes)
    return PolygonalArray(
        index=index, entries={c: float(v) for c, v in zip(cells, w)}
    )


def _validate_staircase(points: Sequence[Tuple[int, int]]) -> None:
    if not points:
        raise ValueError("need at least one corner point")
    for (m1, n1), (m2, n2) in zip(points, points[1:]):
        if not (m1 < m2 and n1 > n2):
            raise ValueError(
                "corner points must have strictly increasing rows and "
                "strictly decreasing columns"
            )
    if any(m < 1 or n < 1 for m, n in points):
        raise ValueError("corner points must be >= (1,1)")


def mc_laplace(
    points: Sequence[Tuple[int, int]],
    us: Sequence[float],
    params: ParameterSet,
    n_samples: int = 10**6,
    seed: int = 0,
    n_streams: int = 1,
    chunk: int = 10**5,
) -> MCEstimate:
    """Monte Carlo estimate of E[exp(-sum_l u_l Z_{m_l, n_l})].

    Embarrassingly parallel over samples: each stream owns an independent
    Philox stream and an equal share of the sample budget; aggregation is a
    deterministic pairwise reduction (numpy summation), so the estimate
    depends only on (seed, n_streams), not on scheduling.
    """
    points = [(int(m), int(n)) for m, n in points]
    _validate_staircase(points)
    if len(us) != len(points):
        raise ValueError("need one Laplace argument per corner point")
    if not all(math.isfinite(u) for u in us):
        raise ValueError("Laplace arguments must be finite")
    if any(u < 0 for u in us):
        raise ValueError("Laplace arguments must be >= 0")
    n_samples = int(n_samples)
    if n_samples < 10**3:
        raise ValueError("n_samples must be >= 1000")
    n_streams = max(1, int(n_streams))

    index = IndexSet(points)
    M, N_cols = index.n_rows, index.n_cols
    cells = index.cells()
    shape_grid = np.zeros((M, N_cols))
    in_shape = np.zeros((M, N_cols), dtype=bool)
    for (i, j) in cells:
        shape_grid[i - 1, j - 1] = params.shape_at(i, j)
        in_shape[i - 1, j - 1] = True
    shapes = shape_grid[in_shape]

    per_stream = [n_samples // n_streams] * n_streams
    for k in range(n_samples - sum(per_stream)):
        per_stream[k] += 1

    vals = []
    for stream, budget in enumerate(per_stream):
        rng = _stream_rng(int(seed), stream)
        done = 0
        while done < budget:
            s = min(chunk, budget - done)
            # sample axis last: the kernel's per-cell rows are contiguous
            w = np.zeros((M, N_cols, s))
            w[in_shape] = _inverse_gamma_weights(
                rng, np.broadcast_to(shapes, (s, shapes.size))
            ).T
            vals.append(_mc_numpy.mc_chunk(w.transpose(2, 0, 1), points, us))
            done += s
    sample = np.concatenate(vals)
    mean = float(np.mean(sample))
    std = float(np.std(sample, ddof=1))
    return MCEstimate(
        mean=mean,
        stderr=std / math.sqrt(n_samples),
        n_samples=n_samples,
        seed=int(seed),
    )
