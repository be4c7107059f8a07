"""Log-gamma measure on polygonal arrays and Monte Carlo Laplace transforms.

The measure puts independent weights w_ij with 1/w_ij ~ Gamma(a_ij, 1),
a_ij = alpha_i + alphahat_j, on the cells of a staircase index set.  The
Monte Carlo estimator evaluates E[exp(-sum_l u_l Z_{m_l,n_l})] with the
partition function Z computed by the DP recursion per sample.

Weights are drawn only for the c cells of the staircase, in chunks of
samples, with one scalar-shape call when every cell shares its shape.  The
DP runs in the numpy kernel grsklab._mc_numpy on cell-major blocks of
_DP_BLOCK samples, small enough that a cell update stays in L2.  The
streams run one after another; (seed, n_streams, chunk) fixes every bit
of an estimate, and for shapes all >= 1 the chunk does not matter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _mc_numpy
from .arrays import IndexSet, PolygonalArray

# samples per block of the weight transpose and of the DP: the rows a cell
# update touches stay in L2.  The draw chunk, not this, is part of the
# stream layout.
_DP_BLOCK = 2 * 10**4


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


def _inverse_gamma_weights(
    rng: np.random.Generator, shapes: np.ndarray, n: Optional[int] = None
) -> np.ndarray:
    """Draw w with 1/w ~ Gamma(shape, rate 1), any positive shape.

    Returns an array of shape `shapes.shape`.  With `n` given, `shapes`
    is one shape per cell and the result holds n independent draws of it
    with the sample axis last, (c, n), the layout the DP kernel reads; the
    shape checks run on the c shapes alone.

    For shape >= 1 we use the generator's standard gamma directly.  For
    shape < 1 we use the boost transformation: if G ~ Gamma(shape + 1) and
    U ~ Uniform(0,1) independently, then G * U^{1/shape} ~ Gamma(shape).
    This avoids the density blow-up at 0 for small shapes.

    When every shape is the same value a, one scalar-shape call consumes
    the stream in the same order as the per-element draw, so it returns the
    same weights, faster.  At a = 1 that call is the standard exponential,
    which is the draw numpy's standard gamma makes at shape 1.
    """
    shapes = np.asarray(shapes, dtype=float)
    if not np.all(shapes > 0):
        raise ValueError("all Gamma shapes alpha_i + alphahat_j must be > 0")
    size = shapes.shape if n is None else (int(n),) + shapes.shape
    if shapes.size and np.all(shapes == shapes.flat[0]):
        a = shapes.flat[0]
        if a == 1.0:
            g = rng.standard_exponential(size)
        elif a > 1.0:
            g = rng.standard_gamma(a, size=size)
        else:
            g = rng.standard_gamma(a + 1.0, size=size)
            # a full exponent array keeps numpy's elementwise power; a scalar
            # exponent of 2 (a = 0.5) takes a squaring shortcut that differs
            # in the last bit
            g *= rng.random(size) ** np.full(size, 1.0 / a)
    else:
        full = np.broadcast_to(shapes, size)
        g = np.empty(size)
        small = full < 1.0
        if np.any(~small):
            g[~small] = rng.standard_gamma(full[~small])
        if np.any(small):
            boost = rng.standard_gamma(full[small] + 1.0)
            u = rng.random(int(np.count_nonzero(small)))
            g[small] = boost * u ** (1.0 / full[small])
    if n is None:
        return np.reciprocal(g, out=g)
    # the stream fills g sample by sample; reciprocal and transpose run as
    # one pass per L2-sized block
    g = g.reshape(size[0], -1)
    w = np.empty((shapes.size, size[0]))
    for b in range(0, size[0], _DP_BLOCK):
        np.divide(1.0, g[b:b + _DP_BLOCK].T, out=w[:, b:b + _DP_BLOCK])
    return w


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

    The sample budget is split into n_streams equal shares, each drawn from
    its own Philox stream; the streams run one after another.  Each stream
    draws its weights in chunks of `chunk` samples.  When any shape is < 1
    (a uniform shape below 1, or mixed shapes that include one), a chunk
    draws all its gammas before its uniforms, so (seed, n_streams, chunk)
    fixes the estimate to the last bit; with every shape >= 1,
    (seed, n_streams) does.  The DP block size never changes a bit.
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

    cells = IndexSet(points).cells()
    shapes = np.array([params.shape_at(i, j) for (i, j) in cells])

    per_stream = [n_samples // n_streams] * n_streams
    for k in range(n_samples - sum(per_stream)):
        per_stream[k] += 1

    sample = np.empty(n_samples)
    done = 0
    for stream, budget in enumerate(per_stream):
        rng = _stream_rng(int(seed), stream)
        for start in range(0, budget, chunk):
            w = _inverse_gamma_weights(rng, shapes, min(chunk, budget - start))
            for b in range(0, w.shape[1], _DP_BLOCK):
                block = w[:, b:b + _DP_BLOCK]
                sample[done:done + block.shape[1]] = _mc_numpy.mc_chunk(
                    block, points, us)
                done += block.shape[1]
    mean = float(np.mean(sample))
    std = float(np.std(sample, ddof=1))
    return MCEstimate(
        mean=mean,
        stderr=std / math.sqrt(n_samples),
        n_samples=n_samples,
        seed=int(seed),
    )
