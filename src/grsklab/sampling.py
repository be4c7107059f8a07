"""Log-gamma measure on polygonal arrays and Monte Carlo Laplace transforms.

The measure puts independent weights w_ij with 1/w_ij ~ Gamma(a_ij, 1),
a_ij = alpha_i + alphahat_j, on the cells of a staircase index set.  The
Monte Carlo estimator evaluates E[exp(-sum_l u_l Z_{m_l,n_l})] with the
partition function Z computed by the DP recursion per sample.

Weights are drawn only for the c cells of the staircase, cell-major, one
block of _DP_BLOCK // (c + 2) samples at a time; block b draws from its
own PCG64 stream, spawn key (0, b), so the blocks are independent and run
on up to _MAX_WORKERS cores in any order.  Each worker draws its blocks
into one buffer of its own and the numpy kernel grsklab._mc_numpy runs
the DP in place over each block as drawn.  Each block's samples are
reduced to a count, a mean and a centred sum of squares, and the blocks
are merged once at the end in block order, so memory is
O(min(_MAX_WORKERS, cores) x _DP_BLOCK) doubles plus three numbers per
block, and (seed, block size) fixes every bit of an estimate for any
thread count.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _mc_numpy
from .arrays import IndexSet, PolygonalArray

# doubles per block of the draws and of the DP, the kernel's two scratch
# rows included: a block of _DP_BLOCK // (cells + 2) samples stays in L2.
# Each block has its own stream, so the block size is part of the stream
# layout.
_DP_BLOCK = 25 * 10**4

# each worker holds one buffer of up to _DP_BLOCK doubles (2 MB), so the
# worker count is capped whatever the host's core count; the affinity
# mask does not see a cgroup CPU quota, and the cap also bounds the
# threads a quota-limited container starts
_MAX_WORKERS = 8

# looked up by name when a stream is made: importing numpy.random with
# this module would cost the commands that never sample about 5 MB of RSS
_BIT_GENERATOR = "PCG64"


@dataclass
class ParameterSet:
    """Model parameters: per-row alpha_i, per-column alphahat_j, and the
    gamma of the flat (0, gamma) specialization."""

    alpha: List[float] = field(default_factory=list)
    alphahat: List[float] = field(default_factory=list)
    gamma: float = 1.0

    @classmethod
    def flat(cls, gamma: float, m: int, n: int) -> "ParameterSet":
        """The (0, gamma) specialization: alpha_i = 0, alphahat_j = gamma."""
        if not (math.isfinite(gamma) and gamma > 0):
            raise ValueError("gamma must be positive and finite")
        return cls(alpha=[0.0] * m, alphahat=[gamma] * n, gamma=gamma)

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
    # samples per block: block b draws from spawn key (0, b)
    block: int
    generator: str = _BIT_GENERATOR

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples for a stderr")

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n": self.n_samples,
            "seed": self.seed,
            "generator": self.generator,
            "block": self.block,
        }


def _stream_rng(seed: int, *key: int) -> np.random.Generator:
    # independent streams come from the same entropy with distinct spawn
    # keys, so results are reproducible for any (seed, key): (0,) for
    # sample_array, (0, b) for block b of mc_laplace
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(getattr(np.random, _BIT_GENERATOR)(ss))


def _check_seed(seed: int) -> int:
    if operator.index(seed) < 0:  # a float or str seed is a TypeError
        raise ValueError(f"seed must be >= 0, got {seed}")
    return operator.index(seed)


def _inverse_gamma_weights(
    rng: np.random.Generator,
    shapes: np.ndarray,
    n: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw w with 1/w ~ Gamma(shape, rate 1), any positive shape.

    Returns an array of shape `shapes.shape`.  With `n` given, `shapes` is
    one shape per cell and the result holds n independent draws of each,
    cell-major (c, n), the layout the DP kernel reads; the stream is
    consumed as by the draw of np.broadcast_to(shapes[:, None], (c, n)), so
    the two agree to the last bit.  The block is written into the front of
    the flat buffer `out` when one is given.

    Every shape takes one rule: G ~ Gamma(a + [a < 1]) for every cell in
    one call, then the a < 1 cells are multiplied by U^{1/a} with
    U ~ Uniform(0,1) drawn in cell order.  G * U^{1/a} ~ Gamma(a), and it
    avoids the density blow-up at 0 for small shapes.  When every cell
    shares the boosted shape the call takes a scalar shape, which consumes
    the stream as the per-element call does, in about half the time; a
    shared shape of 1 is an Exp(1) fill, the draw standard_gamma(1.0)
    makes element by element, faster again.

    For a shape far below 1, G * U^{1/a} can underflow to 0; its weight is
    then inf, as the weight that small a draw stands for is past the
    largest double, and numpy's divide-by-zero warning says so.
    """
    shapes = np.asarray(shapes, dtype=float)
    if not np.all(np.isfinite(shapes) & (shapes > 0)):
        raise ValueError(
            "all Gamma shapes alpha_i + alphahat_j must be finite and > 0")
    # one row per cell (or per element) of `cols` draws each
    rows = shapes.reshape(-1)
    cols = 1 if n is None else int(n)
    size = rows.size * cols
    g = (np.empty(size) if out is None else out[:size]).reshape(rows.size, cols)
    small = rows < 1.0
    boosted = rows + small
    if size and np.all(boosted == 1.0):
        # standard_gamma(1.0) draws each element from this same ziggurat
        rng.standard_exponential(out=g)
    elif size and np.all(boosted == boosted[0]):
        rng.standard_gamma(boosted[0], out=g)
    else:
        rng.standard_gamma(boosted[:, None], out=g)
    if np.any(small):
        u = rng.random((np.count_nonzero(small), cols))
        # a full exponent array keeps numpy's elementwise power in both
        # layouts; a broadcast exponent of 2 (a = 0.5) would take a squaring
        # shortcut that differs in the last bit
        u **= np.repeat(1.0 / rows[small], cols).reshape(u.shape)
        g[small] *= u
    np.reciprocal(g, out=g)
    return g.reshape(shapes.shape) if n is None else g


def sample_array(index: IndexSet, params: ParameterSet, seed: int) -> PolygonalArray:
    """One draw of the log-gamma measure on the given staircase shape."""
    rng = _stream_rng(_check_seed(seed), 0)
    cells = index.cells()
    shapes = np.array([params.shape_at(i, j) for (i, j) in cells])
    w = _inverse_gamma_weights(rng, shapes)
    return PolygonalArray(
        index=index, entries={c: float(v) for c, v in zip(cells, w)}
    )


def _worker_count(n_blocks: int) -> int:
    """One worker per core this process may run on, at most one per block
    and at most _MAX_WORKERS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_blocks, _MAX_WORKERS))


def _run_blocks(run_block, n_blocks: int, buffers: list) -> list:
    """[run_block(k, buf) for k in range(n_blocks)] on len(buffers) workers:
    the calling thread and plain threads, each with its own buffer, taking
    the next block from one shared counter.

    The first exception of any worker is raised here once every worker has
    stopped, and after it no worker takes a new block; no thread outlives
    the call.
    """
    results = [None] * n_blocks
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    errors = []

    def work(buf):
        try:
            while True:
                with lock:
                    k = None if errors else next(blocks, None)
                if k is None:
                    return
                results[k] = run_block(k, buf)
        except BaseException as exc:  # raised in the caller
            with lock:
                errors.append(exc)

    threads = []
    for buf in buffers[1:]:
        t = threading.Thread(target=work, args=(buf,))
        try:
            t.start()
        except RuntimeError:  # no thread to spare: fewer workers, same bits
            break
        threads.append(t)
    work(buffers[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def mc_laplace(
    points: Sequence[Tuple[int, int]],
    us: Sequence[float],
    params: ParameterSet,
    n_samples: int = 10**6,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo estimate of E[exp(-sum_l u_l Z_{m_l, n_l})].

    The samples are drawn in blocks of _DP_BLOCK // (cells + 2), the last
    one shorter; block b draws from its own PCG64 stream, spawn key (0, b).
    The blocks run on one worker per core the process may use, at most
    _MAX_WORKERS, and each leaves only its count, mean and centred sum of
    squares, merged once at the end in block order, so (seed, block size)
    fixes the estimate to the last bit for any thread count.  Each worker
    draws into one buffer, allocated here, and the DP overwrites it:
    memory is O(min(_MAX_WORKERS, cores) x _DP_BLOCK) doubles plus the
    three numbers of each block, n_samples / block of them.

    A shape far below 1 can draw an inf weight (see
    _inverse_gamma_weights); its Z is inf and its term exp(-u * inf) = 0,
    so the reciprocal and the DP run without divide and overflow warnings.
    """
    seed = _check_seed(seed)
    index = IndexSet(points)
    if len(us) != len(index.corners):
        raise ValueError("need one Laplace argument per corner point")
    if not all(math.isfinite(u) for u in us):
        raise ValueError("Laplace arguments must be finite")
    if any(u < 0 for u in us):
        raise ValueError("Laplace arguments must be >= 0")
    # checked before int(), which raises OverflowError on inf; above 2**53
    # the block counts are no longer exact doubles in the merge
    if not 10**3 <= n_samples <= 2**53:
        raise ValueError("n_samples must be finite and in 1000..2**53")
    n_samples = int(n_samples)

    cells = index.cells()
    shapes = np.array([params.shape_at(i, j) for (i, j) in cells])
    block = max(1, _DP_BLOCK // (len(cells) + 2))
    n_blocks = -(-n_samples // block)

    def run_block(b, buf):
        size = min(block, n_samples - b * block)
        # errstate is per thread, so it is set here, on the worker's thread;
        # the key keeps the leading 0 of the earlier (share, block) keys, so
        # every estimate keeps the bits it had with the budget in one share
        with np.errstate(divide="ignore", over="ignore"):
            w = _inverse_gamma_weights(_stream_rng(seed, 0, b), shapes, size,
                                       out=buf)
            x = _mc_numpy.mc_chunk(w, index.corners, us)
        m = float(np.mean(x))
        x -= m
        np.square(x, out=x)
        return size, m, float(np.sum(x))

    # the buffers are allocated on this thread: allocated in the workers
    # they would land in per-thread malloc arenas and raise the peak RSS
    size = len(cells) * min(block, n_samples)
    buffers = [np.empty(size) for _ in range(_worker_count(n_blocks))]
    blocks = _run_blocks(run_block, n_blocks, buffers)
    # the pairwise merge of Chan, Golub & LeVeque (1983), all blocks at once
    mean = math.fsum(nb * mb for nb, mb, _ in blocks) / n_samples
    m2 = math.fsum([m2b for _, _, m2b in blocks]
                   + [nb * (mb - mean) ** 2 for nb, mb, _ in blocks])
    return MCEstimate(
        mean=mean,
        stderr=math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples),
        n_samples=n_samples,
        seed=seed,
        block=block,
    )
