"""Monte Carlo sampling tests: moment identities, determinism, and a direct
1-D quadrature oracle for the single-cell Laplace transform."""
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

import grsklab

from grsklab import _mc_numpy, oracle, sampling
from grsklab.arrays import IndexSet, PolygonalArray
from grsklab.quadrature import gl_nodes
from grsklab.cli import EXIT_INPUT, main
from grsklab.sampling import (
    MCEstimate,
    ParameterSet,
    _inverse_gamma_weights,
    _stream_rng,
    mc_laplace,
    sample_array,
)


# ---------------------------------------------------------------------------
# weight sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.4, 1.5, 3.2])
def test_inverse_gamma_moments(a):
    n = 10**6
    rng = _stream_rng(11, 0)
    w = _inverse_gamma_weights(rng, np.full(n, a))
    # E[1/w] = a exactly, Var[1/w] = a
    inv = 1.0 / w
    stderr = inv.std(ddof=1) / math.sqrt(n)
    assert abs(inv.mean() - a) <= 4 * stderr
    if a > 2:  # E[w] = 1/(a-1) with finite variance only for a > 2
        stderr_w = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0 / (a - 1)) <= 4 * stderr_w


def test_inverse_gamma_rejects_bad_shape():
    rng = _stream_rng(0, 0)
    with pytest.raises(ValueError):
        _inverse_gamma_weights(rng, np.array([0.5, -0.1]))


@pytest.mark.parametrize("shapes", [
    [1.0, np.nan], [np.nan, np.nan], [np.inf], [1.0, np.inf]])
def test_inverse_gamma_rejects_nan_shape(shapes):
    with pytest.raises(ValueError):
        _inverse_gamma_weights(_stream_rng(0, 0), np.array(shapes))


@pytest.mark.parametrize("a", [0.25, 0.5, 0.6, 1.0, 2.5])
def test_uniform_shape_draw_matches_array_shape_draw(a):
    # one scalar-shape call must consume the stream exactly as the
    # per-element draw does (shape >= 1: standard gamma; shape < 1: the
    # boost G * U^{1/a} with G ~ Gamma(a + 1))
    shapes = np.full((5000, 7), a)
    got = _inverse_gamma_weights(_stream_rng(21, 2), shapes)
    rng = _stream_rng(21, 2)
    if a >= 1.0:
        g = rng.standard_gamma(shapes)
    else:
        boost = rng.standard_gamma(shapes.ravel() + 1.0)
        u = rng.random(shapes.size)
        g = (boost * u ** (1.0 / shapes.ravel())).reshape(shapes.shape)
    assert np.array_equal(got, 1.0 / g)
    if a == 1.0:
        # a cell-major block of shape-1 cells is an Exp(1) fill, which
        # consumes the stream as standard_gamma(1.0) of the (c, n) block
        got = _inverse_gamma_weights(_stream_rng(21, 2), np.full(7, a), 5003)
        g = _stream_rng(21, 2).standard_gamma(1.0, size=(7, 5003))
        assert np.array_equal(got, 1.0 / g)


def test_sample_array_determinism():
    idx = IndexSet([(1, 3), (3, 1)])
    p = ParameterSet.flat(1.2, 3, 3)
    a = sample_array(idx, p, seed=42)
    b = sample_array(idx, p, seed=42)
    c = sample_array(idx, p, seed=43)
    assert a.entries == b.entries
    assert a.entries != c.entries
    assert set(a.entries) == set(idx.cells())
    assert all(v > 0 for v in a.entries.values())


def test_sample_array_keeps_its_stream():
    # sample_array draws from the (seed, 0) stream as before mc_laplace
    # took one stream per block: these are the bits of that layout
    idx = IndexSet([(1, 4), (3, 2)])
    p = ParameterSet(alpha=[0.1, 0.3, 0.0], alphahat=[0.9, 0.5, 1.2, 0.8])
    a = sample_array(idx, p, seed=2024)
    assert [a.entries[c] for c in idx.cells()] == [
        0.6915085591166783, 1.2533696565115953, 2.0611009418668074,
        1.0763680832322289, 3.967392665712913, 0.44134765905641354,
        0.3753884265681351, 7.364337118034141]
    idx = IndexSet([(2, 2)])
    b = sample_array(idx, ParameterSet.flat(1.0, 2, 2), seed=5)
    assert [b.entries[c] for c in idx.cells()] == [
        1.8824349462713788, 0.4738456483150396, 17.850267283038654,
        6.260737872056097]


def test_sample_array_moment():
    # pooled E[1/w_ij] = alpha_i + alphahat_j across repeated draws
    idx = IndexSet([(2, 2)])
    p = ParameterSet(alpha=[0.1, 0.4], alphahat=[0.7, 1.1])
    draws = {c: [] for c in idx.cells()}
    for s in range(4000):
        arr = sample_array(idx, p, seed=s)
        for c, v in arr.entries.items():
            draws[c].append(1.0 / v)
    for (i, j), vals in draws.items():
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - p.shape_at(i, j)) <= 4 * stderr


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_matches_dp_oracle():
    # the chunk kernel's DP must agree with the exact enumeration-backed DP
    points = [(1, 3), (2, 2), (3, 1)]
    us = [0.5, 0.25, 1.5]
    idx = IndexSet(points)
    p = ParameterSet.flat(1.0, 3, 3)
    arr = sample_array(idx, p, seed=7)
    w = np.array([[arr.entries[c]] for c in idx.cells()])
    expo = sum(
        u * oracle.partition_function(arr, m, n) for (m, n), u in zip(points, us)
    )
    val = _mc_numpy.mc_chunk(w, points, us)[0]
    assert val == pytest.approx(math.exp(-expo), rel=1e-12)


def test_kernel_cells_outside_shape_are_never_drawn_or_read(monkeypatch):
    # the staircase (1,4),(3,2) has 8 cells in its 3 x 4 bounding
    # rectangle; only those 8 are drawn, and the kernel gets 8 rows
    points = [(1, 4), (3, 2)]
    us = [0.8, 0.3]
    idx = IndexSet(points)
    cells = idx.cells()
    assert len(cells) == 8
    rng = np.random.default_rng(3)
    w = 1.0 / rng.standard_gamma(1.3, size=(len(cells), 50))
    # the kernel overwrites its block with Z
    got = _mc_numpy.mc_chunk(w.copy(), points, us)
    for s in range(w.shape[1]):
        arr = PolygonalArray(index=idx, entries={
            c: float(w[k, s]) for k, c in enumerate(cells)})
        expo = sum(u * oracle.partition_function(arr, m, n)
                   for (m, n), u in zip(points, us))
        assert got[s] == pytest.approx(math.exp(-expo), rel=1e-12)
    # a bounding-rectangle layout is refused, not silently misread
    with pytest.raises(ValueError):
        _mc_numpy.mc_chunk(np.ones((12, 50)), points, us)

    drawn, read = [], []
    draw, kernel = sampling._inverse_gamma_weights, _mc_numpy.mc_chunk

    def counting_draw(*a, **k):
        out = draw(*a, **k)
        drawn.append(out.size)
        return out

    def counting_kernel(w, *a, **k):
        read.append(w.shape[0])
        return kernel(w, *a, **k)

    monkeypatch.setattr(sampling, "_inverse_gamma_weights", counting_draw)
    monkeypatch.setattr(_mc_numpy, "mc_chunk", counting_kernel)
    n = 130001
    mc_laplace(points, us, ParameterSet.flat(1.3, 3, 4), n, seed=1)
    assert sum(drawn) == len(cells) * n
    assert set(read) == {len(cells)}


@pytest.mark.parametrize("shapes", [
    [0.6] * 5, [1.0] * 5, [2.5] * 5, [0.6, 1.0, 1.4, 0.3, 2.0],
    # U^2: the power numpy would square for a broadcast exponent
    [0.5, 1.5, 0.5]])
def test_cell_major_draw_matches_sample_major_draw(shapes):
    # n draws of c shapes come back cell-major, (c, n), with the stream
    # consumed as by the element-by-element draw of the (c, n) broadcast
    # shapes, with or without a buffer to draw into
    shapes = np.array(shapes)
    n = 40007
    want = _inverse_gamma_weights(
        _stream_rng(4, 1), np.broadcast_to(shapes[:, None], (shapes.size, n)))
    got = _inverse_gamma_weights(_stream_rng(4, 1), shapes, n)
    assert got.shape == (shapes.size, n)
    assert np.array_equal(got, want)
    buf = np.full(shapes.size * n + 5, np.nan)
    into = _inverse_gamma_weights(_stream_rng(4, 1), shapes, n, out=buf)
    assert np.shares_memory(into, buf)
    assert np.array_equal(into, want)


# ---------------------------------------------------------------------------
# mc_laplace
# ---------------------------------------------------------------------------


# (points, us, params, n, seed); the staircases of 5, 6 and 24 cells end
# in a short block
_MC_CASES = [
    ([(2, 6), (4, 4), (6, 2)], [0.02] * 3, ParameterSet.flat(1.0, 6, 6),
     200000, 3),
    ([(1, 3), (3, 1)], [0.4, 0.4], ParameterSet.flat(0.6, 3, 3), 200000, 4),
    # mixed shapes below and above 1
    ([(1, 2), (2, 1)], [1.0, 2.0],
     ParameterSet(alpha=[0.2, -0.1], alphahat=[0.9, 1.4]), 200000, 5),
    # uniform shape 1 from non-flat parameters: the exponential draw
    ([(1, 2), (2, 1)], [0.7, 1.3],
     ParameterSet(alpha=[0.5, 0.5], alphahat=[0.5, 0.5]), 200000, 8),
    ([(1, 3), (2, 2), (3, 1)], [0.3, 0.2, 0.5], ParameterSet.flat(1.5, 3, 3),
     200000, 9),
]
_MC_IDS = ["flat1-staircase", "flat0.6-two-corners", "mixed-two-corners",
           "uniform1-two-corners", "flat1.5-three-corners"]
# (mean, stderr) of each case: cell-major blocks of _DP_BLOCK // (cells + 2)
# samples, block b drawn from the PCG64 stream of spawn key (0, b)
_MC_PINS = [
    (0.006841731106501245, 0.000114305569402173),
    (0.01662284311447077, 0.00017724336563216576),
    (0.06112883775618997, 0.000294330818434525),
    (0.08310511504007743, 0.00035424267922378887),
    (0.3050843891775186, 0.0006485482577979835),
]
# the same cases from the earlier layout (one PCG64 stream per share,
# cell-major blocks of 2e4 samples): an independent sample of the same
# estimators
_MC_CELL_MAJOR_PINS = [
    (0.006759191224932149, 0.00011334539470849265),
    (0.01622143477042909, 0.00017520098369645695),
    (0.06109779767090531, 0.0002955817960293295),
    (0.08266796978920316, 0.00035329363097141896),
    (0.30446487170169856, 0.0006491487627723334),
]
# the same cases from the earlier layout (Philox streams, sample-major
# chunks of 1e5 samples): an independent sample of the same estimators
_MC_PHILOX_PINS = [
    (0.0066246520553701, 0.00011266318467685942),
    (0.01629845318636107, 0.0001750188779781458),
    (0.06118767918837826, 0.00029535205626126954),
    (0.083043955544766, 0.0003549959662021406),
    (0.30471706478788074, 0.0006494699253154991),
]


def _agrees_with(est, pin):
    # a change of stream layout moves the estimates by noise only
    assert abs(est.mean - pin[0]) <= 4 * math.hypot(est.stderr, pin[1])
    assert est.stderr == pytest.approx(pin[1], rel=0.02)


def _run_case(case):
    points, us, params, n, seed = case
    return mc_laplace(points, us, params, n, seed=seed)


@pytest.mark.parametrize("case, pin", zip(_MC_CASES, _MC_PINS), ids=_MC_IDS)
def test_mc_laplace_pinned_values(case, pin):
    # the stream layout and the DP are fixed: the estimates are reproducible
    # to the last bit for flat shapes >= 1 and < 1 and for mixed shapes
    est = _run_case(case)
    assert est.mean == pytest.approx(pin[0], rel=1e-12)
    assert est.stderr == pytest.approx(pin[1], rel=1e-12)


@pytest.mark.parametrize("case, pin", zip(_MC_CASES, _MC_PHILOX_PINS),
                         ids=_MC_IDS)
def test_mc_laplace_agrees_with_philox_pins(case, pin):
    _agrees_with(_run_case(case), pin)


@pytest.mark.parametrize("case, pin", zip(_MC_CASES, _MC_CELL_MAJOR_PINS),
                         ids=_MC_IDS)
def test_mc_laplace_agrees_with_cell_major_pins(case, pin):
    _agrees_with(_run_case(case), pin)


def test_mc_laplace_reproduces_across_calls_and_partial_blocks():
    # the reused draw buffers must hold no state between blocks or calls:
    # two calls agree to the last bit, and so does the per-block reduction
    # of blocks drawn from their (seed, 0, block) streams into fresh
    # arrays, with a short last block
    points, us = [(1, 3), (2, 2), (3, 1)], [0.3, 0.2, 0.5]
    p = ParameterSet(alpha=[0.0, 0.2, 0.1], alphahat=[0.6, 1.0, 1.3])
    cells = IndexSet(points).cells()
    block = sampling._DP_BLOCK // (len(cells) + 2)
    n = 2 * block + 2 * 1234 + 1
    a = mc_laplace(points, us, p, n, seed=12)
    b = mc_laplace(points, us, p, n, seed=12)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    assert a.block == block

    shapes = np.array([p.shape_at(i, j) for (i, j) in cells])
    parts = []
    for k, start in enumerate(range(0, n, block)):
        w = _inverse_gamma_weights(_stream_rng(12, 0, k), shapes,
                                   min(block, n - start))
        parts.append(_mc_numpy.mc_chunk(w, points, us))
    assert [x.size for x in parts] == [block, block, 2469]
    # count, mean and centred sum of squares per block, merged at the end
    means = [float(np.mean(x)) for x in parts]
    mean = math.fsum(x.size * m for x, m in zip(parts, means)) / n
    m2 = math.fsum([float(np.sum((x - m) ** 2)) for x, m in zip(parts, means)]
                   + [x.size * (m - mean) ** 2 for x, m in zip(parts, means)])
    assert a.mean == mean
    assert a.stderr == math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    # and the merge is the moments of all samples at once, to rounding
    sample = np.concatenate(parts)
    assert a.mean == pytest.approx(float(np.mean(sample)), rel=1e-13)
    assert a.stderr == pytest.approx(
        float(np.std(sample, ddof=1)) / math.sqrt(n), rel=1e-13)


def _workers(monkeypatch, k):
    monkeypatch.setattr(sampling, "_worker_count",
                        lambda n_blocks: min(k, n_blocks))


def test_mc_estimate_is_independent_of_worker_count(monkeypatch):
    # every block has its own stream and its own slot, so the estimate
    # does not depend on which thread draws which block, or on how many
    # threads there are
    points, us = [(1, 4), (3, 2)], [0.3, 0.4]
    p = ParameterSet(alpha=[0.1, 0.3, 0.0], alphahat=[0.9, 0.5, 1.2, 0.8])
    n = 7 * (sampling._DP_BLOCK // 10) + 5
    got = []
    for k in (1, 2, 5):
        _workers(monkeypatch, k)
        est = mc_laplace(points, us, p, n, seed=21)
        got.append((est.mean, est.stderr))
    assert got[0] == got[1] == got[2]


def test_mc_laplace_without_a_spare_thread_runs_on_fewer_workers(monkeypatch):
    p = ParameterSet.flat(1.0, 3, 3)
    args = ([(3, 3)], [0.2], p, 2 * 10**5)
    _workers(monkeypatch, 1)
    want = mc_laplace(*args, seed=4)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    _workers(monkeypatch, 3)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    got = mc_laplace(*args, seed=4)
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


def test_one_block_call_starts_no_thread(monkeypatch):
    # 10^4 samples of one cell are one block: the call runs on the caller
    def no_thread(self):
        raise AssertionError("a one-block call started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    est = mc_laplace([(1, 1)], [1.0], ParameterSet.flat(1.0, 1, 1), 10**4)
    assert est.block > 10**4


@pytest.mark.parametrize("exc", [ValueError, MemoryError, RuntimeWarning])
def test_mc_laplace_worker_exception_reaches_the_caller(monkeypatch, exc):
    # an exception in block 5 of a 3-worker call is raised in the caller,
    # and every worker thread has ended by then
    stream_rng = sampling._stream_rng
    drawn = []
    raised = threading.Event()

    def failing(seed, *key):
        drawn.append(key)
        if key == (0, 5):
            raised.set()
            raise exc(f"block {key}")
        if key > (0, 5):
            # the blocks after the failing one start only once it failed
            raised.wait(timeout=30)
        return stream_rng(seed, *key)

    _workers(monkeypatch, 3)
    monkeypatch.setattr(sampling, "_stream_rng", failing)
    p = ParameterSet.flat(1.0, 3, 3)
    before = threading.active_count()
    with pytest.raises(exc, match=r"block \(0, 5\)"):
        mc_laplace([(3, 3)], [0.2], p, 10**6, seed=4)
    assert threading.active_count() == before
    # the workers take no new block after the failure: the blocks in
    # flight end, and the last block is never drawn
    n_blocks = -(-10**6 // (sampling._DP_BLOCK // (9 + 2)))
    assert n_blocks > 20
    assert (0, 5) in drawn and (0, n_blocks - 1) not in drawn


def test_mc_laplace_memory_does_not_grow_with_samples():
    # the estimator streams through one block buffer: ten times the
    # samples leave the traced peak where it was (a kept sample array
    # and its centred copy add about 25 MB here)
    points, us = [(2, 6), (4, 4), (6, 2)], [0.02] * 3
    p = ParameterSet.flat(1.0, 6, 6)
    # a first call may import numpy.random, whose allocations would count
    mc_laplace(points, us, p, 10**3)
    peaks = []
    for n in (2 * 10**5, 2 * 10**6):
        tracemalloc.start()
        try:
            mc_laplace(points, us, p, n, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_worker_count_is_capped_whatever_the_core_count(monkeypatch):
    # each worker holds one buffer of up to _DP_BLOCK doubles: on a
    # 64-core host the call still starts at most _MAX_WORKERS workers, and
    # its memory still does not grow with the sample count
    monkeypatch.setattr(sampling.os, "sched_getaffinity",
                        lambda pid: set(range(64)), raising=False)
    assert sampling._worker_count(209) == sampling._MAX_WORKERS
    assert sampling._worker_count(3) == 3
    # 2*10^5 samples of the 24-cell case below are 21 blocks
    assert sampling._MAX_WORKERS <= 21
    test_mc_laplace_memory_does_not_grow_with_samples()


def test_mc_laplace_reports_stream_layout():
    est = mc_laplace([(2, 2)], [1.0], ParameterSet.flat(1.0, 2, 2), 10**3,
                     seed=1)
    assert est.generator == "PCG64"
    # the block size is part of the stream layout: it depends on the cell
    # count, not on the thread count
    assert est.block == sampling._DP_BLOCK // (4 + 2)
    doc = est.to_json_dict()
    # block b draws from spawn key (0, b): seed and block give the layout
    assert (doc["seed"], doc["generator"]) == (1, "PCG64")
    assert set(doc) == {"mean", "stderr", "n", "seed", "generator", "block"}
    assert doc["block"] == est.block
    assert type(_stream_rng(1, 0).bit_generator).__name__ == est.generator


def test_mc_laplace_has_no_stream_count():
    # every block has its own stream, so the budget is never split
    p = ParameterSet.flat(1.0, 2, 2)
    with pytest.raises(TypeError, match="n_streams"):
        mc_laplace([(2, 2)], [1.0], p, 10**3, seed=1, n_streams=2)
    assert not hasattr(mc_laplace([(2, 2)], [1.0], p, 10**3, seed=1),
                       "n_streams")


def test_mc_laplace_u_zero_is_one():
    est = mc_laplace([(2, 2)], [0.0], ParameterSet.flat(1.0, 2, 2), 10**3, seed=1)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_mc_laplace_small_shape_u_zero_is_one():
    # with a = 0.01 some draws G * U^{1/a} underflow to 0 and their weight
    # is inf; a u = 0 corner must not turn that into 0 * inf = NaN
    p = ParameterSet(alpha=[0.0], alphahat=[0.01])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_laplace([(1, 1)], [0.0], p, 10**5, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_mc_laplace_small_shape_matches_closed_form():
    # E[e^{-u w}], 1/w ~ Gamma(a): 2 u^{a/2} K_a(2 sqrt(u)) / Gamma(a); the
    # inf weights of the underflowed draws give exp(-inf) = 0, silently
    a, u = 0.01, 1.0
    ref = 2 * u ** (a / 2) * scipy.special.kv(a, 2 * math.sqrt(u)) / math.gamma(a)
    p = ParameterSet(alpha=[0.0], alphahat=[a])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_laplace([(1, 1)], [u], p, 10**6, seed=0)
    assert abs(est.mean - ref) <= 4 * est.stderr


def test_small_shape_u_zero_command_prints_one(capsys):
    assert main(["sample", "--points", "1,1", "--u", "0", "--alpha", "0",
                 "--alphahat", "0.01", "--samples", "100000"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert '"mean": 1.0' in out


def test_mc_laplace_monotone_to_zero():
    p = ParameterSet.flat(1.0, 2, 2)
    small = mc_laplace([(2, 2)], [0.1], p, 10**4, seed=1).mean
    big = mc_laplace([(2, 2)], [50.0], p, 10**4, seed=1).mean
    assert 0 < big < small <= 1
    assert big < 0.05


def test_mc_laplace_values_in_unit_interval():
    p = ParameterSet(alpha=[0.2, -0.1], alphahat=[0.9, 1.4])
    est = mc_laplace([(1, 2), (2, 1)], [1.0, 2.0], p, 10**4, seed=5)
    assert 0 < est.mean <= 1
    assert est.stderr > 0
    assert est.n_samples == 10**4


def test_mc_laplace_single_cell_vs_quadrature():
    # E[e^{-u w}] with 1/w ~ Gamma(a): substitute g = 1/w,
    #   = int_0^infty e^{-u/g} g^{a-1} e^{-g} dg / Gamma(a)
    a, u = 1.5, 1.0
    g, wg = gl_nodes(1e-9, 60.0, 600)
    ref = float(np.sum(np.exp(-u / g) * g ** (a - 1) * np.exp(-g) * wg)) / math.gamma(a)
    p = ParameterSet(alpha=[0.5], alphahat=[1.0])
    est = mc_laplace([(1, 1)], [u], p, 10**6, seed=9)
    assert abs(est.mean - ref) <= 4 * est.stderr


def test_mc_laplace_split_seed_pooling():
    p = ParameterSet.flat(0.9, 2, 2)
    single = mc_laplace([(1, 2), (2, 1)], [0.5, 0.7], p, 2 * 10**5, seed=100)
    h1 = mc_laplace([(1, 2), (2, 1)], [0.5, 0.7], p, 10**5, seed=101)
    h2 = mc_laplace([(1, 2), (2, 1)], [0.5, 0.7], p, 10**5, seed=102)
    pooled = 0.5 * (h1.mean + h2.mean)
    pooled_err = math.hypot(single.stderr, 0.5 * math.hypot(h1.stderr, h2.stderr))
    assert abs(single.mean - pooled) <= 4 * pooled_err


def test_mc_laplace_input_validation():
    p = ParameterSet.flat(1.0, 3, 3)
    with pytest.raises(ValueError):
        mc_laplace([(2, 2), (1, 3)], [1.0, 1.0], p, 10**3)  # rows not increasing
    with pytest.raises(ValueError):
        mc_laplace([(1, 1), (2, 2)], [1.0, 1.0], p, 10**3)  # cols not decreasing
    with pytest.raises(ValueError):
        mc_laplace([(2, 2)], [1.0, 2.0], p, 10**3)  # u-count mismatch
    with pytest.raises(ValueError):
        mc_laplace([(2, 2)], [-1.0], p, 10**3)  # negative Laplace argument
    with pytest.raises(ValueError):
        mc_laplace([(2, 2)], [1.0], p, 500)  # below sample floor
    with pytest.raises(ValueError, match="finite"):
        mc_laplace([(2, 2)], [1.0], p, math.inf)  # not OverflowError
    # above 2**53 the block counts are no longer exact in the merge; the
    # check comes before any block is laid out
    with pytest.raises(ValueError, match=r"2\*\*53"):
        mc_laplace([(2, 2)], [1.0], p, 2**53 + 1)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        mc_laplace([(2, 2)], [1.0], p, 10**400)  # past any index size
    with pytest.raises(ValueError):
        MCEstimate(mean=1.0, stderr=0.0, n_samples=1, seed=0, block=1)


def test_negative_seed_is_rejected_before_any_draw(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a negative seed reached the workers")

    monkeypatch.setattr(sampling, "_run_blocks", unreachable)
    monkeypatch.setattr(sampling, "_stream_rng", unreachable)
    p = ParameterSet.flat(1.0, 2, 2)
    with pytest.raises(ValueError, match="seed"):
        mc_laplace([(2, 2)], [1.0], p, 10**3, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample_array(IndexSet([(2, 2)]), p, seed=-1)


@pytest.mark.parametrize("seed", [1.5, "3"])
def test_non_integer_seed_is_rejected_before_any_draw(monkeypatch, seed):
    # int() would run 1.5 as seed 1 and "3" as seed 3
    def unreachable(*args):
        raise AssertionError("a non-integer seed reached the workers")

    monkeypatch.setattr(sampling, "_run_blocks", unreachable)
    monkeypatch.setattr(sampling, "_stream_rng", unreachable)
    p = ParameterSet.flat(1.0, 2, 2)
    with pytest.raises(TypeError):
        mc_laplace([(2, 2)], [1.0], p, 10**3, seed=seed)
    with pytest.raises(TypeError):
        sample_array(IndexSet([(2, 2)]), p, seed=seed)


def test_numpy_integer_seed_keeps_its_bits():
    p = ParameterSet.flat(1.0, 2, 2)
    a = mc_laplace([(2, 2)], [1.0], p, 10**3, seed=np.int64(7))
    b = mc_laplace([(2, 2)], [1.0], p, 10**3, seed=7)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    # the estimate carries a Python int, so its JSON record serialises
    assert type(a.seed) is int and a.seed == 7
    idx = IndexSet([(1, 2), (2, 1)])
    x = sample_array(idx, p, seed=np.uint32(7))
    assert x.entries == sample_array(idx, p, seed=7).entries


@pytest.mark.parametrize("u", [math.nan, math.inf])
def test_mc_laplace_rejects_non_finite_u(u):
    with pytest.raises(ValueError):
        mc_laplace([(2, 2)], [u], ParameterSet.flat(1.0, 2, 2), 10**3)


def test_mc_laplace_rejects_nan_shape():
    p = ParameterSet(alpha=[0.0, math.nan], alphahat=[1.0, 1.0])
    with pytest.raises(ValueError):
        mc_laplace([(2, 2)], [1.0], p, 10**3)


@pytest.mark.parametrize("alpha, alphahat", [
    ([math.inf], [1.0]),
    # finite parameters whose sum overflows to inf
    ([1e308], [1e308])])
def test_non_finite_shape_is_rejected(alpha, alphahat, capsys):
    p = ParameterSet(alpha=alpha, alphahat=alphahat)
    with pytest.raises(ValueError, match="finite"):
        mc_laplace([(1, 1)], [1.0], p, 10**3)
    with pytest.raises(ValueError, match="finite"):
        sample_array(IndexSet([(1, 1)]), p, seed=0)
    if math.isfinite(alpha[0]):
        assert main(["sample", "--points", "1,1", "--u", "1",
                     "--alpha", str(alpha[0]), "--alphahat", str(alphahat[0]),
                     "--samples", "1000"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err and "Traceback" not in err


def test_import_sampling_loads_no_module_numpy_does_not():
    # threading and os come with numpy; concurrent.futures would cost
    # every import of grsklab.sampling (and of grsklab.cli) a few ms
    src = os.path.dirname(os.path.dirname(os.path.abspath(grsklab.__file__)))
    code = ("import sys, numpy; before = set(sys.modules); "
            "import grsklab.sampling; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m in ('threading', 'os') or m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.stdout.strip() == "[]", proc.stderr


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_parameter_set_flat_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError):
        ParameterSet.flat(gamma, 2, 2)


def test_parameter_set_flat_and_bounds():
    p = ParameterSet.flat(2.0, 2, 3)
    assert p.alpha == [0.0, 0.0] and p.alphahat == [2.0, 2.0, 2.0]
    assert p.shape_at(2, 3) == 2.0
    with pytest.raises(ValueError):
        p.shape_at(3, 1)
    with pytest.raises(ValueError):
        ParameterSet.flat(-1.0, 2, 2)
