"""Spans around the calls into each grsklab layer, recorded from outside
the program by wrapping the module attributes its callers look up.

A span's self time is its duration minus the time of the spans it
encloses.  Counts are taken at the same boundaries from the arguments or
the result.  Only the per-layer sums are kept, not the spans themselves.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

# evaluators whose self time is the per-axis factors and pair matrices
FACTOR_EVALUATORS = ("laplace1", "laplace2_case_a", "laplace2_case_b",
                     "joint_series_term")

# per-layer metric -> unit; the traced run reports exactly these
METRICS = {
    "specfun.log_gamma.s": "s",
    "specfun.log_gamma.points": "count",
    "specfun.airy_ai.s": "s",
    "specfun.airy_ai.points": "count",
    "quadrature.nodes.s": "s",
    "quadrature.nodes.count": "count",
    "contour.contract.s": "s",
    "contour.contract.grid_points": "count",
    "contour.factors.s": "s",
    "contour.fredholm.s": "s",
    "contour.eig.s": "s",
    "contour.prelimit.s": "s",
    "contour.evals": "count",
    "airy.nystrom.s": "s",
    "airy.eig.s": "s",
    "airy.matrix_dim": "count",
    "airy.limit.s": "s",
    "sampling.draws.s": "s",
    "sampling.draws.count": "count",
    "sampling.dp.s": "s",
    "sampling.dp.cell_updates": "count",
    "sampling.reduce.s": "s",
    "cli.s": "s",
    "cli.evals_per_command": "count",
    "trace.overhead.s": "s",
}


def _points(args, kwargs, result):
    return int(getattr(args[0], "size", 1))


def _nodes(args, kwargs, result):
    return len(result[0])


def _grid(args, kwargs, result):
    return math.prod(len(v) for v in args[0])


class Tracer:
    """Installs wrappers and accumulates self time and counts by span."""

    def __init__(self):
        self.stack = []            # open spans: [key, start, child_time]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.absent = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, key):
        self.stack.append([key, time.perf_counter(), 0.0])

    def _close(self):
        key, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.self_s[key] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def inside(self, key) -> bool:
        return any(s[0] == key for s in self.stack)

    def wrap(self, module_name, attr, key, count=None, on_enter=None):
        """Replace module.attr by a spanned wrapper; missing entry points
        are recorded as absent instead of failing the run."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            k = key() if callable(key) else key
            if on_enter is not None:
                on_enter()
            tracer._open(k)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close()
            if count is not None:
                name, fn = count
                tracer.counts[name] += fn(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    # -- the grsklab layers -------------------------------------------------

    def install(self):
        def evaluator_called():
            self.counts["contour.evals"] += 1
            if self.inside("cli.laplace"):
                self.counts["cli.laplace_evals"] += 1

        def nystrom_called():
            self.counts["airy.nystrom_calls"] += 1

        def eig_key():
            return "airy.eig" if self.inside("airy.series") else "contour.eig"

        for mod in ("grsklab.contour", "grsklab.specfun"):
            self.wrap(mod, "log_gamma", "specfun.log_gamma",
                      ("specfun.log_gamma.points", _points))
        self.wrap("grsklab.airy", "airy_ai", "specfun.airy_ai",
                  ("specfun.airy_ai.points", _points))
        for mod, attr in (("grsklab.contour", "gl_panels"),
                          ("grsklab.airy", "gl_panels"),
                          ("grsklab.specfun", "gl_nodes")):
            self.wrap(mod, attr, "quadrature.nodes", ("quadrature.nodes.count", _nodes))
        self.wrap("grsklab.contour", "_contract", "contour.contract",
                  ("contour.contract.grid_points", _grid))
        for mod in ("grsklab.contour", "grsklab.cli"):
            for name in FACTOR_EVALUATORS:
                if mod == "grsklab.cli" and name == "joint_series_term":
                    continue
                self.wrap(mod, name, "contour.factors", on_enter=evaluator_called)
            self.wrap(mod, "bcr_fredholm", "contour.fredholm", on_enter=evaluator_called)
        self.wrap("grsklab.contour", "prelimit_term", "contour.prelimit",
                  on_enter=evaluator_called)
        self.wrap("numpy.linalg", "eigvals", eig_key)
        self.wrap("grsklab.airy", "airy_two_point_series", "airy.series")
        self.wrap("grsklab.airy", "_nystrom_matrix", "airy.nystrom",
                  ("airy.nystrom_rows", lambda a, k, r: r.shape[0]),
                  on_enter=nystrom_called)
        self.wrap("grsklab.airy", "limit_term", "airy.limit")
        self.wrap("grsklab.sampling", "_inverse_gamma_weights", "sampling.draws",
                  ("sampling.draws.count", lambda a, k, r: r.size))
        self.wrap("grsklab._mc_numpy", "mc_chunk", "sampling.dp",
                  ("sampling.dp.cell_updates", lambda a, k, r: a[0].size))
        self.wrap("grsklab.sampling", "mc_laplace", "sampling.reduce")
        self.wrap("grsklab.cli", "main", "cli")
        self.wrap("grsklab.cli", "cmd_laplace", "cli.laplace",
                  ("cli.laplace_commands", lambda a, k, r: 1))

    # -- per-round figures --------------------------------------------------

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        """Per-layer figures accumulated since the last reset."""
        s, c = self.self_s, self.counts
        rows = c.get("airy.nystrom_rows", 0.0)
        calls = c.get("airy.nystrom_calls", 0.0)
        lap = c.get("cli.laplace_commands", 0.0)
        out = {
            "specfun.log_gamma.s": s["specfun.log_gamma"],
            "specfun.log_gamma.points": c["specfun.log_gamma.points"],
            "specfun.airy_ai.s": s["specfun.airy_ai"],
            "specfun.airy_ai.points": c["specfun.airy_ai.points"],
            "quadrature.nodes.s": s["quadrature.nodes"],
            "quadrature.nodes.count": c["quadrature.nodes.count"],
            "contour.contract.s": s["contour.contract"],
            "contour.contract.grid_points": c["contour.contract.grid_points"],
            "contour.factors.s": s["contour.factors"],
            "contour.fredholm.s": s["contour.fredholm"],
            "contour.eig.s": s["contour.eig"],
            "contour.prelimit.s": s["contour.prelimit"],
            "contour.evals": c["contour.evals"],
            "airy.nystrom.s": s["airy.nystrom"],
            "airy.eig.s": s["airy.eig"],
            "airy.matrix_dim": rows / calls if calls else 0.0,
            "airy.limit.s": s["airy.limit"],
            "sampling.draws.s": s["sampling.draws"],
            "sampling.draws.count": c["sampling.draws.count"],
            "sampling.dp.s": s["sampling.dp"],
            "sampling.dp.cell_updates": c["sampling.dp.cell_updates"],
            "sampling.reduce.s": s["sampling.reduce"],
            "cli.s": s["cli"],
            "cli.evals_per_command": c.get("cli.laplace_evals", 0.0) / lap if lap else 0.0,
        }
        return out
