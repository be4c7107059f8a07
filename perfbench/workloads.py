"""The four workloads as plain data: one list of operations per workload.

An operation is a dict with an "id", a "kind" naming the grsklab entry
point, and its arguments.  The seed picks the Monte Carlo seeds (mc) and
the order the operations run in (all workloads); it never changes how much
work an operation does, so timings from different seeds compare.

This module imports only the standard library: the worker reads it before
its set-up clock starts, and the checker reads it without grsklab.
"""
from __future__ import annotations

import random

GAMMA = 1.0
MC_SAMPLES = 10**6

# mc: shape -> (base u per corner point, scale factors).  Scales share one
# Monte Carlo seed per shape, so the means must fall as the scale grows.
MC_SHAPES = [
    ([(1, 1)], [1.0], [0.25, 1.0, 4.0]),
    ([(2, 2)], [1.0], [0.25, 1.0]),
    ([(3, 3)], [1.0], [0.1, 0.4]),
    ([(1, 3), (3, 1)], [1.0, 1.0], [0.1, 0.4]),
    ([(2, 6), (4, 4), (6, 2)], [1.0, 1.0, 1.0], [0.02, 0.08]),
]

CONTOUR_U = [0.25, 1.0, 4.0]
LAPLACE_POINTS = [
    [(1, 1)], [(2, 2)], [(3, 2)], [(3, 3)],   # one point
    [(1, 3), (3, 1)],                          # case a
    [(1, 3), (3, 2)], [(2, 3), (3, 1)],        # case a, transposed pair
    [(1, 4), (2, 3)],                          # case b
]
FREDHOLM_POINTS = [(2, 2), (3, 2), (3, 3)]

SERIES_POINTS = (1, 2, 2, 1)
SERIES_U = (1.0, 1.0)
SERIES_TERMS = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
PRELIMIT = {"N": 8, "gamma": GAMMA, "t1": 0.5, "t2": 0.5}
LIMIT_TERMS = [(1, 0), (0, 1), (1, 1)]

# airy: t-pairs {(0,0.25), (0,1), (0,3)} x thresholds, trimmed so that a
# run holds at least two rounds; (0, 1, -3, -3) is a known failure (see README).
AIRY_POINTS = [
    (0.0, 0.25, -2.0, -2.0),
    (0.0, 1.0, -1.0, -1.0),
    (0.0, 1.0, 1.0, -1.0),
    (0.0, 3.0, -2.0, -2.0),
    (0.0, 1.0, -3.0, -3.0),
]

# operations that fail on every input set because of a fault in grsklab;
# they are counted in "failed" and do not make a run incorrect
KNOWN_FAULTS = {
    "fredholm 3,3 u=4.0",
    "laplace 1,4,2,3 u=0.25",
    "laplace 1,4,2,3 u=4.0",
    "airy2 t=(0.0,1.0) xi=(-3.0,-3.0)",
}

WORKLOADS = ("mc", "contour", "series", "airy")


def _pts(points) -> str:
    return ",".join(f"{m},{n}" for m, n in points)


def mc_ops(seed: int) -> list:
    ops = []
    for k, (points, base, scales) in enumerate(MC_SHAPES):
        for c in scales:
            ops.append({
                "id": f"mc {_pts(points)} x{c}",
                "kind": "mc_laplace",
                "points": points,
                "us": [c * b for b in base],
                "seed": 1000 * seed + k,
                "shape": k,
                "scale": c,
            })
    return ops


def contour_ops() -> list:
    ops = []
    for points in LAPLACE_POINTS:
        for u in CONTOUR_U:
            us = ",".join([repr(u)] * len(points))
            ops.append({
                "id": f"laplace {_pts(points)} u={u}",
                "kind": "cli",
                "command": "laplace",
                "points": points,
                "u": u,
                "argv": ["laplace", "--points", _pts(points), "--u", us],
            })
    for (m, n) in FREDHOLM_POINTS:
        for u in CONTOUR_U:
            ops.append({
                "id": f"fredholm {m},{n} u={u}",
                "kind": "cli",
                "command": "fredholm",
                "points": [(m, n)],
                "u": u,
                "argv": ["fredholm", "--points", f"{m},{n}", "--u", repr(u)],
            })
    return ops


def series_ops() -> list:
    ops = [{"id": f"joint_series_term {m},{n}", "kind": "joint_series_term",
            "mn": (m, n), "points": SERIES_POINTS, "us": SERIES_U}
           for (m, n) in SERIES_TERMS]
    ops.append({"id": "laplace2_case_a 1,2,2,1", "kind": "laplace2_case_a",
                "points": SERIES_POINTS, "us": SERIES_U})
    for (m, n) in [(1, 0), (0, 1)]:
        ops.append({"id": f"joint_series_term scaled {m},{n}",
                    "kind": "joint_series_scaled", "mn": (m, n), **PRELIMIT})
        ops.append({"id": f"prelimit_term {m},{n}", "kind": "prelimit_term",
                    "mn": (m, n), **PRELIMIT})
    for (m, n) in LIMIT_TERMS:
        ops.append({"id": f"limit_term {m},{n}", "kind": "limit_term",
                    "mn": (m, n), "t1": PRELIMIT["t1"], "t2": PRELIMIT["t2"],
                    "gamma": GAMMA})
    return ops


def airy_ops() -> list:
    return [{"id": f"airy2 t=({t1},{t2}) xi=({x1},{x2})", "kind": "airy_two_point",
             "args": (t1, t2, x1, x2)} for (t1, t2, x1, x2) in AIRY_POINTS]


def build_ops(workload: str, seed: int) -> list:
    """The operations of one round, in the order the seed gives them."""
    if workload == "mc":
        ops = mc_ops(seed)
    elif workload == "contour":
        ops = contour_ops()
    elif workload == "series":
        ops = series_ops()
    elif workload == "airy":
        ops = airy_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops
