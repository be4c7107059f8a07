"""Checks of every output of one round against the references in refs.py
or against a property the method must have.

check(workload, ops, outputs) returns {op id: [problems]}; an operation
passes when its list is empty.  A property that ties several operations
together is charged to one of them, named in the comment at each check.
"""
from __future__ import annotations

import math
from collections import defaultdict

import refs
import workloads as wl

Z_MAX = 5.0                 # Monte Carlo agreement, in standard errors
STDERR_FACTOR = 1.2         # reported mc stderr against the reference's
CONTOUR_REL = 1e-4          # contour quadrature allowance, relative
FREDHOLM_REL = 0.05         # bcr_fredholm against laplace1, relative
IMAG_MAX = 1e-9


class Problems:
    def __init__(self, ops):
        self.by_id = {op["id"]: [] for op in ops}

    def require(self, op_id, ok, message):
        if not ok:
            self.by_id[op_id].append(message)


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def check(workload, ops, outputs):
    out = {op["id"]: o for op, o in zip(ops, outputs)}
    p = Problems(ops)
    errored = [op for op in ops if "error" in out[op["id"]]]
    for op in errored:
        p.require(op["id"], False, out[op["id"]]["error"])
    live = [op for op in ops if "error" not in out[op["id"]]]
    {"mc": _mc, "contour": _contour, "series": _series, "airy": _airy}[workload](
        live, out, p)
    return p.by_id


def _mc(ops, out, p):
    table = refs.mc_table()
    by_shape = defaultdict(list)
    for op in ops:
        o, oid = out[op["id"]], op["id"]
        mean, se = o["mean"], o["stderr"]
        p.require(oid, _finite(mean, se) and 0.0 < mean < 1.0 and se > 0.0,
                  f"mean {mean} or stderr {se} out of range")
        # the reference mean, its own sigma, and the standard error an
        # estimate from MC_SAMPLES samples has
        if op["points"] == [(1, 1)]:
            u = op["us"][0]
            ref, sig = float(refs.one_cell_laplace(u)), 0.0
            var = float(refs.one_cell_laplace(2.0 * u)) - ref * ref
            want_se = math.sqrt(var / wl.MC_SAMPLES)
        else:
            ref, sig = table[refs.table_key(op["points"], op["us"])]
            want_se = sig * math.sqrt(refs.mc_table_samples() / wl.MC_SAMPLES)
        p.require(oid, want_se / STDERR_FACTOR <= se <= want_se * STDERR_FACTOR,
                  f"stderr {se} is not within a factor {STDERR_FACTOR} of {want_se:.3e}")
        z = abs(mean - ref) / math.hypot(want_se, sig)
        p.require(oid, z <= Z_MAX, f"mean {mean} is {z:.1f} sigma from {ref}")
        by_shape[op["shape"]].append(op)
    # common-seed means fall as u grows; charged to the larger u
    for group in by_shape.values():
        group.sort(key=lambda op: op["scale"])
        for a, b in zip(group, group[1:]):
            p.require(b["id"], out[b["id"]]["mean"] < out[a["id"]]["mean"],
                      f"not below the mean at scale {a['scale']}")


def _contour(ops, out, p):
    table = refs.mc_table()
    value = {}
    for op in ops:
        o, oid = out[op["id"]], op["id"]
        v = o["value"]
        p.require(oid, _finite(v, o["value_imag"]) and abs(o["value_imag"]) <= IMAG_MAX,
                  f"value {v} + {o['value_imag']}i is not real")
        p.require(oid, 0.0 <= v <= 1.0, f"value {v} outside [0, 1]")
        value[(op["command"], tuple(op["points"]), op["u"])] = v
    for op in ops:
        oid, v, u = op["id"], out[op["id"]]["value"], op["u"]
        pts = tuple(op["points"])
        if op["command"] == "fredholm":
            # the Fredholm form agrees with the line-integral form
            lap = value.get(("laplace", pts, u))
            if lap is not None:
                rel = abs(v - lap) / lap
                p.require(oid, rel <= FREDHOLM_REL,
                          f"fredholm {v} differs from laplace {lap} by {rel:.2%}")
            continue
        err = out[oid]["error_estimate"]
        p.require(oid, _finite(err) and err >= 0.0, f"error estimate {err}")
        # within 5 sigma of the table (or the closed form) plus a fixed
        # quadrature allowance; the CLI's own error estimate plays no part
        if pts == ((1, 1),):
            ref, sig = float(refs.one_cell_laplace(u)), 0.0
        else:
            ref, sig = table[refs.table_key(pts, [u] * len(pts))]
        tol = Z_MAX * sig + CONTOUR_REL * ref
        p.require(oid, abs(v - ref) <= tol,
                  f"value {v} is {abs(v - ref):.2e} from the reference {ref} "
                  f"(tolerance {tol:.1e})")
        if len(pts) == 2:
            # a joint transform is at most each one-point transform
            for (m, n) in pts:
                one, sig = table[refs.table_key([(max(m, n), min(m, n))], [u])]
                p.require(oid, v <= one + Z_MAX * sig,
                          f"value {v} above the ({m},{n}) marginal {one}")
        # monotone in u; charged to the larger u
        smaller = [w for w in wl.CONTOUR_U if w < u]
        if smaller:
            prev = value.get(("laplace", pts, max(smaller)))
            p.require(oid, prev is None or v < prev, f"not below the value {prev} at smaller u")
    # the flat weights are i.i.d., so the transposed pair agree; charged to
    # the (2,3),(3,1) command
    for u in wl.CONTOUR_U:
        a = value.get(("laplace", ((1, 3), (3, 2)), u))
        b = value.get(("laplace", ((2, 3), (3, 1)), u))
        if a is not None and b is not None:
            p.require(f"laplace 2,3,3,1 u={u}", abs(a - b) <= 1e-8,
                      f"transposed pair differ: {a} vs {b}")


def _series(ops, out, p):
    val = {}
    for op in ops:
        o, oid = out[op["id"]], op["id"]
        p.require(oid, _finite(o["re"], o.get("im", 0.0)) and abs(o.get("im", 0.0)) <= IMAG_MAX,
                  f"output {o} is not real")
        val[oid] = o["re"]
    get = val.get
    # terms outside the range m <= n2, n <= m1 vanish
    for oid in ("joint_series_term 2,0", "joint_series_term 0,2"):
        if oid in val:
            p.require(oid, abs(val[oid]) <= 1e-10, f"{val[oid]} should vanish")
    # the geometry and the u are symmetric, so the two first terms agree
    if "joint_series_term 1,0" in val and "joint_series_term 0,1" in val:
        a, b = val["joint_series_term 1,0"], val["joint_series_term 0,1"]
        p.require("joint_series_term 0,1", abs(a - b) <= 1e-12, f"{a} vs {b}")
    # the series sums to the joint transform; charged to the (1,1) term
    ref = refs.corner_pair_laplace(*wl.SERIES_U, a=wl.GAMMA)
    terms = [get(f"joint_series_term {m},{n}") for (m, n) in [(1, 0), (0, 1), (1, 1)]]
    if None not in terms:
        total = 1.0 + sum(terms)
        p.require("joint_series_term 1,1", abs(total - ref) <= 1e-6,
                  f"series sum {total} against quadrature {ref}")
    if "laplace2_case_a 1,2,2,1" in val:
        v = val["laplace2_case_a 1,2,2,1"]
        p.require("laplace2_case_a 1,2,2,1", abs(v - ref) <= 2e-7,
                  f"case a {v} against quadrature {ref}")
    lim = refs.limit_terms(wl.PRELIMIT["t1"], wl.PRELIMIT["t2"], 0.0, 0.0, wl.GAMMA)
    for (m, n), want in lim.items():
        oid = f"limit_term {m},{n}"
        if oid in val:
            p.require(oid, abs(val[oid] - want) <= 1e-8, f"{val[oid]} against {want}")
    for (m, n) in [(1, 0), (0, 1)]:
        pre, js = get(f"prelimit_term {m},{n}"), get(f"joint_series_term scaled {m},{n}")
        # the pre-limit term is the joint-series term at the scaled points
        if pre is not None and js is not None:
            rel = abs(pre - js) / abs(js)
            p.require(f"prelimit_term {m},{n}", rel <= 1e-4,
                      f"prelimit {pre} against joint series {js} ({rel:.1e})")
        # at N = 8 both are within 1e-2 of the limit term
        for oid in (f"prelimit_term {m},{n}", f"joint_series_term scaled {m},{n}"):
            if oid in val:
                p.require(oid, abs(val[oid] - lim[(m, n)]) <= 1e-2,
                          f"{val[oid]} far from the limit {lim[(m, n)]}")


def _airy(ops, out, p):
    f2 = {}
    for op in ops:
        t1, t2, x1, x2 = op["args"]
        for x in (x1, x2):
            if x not in f2:
                f2[x] = refs.tracy_widom_f2(x)
        v, oid = out[op["id"]]["value"], op["id"]
        lo, hi = f2[x1] * f2[x2], min(f2[x1], f2[x2])
        p.require(oid, _finite(v) and lo - 1e-9 <= v <= hi + 1e-9,
                  f"P = {v} outside [F2 F2, min F2] = [{lo:.6g}, {hi:.6g}]")
    # P is non-decreasing in each threshold at fixed times
    for a in ops:
        for b in ops:
            (ta1, ta2, xa1, xa2), (tb1, tb2, xb1, xb2) = a["args"], b["args"]
            if (ta1, ta2) == (tb1, tb2) and a is not b and xa1 <= xb1 and xa2 <= xb2:
                va, vb = out[a["id"]]["value"], out[b["id"]]["value"]
                p.require(b["id"], vb >= va - 1e-12,
                          f"P {vb} below {va} at lower thresholds")
