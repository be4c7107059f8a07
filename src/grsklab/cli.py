"""Command-line surface: array transforms, samplers, contour formulas,
Airy evaluations, verification suites, and CSV sweeps.

Exit codes: 0 success, 1 computational failure (non-convergence, out of
memory), 2 input validation; a reader that closes stdout early
(grsklab ... | head) gets exit 0 and no message.  Defaults for quadrature
settings can be overridden with GRSKLAB_-prefixed environment variables
(GRSKLAB_NODES, GRSKLAB_LENGTH, GRSKLAB_SAMPLES).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import arrays, oracle
from .airy import _limit_query, airy_two_point, airy_two_point_series, limit_term
from .contour import (
    _bcr_fredholm,
    _fredholm_contours,
    _laplace1,
    _laplace2,
    laplace1,
    prelimit_term,
)
from .sampling import ParameterSet, mc_laplace
from .specfun import stade_check

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


# options whose default is read from a GRSKLAB_ variable on every call:
# dest -> (variable suffix, type, fallback)
_ENV_DEFAULTS = {
    "samples": ("SAMPLES", int, 10**5),
    "L": ("LENGTH", float, 12.0),
    "nodes": ("NODES", int, None),
}


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(f"GRSKLAB_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"invalid GRSKLAB_{name}={raw!r}")


def _emit(obj: dict, out: Optional[str]) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value in the result: {exc}")
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# array JSON I/O
# ---------------------------------------------------------------------------


def _load_array(path: str) -> Tuple[arrays.PolygonalArray, bool]:
    """The array in an array JSON file, and whether the file gives it in
    the triangular format {"triangular": n, "rows": [...]}."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot parse array JSON: {exc}")
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError(f"{path}: expected an object with a 'rows' field")
    rows = doc["rows"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows):
        raise ValueError(f"{path}: field 'rows' must be a list of lists")
    for row in rows:
        for x in row:
            # bool is an int subclass, but true/false are not weights
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or (isinstance(x, float) and not math.isfinite(x))):
                raise ValueError(
                    f"{path}: field 'rows': {x!r} is not a finite real number")
    try:
        n = int(doc["triangular"]) if "triangular" in doc else None
        corners = ([tuple(int(x) for x in c) for c in doc["corners"]]
                   if "corners" in doc else None)
    except TypeError as exc:
        raise ValueError(
            f"{path}: fields 'triangular' and 'corners' take integers: {exc}")
    if n is not None:
        if len(rows) != n:
            raise ValueError(
                f"{path}: field 'triangular'={n} but {len(rows)} rows given"
            )
        # the order-n triangle is the staircase with corners (i, n-i+1)
        corners = [(i, n - i + 1) for i in range(1, n + 1)]
    try:
        return (arrays.PolygonalArray.from_rows(rows, corners=corners),
                n is not None)
    except ValueError as exc:
        field = "triangular" if n is not None else "corners"
        raise ValueError(f"{path}: field '{field}': {exc}")


def _array_doc(arr: arrays.PolygonalArray, triangular: bool) -> dict:
    """arr in the format of the file it was read from."""
    if triangular:
        return {"triangular": arr.index.n_rows, "rows": arr.rows()}
    return {
        "corners": [list(c) for c in arr.index.corners],
        "rows": arr.rows(),
    }


def cmd_grsk(args) -> int:
    W, triangular = _load_array(args.input)
    T = arrays.grsk(W)
    tv = arrays.type_vectors(T)
    corners = {
        f"t_{m}_{n}": T[(m, n)] for (m, n) in T.index.corners
    }
    _emit(
        {
            "array": _array_doc(T, triangular),
            "energy": arrays.energy(T),
            "corner_values": corners,
            "type_vectors": {
                "col_type": list(tv.col_type),
                "row_type": list(tv.row_type),
            },
        },
        args.output,
    )
    return EXIT_OK


def cmd_gpng(args) -> int:
    W, triangular = _load_array(args.input)
    H = arrays.gpng(W)
    _emit({"array": _array_doc(H, triangular), "energy": arrays.energy(H)},
          args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sampling / laplace
# ---------------------------------------------------------------------------


def _parse_points(spec: str) -> List[Tuple[int, int]]:
    vals = [int(x) for x in spec.replace(";", ",").split(",") if x != ""]
    if len(vals) % 2 != 0 or not vals:
        raise ValueError("--points needs pairs: m1,n1[,m2,n2,...]")
    return [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]


def _parse_floats(spec: str) -> List[float]:
    vals = [float(x) for x in spec.split(",") if x != ""]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{spec!r}: values must be finite")
    return vals


def _finite_float(text: str) -> float:
    """argparse type for a finite float, so that nan and inf are usage errors."""
    val = float(text)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _seed(text: str) -> int:
    """argparse type for a seed: a negative seed is a usage error."""
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return val


def _params_from_args(args, n_rows: int, n_cols: int) -> ParameterSet:
    if args.alpha or args.alphahat:
        alpha = _parse_floats(args.alpha) if args.alpha else [0.0] * n_rows
        alphahat = (
            _parse_floats(args.alphahat)
            if args.alphahat
            else [args.gamma] * n_cols
        )
        return ParameterSet(alpha=alpha, alphahat=alphahat, gamma=args.gamma)
    return ParameterSet.flat(args.gamma, n_rows, n_cols)


def _polymer(args, max_points: Optional[int] = None):
    """The corner points, Laplace arguments and ParameterSet of sample,
    laplace or fredholm; at most max_points points, if given."""
    points = _parse_points(args.points)
    if max_points is not None and len(points) > max_points:
        raise ValueError(f"too many corner points: {args.command} takes "
                         f"at most {max_points}")
    us = _parse_floats(args.u)
    if len(us) != len(points):
        raise ValueError("need one --u value per point")
    mmax = max(m for m, _ in points)
    nmax = max(n for _, n in points)
    return points, us, _params_from_args(args, mmax, nmax)


def cmd_sample(args) -> int:
    points, us, params = _polymer(args)
    est = mc_laplace(
        points,
        us,
        params,
        n_samples=args.samples,
        seed=args.seed,
    )
    doc = est.to_json_dict()
    doc["points"] = [list(p) for p in points]
    doc["u"] = us
    _emit(doc, args.output)
    return EXIT_OK


def _laplace_value(points, us, params, nodes, length, delta=None):
    """The one- or two-point contour transform, its error estimate, and the
    node density of its lines: 4/3 of nodes/length per unit, or of 20
    without nodes.  _laplace1 and _laplace2 take every corner and every
    ordered pair of corners, and choose the contour form themselves."""
    base = 20.0 if nodes is None else nodes / max(length, 1e-9)
    density = base * 4.0 / 3.0
    kw = {"nodes_per_unit": density, "length": length, "delta": delta}
    if len(points) == 1:
        (m, n) = points[0]
        val, err = _laplace1(m, n, us[0], params.alpha, params.alphahat, **kw)
    else:
        (m1, n1), (m2, n2) = points
        val, err = _laplace2(m1, n1, m2, n2, us[0], us[1], params.alpha,
                             params.alphahat, params.gamma, **kw)
    return val, err, density


def cmd_laplace(args) -> int:
    points, us, params = _polymer(args, max_points=2)
    val, err, density = _laplace_value(points, us, params, args.nodes, args.L,
                                       args.delta)
    doc = {
        "value": val.real,
        "value_imag": val.imag,
        "error_estimate": err,
        "points": [list(p) for p in points],
        "u": us,
        "gamma": params.gamma,
        # what the command passed: delta is null where the evaluator chose it
        "contours": {
            "delta": args.delta,
            "length": args.L,
            "nodes_per_unit": density,
        },
    }
    if args.mc_check:
        est = mc_laplace(points, us, params, n_samples=args.samples,
                         seed=args.seed)
        doc["mc"] = est.to_json_dict()
        doc["mc_z_score"] = (val.real - est.mean) / max(est.stderr, 1e-300)
    _emit(doc, args.output)
    return EXIT_OK


def cmd_fredholm(args) -> int:
    points, us, params = _polymer(args, max_points=1)
    (m, n), u = points[0], us[0]
    val, err = _bcr_fredholm(m, n, u, params.alpha, params.alphahat,
                             delta1=args.delta1, delta2=args.delta2,
                             order=args.order, length=args.L)
    *_, delta1, delta2, n_circle, n_line = _fredholm_contours(
        m, n, params.alpha, params.alphahat, args.delta1, args.delta2,
        length=args.L)
    _emit(
        {
            "value": val.real,
            "value_imag": val.imag,
            "error_estimate": err,
            "point": [m, n],
            "order": args.order,
            # the contours the evaluator used, its defaults filled in
            "contours": {
                "delta1": delta1,
                "delta2": delta2,
                "n_circle": n_circle,
                "n_line": n_line,
                "length": args.L,
            },
        },
        args.output,
    )
    return EXIT_OK


def cmd_airy2(args) -> int:
    # each mode reads one pair of thresholds; the other pair would do nothing
    if args.gamma is not None:
        mode, used, unused = "scaling", ("r1", "r2"), ("x1", "x2")
    else:
        mode, used, unused = "kernel", ("x1", "x2"), ("r1", "r2")
    for name in unused:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} does nothing in {mode} mode, which "
                             f"reads --{used[0]}/--{used[1]}")
    for name in used:
        if getattr(args, name) is None:
            setattr(args, name, 0.0)
    if args.gamma is not None:
        # the polymer scaling map of the two-point limit
        q = _limit_query(args.t1, args.t2, args.r1, args.r2, args.gamma)
        query = (*q.times, *q.thresholds)
        doc = {"gamma": args.gamma, "r1": args.r1, "r2": args.r2}
    else:
        query = (args.t1, args.t2, args.x1, args.x2)
        doc = {"x1": args.x1, "x2": args.x2}
    value = airy_two_point(*query)
    # the partial-sum gap says nothing about the determinant's error;
    # its change under a coarser Nystrom rule estimates it
    coarse = airy_two_point(*query, n_tau=48)
    doc.update({
        "value": value,
        "partial_sums": airy_two_point_series(*query, order=args.order),
        "error_estimate": abs(value - coarse),
        "order": args.order,
        "t1": args.t1,
        "t2": args.t2,
    })
    _emit(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_combinatorial(max_size: int, seed: int, tol: float) -> List[dict]:
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(1, max_size + 1))
        n = int(rng.integers(1, max_size + 1))
        W = arrays.PolygonalArray.from_rows(
            [list(rng.uniform(0.3, 3.0, n)) for _ in range(m)]
        )
        T = arrays.grsk(W)
        ref = oracle.partition_function(W, m, n)
        worst = max(worst, abs(T[(m, n)] - ref) / abs(ref))
    out.append({"name": "grsk_corner_vs_partition_function",
                "observed": worst, "tolerance": tol})
    worst = 0.0
    for trial in range(5):
        # a random staircase: row lengths in non-increasing order
        m = int(rng.integers(1, max_size + 1))
        lengths = sorted(rng.integers(1, max_size + 1, size=m), reverse=True)
        W = arrays.PolygonalArray.from_rows(
            [list(rng.uniform(0.3, 3.0, int(n))) for n in lengths]
        )
        T, H = arrays.grsk(W), arrays.gpng(W)
        for c in T.index.cells():
            worst = max(worst, abs(T[c] - H[c]) / abs(T[c]))
    out.append({"name": "gpng_matches_grsk_on_staircases",
                "observed": worst, "tolerance": tol})
    worst = 0.0
    for trial in range(5):
        m = int(rng.integers(2, max_size + 1))
        W = arrays.PolygonalArray.from_rows(
            [list(rng.uniform(0.3, 3.0, m)) for _ in range(m)]
        )
        T = arrays.grsk(W)
        r = min(2, m)
        prod = 1.0
        for k in range(r):
            prod *= T[(m - k, m - k)]
        ref = oracle.nonintersecting_sum(W, m, m, r)
        worst = max(worst, abs(prod - ref) / abs(ref))
    out.append({"name": "nonintersecting_tuple_identity",
                "observed": worst, "tolerance": tol})
    return out


def _suite_analytic(seed: int, tol: float) -> List[dict]:
    out = []
    # exponents well away from 0 keep the log-variable truncation error
    # below the tolerance
    _, _, relerr2 = stade_check(2, [0.6, 0.8], [0.7, 0.9], 1.0)
    out.append({"name": "stade_identity_n2",
                "observed": relerr2, "tolerance": max(tol, 1e-4)})
    # rank-1 Plancherel: the pairing identity at n = 1 is the closed-form
    # cross-check of the Givental integral
    _, _, relerr1 = stade_check(1, [0.75], [0.75], 1.0)
    out.append({"name": "plancherel_rank1",
                "observed": relerr1, "tolerance": max(tol, 1e-4)})
    val = laplace1(2, 2, 1.0, [0.0, 0.0], [1.0, 1.0]).real
    est = mc_laplace([(2, 2)], [1.0], ParameterSet.flat(1.0, 2, 2),
                     n_samples=2 * 10**5, seed=seed)
    z = abs(val - est.mean) / est.stderr
    out.append({"name": "laplace1_vs_mc_z_score",
                "observed": z, "tolerance": 4.0})
    return out


def _suite_asymptotic(tol: float) -> List[dict]:
    out = []
    g, t = 1.0, 0.5
    for (m, n) in [(1, 0), (0, 1)]:
        lim = limit_term(m, n, t, t, 0.0, 0.0, g)
        pre = prelimit_term(m, n, 8, g, t, t, 0.0, 0.0)
        out.append({
            "name": f"prelimit_N8_vs_limit_{m}{n}",
            "observed": abs(pre - lim),
            "tolerance": max(tol, 1e-2),
        })
    return out


def cmd_verify(args) -> int:
    # the non-intersecting check enumerates paths: up to 1.3 s a trial at
    # size 8, 18 s at 9, and past the oracle's cap at 10
    if not 2 <= args.max_size <= 8:
        raise ValueError(f"--max-size must be in 2..8, got {args.max_size}")
    t0 = time.time()
    if args.suite == "combinatorial":
        props = _suite_combinatorial(args.max_size, args.seed, args.tolerance)
    elif args.suite == "analytic":
        props = _suite_analytic(args.seed, args.tolerance)
    else:
        props = _suite_asymptotic(args.tolerance)
    for p in props:
        p["pass"] = bool(p["observed"] <= p["tolerance"])
    doc = {
        "suite": args.suite,
        "properties": props,
        "all_pass": all(p["pass"] for p in props),
        "wall_time_s": time.time() - t0,
    }
    _emit(doc, args.output)
    return EXIT_OK if doc["all_pass"] else EXIT_COMPUTE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# sweep config key -> shape check: one or two [m, n] points, number lists
# u1 and u2 in grid
_SWEEP_KEYS = {
    "points": lambda x: isinstance(x, list) and len(x) in (1, 2) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in x),
    "grid": lambda x: isinstance(x, dict) and set(x) <= {"u1", "u2"} and all(
        isinstance(v, list) and all(map(_is_number, v)) for v in x.values()),
    "op": lambda x: x in ("contour", "mc"),
    "gamma": _is_number,
    "seed": lambda x: _is_int(x) and x >= 0,
    "samples": _is_int,
}


def _sweep_config(path: str) -> dict:
    """The sweep config at path, with each key's shape checked."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot parse sweep config: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the sweep config must be a JSON object")
    for key, value in cfg.items():
        if key not in _SWEEP_KEYS:
            raise ValueError(f"{path}: unknown sweep config key {key!r}")
        if not _SWEEP_KEYS[key](value):
            raise ValueError(f"{path}: malformed sweep config {key!r}: {value!r}")
    return cfg


def cmd_sweep(args) -> int:
    cfg = _sweep_config(args.config)
    points = [tuple(p) for p in cfg.get("points", [[1, 1]])]
    gamma = float(cfg.get("gamma", 1.0))
    grid = cfg.get("grid", {})
    u1s = [float(x) for x in grid.get("u1", [])]
    u2s = [float(x) for x in grid.get("u2", [1.0])] if len(points) == 2 else [None]
    use_mc = cfg.get("op", "contour") == "mc"
    seed = cfg.get("seed", 0)
    samples = cfg.get("samples", args.samples)

    mmax = max(m for m, _ in points)
    nmax = max(n for _, n in points)
    params = ParameterSet.flat(gamma, mmax, nmax)
    with contextlib.ExitStack() as stack:
        fh = sys.stdout
        if args.output not in (None, "-"):
            fh = stack.enter_context(
                open(args.output, "w", newline="", encoding="utf-8"))
        writer = csv.writer(fh)
        writer.writerow(["u1", "u2", "value", "error", "wall_time_s", "failure"])
        for u1 in u1s:
            for u2 in u2s:
                us = [u1] if u2 is None else [u1, u2]
                t0 = time.time()
                try:
                    if use_mc:
                        est = mc_laplace(points, us, params, n_samples=samples,
                                         seed=seed)
                        val, err = est.mean, est.stderr
                    else:
                        val, err, _ = _laplace_value(points, us, params,
                                                     args.nodes, args.L)
                    writer.writerow([u1, u2 if u2 is not None else "",
                                     repr(val.real), repr(err),
                                     f"{time.time() - t0:.3f}", ""])
                except (ValueError, ArithmeticError) as exc:
                    writer.writerow([u1, u2 if u2 is not None else "",
                                     "", "", f"{time.time() - t0:.3f}", str(exc)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Options listed in _ENV_DEFAULTS
    default to None here; main fills them in from the environment."""
    ap = argparse.ArgumentParser(
        prog="grsklab",
        description="geometric RSK / log-gamma polymer workbench",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # the polymer that sample, laplace and fredholm evaluate
    polymer = argparse.ArgumentParser(add_help=False)
    polymer.add_argument("--points", required=True, help="m1,n1[,m2,n2,...]")
    polymer.add_argument("--u", required=True)
    polymer.add_argument("--gamma", type=_finite_float, default=1.0)
    polymer.add_argument("--alpha", default=None)
    polymer.add_argument("--alphahat", default=None)

    p = sub.add_parser("grsk", help="run geometric RSK on an array file")
    p.add_argument("input")

    p = sub.add_parser("gpng", help="run geometric PNG on an array file")
    p.add_argument("input")

    p = sub.add_parser("sample", parents=[polymer],
                       help="Monte Carlo Laplace transform")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("laplace", parents=[polymer],
                       help="contour-integral Laplace transform")
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--L", type=_finite_float, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--mc-check", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("fredholm", parents=[polymer],
                       help="Fredholm-determinant transform")
    p.add_argument("--delta1", type=_finite_float, default=None)
    p.add_argument("--delta2", type=_finite_float, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--L", type=_finite_float, default=None)

    p = sub.add_parser("airy2", help="two-time Airy process probability")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--x1", type=float, default=None,
                   help="threshold at t1 in kernel mode (default 0)")
    p.add_argument("--x2", type=float, default=None,
                   help="threshold at t2 in kernel mode (default 0)")
    p.add_argument("--order", type=int, default=3,
                   help="order of the partial sums (default 3)")
    p.add_argument("--gamma", type=_finite_float, default=None,
                   help="route through the polymer scaling map "
                        "(uses --r1/--r2 instead of --x1/--x2)")
    p.add_argument("--r1", type=float, default=None,
                   help="rescaled level at t1 in scaling mode (default 0)")
    p.add_argument("--r2", type=float, default=None,
                   help="rescaled level at t2 in scaling mode (default 0)")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=["combinatorial", "analytic", "asymptotic"])
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tolerance", type=_finite_float, default=1e-10)

    p = sub.add_parser("sweep", help="CSV sweep from a config file")
    p.add_argument("config")
    # no options: the rows read these from the GRSKLAB_ variables alone
    p.set_defaults(samples=None, L=None, nodes=None)

    for p in sub.choices.values():
        p.add_argument("-o", "--output")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # the handler cmd_<command> is looked up at call time, not bound into
    # the cached parser, so that a handler replaced on the module runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        for dest, (name, cast, fallback) in _ENV_DEFAULTS.items():
            if getattr(args, dest, 0) is None:
                setattr(args, dest, _env_default(name, cast, fallback))
        code = handler(args)
        # a closed pipe shows up here, not at the flush at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading (grsklab ... | head): exit 0 without a
        # traceback, and point stdout at devnull so that the flush at
        # interpreter exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"computational failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        # whether an allocation fits depends on the machine, not the input
        print(f"computational failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
