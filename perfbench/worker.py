"""One workload in a fresh process: set up grsklab, then run whole rounds
of the workload's operations until the run length is used, and print one
JSON line with the timings, the outputs and the peak RSS.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                [--setup-only]

run.py starts this; it is not meant to be called by hand.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# the grsklab modules each workload imports during set-up
IMPORTS = {
    "mc": ["grsklab.sampling"],
    "contour": ["grsklab.cli"],
    "series": ["grsklab.contour", "grsklab.airy"],
    "airy": ["grsklab.airy"],
}


def import_program(workload):
    sys.path.insert(0, SRC)
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    import grsklab
    if not os.path.abspath(grsklab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"grsklab was imported from {grsklab.__file__}, not {SRC}")


def call_cli(argv):
    import grsklab.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        return {"rc": rc, "error": err.getvalue().strip()}
    doc = json.loads(out.getvalue())
    return {"rc": rc, "value": doc["value"], "value_imag": doc["value_imag"],
            "error_estimate": doc.get("error_estimate")}


def warm_up(workload):
    """The first untimed call; it fills the lazy tables (Gauss-Legendre
    caches, BLAS start-up) that the first timed operation would pay for."""
    if workload == "mc":
        import grsklab.sampling as sampling
        sampling.mc_laplace([(1, 1)], [1.0], sampling.ParameterSet.flat(1.0, 1, 1),
                            n_samples=10**4, seed=0)
    elif workload == "contour":
        call_cli(["laplace", "--points", "1,1", "--u", "1.0"])
    elif workload == "series":
        import grsklab.contour as contour
        contour.joint_series_term(1, 0, 1, 2, 2, 1, 1.0, 1.0, 1.0)
    else:
        import grsklab.airy as airy
        airy.airy_ai(0.0)


def _complex(v):
    return {"re": float(v.real), "im": float(v.imag)}


def run_op(op):
    """Call grsklab through its module attributes (so a traced run sees the
    wrappers) and return the output as plain JSON data."""
    kind = op["kind"]
    g = workloads.GAMMA
    if kind == "mc_laplace":
        import grsklab.sampling as sampling
        m = max(p[0] for p in op["points"])
        n = max(p[1] for p in op["points"])
        est = sampling.mc_laplace(op["points"], op["us"],
                                  sampling.ParameterSet.flat(g, m, n),
                                  n_samples=workloads.MC_SAMPLES, seed=op["seed"])
        return {"mean": est.mean, "stderr": est.stderr}
    if kind == "cli":
        return call_cli(op["argv"])
    if kind == "airy_two_point":
        import grsklab.airy as airy
        return {"value": float(airy.airy_two_point(*op["args"]))}
    if kind == "limit_term":
        import grsklab.airy as airy
        return {"re": float(airy.limit_term(*op["mn"], op["t1"], op["t2"], 0.0, 0.0,
                                            op["gamma"]))}
    import grsklab.contour as contour
    if kind == "joint_series_term":
        return _complex(contour.joint_series_term(*op["mn"], *op["points"], *op["us"], g))
    if kind == "laplace2_case_a":
        m1, n1, m2, n2 = op["points"]
        return _complex(contour.laplace2_case_a(m1, n1, m2, n2, *op["us"],
                                                [0.0] * m2, [g] * n1, g))
    if kind == "joint_series_scaled":
        pts = contour.scaled_points(op["N"], op["t1"], op["t2"])
        u = contour.scaled_u(op["N"], op["gamma"], 0.0)
        return _complex(contour.joint_series_term(*op["mn"], *pts, u, u, op["gamma"]))
    if kind == "prelimit_term":
        return _complex(contour.prelimit_term(*op["mn"], op["N"], op["gamma"],
                                              op["t1"], op["t2"]))
    raise ValueError(f"unknown operation kind {kind!r}")


def one_round(ops):
    times, outputs = [], []
    for op in ops:
        t = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:  # recorded and counted as a failed operation
            out = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t)
        outputs.append(out)
    return {"times": times, "outputs": outputs}


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds until the next one would overrun the budget; one at
    least."""
    start = time.perf_counter()
    rounds = []
    while True:
        if tracer is not None:
            tracer.reset()
        rnd = one_round(ops)
        if tracer is not None:
            rnd["layers"] = tracer.snapshot()
        rounds.append(rnd)
        walls = [sum(r["times"]) for r in rounds]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return rounds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_program(args.workload)
    warm_up(args.workload)
    doc = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        print(json.dumps(doc))
        return

    ops = workloads.build_ops(args.workload, args.seed)
    doc["ops"] = [op["id"] for op in ops]
    if args.trace:
        import tracing
        # untraced rounds first, then the same rounds traced: the difference
        # is the tracing overhead
        doc["rounds"] = run_rounds(ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        doc["traced_rounds"] = run_rounds(ops, args.seconds / 2, tracer)
        doc["absent"] = tracer.absent
    else:
        doc["rounds"] = run_rounds(ops, args.seconds)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
