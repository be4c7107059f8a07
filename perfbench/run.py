"""grsklab benchmark: one workload per call, run in a fresh process.

    python3 perfbench/run.py --workload {mc,contour,series,airy} --seed N \
                             --seconds S --trace {0,1}

Prints, as its last line, one JSON object with "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are setup_s, wall_s
and peak_rss_mb; with --trace 1 they are the per-layer figures of
tracing.METRICS.  See README.md for the workloads and the checks.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10        # set-up-only processes before and again after the measured one
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140


def spawn(args, timeout):
    """Run a worker and return its JSON line; raise on failure."""
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_s(rounds):
    """One round of the workload's operations: the sum over operations of
    each operation's median time across the rounds, so that one stall
    does not set the figure."""
    per_op = zip(*(r["times"] for r in rounds))
    return sum(statistics.median(ts) for ts in per_op)


def failures(workload, ops, rounds):
    """{op id: problems} for the operations that fail in any round; rounds
    whose outputs repeat an earlier round are not checked again."""
    import checks
    seen, failed = set(), {}
    for rnd in rounds:
        key = json.dumps(rnd["outputs"], sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        for op_id, msgs in checks.check(workload, ops, rnd["outputs"]).items():
            if msgs:
                failed.setdefault(op_id, msgs)
    return failed


def setup_probes(common):
    return [spawn(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "grsklab", "__init__.py")):
        print(f"no grsklab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]

    # set-up is measured only in the untraced run; the probes before and
    # after the measured worker sample the machine over the whole run
    setups = [] if args.trace else setup_probes(common)
    doc = spawn(common + ["--trace", str(args.trace)], WORKER_TIMEOUT_S)
    setups.append(doc["setup_s"])
    if not args.trace:
        setups += setup_probes(common)

    ops = workloads.build_ops(args.workload, args.seed)
    if [op["id"] for op in ops] != doc["ops"]:
        raise RuntimeError("worker ran other operations than the checker expects")
    rounds = doc["rounds"] + doc.get("traced_rounds", [])
    # each distinct operation counts once, however many rounds fit in the run
    failed = failures(args.workload, ops, rounds)
    unexpected = sorted(op_id for op_id in failed if op_id not in workloads.KNOWN_FAULTS)
    for op_id in unexpected:
        print(f"FAILED {op_id}: {'; '.join(failed[op_id])}", file=sys.stderr)

    if args.trace:
        import tracing
        traced = doc["traced_rounds"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in tracing.METRICS if name != "trace.overhead.s"}
        metrics["trace.overhead.s"] = wall_s(traced) - wall_s(doc["rounds"])
        metrics = {k: {"value": v, "unit": tracing.METRICS[k]} for k, v in metrics.items()}
        if doc["absent"]:
            print(f"absent entry points: {', '.join(doc['absent'])}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s(rounds), "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not unexpected, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "setups": setups, "worker": doc}, fh, indent=1)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
