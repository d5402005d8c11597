"""Benchmark of the graph_hopf reproduction; see README.md in this directory.

    python3 benchmarks/run.py --workload verify-iso --seed 1 --seconds 20 --trace 0

Run from a checkout that has `src/graph_hopf`.  Every measured process is a
fresh interpreter.  With --trace 0 the result carries the end-to-end
metrics, with --trace 1 the per-layer metrics of one traced process.  The
last line of stdout is the JSON result; the lines before it repeat every
metric with its unit.  `--workload all` runs each workload in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-iso", "verify-wsym", "query-mix")
SETUP_STARTS = 21
TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "queries_per_s": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as installed copies do
    return env


def setup_times(starts):
    """Seconds from starting an interpreter until `graph_hopf.cli` is imported.

    Both clocks are CLOCK_MONOTONIC, which is shared by all processes.  The
    first start compiles bytecode and is not counted.  Each start is scaled
    to reference seconds by the speed of probes taken just before it.
    """
    code = "import time, graph_hopf.cli; print(time.monotonic())"
    out = []
    for _ in range(starts + 1):
        kernel_s = statistics.median(speed.probe()[1] for _ in range(3))
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        out.append((float(proc.stdout.split()[-1]) - t0) * speed.REFERENCE_S / kernel_s)
    return out[1:]


def worker(workload, seed, rep, size, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(rep), size,
         "1" if trace else "0"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference_digest(workload, seed, size, runs):
    """What every query-mix process's stdout must hash to: the digest recorded
    for this seed, else that of the first process.  None for verify, whose
    processes run their suites in different orders."""
    if workload != "query-mix":
        return None
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f) if size == "full" else {}
    return recorded.get(str(seed), runs[0]["digest"])


def count_failures(runs, reference):
    """Failed operations: each error, and every operation of a process whose
    stdout differs from the reference digest."""
    failed = 0
    for r in runs:
        for e in r["errors"]:
            print(f"FAILED {r['workload']} seed={r['seed']} rep={r['rep']}: {e}", file=sys.stderr)
        if reference and r["digest"] != reference:
            print(f"FAILED {r['workload']} seed={r['seed']} rep={r['rep']}: stdout digest "
                  f"{r['digest']} != {reference}", file=sys.stderr)
            failed += r["attempted"]
        else:
            failed += len(r["errors"])
    return failed


def measure(workload, seed, seconds, size):
    """End-to-end metrics: fresh processes until the time is used, at least one."""
    setup = setup_times(SETUP_STARTS if size == "full" else 2)
    runs = []
    t0 = time.monotonic()
    while True:
        runs.append(worker(workload, seed, len(runs), size, False))
        elapsed = time.monotonic() - t0
        if elapsed * (len(runs) + 1) / len(runs) > seconds:  # the next would overrun
            break
    latencies = [t for r in runs for t in r["latencies_s"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "queries_per_s": len(latencies) / sum(r["wall_s"] for r in runs),
        "query_p50_ms": 1000 * nearest_rank(latencies, 0.5),
        "query_p90_ms": 1000 * nearest_rank(latencies, 0.9),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return runs, metrics


def measure_traced(workload, seed, size):
    """Per-layer metrics of one traced process, and its overhead over an untraced one."""
    plain = worker(workload, seed, 0, size, False)
    traced = worker(workload, seed, 0, size, True)
    if traced["digest"] != plain["digest"]:
        traced["errors"].append("traced stdout differs from untraced stdout")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return [plain, traced], {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(workload, seed, seconds, trace, size):
    if trace:
        runs, metrics = measure_traced(workload, seed, size)
    else:
        runs, metrics = measure(workload, seed, seconds, size)
    attempted = sum(r["attempted"] for r in runs)
    failed = count_failures(runs, reference_digest(workload, seed, size, runs))
    print(f"# workload={workload} seed={seed} trace={int(trace)} size={size} "
          f"processes={len(runs)} attempted={attempted} failed={failed} "
          f"raw_wall_s={','.join('%.3f' % r['raw_wall_s'] for r in runs)} "
          f"digest={runs[0]['digest']}")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second smoke run with the same code paths")
    args = parser.parse_args(argv)
    speed.pin_to_one_cpu()  # inherited by every process started below
    if not os.path.isfile(os.path.join(ROOT, "src", "graph_hopf", "cli.py")):
        raise SystemExit(f"no graph_hopf sources under {os.path.join(ROOT, 'src')}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.size)
               for w in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
