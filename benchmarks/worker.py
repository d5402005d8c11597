"""One cold run of one workload, in the interpreter that runs this file.

    PYTHONPATH=src python3 benchmarks/worker.py WORKLOAD SEED REP SIZE TRACE

Prints one JSON object: timings in reference seconds (see speed.py), peak
memory, failures and, when TRACE is 1, the per-layer numbers.  `run.py`
starts one of these per measured process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import speed
import tracing
import workloads


def require_cold():
    """Every memo in the package must be empty: users start each process cold."""
    warm = [f"{name} ({fn.cache_info().currsize})"
            for name, fn in tracing.lru_caches().items() if fn.cache_info().currsize]
    warm += [f"Character {c.name} ({len(c._memo)})" for c in tracing.characters() if c._memo]
    if warm:
        raise SystemExit("memos are not empty at the start of the run: " + ", ".join(warm))


def call(cli, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a crashing operation counts as failed; the stream goes on
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run(workload, seed, rep, size, trace):
    from graph_hopf import cli

    require_cold()
    if workload == "query-mix":
        queries = workloads.query_mix(seed, size)
        argvs = [q[3] for q in queries]
    else:
        argvs = workloads.verify_argvs(workload, seed, rep, size)

    caches = tracing.lru_caches()  # the originals: wrappers have no cache_info()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    results = []
    probe = speed.SpeedProbe()
    probe.start()
    t_start = time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        code, stdout = call(cli, argv)
        results.append((code, stdout, t0, time.perf_counter()))
    t_end = time.perf_counter()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = probe.reference_seconds(t_start, t_end)

    errors = []
    for i, (code, stdout, _, _) in enumerate(results):
        if workload == "query-mix":
            command, n, edges, _ = queries[i]
            reason = workloads.check_query(command, n, edges, code, stdout)
        else:
            reason = workloads.check_verify(argvs[i], code, stdout)
        if reason:
            errors.append(f"{' '.join(argvs[i])}: {reason}")
    out = {
        "workload": workload, "seed": seed, "rep": rep, "size": size, "trace": trace,
        "wall_s": wall,
        "raw_wall_s": t_end - t_start,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [probe.reference_seconds(r[2], r[3]) for r in results],
        "attempted": len(results),
        "errors": errors,
        "digest": workloads.digest(r[1] for r in results),
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, caches, wall / (t_end - t_start))
    return out


def layer_metrics(tracer, caches, speed_factor):
    """Per-layer numbers of a traced run, named as in BENCHMARK.json.  Times
    are scaled to reference seconds by the run's mean speed factor."""
    from graph_hopf.verify import SUITES

    m = {}
    for layer in tracing.LAYERS:
        prefix = layer + "."
        m[prefix + "calls"] = sum(c for k, c in tracer.calls.items() if k.startswith(prefix))
        m[prefix + "self_s"] = sum(s for k, s in tracer.self_s.items() if k.startswith(prefix))
    for suite in SUITES:
        m[f"verify.suite.{suite}_s"] = tracer.incl.get(f"verify.suite_{suite}", 0.0)
    m["linear.add_calls"] = tracer.calls.get("linear.LinComb.__add__", 0)
    m["linear.add_keys_copied"] = tracer.add_keys_copied

    info = caches["graphs.canonical_form"].cache_info()
    m["graphs.canonical_form.calls"] = tracer.calls.get("graphs.canonical_form", 0)
    m["graphs.canonical_form.s"] = tracer.incl.get("graphs.canonical_form", 0.0)
    m["graphs.canonical_form.hit_ratio"] = info.hits / max(1, info.hits + info.misses)
    spans = {
        "graphs.admissible_partitions.s": ["graphs.admissible_partitions"],
        "chromatic.independent_partitions.s": ["chromatic.independent_partitions"],
        "graphs.set_partitions.s": ["graphs.set_partitions"],
        "chromatic.engine.partition_s": ["chromatic.pchr_partition"],
        "chromatic.engine.delcon_s": ["chromatic.pchr_deletion_contraction"],
        "chromatic.engine.character_s": ["chromatic.pchr_character_formula"],
        "bialgebra.delta_small.s": ["bialgebra.delta_small"],
        "bialgebra.delta_big.s": ["bialgebra.delta_big"],
        "bialgebra.antipode_recursive.s": ["bialgebra.antipode_recursive"],
        "bialgebra.antipode_forest.s": ["bialgebra.antipode_forest"],
        "bialgebra.cointeraction.s": ["bialgebra.cointeraction_lhs", "bialgebra.cointeraction_rhs"],
        "lattice.build_lattice.s": ["lattice.build_lattice"],
        "lattice.covers.s": ["lattice.AdmissibleLattice.covers"],
        "lattice.mobius.s": ["lattice.AdmissibleLattice.mobius"],
        "wsym.pchr_nc.s": ["wsym.pchr_nc"],
        "wsym.phi0_nc.s": ["wsym.phi0_nc"],
    }
    for metric, names in spans.items():
        m[metric] = sum(tracer.incl.get(name, 0.0) for name in names)
    for name in ("graphs.admissible_partitions", "chromatic.independent_partitions",
                 "graphs.set_partitions"):
        m[name + ".items"] = tracer.yields.get(name, 0)
    m["wsym.coloring_fiber_partition.calls"] = tracer.calls.get("wsym.coloring_fiber_partition", 0)
    for name, fn in caches.items():
        info = fn.cache_info()
        m[f"cache.{name}.hit_ratio"] = info.hits / max(1, info.hits + info.misses)
        m[f"cache.{name}.entries"] = info.currsize
    m["characters.memo_entries"] = sum(len(c._memo) for c in tracing.characters())
    return {k: v * speed_factor if k.endswith(("_s", ".s")) else v for k, v in m.items()}


def main(argv):
    workload, seed, rep, size, trace = argv
    speed.pin_to_one_cpu()
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    import graph_hopf

    if not os.path.realpath(graph_hopf.__file__).startswith(src + os.sep):
        raise SystemExit(f"graph_hopf was imported from {graph_hopf.__file__}, not from {src}")
    result = run(workload, int(seed), int(rep), size, trace == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
