"""Tests of the benchmark itself: smoke runs at tiny size, and the tracer."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_tiny_smoke_run_of_every_workload():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in ("verify-iso", "verify-wsym", "query-mix"):
        for name, unit in declared("end_to_end").items():
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert f"\n{name} " in "\n" + proc.stdout


@pytest.mark.parametrize("workload", ["verify-iso", "verify-wsym", "query-mix"])
def test_traced_run_matches_untraced_and_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # the traced process fails an operation when its stdout digest differs
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("per_layer")


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "query-mix", "--seed", "1", "--size", "tiny", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_generator_wrapper_counts_what_the_generator_yields():
    tracer = tracing.Tracer()

    def numbers(k):
        yield from range(k)

    wrapped = tracer.wrap_generator("t.numbers", numbers)
    assert list(wrapped(7)) == list(range(7))
    it = wrapped(5)
    assert [next(it), next(it)] == [0, 1]
    assert tracer.calls["t.numbers"] == 2
    assert tracer.yields["t.numbers"] == 9


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("t.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("t.outer", body)
    outer()
    # clock reads: outer enters at 0, inner spans 1-2 and 3-4, outer exits at 5
    assert tracer.incl == {"t.inner": 2, "t.outer": 5}
    assert tracer.self_s == {"t.inner": 2, "t.outer": 3}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from graph_hopf import bialgebra, characters, chromatic, graphs, linear, verify

    original = graphs.canonical_form
    uninstall = tracing.Tracer().install()
    try:
        wrapped = graphs.canonical_form
        assert wrapped.__traced__ == "graphs.canonical_form"
        assert bialgebra.canonical_form is wrapped and characters.canonical_form is wrapped
        assert chromatic.canonical_form is wrapped
        assert graphs.admissible_partitions.__traced__ == "graphs.admissible_partitions"
        assert all(hasattr(fn, "__traced__") for fn in verify.SUITES.values())
        assert all(hasattr(fn, "__traced__") for fn in chromatic.ENGINES.values())
        assert linear.LinComb.__add__.__traced__ == "linear.LinComb.__add__"
    finally:
        uninstall()
    assert graphs.canonical_form is original and bialgebra.canonical_form is original
    assert not hasattr(linear.LinComb.__add__, "__traced__")
    assert not any(hasattr(fn, "__traced__") for fn in verify.SUITES.values())


def test_oracle_on_known_graphs():
    triangle = [(1, 2), (1, 3), (2, 3)]
    assert oracle.chromatic_coefficients(3, triangle) == [0, 2, -3, 1]
    assert [oracle.proper_colorings(3, triangle, k) for k in range(4)] == [0, 0, 0, 6]
    assert oracle.connected_partition_count(3, [(1, 2), (2, 3)]) == 4
    assert oracle.poly_json([0, 0]) == ["0"]


def test_query_stream_depends_only_on_the_seed():
    assert workloads.query_mix(11, "full") == workloads.query_mix(11, "full")
    assert workloads.query_mix(11, "full") != workloads.query_mix(12, "full")
    kinds = [(q[0], q[1]) for q in workloads.query_mix(11, "full")]
    assert sorted(kinds) == sorted((q[0], q[1]) for q in workloads.query_mix(12, "full"))
