"""Lint gate on unbounded memo tables in src/graph_hopf, and tests of the
one memo that lives for a single call.

An `lru_cache(maxsize=None)` (or `functools.cache`) keeps every argument
and result for the life of the process.  The functions below are the ones
that have such a cache today; a new one fails this test, so that a bounded
memo, or a memo that lives only as long as one call, is chosen instead.
When one of them is bounded or removed, drop its name.  Every per-call memo
goes through `graphs._memoised` (`block_map`, through which
`delta_small_graph` reads its blocks' form ids, `least_blocks`, the
recursions of `nested_forests` and `chromatic.block_sums`, the forest factors
of `antipode_forest`, the block tables of `characters.act`, which every
convolution reads, the scopes of `verify`'s checks and the quotient lattices
of `check_interval_isomorphism`); `lru_cache` is kept for the process-wide
memos.  Three tables are written by hand, each because `_memoised` measured
slower or cannot serve (minimum ms over interleaved rounds in one process,
Python 3.11, 2 vCPUs):
- `Character._memo`: the benchmark reads its size;
- the lattice's `_mobius` and `_joins`: as `_memoised` closures over the
  lattice, every lattice holds a reference cycle, and
  `check_interval_isomorphism(5)` took 85.7 -> 93.8 ms over 11 rounds;
- `wsym.phi0_nc`'s list of readers by minima mask: a `_memoised` read per
  set partition took 77.6 -> 86.9 ms over the 1,100 labelled graphs with at
  most 5 vertices, faster in 3 of 9 rounds.
A list that a walk reads by index, such as `graphs._neighbourhoods`, is built
whole per graph and is not a memo.

A module-level dict that starts empty is the same kind of memo, hidden from
`cache_info`, from `verify --timings` and from the benchmark's cache metrics.
So no module may bind an empty `{}`, `[]`, `set()`, `dict()` or `list()` at
module level; the registries that start filled (`ENGINES`, `ANTIPODE_ENGINES`,
`SUITES`) pass.

The lint uses only the standard-library `ast`, so it runs wherever the
tests do.  A second test imports the package and compares its `lru_cache`
objects with the cache metrics that `BENCHMARK.json` declares.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from graph_hopf import characters, graphs, wsym
from graph_hopf.chromatic import block_sums, independent_partitions
from graph_hopf.graphs import (
    admissible_partitions,
    all_graphs,
    complete,
    connected_isoclasses,
    least_blocks,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graph_hopf"

UNBOUNDED = {
    "bialgebra": {"_antipode_rec"},
    "characters": {"_chr_delcon"},
    "chromatic": {"_pchr_delcon"},
    "graphs": {"_set_partitions_list", "_admissible_list", "_slot_table", "canonical_form",
               "graph_isoclasses", "_connected_subsets", "_acyclic_count_canonical"},
    "linear": {"falling_factorial", "hilbert"},
    "wsym": {"pchr_nc", "_packed_words", "phi0_nc"},
}


def _is_unbounded(decorator):
    """`cache`, or `lru_cache` called with maxsize None; a bare `lru_cache` holds 128."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def unbounded_caches(source):
    """Names of the functions in `source` that an unbounded cache decorates."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_is_unbounded(d) for d in node.decorator_list)]


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "dict", "list") and not node.args and not node.keywords)


def _module_level(statements):
    """The statements run at import time: those of the module body and of the
    blocks it opens, but not of function or class bodies."""
    for node in statements:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(node, field, []))


def empty_module_containers(source):
    """Names that `source` binds to an empty container at module level."""
    out = []
    for node in _module_level(ast.parse(source).body):
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        else:
            continue
        for target, value in pairs:
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs.extend(zip(target.elts, value.elts))
            elif _is_empty_container(value):
                out.append(ast.unparse(target))
    return out


def test_detector_flags_empty_module_level_containers():
    source = (
        "A = {}\nB: list = []\nC = set()\nD = dict()\nE, F = [], {'k': 1}\n"
        "if True:\n    G = {}\nelse:\n    H = list()\n"
        "FILLED = {'a': 1}\nROWS = [1]\nS = set([1])\nT = ()\n"
        "def f():\n    local = {}\n"
        "class K:\n    attr = {}\n"
    )
    assert empty_module_containers(source) == ["A", "B", "C", "D", "E", "G", "H"]


def test_no_module_level_memo_tables():
    found = {path.stem: empty_module_containers(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def test_detector_flags_only_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@functools.lru_cache(None)\ndef b(x): pass\n"
        "@cache\ndef c(x): pass\n"
        "@functools.cache\ndef d(x): pass\n"
        "@lru_cache\ndef bounded_default(x): pass\n"
        "@lru_cache(maxsize=64)\ndef bounded(x): pass\n"
        "def plain(x):\n    @lru_cache(maxsize=None)\n    def e(y): pass\n"
    )
    assert unbounded_caches(source) == ["a", "b", "c", "d", "e"]


def test_no_new_unbounded_caches():
    found = {path.stem: set(unbounded_caches(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == UNBOUNDED


def test_lru_caches_match_the_benchmark_cache_metrics():
    caches = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"graph_hopf.{path.stem}")
        caches |= {f"{path.stem}.{name}" for name, obj in vars(module).items()
                   if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m.group(1) for m in (re.fullmatch(r"cache\.(\w+\.\w+)\.entries", d["name"])
                                    for d in declared) if m}
    assert caches == metrics, (
        "the package's lru_caches differ from the cache.<layer>.<fn>.entries metrics in "
        "BENCHMARK.json; benchmarks/test_benchmark_harness.py requires the traced "
        "cache.<layer>.<fn>.* names to equal that list, so adding, removing or renaming a "
        f"cache breaks the benchmark (package only: {sorted(caches - metrics)}, "
        f"BENCHMARK.json only: {sorted(metrics - caches)})")


def test_memoised_calls_f_once_per_distinct_argument():
    calls = []
    square = graphs._memoised(lambda x: calls.append(x) or x * x)
    assert [square(x) for x in (3, 1, 3, 2, 1, 3)] == [9, 1, 9, 4, 1, 9]
    assert calls == [3, 1, 2]


def test_memoised_functions_share_no_table():
    calls = []

    def negate(x):
        calls.append(x)
        return -x

    first, second = graphs._memoised(negate), graphs._memoised(negate)
    assert (first(1), second(1), first(1), second(2)) == (-1, -1, -1, -2)
    assert calls == [1, 1, 2]


def _counts_by_block_number(G, partitions):
    out = [0] * (G.n + 1)
    for p in partitions:
        out[len(p)] += 1
    return out


def test_block_sums_counts_each_partition_once_and_walks_each_mask_once():
    """The recursion of `block_sums` is memoised by `_memoised`: it counts
    the partitions into connected or independent blocks by block number, as
    the enumerations do, and asks for the blocks of each uncovered mask once."""
    assert block_sums(complete(4), least_blocks(complete(4)), lambda b: 1) == [0, 1, 7, 6, 1]
    for n in range(6):
        for G in all_graphs(n):
            for independent, partitions in ((False, admissible_partitions(G)),
                                            (True, independent_partitions(G))):
                asked = []
                blocks = least_blocks(G, independent)
                counts = block_sums(G, lambda rest: asked.append(rest) or blocks(rest),
                                    lambda b: 1)
                assert counts == _counts_by_block_number(G, partitions)
                assert len(asked) == len(set(asked))


def test_isoclass_generation_leaves_the_canonical_form_memo_empty():
    """`graph_isoclasses` canonicalises its extension candidates without the
    process-wide `canonical_form` memo; run in a fresh process, so that no
    other test has filled it."""
    code = ("from graph_hopf import graphs; graphs.graph_isoclasses(6); "
            "print(graphs.canonical_form.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ), check=True)
    assert run.stdout.split() == ["0"]


class CountingCharacter:
    """A character's values on connected graphs, counting the reads."""

    def __init__(self, lam):
        self.lam, self.reads = lam, 0

    def of_connected(self, G):
        self.reads += 1
        return self.lam.of_connected(G)


def test_one_action_reads_each_connected_block_once_across_graphs():
    """One `act` over every labelled graph with at most 5 vertices asks the
    character once per (n, block mask, edges inside the block) whose induced
    subgraph is connected: the sum over n <= 5 of the connected labelled
    graphs on each k-subset of [n], 1 + 3 + 10 + 64 + 973 = 1,051."""
    lam = CountingCharacter(characters.LAMBDA_CHR)
    acted = characters.act(wsym.phi0_nc, lam)
    for n in range(6):
        for G in all_graphs(n):
            acted(G)
    assert lam.reads == 1051


def test_one_convolution_reads_each_connected_block_once_across_graphs(monkeypatch):
    """A convolution is an action, so one `convolve(LAMBDA_ZERO, mu)` over the
    143 connected isoclasses with 1-6 vertices asks mu once per distinct
    connected (n, block mask, edges inside the block) of its one block table:
    1,045 times, where a sum over each graph's own admissible partitions
    asked 5,494 times."""
    mu = characters.Character(lambda G: len(G.edges) + 1, "edges+1")
    reads = []
    of_connected = characters.Character.of_connected

    def counted(self, G):
        if self is mu:
            reads.append(G)
        return of_connected(self, G)

    monkeypatch.setattr(characters.Character, "of_connected", counted)
    convolution = characters.convolve(characters.LAMBDA_ZERO, mu)
    for n in range(1, 7):
        for G in connected_isoclasses(n):
            convolution(G)
    assert len(reads) == 1045


def test_wsym_action_leaves_the_admissible_memo_empty():
    """`check_wsym_action` reads its blocks through one action's table, not
    through `admissible_partitions`; run in a fresh process, so that no other
    test has filled `_admissible_list`."""
    code = ("from graph_hopf import graphs, verify; assert not verify.check_wsym_action(5); "
            "print(graphs._admissible_list.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ), check=True)
    assert run.stdout.split() == ["0"]
