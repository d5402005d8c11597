"""Lint gate on unbounded memo tables in src/graph_hopf.

An `lru_cache(maxsize=None)` (or `functools.cache`) keeps every argument
and result for the life of the process.  The functions below are the ones
that have such a cache today; a new one fails this test, so that a bounded
memo, or a memo that lives only as long as one call (`graphs.block_map`),
is chosen instead.  When one of them is bounded or removed, drop its name.

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
import re
from pathlib import Path

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
