"""Lint gates on the imports of src/graph_hopf.

Every top-level import is used by its module: a name counts as used when it
appears as a bare name anywhere in the module (attribute bases included) or
is listed in the module's `__all__`.  And no module takes a standard-library
name through a sibling (`from .linear import Fraction`): it imports the name
from the standard library itself.

Uses only the standard-library `ast`, so it runs wherever the tests do.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graph_hopf"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_only_the_unused_name():
    source = "import os\nimport random\nfrom math import comb, pi\n__all__ = ['pi']\nos.sep\n"
    assert unused_imports(source) == [(2, "random"), (3, "comb")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def stdlib_names(source):
    """Names a module binds by top-level imports from the standard library."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names
                      if alias.name.partition(".")[0] in sys.stdlib_module_names}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.partition(".")[0] in sys.stdlib_module_names):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def stdlib_through_siblings(source, sibling_source):
    """(line, module, name) for each stdlib name imported from a sibling module."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reexported = stdlib_names(sibling_source(node.module))
            out.extend((node.lineno, node.module, alias.name) for alias in node.names
                       if alias.name in reexported)
    return sorted(out)


def test_detector_flags_stdlib_name_from_sibling():
    siblings = {"linear": "from fractions import Fraction\nimport math\ndef hilbert(k): pass\n"}
    source = "from .linear import Fraction, hilbert, math\nfrom fractions import Fraction\n"
    assert stdlib_through_siblings(source, siblings.__getitem__) == [
        (1, "linear", "Fraction"), (1, "linear", "math")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_stdlib_names_through_siblings(path):
    def sibling_source(module):
        return (PACKAGE / f"{module}.py").read_text()

    assert stdlib_through_siblings(path.read_text(), sibling_source) == []
