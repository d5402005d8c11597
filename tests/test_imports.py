"""Lint gate: every top-level import in src/graph_hopf is used by its module.

Uses only the standard-library `ast`, so it runs wherever the tests do.  A
name counts as used when it appears as a bare name anywhere in the module
(attribute bases included) or is listed in the module's `__all__`.
"""

import ast
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
