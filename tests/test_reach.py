"""Lint gate on what src/graph_hopf defines: every module-level function and
every method other than a dunder is named somewhere else in the package, or
exported by `__init__.__all__`.  A definition that nothing names is reached
only from the tests; such a helper lives under `tests/` (see helpers.py).

"Named" means a bare name or an attribute with that name, anywhere in the
package outside the definition's own body, so a function that only calls
itself is not reached.  The lint reads names, not calls: a name shared by an
unrelated local variable counts as a use.  It uses only the standard-library
`ast`, so it runs wherever the tests do.
"""

import ast
import fnmatch
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graph_hopf"

# pattern on "module.name" or "module.Class.name" -> why it may go unnamed
ALLOWED = {
    "verify.suite_*": "registered in `verify.SUITES` by its name prefix",
    "bialgebra.rho": "the coaction; a coaction suite in `verify` will call it",
    "linear.Polynomial.compose_sum": "P(X+Y); a morphism check in `verify` will call it",
    "linear.Polynomial.compose_prod": "P(XY); a morphism check in `verify` will call it",
}


def definitions(tree, module):
    """(qualified name, node) of each module-level function and each method
    other than a dunder, in one module's tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item


def names_in(node):
    """Every bare name and attribute name under node, counted."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def exported(trees):
    init = trees["__init__"]
    return {name for node in init.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unreached(sources):
    """The qualified names in `sources` (module -> text) that nothing else
    names, that `__all__` does not export and that ALLOWED does not list."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    public = exported(trees) if "__init__" in trees else set()
    named = sum(map(names_in, trees.values()), Counter())
    return sorted(qualified for module, tree in trees.items()
                  for qualified, node in definitions(tree, module)
                  if node.name not in public
                  and not any(fnmatch.fnmatchcase(qualified, p) for p in ALLOWED)
                  and named[node.name] == names_in(node)[node.name])


def test_detector_flags_only_the_unnamed_definitions():
    sources = {
        "__init__": "from .a import shown\n__all__ = ['shown']\n",
        "a": ("def shown(): pass\n"
              "def used(): return 1\n"
              "def only_itself(n): return only_itself(n - 1)\n"
              "class K:\n"
              "    def __len__(self): return 0\n"
              "    def method(self): return used()\n"
              "    def orphan(self): pass\n"),
        "b": "from .a import K\nK().method()\n",
    }
    assert unreached(sources) == ["a.K.orphan", "a.only_itself"]


def test_every_definition_is_reached_from_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources) == []


def test_every_allowed_pattern_still_matches_a_definition():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    qualified = [q for module, text in sources.items()
                 for q, _ in definitions(ast.parse(text), module)]
    for pattern in ALLOWED:
        assert any(fnmatch.fnmatchcase(q, pattern) for q in qualified), pattern
