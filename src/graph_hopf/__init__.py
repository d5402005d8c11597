"""Exact-arithmetic computer algebra for graph coproducts, chromatic
invariants, admissible-partition lattices, and word symmetric functions."""

from .graphs import (
    Graph,
    Partition,
    parse_graph,
    format_graph,
    complete,
    cycle_graph,
    edgeless,
    path_graph,
    disjoint_union,
)
from .linear import LinComb, Polynomial, falling_factorial, hilbert

__version__ = "0.1.0"

__all__ = [
    "Graph", "Partition", "parse_graph", "format_graph",
    "complete", "cycle_graph", "edgeless", "path_graph", "disjoint_union",
    "LinComb", "Polynomial", "falling_factorial", "hilbert",
    "__version__",
]
