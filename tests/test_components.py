"""Property tests: the components routine and its callers against networkx.

Random labeled graphs on 0-9 vertices; networkx is a test-only oracle.
"""

import networkx as nx
from hypothesis import given, strategies as st

from graph_hopf.graphs import (
    Graph,
    Partition,
    components_within,
    connected_components,
    is_admissible,
)
from graph_hopf.wsym import coloring_fiber_partition


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def labels(n, top):
    """One label in 1..top per vertex, indexed by vertex - 1."""
    return st.lists(st.integers(1, top), min_size=n, max_size=n)


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(1, G.n + 1))
    H.add_edges_from(G.edges)
    return H


def nx_components(G, vertices):
    return sorted(tuple(sorted(c)) for c in nx.connected_components(to_nx(G).subgraph(vertices)))


@given(st.data())
def test_components_within_random_subsets(data):
    G = data.draw(graphs())
    subset = [v for v, keep in zip(range(1, G.n + 1), data.draw(labels(G.n, 2))) if keep == 1]
    assert components_within(G, subset) == nx_components(G, subset)


@given(graphs())
def test_connected_components(G):
    assert connected_components(G) == nx_components(G, range(1, G.n + 1))


@given(st.data())
def test_is_admissible(data):
    G = data.draw(graphs())
    f = data.draw(labels(G.n, 3))
    blocks = [[v for v in range(1, G.n + 1) if f[v - 1] == c] for c in set(f)]
    want = all(nx.is_connected(to_nx(G).subgraph(b)) for b in blocks)
    assert is_admissible(G, Partition(G.n, blocks)) == want


@given(st.data())
def test_coloring_fiber_partition(data):
    G = data.draw(graphs())
    f = data.draw(labels(G.n, 4))
    blocks = [comp for c in set(f)
              for comp in nx_components(G, [v for v in range(1, G.n + 1) if f[v - 1] == c])]
    assert coloring_fiber_partition(G, f) == Partition(G.n, blocks)
