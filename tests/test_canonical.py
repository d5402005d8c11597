"""canonical_form against the exhaustive minimizer it replaced.

`oracle` is the old sweep: it tries every labeling inside each vertex
signature class and keeps the least adjacency bitstring.  The row-by-row
search must return exactly its representative, so bialgebra keys, memo
contents and every CLI output stay the same.
"""

import itertools
import random
import time

import networkx as nx
from hypothesis import given, settings, strategies as st

from graph_hopf.graphs import (
    Graph,
    all_graphs,
    canonical_form,
    complete,
    connected_components,
    cycle_graph,
    disjoint_union,
    format_graph,
    graph_isoclasses,
    parse_graph,
    relabel,
    restrict,
)


def _oracle_connected(G):
    n = G.n
    slots = {e: k for k, e in enumerate(complete(n).edges)}
    nbrs = {v: sorted({j for i, j in G.edges if i == v} | {i for i, j in G.edges if j == v})
            for v in range(1, n + 1)}
    sig = {}
    for v in range(1, n + 1):
        tri = sum(1 for a, b in itertools.combinations(nbrs[v], 2) if G.has_edge(a, b))
        sig[v] = (len(nbrs[v]), tuple(sorted(len(nbrs[u]) for u in nbrs[v])), tri)
    classes = {}
    for v in range(1, n + 1):
        classes.setdefault(sig[v], []).append(v)
    best = None
    for parts in itertools.product(*(itertools.permutations(classes[s]) for s in sorted(classes))):
        pos = {v: i + 1 for i, v in enumerate(v for part in parts for v in part)}
        mask = 0
        for i, j in G.edges:
            a, b = sorted((pos[i], pos[j]))
            mask |= 1 << slots[(a, b)]
        if best is None or mask < best:
            best = mask
    return Graph(n, [e for e, k in slots.items() if best >> k & 1])


def oracle(G):
    forms = sorted(_oracle_connected(restrict(G, c)) for c in connected_components(G))
    out = Graph(0)
    for f in forms:
        out = disjoint_union(out, f)
    return out


def shuffled(G, rng):
    perm = list(range(1, G.n + 1))
    rng.shuffle(perm)
    return relabel(G, tuple(perm))


def test_every_labeled_graph_up_to_5_vertices():
    for n in range(1, 6):
        for G in all_graphs(n):
            assert canonical_form(G) == oracle(G), format_graph(G)


def test_relabeled_classes_on_6_vertices():
    rng = random.Random(6)
    classes = graph_isoclasses(6)
    assert len(classes) == 156
    for C in classes:
        for _ in range(3):
            G = shuffled(C, rng)
            assert canonical_form(G) == oracle(G) == C, format_graph(G)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(7, 8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k]), tuple(perm)


@settings(max_examples=60, deadline=None)
@given(labeled_graphs())
def test_invariant_under_relabeling_on_7_to_8_vertices(case):
    G, perm = case
    C = canonical_form(G)
    assert canonical_form(relabel(G, perm)) == C
    nx_G = nx.Graph(G.edges)
    nx_G.add_nodes_from(range(1, G.n + 1))
    nx_C = nx.Graph(C.edges)
    nx_C.add_nodes_from(range(1, C.n + 1))
    assert nx.is_isomorphic(nx_G, nx_C)


def circulant(n, steps):
    return Graph(n, [(v + 1, (v + s) % n + 1) for v in range(n) for s in steps])


def rook(k):
    cells = list(itertools.product(range(k), repeat=2))
    return Graph(k * k, [(a + 1, b + 1) for a, b in itertools.combinations(range(k * k), 2)
                         if (cells[a][0] == cells[b][0]) != (cells[a][1] == cells[b][1])])


def complete_bipartite(m):
    return Graph(2 * m, [(a, b) for a in range(1, m + 1) for b in range(m + 1, 2 * m + 1)])


CUBE = Graph(8, [(a + 1, b + 1) for a, b in itertools.combinations(range(8), 2)
                 if bin(a ^ b).count("1") == 1])
PETERSEN = Graph(10, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
                 + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])

# Representatives returned by the exhaustive sweep, recorded before the
# row-by-row search replaced it.
PINNED = [
    (circulant(7, [1]), "7: 1-6, 1-7, 2-5, 2-7, 3-4, 3-6, 4-5"),
    (circulant(7, [1, 2]), "7: 1-4, 1-5, 1-6, 1-7, 2-3, 2-5, 2-6, 2-7, 3-4, 3-6, 3-7, 4-5, 4-7, 5-6"),
    (circulant(8, [1]), "8: 1-7, 1-8, 2-6, 2-8, 3-5, 3-7, 4-5, 4-6"),
    (circulant(8, [1, 2]),
     "8: 1-3, 1-6, 1-7, 1-8, 2-4, 2-5, 2-7, 2-8, 3-4, 3-6, 3-8, 4-5, 4-8, 5-6, 5-7, 6-7"),
    (circulant(8, [1, 4]), "8: 1-6, 1-7, 1-8, 2-5, 2-7, 2-8, 3-4, 3-6, 3-8, 4-5, 4-7, 5-6"),
    (CUBE, "8: 1-6, 1-7, 1-8, 2-5, 2-7, 2-8, 3-5, 3-6, 3-8, 4-5, 4-6, 4-7"),
    (complete_bipartite(4),
     "8: 1-5, 1-6, 1-7, 1-8, 2-5, 2-6, 2-7, 2-8, 3-5, 3-6, 3-7, 3-8, 4-5, 4-6, 4-7, 4-8"),
    (circulant(9, [1]), "9: 1-8, 1-9, 2-7, 2-9, 3-6, 3-8, 4-5, 4-7, 5-6"),
    (circulant(9, [1, 2]), "9: 1-2, 1-6, 1-8, 1-9, 2-4, 2-8, 2-9, 3-4, 3-5, 3-7, 3-9, "
                           "4-7, 4-9, 5-6, 5-7, 5-8, 6-7, 6-8"),
    (circulant(9, [1, 3]), "9: 1-6, 1-7, 1-8, 1-9, 2-5, 2-7, 2-8, 2-9, 3-4, 3-6, 3-8, 3-9, "
                           "4-5, 4-7, 4-9, 5-6, 5-8, 6-7"),
    (rook(3), "9: 1-4, 1-6, 1-8, 1-9, 2-3, 2-5, 2-8, 2-9, 3-6, 3-7, 3-9, 4-5, 4-7, 4-9, "
              "5-7, 5-8, 6-7, 6-8"),
]


def test_pinned_vertex_transitive_representatives():
    rng = random.Random(9)
    for G, text in PINNED:
        for _ in range(3):
            assert canonical_form(shuffled(G, rng)) == parse_graph(text)


def test_symmetric_10_vertex_graphs_within_budget():
    # the exhaustive sweep needed over 20 s for C10 alone
    rng = random.Random(10)
    graphs = [shuffled(G, rng) for G in
              (cycle_graph(10), PETERSEN, complete(10), complete_bipartite(5))]
    t0 = time.perf_counter()
    forms = [canonical_form(G) for G in graphs]
    assert time.perf_counter() - t0 < 1.0
    assert [len(C.edges) for C in forms] == [10, 15, 45, 25]
