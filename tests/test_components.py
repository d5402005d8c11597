"""Property tests: the components routine, its callers and the partition
enumerators against networkx.

Random labeled graphs on 0-9 vertices; networkx is a test-only oracle.  So
is `component_partition`, the definition of Q(G, p) one set partition at a
time, which the component table of `wsym.phi0_nc` is checked against.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from graph_hopf import wsym as ws
from graph_hopf.chromatic import independent_partitions
from graph_hopf.graphs import (
    Graph,
    Partition,
    _set_partitions_list,
    admissible_partitions,
    all_graphs,
    block_map,
    canonical_form,
    component_masks,
    connected_components,
    restrict,
    set_partitions,
)
from graph_hopf.linear import LinComb

from helpers import is_admissible, random_graph


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
def test_component_masks_random_subsets(data):
    G = data.draw(graphs())
    subset = [v for v, keep in zip(range(1, G.n + 1), data.draw(labels(G.n, 2))) if keep == 1]
    got = list(component_masks(G, sum(1 << v for v in subset)))
    assert got == [sum(1 << v for v in c) for c in nx_components(G, subset)]


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


def component_partition(G, p):
    """Oracle: Q(G, p), the components of p's blocks in G, numbered 1..m by
    their minima, grouped by the block of p that holds them."""
    comps = sorted((c & -c, i) for i, mask in enumerate(p.masks) for c in component_masks(G, mask))
    groups = [[] for _ in p.masks]
    for number, (_, i) in enumerate(comps, start=1):
        groups[i].append(number)
    return Partition(len(comps), groups)


@given(st.data())
def test_component_partition(data):
    G = data.draw(graphs())
    f = data.draw(labels(G.n, 4))
    p = Partition(G.n, [[v for v in range(1, G.n + 1) if f[v - 1] == c] for c in set(f)])
    comps = sorted(c for b in p.blocks for c in nx_components(G, b))  # disjoint, so by minima
    number = {c: k for k, c in enumerate(comps, start=1)}
    want = Partition(len(comps), [[number[c] for c in nx_components(G, b)] for b in p.blocks])
    assert component_partition(G, p) == want


def filters_by_definition(G):
    """The admissible and the independent partitions, filtered from
    `set_partitions(n)` by networkx: every block connected, every block edgeless."""
    H = to_nx(G)
    connected, edgeless = {}, {}
    for b in {b for p in set_partitions(G.n) for b in p.blocks}:
        connected[b] = nx.is_connected(H.subgraph(b))
        edgeless[b] = H.subgraph(b).number_of_edges() == 0
    return ([p for p in set_partitions(G.n) if all(connected[b] for b in p.blocks)],
            [p for p in set_partitions(G.n) if all(edgeless[b] for b in p.blocks)])


def assert_same_objects(got, want):
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def assert_enumerators_match_definitions(G):
    admissible, independent = filters_by_definition(G)
    assert_same_objects(list(admissible_partitions(G)), admissible)
    assert_same_objects(list(independent_partitions(G)), independent)


def test_enumerators_on_every_labeled_graph_up_to_5():
    for n in range(6):
        for G in all_graphs(n):
            assert_enumerators_match_definitions(G)


@st.composite
def large_graphs(draw):
    n = draw(st.integers(6, 9))
    p = draw(st.sampled_from([0.15, 0.3, 0.5]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, x in zip(pairs, keep) if x < p])


@settings(max_examples=6, deadline=None)
@given(large_graphs())
def test_enumerators_on_6_to_9_vertices(G):
    assert_enumerators_match_definitions(G)


@given(st.data())
def test_block_map_restricts_each_block_once(data):
    G = data.draw(graphs())
    calls = []

    def form(H):
        calls.append(H)
        return canonical_form(H)

    value = block_map(G, form)
    blocks = data.draw(st.lists(st.sets(st.integers(1, G.n), min_size=1).map(
        lambda b: tuple(sorted(b))), max_size=6)) if G.n else []
    for b in blocks + blocks:
        assert value(sum(1 << v for v in b)) == canonical_form(restrict(G, b))
    assert len(calls) == len(set(blocks))


@given(st.data())
def test_block_map_of_a_mask_is_the_restriction(data):
    G = data.draw(graphs())
    value = block_map(G, lambda H: H)
    subsets = st.sets(st.integers(1, G.n)) if G.n else st.just(set())
    for vertices in data.draw(st.lists(subsets, max_size=6)):
        assert value(sum(1 << v for v in vertices)) == restrict(G, vertices)


def phi0_by_definition(G):
    return LinComb((component_partition(G, p), 1) for p in set_partitions(G.n))


def test_phi0_table_matches_definition_up_to_5():
    for n in range(6):
        for G in all_graphs(n):
            assert ws.phi0_nc.__wrapped__(G) == phi0_by_definition(G)


@settings(max_examples=10, deadline=None)
@given(st.integers(6, 7), st.randoms(use_true_random=False), st.floats(0, 1))
def test_phi0_table_matches_definition_on_6_to_7(n, rng, p):
    G = random_graph(n, rng, p)
    assert ws.phi0_nc.__wrapped__(G) == phi0_by_definition(G)


def test_phi0_terms_are_shared_partitions():
    """Equal terms of two graphs are one object, the one `set_partitions` yields."""
    seen = {}
    for n in range(5):
        yielded = {p: p for m in range(n + 1) for p in set_partitions(m)}
        for G in all_graphs(n):
            for Q in ws.phi0_nc.__wrapped__(G).keys():
                assert seen.setdefault(Q, Q) is Q
                assert yielded[Q] is Q


def test_shared_partition_is_the_yielded_object():
    """The table's key for each partition is its growth string."""
    for n in range(7):
        for p in set_partitions(n):
            assert _set_partitions_list(n)[p.growth] is p
