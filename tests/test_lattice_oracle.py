"""The admissible-partition lattice against direct definitions.

Exhaustive over every isoclass with at most 5 vertices and every labeled
graph with at most 4: the order is `Partition.refines`, the Hasse diagram is
the transitive reduction found by scanning every triple, the Mobius function
is its defining recursion, and meet and join are the partition formulas
(components of pairwise block intersections; union-find over both block
lists).  Beyond that bound, random labeled graphs on 6-7 vertices are checked
against Whitney's theorem, a networkx count of the admissible partitions, and
the greatest-lower / least-upper bound property of meet and join.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from sympy.utilities.iterables import multiset_partitions

from graph_hopf import lattice as lat
from graph_hopf.chromatic import pchr_deletion_contraction
from graph_hopf.graphs import (
    Graph,
    Partition,
    all_graphs,
    cc,
    components_within,
    format_graph,
    isoclasses_up_to,
)

GRAPHS = list(isoclasses_up_to(5)) + [G for n in range(5) for G in all_graphs(n)]


def refinement_matrix(L):
    E = L.elements
    return [[p.refines(q) for q in E] for p in E]


def brute_covers(le):
    N = range(len(le))
    return [(i, j) for i in N for j in N if i != j and le[i][j]
            and not any(k != i and k != j and le[i][k] and le[k][j] for k in N)]


def brute_mobius(le, i, j, memo):
    """mu(i, i) = 1 and mu(i, j) = -sum of mu(i, k) over i <= k < j."""
    if (i, j) not in memo:
        memo[(i, j)] = 1 if i == j else -sum(
            brute_mobius(le, i, k, memo) for k in range(len(le))
            if k != j and le[i][k] and le[k][j])
    return memo[(i, j)]


def meet_formula(G, p, q):
    inters = (set(a) & set(b) for a in p.blocks for b in q.blocks)
    return Partition(G.n, [comp for inter in inters if inter
                           for comp in components_within(G, inter)])


def join_formula(G, p, q):
    parent = list(range(G.n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for part in (p, q):
        for block in part.blocks:
            for v in block[1:]:
                parent[find(v)] = find(block[0])
    groups = {}
    for v in range(1, G.n + 1):
        groups.setdefault(find(v), []).append(v)
    return Partition(G.n, groups.values())


@pytest.mark.parametrize("G", GRAPHS, ids=format_graph)
def test_lattice_matches_the_definitions(G):
    L = lat.build_lattice(G)
    E = L.elements
    le = refinement_matrix(L)
    N = range(len(E))
    assert [[L.leq(i, j) for j in N] for i in N] == le
    assert L.covers() == brute_covers(le)
    memo = {}
    for i in N:
        for j in N:
            if le[i][j]:
                assert L.interval(E[i], E[j]) == [k for k in N if le[i][k] and le[k][j]]
                assert L.mobius(E[i], E[j]) == brute_mobius(le, i, j, memo)
            assert L.meet(E[i], E[j]) == meet_formula(G, E[i], E[j])
            assert L.join(E[i], E[j]) == join_formula(G, E[i], E[j])


@st.composite
def graphs_6_7(draw):
    n = draw(st.integers(6, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def nx_admissible_count(G):
    H = nx.Graph()
    H.add_nodes_from(range(1, G.n + 1))
    H.add_edges_from(G.edges)
    return sum(all(nx.is_connected(H.subgraph(b)) for b in blocks)
               for blocks in multiset_partitions(list(range(1, G.n + 1))))


@settings(max_examples=8, deadline=None)
@given(graphs_6_7(), st.randoms(use_true_random=False))
def test_lattice_beyond_the_exhaustive_bound(G, rng):
    L = lat.build_lattice(G)
    assert L.mobius(L.bottom, L.top) == pchr_deletion_contraction(G).coeff(cc(G))
    assert len(L) == nx_admissible_count(G)
    E = L.elements
    for _ in range(4):
        p, q = rng.choice(E), rng.choice(E)
        m, j = L.meet(p, q), L.join(p, q)
        assert m.refines(p) and m.refines(q) and p.refines(j) and q.refines(j)
        for r in E:
            if r.refines(p) and r.refines(q):
                assert r.refines(m)
            if p.refines(r) and q.refines(r):
                assert j.refines(r)
