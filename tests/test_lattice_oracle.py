"""The admissible-partition lattice against direct definitions.

Exhaustive over every isoclass with at most 5 vertices and every labeled
graph with at most 4: the order is `Partition.refines`, the Hasse diagram is
the transitive reduction found by scanning every triple, the Mobius function
is its defining recursion, and meet and join are the partition formulas
(components of pairwise block intersections; union-find over both block
lists).  Beyond that bound, random labeled graphs on 6-7 vertices are checked
against Whitney's theorem, a networkx count of the admissible partitions, the
greatest-lower / least-upper bound property of meet and join, and (on 6
vertices) the real `check_lattice_laws`.  The equational lattice laws,
scanned on L x L meet and join tables, are the oracle of `verify`'s order
and glb/lub check: both pass on every isoclass with at most 5 vertices, and
under three broken lattices every graph the scan flags is flagged.  The
lattice's own fast paths, the keyed sort of its elements, the meet and join
read through the flats and the one-pass interval quotient, are compared with
the routes they replaced on every labeled graph with at most 5 vertices and
on seeded random graphs with 6-7.  The lattice is read by element index:
intervals are `up[i] & down[j]`, meets and joins `meet_index` and `join_index`.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from sympy.utilities.iterables import multiset_partitions

from graph_hopf import lattice as lat, verify
from graph_hopf.chromatic import pchr_deletion_contraction
from graph_hopf.graphs import (
    Graph,
    Partition,
    _bits,
    admissible_partitions,
    all_graphs,
    cc,
    component_masks,
    components_partition,
    components_within,
    contract,
    extract,
    format_graph,
    isoclasses_up_to,
)

from helpers import random_graph

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


def meet_masks_by_search(L, i, j):
    """Oracle: the meet's block masks with every block intersection searched
    for components afresh, as before the lattice read flats."""
    return frozenset(comp for a in L.elements[i].masks for b in L.elements[j].masks if a & b
                     for comp in component_masks(L.G, a & b))


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
                interval = [k for k in N if le[i][k] and le[k][j]]
                assert list(_bits(L.up[i] & L.down[j])) == interval
                assert L.mobius(E[i], E[j]) == brute_mobius(le, i, j, memo)
            assert E[L.meet_index(i, j)] == meet_formula(G, E[i], E[j])
            assert E[L.join_index(i, j)] == join_formula(G, E[i], E[j])


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
    if G.n == 6:  # a 7-vertex lattice law check takes up to seconds
        assert not list(verify.check_lattice_laws.one(G))
    L = lat.build_lattice(G)
    assert L.mobius(L.bottom, L.top) == pchr_deletion_contraction(G).coeff(cc(G))
    assert len(L) == nx_admissible_count(G)
    E = L.elements
    for _ in range(4):
        a, b = rng.randrange(len(E)), rng.randrange(len(E))
        p, q, m, j = E[a], E[b], E[L.meet_index(a, b)], E[L.join_index(a, b)]
        assert m.refines(p) and m.refines(q) and p.refines(j) and q.refines(j)
        for r in E:
            if r.refines(p) and r.refines(q):
                assert r.refines(m)
            if p.refines(r) and q.refines(r):
                assert j.refines(r)


def equational_law_broken(L):
    """Oracle: the first of the equational lattice laws that L x L meet and
    join tables break, scanned one by one, then the glb/lub law, or None."""
    N = range(len(L))
    meet = [[L.meet_index(i, j) for j in N] for i in N]
    join = [[L.join_index(i, j) for j in N] for i in N]
    if any(meet[i][i] != i or join[i][i] != i for i in N):
        return "idempotence"
    for i, j in itertools.product(N, repeat=2):
        if meet[i][j] != meet[j][i] or join[i][j] != join[j][i]:
            return "commutativity"
        if join[i][meet[i][j]] != i or meet[i][join[i][j]] != i:
            return "absorption"
    for i, j, k in itertools.product(N, repeat=3):
        if meet[meet[i][j]][k] != meet[i][meet[j][k]]:
            return "meet associativity"
        if join[join[i][j]][k] != join[i][join[j][k]]:
            return "join associativity"
    bot, top = L.index(L.bottom), L.index(L.top)
    if any(meet[i][bot] != bot or join[i][top] != top for i in N):
        return "bounds"
    for i, j in itertools.product(N, repeat=2):
        if L.down[meet[i][j]] != L.down[i] & L.down[j] or L.up[join[i][j]] != L.up[i] & L.up[j]:
            return "glb/lub"
    return None


def test_order_check_and_equational_scan_pass_up_to_5_vertices():
    for G in isoclasses_up_to(5):
        L = lat.build_lattice(G)
        assert (equational_law_broken(L), verify._broken_law(L)) == (None, None), format_graph(G)


def _relabelled(monkeypatch):
    """Meet and join conjugated by the swap of the first atom and the first
    coatom, on lattices of rank at least 3: every equational law holds."""
    def swap(L):
        ranks = [L.G.n - len(p) for p in L.elements]
        if max(ranks) < 3:
            return lambda i: i
        a, c = ranks.index(1), ranks.index(max(ranks) - 1)
        return lambda i: c if i == a else a if i == c else i

    for name in ("meet_index", "join_index"):
        def conjugated(L, i, j, original=getattr(lat.AdmissibleLattice, name)):
            s = swap(L)
            return s(original(L, s(i), s(j)))

        monkeypatch.setattr(lat.AdmissibleLattice, name, conjugated)


def _bottom_is_top(monkeypatch):
    monkeypatch.setattr(lat.AdmissibleLattice, "bottom",
                        property(lambda L: components_partition(L.G)))


def _up_holds_only_itself(monkeypatch):
    """The up masks that `self.up[i] |= 1 << i` builds in place of `1 << j`."""
    init = lat.AdmissibleLattice.__init__

    def mutated(L, G):
        init(L, G)
        L.up = [1 << i for i in range(len(L))]

    monkeypatch.setattr(lat.AdmissibleLattice, "__init__", mutated)


@pytest.mark.parametrize("substitute", [_relabelled, _bottom_is_top, _up_holds_only_itself],
                         ids=lambda f: f.__name__.strip("_"))
def test_order_check_flags_every_graph_the_equational_scan_flags(monkeypatch, substitute):
    substitute(monkeypatch)
    scan, order = set(), set()
    for G in isoclasses_up_to(5):
        L = lat.build_lattice(G)
        if equational_law_broken(L):
            scan.add(G)
        if verify._broken_law(L):
            order.add(G)
    assert scan and scan <= order


def fast_path_graphs():
    rng = random.Random(1811)
    yield from (G for n in range(6) for G in all_graphs(n))
    yield from (random_graph(n, rng, p) for n in (6, 7) for p in (0.3, 0.6) for _ in range(2))


def test_fast_paths_equal_the_routes_they_replaced():
    """The elements sorted by their blocks are `sorted` by `Partition.__lt__`;
    the meet and join read through the flats are the searched meet and the
    union-find join, on up to 40 sampled pairs per graph (every pair below 8
    elements); and the one-pass quotient is contract(extract(G, q), p) on
    every interval [p, q]."""
    rng = random.Random(1812)
    for G in fast_path_graphs():
        L = lat.build_lattice(G)
        E = L.elements
        assert E == sorted(admissible_partitions(G))
        N = range(len(L))
        pairs = [(i, j) for i in N for j in N]
        for i, j in (pairs if len(pairs) <= 64 else rng.sample(pairs, 40)):
            assert frozenset(E[L.meet_index(i, j)].masks) == meet_masks_by_search(L, i, j)
            assert E[L.join_index(i, j)] == join_formula(G, E[i], E[j])
        for i, j in pairs:
            if L.leq(i, j):
                assert L.quotient(i, j) == contract(extract(G, E[j]), E[i])
