import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from graph_hopf import chromatic as chrom
from graph_hopf import verify
from graph_hopf.graphs import (
    Graph,
    Partition,
    acyclic_orientation_count,
    acyclic_orientations,
    admissible_partitions,
    all_graphs,
    complete,
    cycle_graph,
    disjoint_union,
    edgeless,
    extract,
    graph_isoclasses,
    isoclasses_up_to,
    path_graph,
    random_graph,
    restrict,
    set_partitions,
)
from graph_hopf.linear import Polynomial, falling_factorial

K1, K2, K3, K4 = complete(1), complete(2), complete(3), complete(4)
P3 = path_graph(3)
X = Polynomial.x()


def stanley_pairs_per_edge(G, k):
    """Oracle: the monotone pairs (f, O) counted one oriented edge at a time,
    each orientation turned back into directed pairs."""
    orientations = [[(i, j) if o >> e & 1 else (j, i) for e, (i, j) in enumerate(G.edges)]
                    for o in acyclic_orientations(G)]
    total = 0
    for f in itertools.product(range(1, k + 1), repeat=G.n):
        for orient in orientations:
            if all(f[u - 1] <= f[v - 1] for u, v in orient):
                total += 1
    return total


def networkx_chromatic(G):
    """Oracle: the chromatic polynomial that networkx computes in sympy."""
    H = nx.Graph()
    H.add_nodes_from(range(1, G.n + 1))
    H.add_edges_from(G.edges)
    poly = sympy.Poly(nx.chromatic_polynomial(H), sympy.Symbol("x"))
    return Polynomial([int(c) for c in reversed(poly.all_coeffs())])


def independent_by_restriction(G):
    """Oracle: the partitions whose induced subgraphs on every block have no edge."""
    return [p for p in set_partitions(G.n) if all(not restrict(G, b).edges for b in p.blocks)]


def independent_by_scan(G):
    """Oracle: every set partition scanned against the table of independent
    vertex masks, each mask independent when it is without its least vertex
    v and v has no neighbour in it."""
    adj = G.adj
    independent = [True] * (1 << (G.n + 1))
    for m in range(2, len(independent), 2):
        low = m & -m
        independent[m] = independent[m ^ low] and not adj[low.bit_length() - 1] & m
    return [p for p in set_partitions(G.n) if all(map(independent.__getitem__, p.masks))]


class TestPartitionEngine:
    def test_point(self):
        assert chrom.pchr_partition(K1) == X

    def test_complete_graphs_are_falling_factorials(self):
        for n in range(1, 6):
            assert chrom.pchr_partition(complete(n)) == falling_factorial(n)

    def test_path(self):
        assert chrom.pchr_partition(P3) == X * (X - Polynomial.one()) ** 2

    def test_independent_partitions_of_path(self):
        got = set(chrom.independent_partitions(P3))
        assert got == {Partition.singletons(3), Partition(3, [(1, 3), (2,)])}

    def test_independent_partitions_match_restriction_filter(self):
        rng = random.Random(5)
        graphs = [G for n in range(6) for G in all_graphs(n)]
        graphs += [random_graph(n, rng, p) for n in (6, 7, 8) for p in (0.2, 0.5)]
        for G in graphs:
            assert list(chrom.independent_partitions(G)) == independent_by_restriction(G)

    def test_direct_generator_yields_the_scanned_table_entries(self):
        rng = random.Random(17)
        graphs = [G for n in range(6) for G in all_graphs(n)]
        graphs += [make(n) for n in range(6, 10) for make in (edgeless, complete)]
        graphs += [random_graph(n, rng, p) for n in range(6, 10) for p in (0.2, 0.5, 0.8)]
        for G in graphs:
            got, want = list(chrom.independent_partitions(G)), independent_by_scan(G)
            assert len(got) == len(want)
            assert all(p is q for p, q in zip(got, want))


class TestDeletionContractionEngine:
    def test_edge(self):
        assert chrom.pchr_deletion_contraction(K2) == X * X - X

    def test_four_cycle(self):
        shifted = X - Polynomial.one()
        assert chrom.pchr_deletion_contraction(cycle_graph(4)) == shifted ** 4 + shifted

    def test_edgeless_base_case(self):
        assert chrom.pchr_deletion_contraction(edgeless(3)) == X ** 3


class TestCharacterEngine:
    def test_edge(self):
        assert chrom.pchr_character_formula(K2) == X * X - X

    def test_triangle(self):
        assert chrom.pchr_character_formula(K3) == Polynomial([0, 2, -3, 1])

    def test_point(self):
        assert chrom.pchr_character_formula(K1) == X


class TestEngineAgreement:
    def test_all_isoclasses_small(self):
        assert not verify.check_chromatic_engines(4)

    def test_random_graphs(self):
        rng = random.Random(7)
        for _ in range(10):
            G = random_graph(6, rng)
            polys = {engine(G) for engine in chrom.ENGINES.values()}
            assert len(polys) == 1


class TestColoringCounts:
    def test_triangle(self):
        assert chrom.count_valid_colorings(K3, 3) == 6

    def test_edge_with_one_color(self):
        assert chrom.count_valid_colorings(K2, 1) == 0

    def test_edgeless(self):
        assert chrom.count_valid_colorings(edgeless(4), 2) == 16

    def test_zero_colors(self):
        assert chrom.count_valid_colorings(Graph(0), 0) == 1
        assert chrom.count_valid_colorings(K1, 0) == 0

    def test_counts_match_polynomial(self):
        for G in graph_isoclasses(4):
            P = chrom.pchr_deletion_contraction(G)
            for k in range(5):
                assert P(k) == chrom.count_valid_colorings(G, k)


class TestHomogeneousMorphism:
    def test_values(self):
        assert chrom.phi_zero(K1) == X
        assert chrom.phi_zero(K3) == X ** 3
        assert chrom.phi_zero(disjoint_union(K2, K2)) == X ** 4


class TestCompatibilityLaws:
    def test_sum_split(self):
        # P(x + y) equals the bipartition sum of products of restrictions
        import itertools
        points = [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 3))]
        for G in graph_isoclasses(4):
            P = chrom.pchr_deletion_contraction(G)
            for x, y in points:
                total = Fraction(0)
                verts = range(1, G.n + 1)
                for r in range(G.n + 1):
                    for left in itertools.combinations(verts, r):
                        right = [v for v in verts if v not in left]
                        total += (chrom.pchr_deletion_contraction(restrict(G, left))(x)
                                  * chrom.pchr_deletion_contraction(restrict(G, right))(y))
                assert total == P(x + y)

    def test_product_split(self):
        # P(x * y) equals the contraction-extraction sum
        from graph_hopf.graphs import contract
        points = [(Fraction(2), Fraction(3)), (Fraction(-2), Fraction(7, 2))]
        for G in graph_isoclasses(4):
            P = chrom.pchr_deletion_contraction(G)
            for x, y in points:
                total = Fraction(0)
                for p in admissible_partitions(G):
                    total += (chrom.pchr_deletion_contraction(contract(G, p))(x)
                              * chrom.pchr_deletion_contraction(extract(G, p))(y))
                assert total == P(x * y)

    def test_value_at_one_is_counit(self):
        assert not verify.check_eval_at_one(5)

    def test_rota_signs(self):
        assert not verify.check_rota_signs(5)


class TestNegativeValues:
    def test_single_edge_families(self):
        assert chrom.stanley_families(K2, 1) == 2
        assert chrom.stanley_families(K2, 1) == chrom.pchr_deletion_contraction(K2)(-1)

    def test_triangle_orientations(self):
        P = chrom.pchr_deletion_contraction(K3)
        assert (-1) ** 3 * P(-1) == 6 == acyclic_orientation_count(K3)

    def test_edgeless_pair(self):
        assert chrom.stanley_families(edgeless(2), 2) == 4
        assert list(chrom.stanley_pairs(edgeless(2), (2,))) == [4]

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            chrom.stanley_families(K2, 0)
        with pytest.raises(ValueError):
            list(chrom.stanley_pairs(K2, (1, 0)))

    def test_identities_small(self):
        assert not verify.check_stanley(4)


class TestMonotonePairs:
    """The orientation-mask count against the per-edge oracle."""

    def test_matches_per_edge_oracle_up_to_5(self):
        for G in isoclasses_up_to(5):
            assert tuple(chrom.stanley_pairs(G, verify.STANLEY_KS)) == tuple(
                stanley_pairs_per_edge(G, k) for k in verify.STANLEY_KS), G

    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False), st.floats(0, 1))
    def test_matches_per_edge_oracle_on_6(self, rng, p):
        G = random_graph(6, rng, p)
        assert tuple(chrom.stanley_pairs(G, verify.STANLEY_KS)) == tuple(
            stanley_pairs_per_edge(G, k) for k in verify.STANLEY_KS)


class TestNetworkxOracle:
    """networkx's chromatic polynomial against the three engines and both
    readings of its values at negative integers.  networkx works by
    deletion-contraction in sympy, whose time grows fast with the edge count
    (0.15 s at 10 edges, 3 s on K6), so the graphs have at most 10 edges."""

    @settings(max_examples=10, deadline=None)
    @given(st.sets(st.sampled_from(complete(6).edges), max_size=10))
    def test_on_6(self, edges):
        G = Graph(6, edges)
        P = networkx_chromatic(G)
        for engine in chrom.ENGINES.values():
            assert engine(G) == P
        pairs = chrom.stanley_pairs(G, verify.STANLEY_KS)
        for k, count in zip(verify.STANLEY_KS, pairs):
            expected = (-1) ** G.n * P(-k)
            assert chrom.stanley_families(G, k) == expected
            assert count == expected
