import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
from graph_hopf import graphs
from graph_hopf import verify
from graph_hopf import wsym as ws
from graph_hopf.graphs import (
    Graph,
    Partition,
    admissible_partitions,
    all_graphs,
    block_map,
    complete,
    connected_components,
    contract,
    cycle_graph,
    edgeless,
    path_graph,
    random_graph,
    set_partitions,
)
from graph_hopf.linear import LinComb, Polynomial

K1, K2, K3 = complete(1), complete(2), complete(3)
P3 = path_graph(3)


def part(*blocks):
    n = sum(len(b) for b in blocks)
    return Partition(n, blocks)


def is_valid_coloring(G, f):
    """Oracle: f maps vertex i to f[i-1]; valid when adjacent vertices get
    distinct colors, tested one edge at a time."""
    return all(f[i - 1] != f[j - 1] for i, j in G.edges)


def words(n):
    return [w for w, _ in ws._packed_words(n)]


class TestPackedWords:
    def test_pack(self):
        assert ws.pack((3, 5, 3)) == (1, 2, 1)
        assert ws.pack(()) == ()

    def test_fiber_partition(self):
        assert ws.partition_of_word((1, 2, 1)) == part((1, 3), (2,))
        assert ws.partition_of_word((1, 2)) == ws.partition_of_word((2, 1))

    def test_rejects_unpacked(self):
        with pytest.raises(ValueError):
            ws.partition_of_word((1, 3))

    def test_pack_then_fibers_round_trip(self):
        for w in [(2, 2, 5), (4, 1, 4, 2)]:
            p = ws.partition_of_word(ws.pack(w))
            assert ws.expand_W(p).coeff(ws.pack(w)) == 1


class TestWBasis:
    def test_two_singletons(self):
        assert ws.expand_W(part((1,), (2,))) == LinComb.term((1, 2)) + LinComb.term((2, 1))

    def test_one_block(self):
        assert ws.expand_W(part((1, 2))) == LinComb.term((1, 1))

    def test_split_block(self):
        assert ws.expand_W(part((1, 3), (2,))) == LinComb.term((1, 2, 1)) + LinComb.term((2, 1, 2))

    def test_empty(self):
        assert ws.expand_W(Partition(0, [])) == LinComb.term(())

    def test_matches_packed_words_by_fiber_partition(self):
        for n in range(7):
            fibers = {}
            for w in words(n):
                fibers.setdefault(ws.partition_of_word(w), []).append(w)
            for p in set_partitions(n):
                assert ws.expand_W(p) == LinComb((w, 1) for w in fibers[p])


class TestHopfStructure:
    def test_product_examples(self):
        assert not verify.check_wsym_examples(4)

    def test_product_noncommutative_witness(self):
        a, b = part((1, 2)), part((1,))
        assert ws.wsym_product(a, b) != ws.wsym_product(b, a)

    def test_product_matches_word_level(self):
        # oracle: multiply word expansions inside all words of the joint length
        import itertools
        for p, q in [(part((1,)), part((1, 2))), (part((1,), (2,)), part((1,)))]:
            got = ws.expand(ws.wsym_product(p, q))
            k = p.n
            want = LinComb.zero()
            for w in words(p.n + q.n):
                if ws.pack(w[:k]) in ws.expand_W(p) and ws.pack(w[k:]) in ws.expand_W(q):
                    want = want + LinComb.term(w)
            assert got == want

    def test_coproduct_point(self):
        empty = Partition(0, [])
        single = part((1,))
        assert ws.wsym_coproduct(single) == (LinComb.term((single, empty))
                                             + LinComb.term((empty, single)))

    def test_cocommutative(self):
        assert not verify.check_wsym_cocommutativity(4)


class TestChromaticElement:
    def test_edge(self):
        assert ws.pchr_nc(K2) == LinComb.term(part((1,), (2,)))

    def test_triangle(self):
        assert ws.pchr_nc(K3) == LinComb.term(part((1,), (2,), (3,)))

    def test_path(self):
        assert ws.pchr_nc(P3) == (LinComb.term(part((1,), (2,), (3,)))
                                  + LinComb.term(part((1, 3), (2,))))

    def test_depends_on_labeling(self):
        other = Graph(3, [(1, 3), (2, 3)])
        assert ws.pchr_nc(other) == (LinComb.term(part((1,), (2,), (3,)))
                                     + LinComb.term(part((1, 2), (3,))))

    def test_word_expansion_is_valid_colorings(self):
        assert not verify.check_wsym_words(4)

    def test_morphism_laws_small(self):
        assert not verify.check_wsym_algebra_morphism(4)
        assert not verify.check_wsym_coalgebra_morphism(3)

    def test_triangularity_small(self):
        assert not verify.check_wsym_triangularity(4)


class TestClashMasks:
    def test_packed_words_filter_all_words(self):
        for n in range(6):
            everything = itertools.product(range(1, n + 1), repeat=n)
            assert words(n) == [f for f in everything if ws.is_packed(f)]

    def test_matches_per_edge_oracle_up_to_5(self):
        for n in range(6):
            for G in all_graphs(n):
                want = [f for f in words(n) if is_valid_coloring(G, f)]
                assert list(ws.packed_valid_colorings(G)) == want

    @settings(max_examples=10, deadline=None)
    @given(st.integers(6, 7), st.randoms(use_true_random=False), st.floats(0, 1))
    def test_matches_per_edge_oracle_on_6_to_7(self, n, rng, p):
        G = random_graph(n, rng, p)
        assert list(ws.packed_valid_colorings(G)) == [f for f in words(n)
                                                      if is_valid_coloring(G, f)]


def phi0_nc_per_word(G):
    """Oracle: the packed-coloring morphism as defined, one packed word at a
    time.  The components of f's fibers are those of the graph of f's
    monochromatic edges, built once per distinct edge set; no partition of
    [n] is formed first."""
    components = {}

    def word(f):
        mono = tuple((i, j) for i, j in G.edges if f[i - 1] == f[j - 1])
        if mono not in components:
            components[mono] = connected_components(Graph(G.n, mono))
        return tuple(f[comp[0] - 1] for comp in components[mono])

    return LinComb((word(f), 1) for f in words(G.n))


class TestColoringMorphism:
    def test_matches_per_word_oracle_up_to_4(self):
        for n in range(5):
            for G in all_graphs(n):
                assert ws.expand(ws.phi0_nc(G)) == phi0_nc_per_word(G)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 6), st.randoms(use_true_random=False), st.floats(0, 1))
    def test_matches_per_word_oracle_on_5_to_6(self, n, rng, p):
        G = random_graph(n, rng, p)
        assert ws.expand(ws.phi0_nc(G)) == phi0_nc_per_word(G)

    def test_components_found_once_per_vertex_mask(self, monkeypatch):
        calls = []
        find = graphs._component_of

        def counted(adj, seed, within):
            calls.append(within)
            return find(adj, seed, within)

        monkeypatch.setattr(graphs, "_component_of", counted)
        ws.phi0_nc.__wrapped__(cycle_graph(7))
        # one search per nonempty vertex mask; one set of searches per set
        # partition made 4,719 for the Bell(7) = 877 partitions
        assert len(calls) <= 2 ** 7

    def test_point(self):
        assert ws.expand(ws.phi0_nc(K1)) == LinComb.term((1,))

    def test_edge(self):
        want = LinComb.term((1,)) + LinComb.term((1, 2)) + LinComb.term((2, 1))
        assert ws.expand(ws.phi0_nc(K2)) == want

    def test_edgeless_pair(self):
        want = LinComb.term((1, 1)) + LinComb.term((1, 2)) + LinComb.term((2, 1))
        assert ws.expand(ws.phi0_nc(edgeless(2))) == want

    def test_monochrome_path_contracts(self):
        # coloring (1, 1, 1) of the path collapses to the single word 1
        assert ws.expand(ws.phi0_nc(P3)).coeff((1,)) == 1


class TestColoringMorphismOnW:
    def test_empty(self):
        assert ws.phi0_nc(Graph(0)) == LinComb.term(Partition(0, []))

    def test_point(self):
        assert ws.phi0_nc(K1) == LinComb.term(part((1,)))

    def test_edge(self):
        # one block contracts the edge to a point; two blocks keep both ends
        assert ws.phi0_nc(K2) == LinComb.term(part((1,))) + LinComb.term(part((1,), (2,)))

    def test_edgeless_pair(self):
        assert ws.phi0_nc(edgeless(2)) == LinComb.term(part((1, 2))) + LinComb.term(part((1,), (2,)))

    def test_path(self):
        # {1,3}{2} splits into components 1, 2, 3 with 1 and 3 in one block
        want = LinComb([(part((1,)), 1), (part((1,), (2,)), 2), (part((1, 3), (2,)), 1),
                        (part((1,), (2,), (3,)), 1)])
        assert ws.phi0_nc(P3) == want

    def test_components_numbered_by_minima(self):
        # on the path 1-2-3-4, block {1,2,4} has components {1,2} and {4},
        # numbered 1 and 3 around the component {3} of the other block; so do
        # {1,3,4}{2} and {1,4}{2,3}.  Block by block, all three read {1,2}{3}.
        Q = ws.phi0_nc(path_graph(4))
        assert Q.coeff(part((1, 3), (2,))) == 3
        assert Q.coeff(part((1, 2), (3,))) == 0
        # interleaved blocks are numbered by minima, not block by block
        assert Q.coeff(part((1, 3), (2, 4))) == 1

    def test_complete_and_edgeless(self):
        # on K5 every block is connected: W of k singletons, Stirling S(5, k) times
        want = LinComb((Partition.singletons(k), s) for k, s in zip(range(1, 6), [1, 15, 25, 10, 1]))
        assert ws.phi0_nc(complete(5)) == want
        # without edges Q(G, p) = p: each of the Bell(5) = 52 set partitions once
        assert ws.phi0_nc(edgeless(5)) == LinComb((p, 1) for p in set_partitions(5))


class TestAction:
    def test_edge_by_hand(self):
        got = ws.act_nc(K2, ch.LAMBDA_CHR)
        assert ws.expand(got) == LinComb.term((1, 2)) + LinComb.term((2, 1))
        assert got == ws.pchr_nc(K2)

    def test_point_identity(self):
        assert ws.expand(ws.act_nc(K1, ch.LAMBDA_CHR)) == LinComb.term((1,))

    def test_path(self):
        assert ws.expand(ws.act_nc(P3, ch.LAMBDA_CHR)) == ws.expand(ws.pchr_nc(P3))

    def test_on_w_basis(self):
        assert ws.act_nc(P3, ch.LAMBDA_CHR) == ws.pchr_nc(P3)
        assert ws.act_nc(K1, ch.LAMBDA_CHR) == LinComb.term(part((1,)))

    def test_all_indexed_graphs_small(self):
        assert not verify.check_wsym_action(4)

    @pytest.mark.parametrize("lam", [ch.LAMBDA_CHR, ch.LAMBDA_ZERO, ch.EPSILON_PRIME],
                             ids=lambda lam: lam.name)
    def test_one_dict_sum_matches_list_and_merge(self, lam):
        for n in range(5):
            for G in all_graphs(n):
                assert ch.act(ws.phi0_nc, lam)(G) == act_by_list_and_merge(ws.phi0_nc, lam, G)


def act_by_list_and_merge(phi, lam, G):
    """Oracle: the action on a LinComb-valued phi as one LinComb per
    admissible partition, zero weights included, merged at the end."""
    lam_of = block_map(G, lam.of_connected)
    values = [phi(contract(G, p)) * math.prod(map(lam_of, p.masks))
              for p in admissible_partitions(G)]
    return LinComb(term for value in values for term in value.terms())


@settings(max_examples=5, deadline=None)
@given(st.integers(6, 7), st.randoms(use_true_random=False), st.floats(0.2, 0.8))
def test_coloring_morphism_beyond_the_exhaustive_bound(n, rng, p):
    G = random_graph(n, rng, p)
    assert ws.act_nc(G, ch.LAMBDA_CHR) == ws.pchr_nc(G)
    assert ws.hilbert_morphism(ws.phi0_nc(G)) == chrom.phi_zero(G)
    assert ws.expand(ws.phi0_nc(G)) == phi0_nc_per_word(G)


class TestHilbertProjection:
    def test_single_letter(self):
        assert ws.hilbert_morphism(LinComb.term((1,))) == Polynomial.x()

    def test_coloring_morphism_of_edgeless_pair(self):
        got = ws.hilbert_morphism(ws.phi0_nc(edgeless(2)))
        assert got == Polynomial.x() ** 2

    def test_chromatic_element_of_edge(self):
        got = ws.hilbert_morphism(ws.pchr_nc(K2))
        assert got == Polynomial([0, -1, 1])  # X(X-1)

    def test_word_and_w_basis_agree(self):
        for G in [K2, K3, P3, edgeless(3)]:
            element = ws.pchr_nc(G)
            assert ws.hilbert_morphism(element) == ws.hilbert_morphism(ws.expand(element))

    def test_intertwines_both_morphisms(self):
        assert not verify.check_projection_chromatic(4)

    def test_algebra_morphism(self):
        assert not verify.check_hilbert_algebra_morphism(4)
