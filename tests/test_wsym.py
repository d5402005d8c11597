import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
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
    contract_edge,
    cycle_graph,
    delete_edge,
    edgeless,
    path_graph,
    set_partitions,
)
from graph_hopf.linear import LinComb, Polynomial

from helpers import expand_W, hilbert_by_fractions, pack, partition_of_word, random_graph

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
        assert pack((3, 5, 3)) == (1, 2, 1)
        assert pack(()) == ()

    def test_fiber_partition(self):
        assert partition_of_word((1, 2, 1)) == part((1, 3), (2,))
        assert partition_of_word((1, 2)) == partition_of_word((2, 1))

    def test_rejects_unpacked(self):
        with pytest.raises(ValueError):
            partition_of_word((1, 3))

    def test_pack_then_fibers_round_trip(self):
        for w in [(2, 2, 5), (4, 1, 4, 2)]:
            p = partition_of_word(pack(w))
            assert expand_W(p).coeff(pack(w)) == 1


class TestWBasis:
    def test_two_singletons(self):
        assert expand_W(part((1,), (2,))) == LinComb.term((1, 2)) + LinComb.term((2, 1))

    def test_one_block(self):
        assert expand_W(part((1, 2))) == LinComb.term((1, 1))

    def test_split_block(self):
        assert expand_W(part((1, 3), (2,))) == LinComb.term((1, 2, 1)) + LinComb.term((2, 1, 2))

    def test_empty(self):
        assert expand_W(Partition(0, [])) == LinComb.term(())

    def test_matches_packed_words_by_fiber_partition(self):
        for n in range(7):
            fibers = {}
            for w in words(n):
                fibers.setdefault(partition_of_word(w), []).append(w)
            for p in set_partitions(n):
                assert expand_W(p) == LinComb((w, 1) for w in fibers[p])


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
                if pack(w[:k]) in expand_W(p) and pack(w[k:]) in expand_W(q):
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

    def test_keys_are_the_shared_partitions_once_each(self):
        # the dict of independent partitions is adopted as it is: no key may
        # be a copy, and every coefficient is the int 1
        for n in range(5):
            shared = {id(p) for p in set_partitions(n)}
            for G in all_graphs(n):
                terms = ws.pchr_nc.__wrapped__(G).terms()
                assert all(id(p) in shared for p, _ in terms)
                assert all(type(c) is int and c == 1 for _, c in terms)

    def test_word_expansion_is_valid_colorings(self):
        assert not verify.check_wsym_words(4)

    def test_morphism_laws_small(self):
        assert not verify.check_wsym_algebra_morphism(4)
        assert not verify.check_wsym_coalgebra_morphism(3)

    def test_triangularity_small(self):
        assert not verify.check_wsym_triangularity(4)


def pchr_nc_by_deletion_contraction(G):
    """Oracle for `pchr_nc`, after Gebhard-Sagan (J. Algebraic Combin. 2001)
    on the W basis: for the last edge uv, Y_G = Y_{G-uv} - lift(Y_{G/uv}).
    `contract_edge` numbers the vertices of G/uv by their rank in [n] minus
    {v}; lift puts v in u's block.  An edgeless graph gives every set
    partition of [n] once.  Each labelled graph met is expanded once."""
    memo = {}

    def Y(H):
        if H in memo:
            return memo[H]
        if not H.edges:
            out = LinComb((p, 1) for p in set_partitions(H.n))
        else:
            u, v = e = H.edges[-1]
            lifted = Y(contract_edge(H, e)).map_keys(
                lambda q: Partition.of_labels(q.growth[:v - 1] + (q.growth[u - 1],)
                                              + q.growth[v - 1:]))
            out = Y(delete_edge(H, e)) - lifted
        return memo.setdefault(H, out)

    return Y(G)


class TestChromaticElementPastTheExhaustiveBound:
    def test_small_graphs_by_deletion_contraction(self):
        for n in range(5):
            for G in all_graphs(n):
                assert pchr_nc_by_deletion_contraction(G) == ws.pchr_nc.__wrapped__(G)

    def test_random_graphs_on_7_to_9_vertices(self):
        rng = random.Random(34)
        for n, p in zip((7, 7, 8, 8, 8, 9, 9), (0.3, 0.7, 0.2, 0.5, 0.8, 0.4, 0.6)):
            G = random_graph(n, rng, p)
            assert pchr_nc_by_deletion_contraction(G) == ws.pchr_nc.__wrapped__(G)


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
        find = ws._component_of

        def counted(adj, seed, within):
            calls.append(within)
            return find(adj, seed, within)

        monkeypatch.setattr(ws, "_component_of", counted)
        ws.phi0_nc.__wrapped__(cycle_graph(7))
        # one search per nonempty vertex mask; one set of searches per set
        # partition made 4,719 for the Bell(7) = 877 partitions
        assert len(calls) == 2 ** 7 - 1
        assert sorted(calls) == list(range(2, 2 ** 8, 2))  # vertex v is bit v

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


def act_by_list_and_merge(phi, lam, G):
    """Oracle: the action on a LinComb-valued phi as one LinComb per
    admissible partition, zero weights included, merged at the end."""
    lam_of = block_map(G, lam.of_connected)
    values = [phi(contract(G, p)) * math.prod(map(lam_of, p.masks))
              for p in admissible_partitions(G)]
    return LinComb(term for value in values for term in value.terms())


def act_by_polynomial_sum(phi, lam, G):
    """Oracle: the action on a Polynomial-valued phi, one product per
    admissible partition, zero weights included, added in turn."""
    lam_of = block_map(G, lam.of_connected)
    return sum((phi(contract(G, p)) * math.prod(map(lam_of, p.masks))
                for p in admissible_partitions(G)), Polynomial.zero())


class TestAction:
    def test_edge_by_hand(self):
        got = ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(K2)
        assert ws.expand(got) == LinComb.term((1, 2)) + LinComb.term((2, 1))
        assert got == ws.pchr_nc(K2)

    def test_point_identity(self):
        assert ws.expand(ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(K1)) == LinComb.term((1,))

    def test_path(self):
        assert ws.expand(ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(P3)) == ws.expand(ws.pchr_nc(P3))

    def test_on_w_basis(self):
        assert ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(P3) == ws.pchr_nc(P3)
        assert ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(K1) == LinComb.term(part((1,)))

    def test_all_indexed_graphs_small(self):
        assert not verify.check_wsym_action(4)

    @pytest.mark.parametrize("lam", [ch.LAMBDA_CHR, ch.LAMBDA_ZERO, ch.EPSILON_PRIME],
                             ids=lambda lam: lam.name)
    def test_one_dict_sum_matches_list_and_merge(self, lam):
        for n in range(5):
            for G in all_graphs(n):
                assert ch.act(ws.phi0_nc, lam)(G) == act_by_list_and_merge(ws.phi0_nc, lam, G)

    @pytest.mark.parametrize("lam", [ch.LAMBDA_CHR, ch.LAMBDA_ZERO, ch.EPSILON_PRIME],
                             ids=lambda lam: lam.name)
    @pytest.mark.parametrize("phi, oracle", [(ws.phi0_nc, act_by_list_and_merge),
                                             (chrom.phi_zero, act_by_polynomial_sum)],
                             ids=["phi0_nc", "phi_zero"])
    def test_one_block_table_shared_across_graphs(self, lam, phi, oracle):
        """One action over every labelled graph with at most 5 vertices, the
        sizes taken down and then up, so that graphs of each size read
        entries that graphs of larger and of smaller sizes left: a key that
        lost n, or the edges inside its block, reads another graph's value."""
        acted = ch.act(phi, lam)
        for n in (4, 2, 0, 1, 3, 5):
            for G in all_graphs(n):
                assert acted(G) == oracle(phi, lam, G)

    @pytest.mark.parametrize("phi, zero", [(ws.phi0_nc, LinComb()),
                                           (chrom.phi_zero, Polynomial.zero())],
                             ids=["phi0_nc", "phi_zero"])
    def test_empty_graph_and_a_character_that_vanishes_on_a_point(self, phi, zero):
        # a character that vanishes on K1 weighs each partition with a
        # singleton block 0, so an edgeless graph acts to 0 by zero weights
        assert ch.act(phi, ch.LAMBDA_CHR)(Graph(0)) == phi(Graph(0))
        acted = ch.act(phi, ch.Character(lambda G: G.n - 1, "n-1"))
        assert acted(Graph(0)) == phi(Graph(0))
        assert acted(K1) == zero
        assert acted(K2) == phi(K1)
        assert acted(edgeless(3)) == zero
        assert acted(P3) == phi(K1) * 2


@settings(max_examples=5, deadline=None)
@given(st.integers(6, 7), st.randoms(use_true_random=False), st.floats(0.2, 0.8))
def test_coloring_morphism_beyond_the_exhaustive_bound(n, rng, p):
    G = random_graph(n, rng, p)
    assert ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(G) == ws.pchr_nc(G)
    assert ws.hilbert_morphism(ws.phi0_nc(G)) == chrom.phi_zero(G)
    assert ws.expand(ws.phi0_nc(G)) == phi0_nc_per_word(G)


class TestHilbertProjection:
    def test_single_letter(self):
        # the W element of the one-point partition is the one-letter word 1
        assert ws.hilbert_morphism(LinComb.term(part((1,)))) == Polynomial.x()

    def test_zero(self):
        assert ws.hilbert_morphism(LinComb()) == Polynomial.zero()
        assert ws.hilbert_morphism(LinComb()).coeffs == ()

    def test_cancelling_units_are_stripped(self):
        # two 2-block partitions with opposite coefficients cancel in the
        # X(X-1) unit, leaving 3 W{123} = 3X, of degree 1 and not 2
        x = LinComb([(part((1, 2), (3,)), 1), (part((1,), (2, 3)), -1), (part((1, 2, 3)), 3)])
        assert ws.hilbert_morphism(x).coeffs == (0, 3)
        assert ws.hilbert_morphism(x - LinComb.term(part((1, 2, 3)), 3)) == Polynomial.zero()

    def test_coloring_morphism_of_edgeless_pair(self):
        got = ws.hilbert_morphism(ws.phi0_nc(edgeless(2)))
        assert got == Polynomial.x() ** 2

    def test_chromatic_element_of_edge(self):
        got = ws.hilbert_morphism(ws.pchr_nc(K2))
        assert got == Polynomial([0, -1, 1])  # X(X-1)

    def test_word_and_w_basis_agree(self):
        for G in [K2, K3, P3, edgeless(3)]:
            element = ws.pchr_nc(G)
            assert ws.hilbert_morphism(element) == hilbert_by_fractions(ws.expand(element))

    def test_intertwines_both_morphisms(self):
        assert not verify.check_projection_chromatic(4)

    def test_algebra_morphism(self):
        assert not verify.check_hilbert_algebra_morphism(4)


def expand_by_bind(x):
    """Oracle: one LinComb of words per W key, merged by `bind`."""
    return x.bind(expand_W)


class TestOneRouteAgainstTheOther:
    """`hilbert_morphism` in integer falling-factorial units and the one-dict
    `expand` against the Fraction sum and the per-key `bind` they replaced;
    the word projection, which the package no longer has, against the W one."""

    def test_on_every_labelled_graph_up_to_5(self):
        for n in range(6):
            for G in all_graphs(n):
                for x in (ws.pchr_nc(G), ws.phi0_nc(G), ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(G)):
                    assert ws.expand(x) == expand_by_bind(x)
                    assert ws.hilbert_morphism(x) == hilbert_by_fractions(x)

    COEFFS = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=12))
    W_KEYS = [p for n in range(6) for p in set_partitions(n)]
    WORD_KEYS = [w for n in range(6) for w in words(n)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(W_KEYS), COEFFS), max_size=8))
    @example([(Partition(0, []), 1)])
    @example([(Partition(0, []), Fraction(-3, 4)), (Partition.singletons(3), Fraction(1, 6))])
    def test_on_w_basis_elements(self, terms):
        x = LinComb(terms)
        assert ws.expand(x) == expand_by_bind(x)
        assert ws.hilbert_morphism(x) == hilbert_by_fractions(x)
        assert hilbert_by_fractions(ws.expand(x)) == ws.hilbert_morphism(x)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(WORD_KEYS), COEFFS), max_size=8))
    @example([((), 1)])
    @example([((), Fraction(5, 2)), ((1, 2, 1), Fraction(1, 3)), ((3, 1, 2), 2)])
    def test_on_word_basis_elements(self, terms):
        # a word w with k letters is 1/k! of the W element of its fiber
        # partition, and its projection H_k is 1/k! of that of k! H_k
        x = LinComb(terms)
        regrouped = LinComb((partition_of_word(w), Fraction(c, math.factorial(max(w, default=0))))
                            for w, c in x.terms())
        assert hilbert_by_fractions(x) == ws.hilbert_morphism(regrouped)
