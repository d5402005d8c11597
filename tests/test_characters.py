import math
from fractions import Fraction

import pytest

from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
from graph_hopf import verify
from graph_hopf.graphs import (
    complete,
    connected_isoclasses,
    cycle_graph,
    disjoint_union,
    edgeless,
    graph_isoclasses,
    path_graph,
)
from graph_hopf.linear import Polynomial

K1, K2, K3, K4 = complete(1), complete(2), complete(3), complete(4)
P3 = path_graph(3)


class TestChromaticCharacterValues:
    def test_table(self):
        for G, want in [(K1, 1), (K2, -1), (K3, 2), (P3, 1), (K4, -6)]:
            assert ch.LAMBDA_CHR(G) == want

    def test_complete_graphs(self):
        for n in range(1, 7):
            assert ch.LAMBDA_CHR(complete(n)) == Fraction(-1) ** (n - 1) * math.factorial(n - 1)

    def test_trees(self):
        for tree in [path_graph(2), path_graph(3), path_graph(4), path_graph(5),
                     complete(1)]:
            assert ch.LAMBDA_CHR(tree) == Fraction(-1) ** (tree.n - 1)

    def test_four_vertex_connected_table(self):
        # all six connected shapes on four vertices, by explicit construction
        from graph_hopf.graphs import Graph
        diamond = Graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        paw = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        star = Graph(4, [(1, 2), (1, 3), (1, 4)])
        values = {
            ch.LAMBDA_CHR(K4): -6,
            ch.LAMBDA_CHR(diamond): -4,
            ch.LAMBDA_CHR(cycle_graph(4)): -3,
            ch.LAMBDA_CHR(paw): -2,
        }
        for got, want in values.items():
            assert got == want
        assert ch.LAMBDA_CHR(path_graph(4)) == -1
        assert ch.LAMBDA_CHR(star) == -1

    def test_multiplicative_over_components(self):
        assert ch.LAMBDA_CHR(disjoint_union(K3, K2)) == 2 * -1


class TestEngines:
    def test_engines_agree_small(self):
        assert not verify.check_character_engines(5)

    def test_engine_examples(self):
        for G in [K2, K3, P3, K4, cycle_graph(4)]:
            assert ch.chr_forest(G) == ch.chr_delcon(G) == ch.chr_derivative(G)

    def test_engines_reject_disconnected(self):
        for engine in [ch.chr_forest, ch.chr_delcon, ch.chr_derivative]:
            with pytest.raises(ValueError):
                engine(edgeless(2))


class TestConvolution:
    def test_counit_is_unit(self):
        for lam in [ch.LAMBDA_ZERO, ch.LAMBDA_CHR]:
            left, right = ch.act(ch.EPSILON_PRIME, lam), ch.act(lam, ch.EPSILON_PRIME)
            for G in graph_isoclasses(4):
                assert left(G) == lam(G)
                assert right(G) == lam(G)

    def test_triangle_cancellation(self):
        # five admissible partitions: 2 - 3 + 1 = 0
        assert ch.act(ch.LAMBDA_CHR, ch.LAMBDA_ZERO)(K3) == 0

    def test_all_ones_squared_on_edge(self):
        assert ch.act(ch.LAMBDA_ZERO, ch.LAMBDA_ZERO)(K2) == 2

    def test_monoid_laws_small(self):
        assert not verify.check_monoid_laws(3)


class TestInversion:
    def test_counit_self_inverse(self):
        inv = ch.invert_character(ch.EPSILON_PRIME)
        for G in graph_isoclasses(4):
            assert inv(G) == ch.EPSILON_PRIME(G)

    def test_inverse_of_all_ones(self):
        inv = ch.invert_character(ch.LAMBDA_ZERO)
        assert inv(K2) == -1
        assert inv(K3) == 2
        for G in connected_isoclasses(5):
            assert inv(G) == ch.LAMBDA_CHR(G)

    def test_scaled_character_still_inverts(self):
        doubled = ch.Character(lambda G: 2 * ch.chr_delcon(G), "doubled")
        inv = ch.invert_character(doubled)
        left, right = ch.act(doubled, inv), ch.act(inv, doubled)
        for G in graph_isoclasses(4):
            assert left(G) == ch.EPSILON_PRIME(G)
            assert right(G) == ch.EPSILON_PRIME(G)

    def test_vanishing_point_value_not_invertible(self):
        dead = ch.Character(lambda G: 0 if G.n == 1 else 1, "dead")
        with pytest.raises(ValueError):
            ch.invert_character(dead)


class TestAction:
    def test_all_ones_action_on_edge(self):
        got = ch.act(chrom.phi_zero, ch.LAMBDA_ZERO)(K2)
        assert got == Polynomial([0, 1, 1])  # X + X^2

    def test_chromatic_action_recovers_polynomial(self):
        got = ch.act(chrom.phi_zero, ch.LAMBDA_CHR)(K3)
        assert got == Polynomial([0, 2, -3, 1])

    def test_counit_acts_trivially(self):
        for G in graph_isoclasses(4):
            assert ch.act(chrom.phi_zero, ch.EPSILON_PRIME)(G) == chrom.phi_zero(G)

    def test_action_axioms_small(self):
        assert not verify.check_action_axioms(3)


class TestSignsAndBounds:
    def test_sign_alternation(self):
        assert not verify.check_sign_positivity(5)

    def test_forest_characterization(self):
        assert not verify.check_forest_lambda(5)

    def test_bridge_lemma(self):
        assert not verify.check_bridge_lemma(5)

    def test_complete_bound(self):
        assert not verify.check_complete_bound(5)

    def test_monotonicity(self):
        assert not verify.check_monotonicity(5)
