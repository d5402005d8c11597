import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from graph_hopf import bialgebra as bi
from graph_hopf import verify
from graph_hopf.graphs import (
    Graph,
    admissible_partitions,
    all_graphs,
    block_map,
    canonical_form,
    complete,
    connected_isoclasses,
    contract,
    disjoint_union,
    edgeless,
    is_connected,
    nested_forests,
    path_graph,
    restrict,
)
from graph_hopf.linear import LinComb

from helpers import forest_evaluate

K1, K2, K3 = complete(1), complete(2), complete(3)
P3 = path_graph(3)


def mono(*graphs):
    return tuple(sorted(canonical_form(g) for g in graphs))


def antipode_forest_sum(G):
    """Oracle: the nested-forest sum, every forest's factors built anew by
    `forest_evaluate`, with no memo."""
    return LinComb((bi.strip_units(mono(*forest_evaluate(G, forest))), (-1) ** len(forest))
                   for forest in nested_forests(G))


def antipode_by_peeling(C, memo):
    """Oracle: the quotient antipode of a connected canonical form C by one
    signed product per proper admissible partition, C/p times the antipodes
    of p's blocks with two or more vertices, each product its own LinComb;
    memo holds the antipodes of earlier forms."""
    if C not in memo:
        antipode_of = block_map(C, lambda H: antipode_by_peeling(canonical_form(H), memo))

        def peel(p):
            out = LinComb.term(bi.strip_units(bi.iso(contract(C, p))))
            for mask in p.masks:
                if mask & (mask - 1):
                    out = bi.mono_element_mul(out, antipode_of(mask))
            return out

        proper = LinComb((p, 1) for p in admissible_partitions(C) if 1 < len(p) < C.n)
        memo[C] = -(LinComb.term(bi.strip_units(bi.iso(C))) + proper.bind(peel))
    return memo[C]


class TestRestrictionCoproduct:
    def test_indexed_coproduct_is_the_sum_over_vertex_subsets(self):
        """Oracle for the bipartition sum that both bases share: on every
        labelled graph with at most 4 vertices, Δ_I(G) is the sum over the
        subsets I of [n] of G|I (x) G|([n] - I), restricted by vertex tuples."""
        for n in range(5):
            V = set(range(1, n + 1))
            for G in all_graphs(n):
                want = LinComb(((restrict(G, I), restrict(G, V - set(I))), 1)
                               for r in range(n + 1) for I in itertools.combinations(sorted(V), r))
                assert bi.delta_big_indexed(G) == want

    def test_point(self):
        assert bi.delta_big(K1) == (LinComb.term((mono(K1), bi.UNIT))
                                    + LinComb.term((bi.UNIT, mono(K1))))

    def test_edge(self):
        want = (LinComb.term((mono(K2), bi.UNIT))
                + LinComb.term((bi.UNIT, mono(K2)))
                + LinComb.term((mono(K1), mono(K1)), 2))
        assert bi.delta_big(K2) == want

    def test_triangle(self):
        want = (LinComb.term((mono(K3), bi.UNIT))
                + LinComb.term((bi.UNIT, mono(K3)))
                + LinComb.term((mono(K2), mono(K1)), 3)
                + LinComb.term((mono(K1), mono(K2)), 3))
        assert bi.delta_big(K3) == want

    def test_path(self):
        want = (LinComb.term((mono(P3), bi.UNIT))
                + LinComb.term((bi.UNIT, mono(P3)))
                + LinComb.term((mono(K2), mono(K1)), 2)
                + LinComb.term((mono(K1, K1), mono(K1)))
                + LinComb.term((mono(K1), mono(K2)), 2)
                + LinComb.term((mono(K1), mono(K1, K1))))
        assert bi.delta_big(P3) == want

    def test_unit(self):
        assert bi.delta_big(Graph(0)) == LinComb.term((bi.UNIT, bi.UNIT))


class TestContractionExtractionCoproduct:
    def test_point_is_grouplike(self):
        assert bi.delta_small(K1) == LinComb.term((mono(K1), mono(K1)))

    def test_edge(self):
        want = (LinComb.term((mono(K1), mono(K2)))
                + LinComb.term((mono(K2), mono(K1, K1))))
        assert bi.delta_small(K2) == want

    def test_triangle(self):
        want = (LinComb.term((mono(K1), mono(K3)))
                + LinComb.term((mono(K2), mono(K1, K2)), 3)
                + LinComb.term((mono(K3), mono(K1, K1, K1))))
        assert bi.delta_small(K3) == want

    def test_path(self):
        want = (LinComb.term((mono(K1), mono(P3)))
                + LinComb.term((mono(K2), mono(K1, K2)), 2)
                + LinComb.term((mono(P3), mono(K1, K1, K1))))
        assert bi.delta_small(P3) == want

    def test_totally_disconnected_is_grouplike(self):
        for n in range(4):
            G = edgeless(n)
            assert bi.delta_small(G) == LinComb.term((bi.iso(G), bi.iso(G)))

    def test_counit_values(self):
        assert bi.counit_small(edgeless(3)) == 1
        assert bi.counit_small(K2) == 0
        assert bi.counit_big(Graph(0)) == 1
        assert bi.counit_big(K1) == 0


class TestIndexedCoproducts:
    def test_indexed_path_restriction(self):
        # path with center vertex 3: restrictions keep their labels
        G = Graph(3, [(1, 3), (2, 3)])
        d = bi.delta_big_indexed(G)
        assert d.coeff((Graph(2, [(1, 2)]), Graph(1))) == 2
        assert d.coeff((Graph(2), Graph(1))) == 1
        assert d.coeff((G, Graph(0))) == 1

    def test_indexed_path_contraction(self):
        G = Graph(3, [(1, 3), (2, 3)])
        d = bi.delta_small_indexed(G)
        assert d.coeff((Graph(1), G)) == 1
        assert d.coeff((Graph(2, [(1, 2)]), Graph(3, [(1, 3)]))) == 1
        assert d.coeff((Graph(2, [(1, 2)]), Graph(3, [(2, 3)]))) == 1
        assert d.coeff((G, Graph(3))) == 1
        assert len(d) == 4

    def test_indexed_triangle_contraction(self):
        d = bi.delta_small_indexed(K3)
        for e in [(1, 2), (1, 3), (2, 3)]:
            assert d.coeff((Graph(2, [(1, 2)]), Graph(3, [e]))) == 1


class TestAntipode:
    def test_edge(self):
        assert bi.antipode_forest(K2) == LinComb.term(mono(K2), -1)

    def test_triangle(self):
        want = LinComb.term(mono(K3), -1) + LinComb.term(mono(K2, K2), 3)
        assert bi.antipode_forest(K3) == want
        assert bi.antipode_recursive(K3) == want

    def test_path(self):
        want = LinComb.term(mono(P3), -1) + LinComb.term(mono(K2, K2), 2)
        assert bi.antipode_forest(P3) == want
        assert bi.antipode_recursive(P3) == want

    def test_rejects_disconnected_and_point(self):
        with pytest.raises(ValueError):
            bi.antipode_forest(K1)
        with pytest.raises(ValueError):
            bi.antipode_recursive(edgeless(2))

    def test_forest_memo_matches_oracle_up_to_5(self):
        for n in range(2, 6):
            for G in connected_isoclasses(n):
                assert bi.antipode_forest(G) == antipode_forest_sum(G), G

    @settings(max_examples=10, deadline=None)
    @given(st.sets(st.sampled_from(complete(6).edges), min_size=5))
    def test_forest_memo_matches_oracle_on_6(self, edges):
        G = Graph(6, edges)
        assume(is_connected(G))
        assert bi.antipode_forest(G) == antipode_forest_sum(G)

    def test_recursion_matches_the_per_partition_oracle_up_to_6(self):
        memo = {}
        for n in range(2, 7):
            for C in connected_isoclasses(n):
                assert bi.antipode_recursive(C) == antipode_by_peeling(C, memo), C

    @settings(max_examples=5, deadline=None)
    @given(st.sets(st.sampled_from(complete(7).edges), min_size=6))
    def test_recursion_matches_the_per_partition_oracle_on_7(self, edges):
        G = Graph(7, edges)
        assume(is_connected(G))
        assert bi.antipode_recursive(G) == antipode_by_peeling(canonical_form(G), {})

    def test_engines_agree_small(self):
        assert not verify.check_antipode_engines(5)

    def test_convolution_law_small(self):
        assert not verify.check_antipode_law(4)


def both_routes(x):
    """Both cointeraction routes on x, composed from the module's coproducts."""
    return (bi.cointeraction_lhs(x, bi.delta_big, bi.delta_small, bi.mono_mul),
            bi.cointeraction_rhs(x, bi.delta_big, bi.delta_small))


class TestCointeraction:
    def test_point_by_hand(self):
        want = (LinComb.term((mono(K1), bi.UNIT, mono(K1)))
                + LinComb.term((bi.UNIT, mono(K1), mono(K1))))
        assert both_routes(K1) == (want, want)

    def test_edge_agrees(self):
        lhs, rhs = both_routes(K2)
        assert lhs == rhs

    def test_indexed_path_distinguishes_routes(self):
        lhs, rhs = verify._indexed_cointeraction_sides(verify.INDEXED_PATH_WITNESS)
        assert lhs != rhs

    def test_commutative_projection_heals_the_witness(self):
        lhs, rhs = both_routes(verify.INDEXED_PATH_WITNESS)
        assert lhs == rhs


class TestProjection:
    def test_relabeled_paths_project_equally(self):
        assert bi.iso(Graph(3, [(1, 3), (3, 2)])) == bi.iso(P3)

    def test_projection_is_multiplicative(self):
        for G, H in [(K2, K3), (P3, K1), (K2, K2)]:
            assert bi.iso(disjoint_union(G, H)) == bi.mono_mul(bi.iso(G), bi.iso(H))

    def test_coaction_on_an_edge(self):
        got = bi.rho(K2)
        want = (LinComb.term((Graph(1), mono(K2)))
                + LinComb.term((Graph(2, [(1, 2)]), mono(K1, K1))))
        assert got == want

    def test_coproduct_morphisms_small(self):
        assert not verify.check_varpi_morphism(3)


class TestStructuralLaws:
    def test_coassociativity_small(self):
        assert not verify.check_coassociativity(4)

    def test_cocommutativity_split(self):
        assert not verify.check_cocommutativity(4)

    def test_counit_laws_small(self):
        assert not verify.check_counit_laws(4)

    def test_multiplicativity_small(self):
        assert not verify.check_multiplicativity(4)

    def test_grading_small(self):
        assert not verify.check_grading(4)

    @settings(max_examples=8, deadline=None)
    @given(st.sets(st.sampled_from(complete(6).edges)))
    def test_coalgebra_checks_beyond_the_exhaustive_bound(self, edges):
        """`check.one` runs one graph with memos of its own."""
        for check in (verify.check_coassociativity, verify.check_cointeraction,
                      verify.check_cocommutativity):
            assert not list(check.one(Graph(6, edges))), check.__name__
