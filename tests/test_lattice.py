import pytest

from graph_hopf import characters as ch
from graph_hopf import lattice as lat
from graph_hopf import verify
from graph_hopf.graphs import (
    Graph,
    Partition,
    complete,
    connected_isoclasses,
    edgeless,
    path_graph,
)

K2, K3 = complete(2), complete(3)
P3 = path_graph(3)


class TestConstruction:
    def test_edge_is_a_chain(self):
        L = lat.build_lattice(K2)
        assert len(L) == 2
        assert L.covers() == [(0, 1)]

    def test_path_is_a_diamond(self):
        L = lat.build_lattice(P3)
        assert len(L) == 4
        assert len(L.covers()) == 4

    def test_triangle(self):
        L = lat.build_lattice(K3)
        assert len(L) == 5
        assert L.rank(L.bottom) == 0
        assert L.rank(L.top) == 2

    def test_bounds(self):
        for G in [K2, P3, K3, edgeless(3)]:
            L = lat.build_lattice(G)
            assert L.bottom == Partition.singletons(G.n)
            assert all(L.leq(L.index(L.bottom), j) for j in range(len(L)))
            assert all(L.leq(i, L.index(L.top)) for i in range(len(L)))

    def test_up_and_down_sets_are_refinement_masks(self):
        for G in [K2, P3, K3, edgeless(3), complete(4)]:
            L = lat.build_lattice(G)
            E = L.elements
            for i, p in enumerate(E):
                assert L.down[i] == sum(1 << j for j, q in enumerate(E) if q.refines(p))
                assert L.up[i] == sum(1 << j for j, q in enumerate(E) if p.refines(q))


class TestMeetJoin:
    def test_bound_absorption(self):
        L = lat.build_lattice(K3)
        for p in L.elements:
            assert L.meet(p, L.bottom) == L.bottom
            assert L.join(p, L.top) == L.top

    def test_triangle_atoms(self):
        L = lat.build_lattice(K3)
        a = Partition(3, [(1, 2), (3,)])
        b = Partition(3, [(1, 3), (2,)])
        assert L.join(a, b) == L.top
        assert L.meet(a, b) == L.bottom

    def test_rejects_non_admissible(self):
        L = lat.build_lattice(P3)
        with pytest.raises(ValueError):
            L.meet(Partition(3, [(1, 3), (2,)]), L.bottom)

    def test_lattice_laws_small(self):
        assert not verify.check_lattice_laws(4)

    def test_grading_small(self):
        assert not verify.check_lattice_grading(4)


class TestMobius:
    def test_reflexive(self):
        L = lat.build_lattice(K3)
        for p in L.elements:
            assert L.mobius(p, p) == 1

    def test_triangle_full_interval(self):
        L = lat.build_lattice(K3)
        assert L.mobius(L.bottom, L.top) == 2

    def test_diamond_full_interval(self):
        L = lat.build_lattice(P3)
        assert L.mobius(L.bottom, L.top) == 1

    def test_rejects_incomparable(self):
        L = lat.build_lattice(K3)
        with pytest.raises(ValueError):
            L.mobius(L.top, L.bottom)

    def test_recursion_sums_to_zero(self):
        # independent oracle: the defining recursion of the Mobius function
        for G in connected_isoclasses(4):
            L = lat.build_lattice(G)
            for i, p in enumerate(L.elements):
                for j, q in enumerate(L.elements):
                    if i == j or not L.leq(i, j):
                        continue
                    total = sum(L._mobius_idx(i, k) for k in L.interval(p, q))
                    assert total == 0

    def test_matches_character_of_quotient(self):
        assert not verify.check_mobius_values(4)


class TestIntervalQuotient:
    def test_full_interval_of_connected(self):
        for G in connected_isoclasses(4):
            L = lat.build_lattice(G)
            assert lat.interval_quotient(G, L.bottom, L.top) == G

    def test_triangle_atom_to_top(self):
        q = lat.interval_quotient(K3, Partition(3, [(1, 2), (3,)]), Partition.one_block(3))
        assert q == K2

    def test_degenerate_interval(self):
        p = Partition(3, [(1, 2), (3,)])
        assert lat.interval_quotient(K3, p, p).edges == ()

    def test_rejects_incomparable(self):
        with pytest.raises(ValueError):
            lat.interval_quotient(K3, Partition.one_block(3), Partition.singletons(3))

    def test_lattice_quotient_by_index_matches_the_checked_one(self):
        for G in connected_isoclasses(4):
            L = lat.build_lattice(G)
            for i, p in enumerate(L.elements):
                for j, q in enumerate(L.elements):
                    if L.leq(i, j):
                        assert L.quotient(i, j) == lat.interval_quotient(G, p, q)
                    else:
                        with pytest.raises(ValueError):
                            L.quotient(i, j)

    def test_interval_isomorphism_small(self):
        assert not verify.check_interval_isomorphism(4)


class TestZeta:
    def test_bottom_is_empty(self):
        assert lat.zeta(P3, Partition.singletons(3)) == frozenset()

    def test_tree_is_bijective(self):
        T = path_graph(4)
        assert lat.zeta_is_bijective(T)
        assert len(lat.build_lattice(T)) == 8

    def test_triangle_is_not(self):
        assert not lat.zeta_is_bijective(K3)
        assert len(lat.build_lattice(K3)) == 5

    def test_embedding_small(self):
        assert not verify.check_zeta(4)


class TestFactorizations:
    def test_components_multiply(self):
        assert not verify.check_lattice_product(4)

    def test_bridge_doubles(self):
        assert not verify.check_lattice_bridge(4)
