import pytest

from graph_hopf import characters as ch
from graph_hopf import lattice as lat
from graph_hopf import verify
from graph_hopf.graphs import (
    Partition,
    _bits,
    complete,
    connected_isoclasses,
    contract,
    edgeless,
    extract,
    path_graph,
)

from helpers import one_block

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
        assert (len(L.bottom), len(L.top)) == (3, 1)  # ranks 0 and 2

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
        bottom, top = L.index(L.bottom), L.index(L.top)
        for i in range(len(L)):
            assert L.meet_index(i, bottom) == bottom
            assert L.join_index(i, top) == top

    def test_triangle_atoms(self):
        L = lat.build_lattice(K3)
        a = L.index(Partition(3, [(1, 2), (3,)]))
        b = L.index(Partition(3, [(1, 3), (2,)]))
        assert L.elements[L.join_index(a, b)] == L.top
        assert L.elements[L.meet_index(a, b)] == L.bottom

    def test_rejects_non_admissible(self):
        L = lat.build_lattice(P3)
        with pytest.raises(ValueError, match="not an admissible partition"):
            L.mobius(L.bottom, Partition(3, [(1, 3), (2,)]))

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
            for i in range(len(L)):
                for j in range(len(L)):
                    if i == j or not L.leq(i, j):
                        continue
                    total = sum(L.mobius_index(i, k) for k in _bits(L.up[i] & L.down[j]))
                    assert total == 0

    def test_matches_character_of_quotient(self):
        assert not verify.check_mobius_values(4)


class TestIntervalQuotient:
    def test_full_interval_of_connected(self):
        for G in connected_isoclasses(4):
            L = lat.build_lattice(G)
            assert L.quotient(L.index(L.bottom), L.index(L.top)) == G

    def test_triangle_atom_to_top(self):
        L = lat.build_lattice(K3)
        assert L.quotient(L.index(Partition(3, [(1, 2), (3,)])), L.index(one_block(3))) == K2

    def test_degenerate_interval(self):
        L = lat.build_lattice(K3)
        i = L.index(Partition(3, [(1, 2), (3,)]))
        assert L.quotient(i, i).edges == ()

    def test_rejects_incomparable(self):
        L = lat.build_lattice(K3)
        with pytest.raises(ValueError):
            L.quotient(L.index(L.top), L.index(L.bottom))

    def test_lattice_quotient_by_index_matches_the_checked_one(self):
        """The checked route: extract along q, then contract p."""
        for G in connected_isoclasses(4):
            L = lat.build_lattice(G)
            for i, p in enumerate(L.elements):
                for j, q in enumerate(L.elements):
                    if L.leq(i, j):
                        assert L.quotient(i, j) == contract(extract(G, q), p)
                    else:
                        with pytest.raises(ValueError):
                            L.quotient(i, j)

    def test_interval_isomorphism_small(self):
        assert not verify.check_interval_isomorphism(4)


class TestZeta:
    def test_bottom_is_empty(self):
        L = lat.build_lattice(P3)
        assert L.flats[L.index(L.bottom)] == 0

    def test_tree_is_bijective(self):
        L = lat.build_lattice(path_graph(4))
        assert sorted(L.flats) == list(range(8))

    def test_triangle_is_not(self):
        L = lat.build_lattice(K3)
        assert len(L) == 5 < 2 ** len(K3.edges)
        assert 0b111 in L.flats and 0b011 not in L.flats

    def test_embedding_small(self):
        assert not verify.check_zeta(4)


class TestFactorizations:
    def test_components_multiply(self):
        assert not verify.check_lattice_product(4)

    def test_bridge_doubles(self):
        assert not verify.check_lattice_bridge(4)
