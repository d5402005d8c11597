import random

import pytest
from hypothesis import given, strategies as st

from graph_hopf.bialgebra import iso
from graph_hopf.graphs import (
    Graph,
    Partition,
    acyclic_orientations,
    admissible_partitions,
    cc,
    complete,
    connected_components,
    contract,
    contract_edge,
    degree,
    delete_edge,
    disjoint_union,
    edgeless,
    extract,
    forest_evaluate,
    format_graph,
    graph_isoclasses,
    connected_isoclasses,
    is_admissible,
    is_bridge,
    is_connected,
    nested_forests,
    parse_graph,
    path_graph,
    relabel,
    restrict,
    set_partitions,
)

K1, K2, K3, K4 = complete(1), complete(2), complete(3), complete(4)
P3 = path_graph(3)


def is_acyclic_orientation(G, orientation):
    """Oracle: a depth-first search for a directed cycle, the orientation
    given as directed pairs."""
    directed = {v: [] for v in range(1, G.n + 1)}
    for u, v in orientation:
        directed[u].append(v)
    state = {}

    def dfs(v):
        state[v] = 1
        for w in directed[v]:
            if state.get(w) == 1:
                return False
            if state.get(w) is None and not dfs(w):
                return False
        state[v] = 2
        return True

    return all(state.get(v) == 2 or dfs(v) for v in range(1, G.n + 1))


def bell(n):
    # independent oracle for partition counts
    table = [[1]]
    for i in range(n):
        row = [table[-1][-1]]
        for x in table[-1]:
            row.append(row[-1] + x)
        table.append(row)
    return table[n][0]


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 3)])

    def test_normalizes_edge_order(self):
        assert Graph(3, [(3, 1)]) == Graph(3, [(1, 3)])

    def test_adjacency_masks(self):
        G = parse_graph("4: 1-2, 2-3")
        assert isinstance(G.adj, tuple)
        assert G.adj == (0, 0b100, 0b1010, 0b100, 0)
        assert restrict(G, [2, 3, 4]).adj == (0, 0b100, 0b10, 0)

    def test_has_edge(self):
        G = Graph(3, [(1, 2)])
        assert G.has_edge(1, 2) and G.has_edge(2, 1)
        assert not G.has_edge(2, 3)

    def test_has_edge_outside_the_graph_is_false(self):
        G = Graph(3, [(1, 2)])
        for i, j in [(0, 1), (-1, 2), (3, 3), (1, 99), (2, -1)]:
            assert not G.has_edge(i, j)

    def test_parse_round_trip(self):
        for text in ["0:", "3:", "3: 1-2, 2-3", "5: 1-2, 1-3, 4-5"]:
            assert format_graph(parse_graph(text)) == text

    def test_parse_whitespace_insignificant(self):
        assert parse_graph(" 3 :  1 - 2 ,2-3 ") == P3

    def test_parse_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError):
            parse_graph("3: 1-2, 2-1")
        with pytest.raises(ValueError):
            parse_graph("3: 1-1")
        with pytest.raises(ValueError):
            parse_graph("1-2")


class TestRestrict:
    def test_complete_restriction(self):
        assert restrict(K3, [1, 2]) == K2

    def test_nonadjacent_pair(self):
        assert restrict(P3, [1, 3]) == edgeless(2)

    def test_empty_restriction(self):
        assert restrict(K3, []) == Graph(0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^vertex 4 out of range for n=3$"):
            restrict(K3, [4])
        # the least vertex out of range is named
        with pytest.raises(ValueError, match=r"^vertex 0 out of range for n=3$"):
            restrict(K3, (5, 2, 0))

    def test_takes_any_iterable(self):
        G = parse_graph("5: 1-2, 2-3, 3-4, 4-5, 1-5")
        for vertices in ([5, 1, 2], (1, 2, 5), {2, 5, 1}, iter([2, 2, 1, 5]),
                         (v for v in (5, 2, 1))):
            assert restrict(G, vertices) == Graph(3, [(1, 2), (1, 3)])

    def test_transitivity(self):
        # restricting in two steps agrees with one step, through the relabeling
        G = parse_graph("5: 1-2, 2-3, 3-4, 4-5, 1-5")
        J = [1, 3, 4, 5]
        inner = [1, 3, 4]  # positions of {1, 4, 5} inside sorted J
        assert restrict(restrict(G, J), inner) == restrict(G, [1, 4, 5])


def directed_pairs(G, orientation):
    """An edge-mask orientation as directed pairs, one per edge of the sorted
    edge list (see `acyclic_orientations`)."""
    return tuple((i, j) if orientation >> e & 1 else (j, i) for e, (i, j) in enumerate(G.edges))


class TestPartition:
    @pytest.mark.parametrize("n, blocks, message", [
        (3, [(1, 2), (), (3,)], "empty block"),
        (3, [(1, 2), (4,)], "element 4 out of range"),
        (3, [(0, 1), (2, 3)], "element 0 out of range"),
        (3, [(1, 2), (2, 3)], "element 2 in two blocks"),
        (3, [(1, 3)], "do not cover"),
    ])
    def test_constructor_rejects(self, n, blocks, message):
        with pytest.raises(ValueError, match=message):
            Partition(n, blocks)

    def test_growth_indexes_the_block_of_each_vertex(self):
        for n in range(7):
            for p in set_partitions(n):
                assert len(p.growth) == n
                for v in range(1, n + 1):
                    assert v in p.blocks[p.growth[v - 1]]

    @given(st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=1),
                              st.tuples(st.booleans())), max_size=9))
    def test_of_labels_groups_the_positions_of_equal_labels(self, labels):
        p = Partition.of_labels(labels)
        n = len(labels)
        distinct = list(dict.fromkeys(labels))  # in order of first occurrence
        blocks = [tuple(v for v in range(1, n + 1) if labels[v - 1] == x) for x in distinct]
        assert p.n == n
        assert p.blocks == tuple(blocks)
        assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)
        assert p == Partition(n, blocks)
        assert p.growth == tuple(distinct.index(x) for x in labels)

    def test_set_partitions_are_the_growth_strings_in_order(self):
        for n in range(7):
            strings = [p.growth for p in set_partitions(n)]
            assert len(set(strings)) == len(strings) == bell(n)
            assert strings == sorted(strings)


class TestContractExtract:
    def test_contract_edge_to_point(self):
        assert contract(K2, Partition(2, [(1, 2)])) == K1

    def test_contract_triangle_pair(self):
        assert contract(K3, Partition(3, [(1, 2), (3,)])) == K2

    def test_contract_path_endpoints(self):
        assert contract(P3, Partition(3, [(1, 3), (2,)])) == K2

    def test_extract_singletons(self):
        G = parse_graph("4: 1-2, 3-4, 1-3")
        assert extract(G, Partition.singletons(4)) == edgeless(4)

    def test_extract_whole(self):
        G = parse_graph("4: 1-2, 3-4")
        assert extract(G, Partition(4, [(1, 2, 3, 4)])) == G

    def test_extract_triangle_block(self):
        assert extract(K3, Partition(3, [(1, 2), (3,)])) == Graph(3, [(1, 2)])

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contract(K3, Partition(2, [(1, 2)]))
        with pytest.raises(ValueError):
            extract(K3, Partition(2, [(1, 2)]))

    def test_component_and_degree_bookkeeping(self):
        # for admissible p: contraction keeps components, extraction has one
        # component per block, and the grading splits additively
        for G in graph_isoclasses(4):
            for p in admissible_partitions(G):
                assert cc(contract(G, p)) == cc(G)
                assert cc(extract(G, p)) == len(p)
                assert degree(contract(G, p)) + degree(extract(G, p)) == degree(G)


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible(K3, Partition(3, [(1, 2), (3,)]))
        assert not is_admissible(P3, Partition(3, [(1, 3), (2,)]))
        assert is_admissible(P3, Partition.singletons(3))

    def test_counts(self):
        assert sum(1 for _ in admissible_partitions(K2)) == 2
        assert sum(1 for _ in admissible_partitions(K3)) == 5
        assert sum(1 for _ in admissible_partitions(edgeless(3))) == 1

    def test_triangle_partitions_listed(self):
        got = set(admissible_partitions(K3))
        want = {
            Partition.singletons(3),
            Partition(3, [(1, 2), (3,)]),
            Partition(3, [(1, 3), (2,)]),
            Partition(3, [(1,), (2, 3)]),
            Partition.one_block(3),
        }
        assert got == want

    def test_brute_force_counts_match_bell_filter(self):
        # every admissible partition appears exactly once in the full stream
        for n in range(7):
            assert sum(1 for _ in set_partitions(n)) == bell(n)
        for G in graph_isoclasses(5):
            listed = list(admissible_partitions(G))
            assert len(listed) == len(set(listed))
            assert set(listed) == {p for p in set_partitions(G.n)
                                   if is_admissible(G, p)}

    def test_extremes_always_admissible(self):
        for G in graph_isoclasses(4):
            assert is_admissible(G, Partition.singletons(G.n))
            assert is_admissible(G, Partition(G.n, connected_components(G)))


class TestEdgeSurgery:
    def test_bridge_examples(self):
        assert is_bridge(K2, (1, 2))
        assert not is_bridge(K3, (1, 2))

    def test_contract_edge(self):
        assert contract_edge(K3, (1, 2)) == K2

    def test_delete_edge(self):
        assert delete_edge(K3, (1, 2)) == Graph(3, [(1, 3), (2, 3)])

    def test_missing_edge_rejected(self):
        for e in [(1, 3), (3, 1), (0, 1), (2, -1), (3, 3), (1, 99)]:
            with pytest.raises(ValueError, match="not in graph"):
                delete_edge(P3, e)
            with pytest.raises(ValueError, match="not in graph"):
                contract_edge(P3, e)


class TestComponents:
    def test_degree_examples(self):
        assert degree(edgeless(4)) == 0
        assert degree(K3) == 2
        assert degree(disjoint_union(K2, K2)) == 2

    def test_components_sorted(self):
        G = parse_graph("5: 2-4, 3-5")
        assert connected_components(G) == [(1,), (2, 4), (3, 5)]


class TestCanonicalKeys:
    def test_relabeling_invariance(self):
        assert iso(P3) == iso(relabel(P3, {1: 2, 2: 1, 3: 3}))

    def test_distinguishes_isoclasses(self):
        assert iso(K3) != iso(P3)

    def test_monomial_key_length(self):
        assert len(iso(disjoint_union(K2, K1))) == 2
        assert iso(Graph(0)) == ()

    def test_random_relabelings(self):
        rng = random.Random(9)
        for G in graph_isoclasses(5):
            if G.n < 2:
                continue
            base = iso(G)
            perm = list(range(1, G.n + 1))
            for _ in range(20):
                rng.shuffle(perm)
                assert iso(relabel(G, tuple(perm))) == base

    def test_isoclass_counts(self):
        # counts of graphs and connected graphs on n unlabeled vertices
        assert [len(graph_isoclasses(n)) for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]
        assert [len(connected_isoclasses(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


class TestNestedForests:
    def test_small_counts(self):
        assert sum(1 for _ in nested_forests(K1)) == 1
        assert sum(1 for _ in nested_forests(K2)) == 1
        assert sum(1 for _ in nested_forests(K3)) == 4
        assert sum(1 for _ in nested_forests(P3)) == 3

    def test_children_are_the_maximal_members_below(self):
        # oracle: the definition, over frozensets
        for n in range(1, 6):
            for G in connected_isoclasses(n):
                for F in nested_forests(G):
                    members = [S for S, _ in F]
                    assert members[0] == tuple(range(1, n + 1))
                    assert len(set(members)) == len(members)
                    sets = {S: frozenset(S) for S in members}
                    for S, children in F:
                        below = [J for J in members if sets[J] < sets[S]]
                        maximal = {J for J in below
                                   if not any(sets[J] < sets[K] for K in below)}
                        assert set(children) == maximal and len(children) == len(maximal)

    def test_triangle_factors(self):
        # the three two-member forests of the triangle factor into two edges
        kinds = sorted(tuple(sorted(map(format_graph, forest_evaluate(K3, F))))
                       for F in nested_forests(K3))
        assert kinds == [("2: 1-2", "2: 1-2")] * 3 + [("3: 1-2, 1-3, 2-3",)]

    def test_every_forest_contains_the_vertex_set(self):
        for G in connected_isoclasses(4):
            forests = [[S for S, _ in F] for F in nested_forests(G)]
            assert forests
            assert len({frozenset(F) for F in forests}) == len(forests)
            full = tuple(range(1, G.n + 1))
            for F in forests:
                assert full in F
                # pairwise nested or disjoint, all members connected
                for A in F:
                    assert is_connected(restrict(G, A))
                    for B in F:
                        sa, sb = set(A), set(B)
                        assert sa <= sb or sb <= sa or not (sa & sb)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            list(nested_forests(edgeless(2)))


class TestOrientations:
    def test_counts(self):
        assert sum(1 for _ in acyclic_orientations(K2)) == 2
        assert sum(1 for _ in acyclic_orientations(K3)) == 6  # 2^3 minus 2 cycles
        assert sum(1 for _ in acyclic_orientations(edgeless(3))) == 1

    def test_all_acyclic_and_unique(self):
        for G in graph_isoclasses(4):
            seen = [directed_pairs(G, o) for o in acyclic_orientations(G)]
            assert len(seen) == len(set(seen))
            for orient in seen:
                assert is_acyclic_orientation(G, orient)

    def test_matches_brute_force(self):
        # oracle: flip every edge subset and keep the acyclic results
        import itertools
        for n in range(6):
            for G in graph_isoclasses(n):
                want = set()
                for flips in itertools.product([False, True], repeat=len(G.edges)):
                    orient = tuple((j, i) if f else (i, j)
                                   for (i, j), f in zip(G.edges, flips))
                    if is_acyclic_orientation(G, orient):
                        want.add(orient)
                seen = {directed_pairs(G, o) for o in acyclic_orientations(G)}
                assert len(acyclic_orientations(G)) == len(want) and seen == want
