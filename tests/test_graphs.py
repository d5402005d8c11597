import collections
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from graph_hopf.bialgebra import iso
from graph_hopf.chromatic import independent_partitions
from graph_hopf.graphs import (
    Graph,
    Partition,
    _canonical_form,
    _set_partitions_list,
    _vertex_signature,
    acyclic_orientations,
    admissible_partitions,
    all_graphs,
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
    forest_factor,
    format_graph,
    graph_isoclasses,
    connected_isoclasses,
    is_bridge,
    is_connected,
    nested_forests,
    parse_graph,
    path_graph,
    restrict,
    set_partitions,
)

from helpers import (
    forest_evaluate,
    is_admissible,
    isoclasses_by_sweep,
    one_block,
    random_graph,
    relabel,
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


def eager_masks(G):
    """Oracle: the adjacency masks built eagerly from the edge list."""
    adj = [0] * (G.n + 1)
    for i, j in G.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def contract_by_vertex_table(G, p):
    """Oracle: contraction through a table from each vertex to its result vertex."""
    at = (None,) + tuple(k + 1 for k in p.growth)
    edges = {(at[i], at[j]) if at[i] < at[j] else (at[j], at[i])
             for i, j in G.edges if at[i] != at[j]}
    return Graph(len(p.blocks), sorted(edges))


def signature_by_vertex_sweep(adj):
    """Oracle: the vertex signatures, each vertex's neighbours found by
    testing every vertex."""
    degs = [a.bit_count() for a in adj]
    sig = {}
    for v in range(1, len(adj)):
        nbrs = [u for u in range(1, len(adj)) if adj[v] >> u & 1]
        tri = sum((adj[u] & adj[v]).bit_count() for u in nbrs) // 2
        sig[v] = (degs[v], tuple(sorted(degs[u] for u in nbrs)), tri)
    return sig


def refines_by_sets(p, q):
    """Oracle: every block of p is a subset of the block of q that holds its
    least vertex, compared as sets."""
    if p.n != q.n:
        raise ValueError("partitions on different ground sets")
    return all(set(b) <= set(q.blocks[q.growth[b[0] - 1]]) for b in p.blocks)


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

    def test_empty_disjoint_union_is_the_unit(self):
        assert disjoint_union() == Graph(0)
        assert disjoint_union(Graph(0), P3, Graph(0)) == P3

    def test_three_graph_union_equals_the_nested_binary_unions(self):
        G, H = parse_graph("3: 1-3"), parse_graph("4: 1-2, 2-4, 3-4")
        union = disjoint_union(G, K2, H)
        assert union == disjoint_union(disjoint_union(G, K2), H)
        assert union == disjoint_union(G, disjoint_union(K2, H))
        assert union == Graph(9, [(1, 3), (4, 5), (6, 7), (7, 9), (8, 9)])
        assert list(union.edges) == sorted(union.edges)

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

    def test_table_built_by_extension_has_the_fields_of_of_labels(self):
        for n in range(9):
            table = _set_partitions_list(n)
            strings = [p.growth for p in table]
            assert len(table) == bell(n)
            assert all(a < b for a, b in zip(strings, strings[1:]))
            for p in table:
                q = Partition.of_labels(p.growth)
                assert (p.n, p.blocks, p.masks, p.growth) == (q.n, q.blocks, q.masks, q.growth)

    def test_table_shares_the_blocks_without_n_with_the_parent(self):
        for n in range(1, 8):
            parents = {q.growth: q for q in _set_partitions_list(n - 1)}
            for p in _set_partitions_list(n):
                q = parents[p.growth[:-1]]
                kept = [k for k in range(len(q)) if k != p.growth[-1]]
                assert all(p.blocks[k] is q.blocks[k] for k in kept)

    def test_filtered_partitions_are_the_table_entries(self):
        rng = random.Random(16)
        for _ in range(60):
            G = random_graph(rng.randrange(8), rng, rng.choice((0.2, 0.5, 0.8)))
            table = {id(p) for p in _set_partitions_list(G.n)}
            for p in [*admissible_partitions(G), *independent_partitions(G)]:
                assert id(p) in table


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


class TestFastPathsAgainstTheirOracles:
    def graphs(self):
        rng = random.Random(17)
        yield from (G for n in range(6) for G in all_graphs(n))
        yield from (random_graph(n, rng, p) for n in range(6, 10) for p in (0.2, 0.5, 0.8))

    def test_masks_read_lazily_equal_the_eager_build(self):
        for G in self.graphs():
            assert G.adj == eager_masks(G)

    def test_derived_graphs_build_no_masks_until_read(self):
        G = parse_graph("5: 1-2, 2-3, 3-4, 4-5, 1-5, 2-5")
        p = Partition(5, [(1, 2), (3,), (4, 5)])
        for H in (contract(G, p), restrict(G, [2, 3, 5]), extract(G, p)):
            assert H._adj is None
            hash(H)
            assert H == Graph(H.n, H.edges) and H._adj is None
            assert H.adj == eager_masks(H)
            assert H._adj is H.adj

    def test_contract_equals_the_vertex_table_route(self):
        rng = random.Random(18)
        for G in self.graphs():
            table = _set_partitions_list(G.n)
            for p in (table if G.n <= 4 else rng.sample(table, 20)):
                got, want = contract(G, p), contract_by_vertex_table(G, p)
                assert (got.n, got.edges) == (want.n, want.edges)

    def test_vertex_signature_equals_the_vertex_sweep(self):
        for G in self.graphs():
            nbrs, sig = _vertex_signature(G.adj)
            assert sig == signature_by_vertex_sweep(G.adj)
            assert nbrs == [[u for u in range(1, G.n + 1) if G.has_edge(v, u)]
                            for v in range(G.n + 1)]

    def test_equal_partitions_hash_equal_however_built(self):
        for n in range(7):
            for p in _set_partitions_list(n):
                built = (Partition(n, reversed(p.blocks)), Partition.of_labels(p.growth),
                         Partition.of_labels([-k for k in p.growth]))
                for q in built:
                    assert q == p and hash(q) == hash(p) == hash(p.masks)

    def test_refines_on_masks_equals_the_set_route(self):
        for n in range(6):
            table = _set_partitions_list(n)
            for p in table:
                for q in table:
                    assert p.refines(q) is refines_by_sets(p, q)
        for p, q in ((Partition.singletons(2), Partition.singletons(3)),
                     (one_block(3), one_block(0))):
            with pytest.raises(ValueError, match="different ground sets"):
                p.refines(q)


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
            one_block(3),
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
        assert [len(graph_isoclasses(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
        assert [len(connected_isoclasses(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]

    def test_extension_equals_the_degree_filtered_sweep(self):
        for n in range(7):
            assert graph_isoclasses(n) == isoclasses_by_sweep(n)

    def test_representatives_are_pairwise_non_isomorphic(self):
        for n in range(6):
            reps = []
            for G in graph_isoclasses(n):
                H = nx.Graph(G.edges)
                H.add_nodes_from(range(1, n + 1))
                reps.append(H)
            assert not any(nx.is_isomorphic(a, b) for a, b in itertools.combinations(reps, 2))

    def test_isoclasses_are_the_graph_atlas(self):
        """The Atlas of Graphs lists each graph with at most 7 vertices once up
        to isomorphism, 1,253 in all; canonicalised without the memo, its graphs
        on n vertices are exactly `graph_isoclasses(n)`, each class once."""
        forms = collections.defaultdict(list)
        for H in nx.graph_atlas_g():
            G = Graph(H.number_of_nodes(), [(u + 1, v + 1) for u, v in H.edges()])
            forms[G.n].append(_canonical_form(G))
        assert sorted(forms) == list(range(8))
        for n, found in forms.items():
            assert tuple(sorted(found)) == graph_isoclasses(n)


def nested_forests_by_tuples(G):
    """Oracle: the enumeration that the mask one replaced.  Members are
    sorted vertex tuples from `itertools.combinations`, paired
    with their masks for the disjointness tests; each forest is a tuple of
    (member, children) pairs, full vertex set first, children by size and
    then lexicographically."""
    subsets = [(sub, sum(1 << v for v in sub)) for r in range(2, G.n + 1)
               for sub in itertools.combinations(range(1, G.n + 1), r)
               if is_connected(restrict(G, sub))]
    memo = {}

    def families(S, mask):
        if mask in memo:
            return memo[mask]
        proper = [(C, m) for C, m in subsets if m & mask == m != mask]
        results = []

        def antichains(start, chosen, used):
            yield chosen
            for k in range(start, len(proper)):
                if not proper[k][1] & used:
                    chosen.append(proper[k])
                    yield from antichains(k + 1, chosen, used | proper[k][1])
                    chosen.pop()

        for children in antichains(0, [], 0):
            head = (S, tuple(C for C, _ in children))
            for combo in itertools.product(*(families(C, m) for C, m in children)):
                members = [head]
                for forest in combo:
                    members.extend(forest)
                results.append(tuple(members))
        memo[mask] = results
        return results

    yield from families(tuple(range(1, G.n + 1)), (1 << (G.n + 1)) - 2)


def mask_of(vertices):
    return sum(1 << v for v in vertices)


def vertices_of(mask):
    return [v for v in range(1, mask.bit_length()) if mask >> v & 1]


class TestNestedForests:
    def test_small_counts(self):
        assert sum(1 for _ in nested_forests(K1)) == 1
        assert sum(1 for _ in nested_forests(K2)) == 1
        assert sum(1 for _ in nested_forests(K3)) == 4
        assert sum(1 for _ in nested_forests(P3)) == 3

    def test_children_are_the_maximal_members_below(self):
        # oracle: the definition, over masks read as sets
        for n in range(1, 6):
            for G in connected_isoclasses(n):
                for F in nested_forests(G):
                    members = [S for S, _ in F]
                    assert members[0] == mask_of(range(1, n + 1))
                    assert len(set(members)) == len(members)
                    for S, children in F:
                        below = [J for J in members if J & S == J != S]
                        maximal = [J for J in below if not any(J & K == J != K for K in below)]
                        assert children == tuple(sorted(maximal))

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
            full = mask_of(range(1, G.n + 1))
            for F in forests:
                assert full in F
                # pairwise nested or disjoint, all members connected
                for A in F:
                    assert is_connected(restrict(G, vertices_of(A)))
                    for B in F:
                        assert A & B in (A, B, 0)

    def test_masks_give_the_forests_of_the_tuple_enumeration(self):
        """Every connected isoclass with <= 6 vertices and seeded labelled
        7-vertex graphs: the same forests, each once, member for member."""
        rng = random.Random(7)
        graphs = [G for n in range(1, 7) for G in connected_isoclasses(n)]
        graphs += [G for G in (random_graph(7, rng, 0.4) for _ in range(12)) if is_connected(G)][:4]
        assert len(graphs) == 143 + 4
        for G in graphs:
            oracle = list(nested_forests_by_tuples(G))
            as_masks = {pair: (mask_of(pair[0]), tuple(sorted(map(mask_of, pair[1]))))
                        for pair in {pair for F in oracle for pair in F}}
            want = {frozenset(map(as_masks.__getitem__, F)) for F in oracle}
            got = [frozenset(F) for F in nested_forests(G)]
            assert len(want) == len(oracle) == len(got) and set(got) == want

    def test_forest_factor_restricts_to_the_member_and_contracts_each_child(self):
        # member {1,2,3,4} of the 4-cycle with child {2,3}: the cycle with 2-3 shrunk;
        # member {2,3,4} without children: the path 2-3-4, relabelled 1-2-3
        C4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert format_graph(forest_factor(C4, mask_of((1, 2, 3, 4)), (mask_of((2, 3)),))) == (
            "3: 1-2, 1-3, 2-3")
        assert format_graph(forest_factor(C4, mask_of((2, 3, 4)), ())) == "3: 1-2, 2-3"

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
