"""The sums over admissible partitions that read G|p block by block, against
the extract-based formulas they replace.

For an admissible p, G|p is the disjoint union of the subgraphs induced on
p's blocks, so `delta_small_graph`, `pchr_character_formula` and
`invert_character` evaluate it block by block instead of building
extract(G, p), and `act` reads it from its block table; `delta_small_graph`
also groups the partitions by the labelled G/p and the block forms before it
builds any term.  A convolution lam * mu is the action lam <- mu, so
`convolve_by_extraction` is compared with `act`, and the multiplicative
`convolve` with `act` on disconnected graphs too.  The functions below are
test-only copies of the bodies that built extract(G, p) for every p.  The
restriction counts wrap `graphs._restrict`, through which every restriction
goes.

`delta_small_graph`, `pchr_character_formula` and `pchr_partition` no longer
run over a list of partitions: they walk the blocks of the least uncovered
vertex (`graphs.least_blocks`).  The per-partition bodies they replaced are
kept below as oracles (`..._by_partition`) and compared with them on every
labelled graph with at most 5 vertices, every isoclass with at most 6, and
relabelled 7-9-vertex graphs, vertex-transitive ones among them.  `act`
walks them too, from its own list of blocks per uncovered mask, and reads
phi once per distinct G/p without calling `contract`; `act_by_extraction`
checks its word action on every labelled graph with at most 4 vertices.
Both walks read a block's neighbourhood from one list per graph
(`graphs._neighbourhoods`), checked against the OR over each mask's
vertices and counted per call.
"""

import collections
import math
import operator
import random
import sys
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings, strategies as st

from graph_hopf import bialgebra as bi
from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
from graph_hopf import graphs
from graph_hopf import wsym as ws
from graph_hopf.graphs import (
    Graph,
    admissible_partitions,
    all_graphs,
    complete,
    contract,
    cycle_graph,
    extract,
    isoclasses_up_to,
)
from graph_hopf.linear import LinComb, Polynomial, falling_factorial

from helpers import random_graph, relabel

K1 = Graph(1)


def delta_small_by_extraction(G, indexed=False):
    proj = (lambda g: g) if indexed else bi.iso
    return LinComb(((proj(contract(G, p)), proj(extract(G, p))), 1)
                   for p in admissible_partitions(G))


def pchr_character_by_extraction(G):
    return sum((Polynomial.x() ** len(p) * ch.LAMBDA_CHR(extract(G, p))
                for p in admissible_partitions(G)), Polynomial.zero())


def convolve_by_extraction(lam, mu, G):
    total = 0
    for p in admissible_partitions(G):
        total += lam(contract(G, p)) * mu(extract(G, p))
    return total


def invert_by_extraction(lam):
    c = lam(K1)

    def value(G):
        if G.n == 1:
            return Fraction(1) / c
        total = 0
        for p in admissible_partitions(G):
            if len(p) == 1:
                continue
            total += lam(contract(G, p)) * inv(extract(G, p))
        return Fraction(-total) / c

    inv = ch.Character(value, f"{lam.name}^-1 by extraction")
    return inv


def act_by_extraction(phi, lam):
    def acted(G):
        return reduce(operator.add, (phi(contract(G, p)) * lam(extract(G, p))
                                     for p in admissible_partitions(G)))

    return acted


EDGES_PLUS_ONE = ch.Character(lambda G: len(G.edges) + 1, "edges+1")
CHARACTERS = (ch.LAMBDA_ZERO, ch.LAMBDA_CHR, ch.EPSILON_PRIME, EDGES_PLUS_ONE)
INVERSES = {lam.name: (ch.invert_character(lam), invert_by_extraction(lam))
            for lam in (ch.LAMBDA_ZERO, ch.LAMBDA_CHR, EDGES_PLUS_ONE)}


def assert_sums_match(G, characters=CHARACTERS, word_action=False):
    assert bi.delta_small_graph(G) == delta_small_by_extraction(G)
    assert bi.delta_small_indexed(G) == delta_small_by_extraction(G, indexed=True)
    assert chrom.pchr_character_formula(G) == pchr_character_by_extraction(G)
    for lam in characters:
        for mu in characters:
            assert ch.act(lam, mu)(G) == convolve_by_extraction(lam, mu, G)
        assert ch.act(chrom.phi_zero, lam)(G) == act_by_extraction(chrom.phi_zero, lam)(G)
        if word_action:
            assert ch.act(ws.phi0_nc, lam)(G) == act_by_extraction(ws.phi0_nc, lam)(G)
        if lam.name in INVERSES:
            new, old = INVERSES[lam.name]
            assert new(G) == old(G)


def test_every_isoclass_up_to_5():
    for G in isoclasses_up_to(5):
        assert_sums_match(G, word_action=True)


def test_convolution_is_the_action_on_every_isoclass_up_to_5():
    """`convolve` multiplies its values over components, the action sums
    over the admissible partitions of the whole graph: the two agree because
    a convolution of characters is a character."""
    for lam in CHARACTERS:
        for mu in CHARACTERS:
            product, acted = ch.convolve(lam, mu), ch.act(lam, mu)
            for G in isoclasses_up_to(5):
                assert product(G) == acted(G), (lam, mu, G)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(6, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=6, deadline=None)
@given(labeled_graphs())
def test_labeled_graphs_on_6_to_8(G):
    assert_sums_match(G, characters=(ch.LAMBDA_CHR, EDGES_PLUS_ONE), word_action=True)


def test_word_action_on_every_labelled_graph_up_to_4():
    """The walk builds G/p from its own edge bits, numbering the blocks by
    their least vertex as `contract` does; the isoclass sweeps see only
    canonical labellings, so this sweep covers the others."""
    for lam in CHARACTERS:
        acted, oracle = ch.act(ws.phi0_nc, lam), act_by_extraction(ws.phi0_nc, lam)
        for n in range(5):
            for G in all_graphs(n):
                assert acted(G) == oracle(G), (lam, G)


def count_calls(monkeypatch, name):
    """Record the last argument of every call of `graphs.<name>`, through
    whichever module binds it."""
    calls = []
    original = getattr(graphs, name)

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("graph_hopf") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def count_restrictions(monkeypatch):
    """The vertex mask of every call of `graphs._restrict`: `restrict`,
    `block_map` and `component_graphs` all restrict through it."""
    return count_calls(monkeypatch, "_restrict")


def test_delta_small_restricts_each_block_once(monkeypatch):
    calls = count_restrictions(monkeypatch)
    bi.delta_small_graph(complete(6))
    assert 0 < len(calls) <= 63  # 2^6 - 1 blocks; building every G|p takes 877
    assert len(set(calls)) == len(calls)


def test_character_formula_restricts_each_block_once(monkeypatch):
    calls = count_restrictions(monkeypatch)
    chrom.pchr_character_formula(complete(6))
    assert 0 < len(calls) <= 63  # building every G|p takes 674
    assert len(set(calls)) == len(calls)


def test_delta_and_the_action_build_one_neighbourhood_list_per_graph(monkeypatch):
    """δ builds the list once per call, and one action once per graph it
    acts on, however many blocks the walk reads from it."""
    calls = count_calls(monkeypatch, "_neighbourhoods")  # the graph of each call
    for G in (complete(6), cycle_graph(5)):
        bi.delta_small_graph(G)
        assert calls == [G]
        calls.clear()
    graphs_ = [complete(4), cycle_graph(5), relabel(graphs.path_graph(5), (3, 5, 1, 4, 2))]
    acted = ch.act(ws.phi0_nc, ch.LAMBDA_CHR)
    for G in graphs_:
        acted(G)
    assert calls == graphs_


def test_action_contracts_nothing_and_reads_each_quotient_once(monkeypatch):
    """The action walks the admissible partitions without building G/p by
    `contract`, and evaluates phi once for each distinct G/p, however many
    partitions share it.  The character's values are read once beforehand,
    so the deletion-contraction behind them makes no call of its own."""
    for G in (complete(5), relabel(graphs.path_graph(5), (3, 5, 1, 4, 2))):
        quotients = collections.Counter(contract(G, p) for p in admissible_partitions(G))
        expected = ch.act(ws.phi0_nc, ch.LAMBDA_CHR)(G)
        calls, phi_calls = [], collections.Counter()
        original = graphs.contract
        for name, module in list(sys.modules.items()):
            if name.startswith("graph_hopf") and getattr(module, "contract", None) is original:
                monkeypatch.setattr(module, "contract",
                                    lambda H, p: calls.append(p) or original(H, p))

        def phi(H):
            phi_calls[H] += 1
            return ws.phi0_nc(H)

        assert ch.act(phi, ch.LAMBDA_CHR)(G) == expected
        assert calls == []
        assert phi_calls.keys() == quotients.keys() and set(phi_calls.values()) == {1}
        assert sum(quotients.values()) > len(quotients)  # partitions share quotients
        monkeypatch.undo()


def test_connected_graph_projects_without_restriction(monkeypatch):
    calls = count_restrictions(monkeypatch)
    uncached = graphs.canonical_form.__wrapped__  # the body runs even if the form is memoised
    assert bi.iso(cycle_graph(7)) == (uncached(cycle_graph(7)),)
    assert calls == []
    uncached(graphs.disjoint_union(cycle_graph(3), complete(2)))
    assert sorted(calls) == [0b111 << 1, 0b11 << 4]  # the two components, each once


def delta_small_by_partition(G):
    """δ counted per admissible partition: the edges of each G/p and the
    sorted form ids of p's blocks."""
    forms = {}
    form_id = graphs.block_map(G, lambda H: forms.setdefault(graphs.canonical_form(H), len(forms)))
    counts = {}
    for p in admissible_partitions(G):
        key = (contract(G, p).edges, tuple(sorted(map(form_id, p.masks))))
        counts[key] = counts.get(key, 0) + 1
    form = list(forms)
    return LinComb(((bi.iso(graphs._graph(len(ids), edges)),
                     tuple(sorted(map(form.__getitem__, ids)))), c)
                   for (edges, ids), c in counts.items())


def pchr_partition_by_partition(G):
    counts = collections.Counter(map(len, chrom.independent_partitions(G)))
    return sum((falling_factorial(k) * a for k, a in counts.items()), Polynomial.zero())


def pchr_character_by_partition(G):
    chi = graphs.block_map(G, ch.LAMBDA_CHR.of_connected)
    coeffs = [0] * (G.n + 1)
    for p in admissible_partitions(G):
        coeffs[len(p)] += math.prod(map(chi, p.masks))
    return Polynomial(coeffs)


def walked_partitions(G, independent):
    """The block masks of every partition the walk reaches, in walk order."""
    blocks = graphs.least_blocks(G, independent)

    def walk(rest):
        if not rest:
            yield ()
            return
        for b in blocks(rest):
            for tail in walk(rest ^ b):
                yield (b,) + tail

    return list(walk((1 << G.n + 1) - 2))


def assert_walks_match(G):
    assert bi.delta_small_graph(G) == delta_small_by_partition(G)
    assert chrom.pchr_partition(G) == pchr_partition_by_partition(G)
    assert chrom.pchr_character_formula(G) == pchr_character_by_partition(G)


def test_walks_match_the_partition_sums_on_every_labelled_graph_up_to_5():
    for n in range(6):
        for G in all_graphs(n):
            assert_walks_match(G)
            for independent, listed in ((False, admissible_partitions(G)),
                                        (True, chrom.independent_partitions(G))):
                walked = walked_partitions(G, independent)
                assert len(set(walked)) == len(walked)  # each partition reached once
                assert sorted(walked) == sorted(p.masks for p in listed)


def test_walks_match_the_partition_sums_on_every_isoclass_up_to_6():
    for G in isoclasses_up_to(6):
        assert_walks_match(G)


def circulant(n, steps):
    return Graph(n, [(v, (v + d - 1) % n + 1) for v in range(1, n + 1) for d in steps])


VERTEX_TRANSITIVE = (
    circulant(7, (1, 2)),
    circulant(8, (1, 4)),  # the Wagner graph
    circulant(9, (1, 3)),
    Graph(8, [(a + 1, (a ^ 1 << k) + 1) for a in range(8) for k in range(3)]),  # the cube
    Graph(8, [(i, j) for i in range(1, 5) for j in range(5, 9)]),  # K4,4
    Graph(9, [(i, j) for i in range(1, 10) for j in range(i + 1, 10)  # the 3x3 rook graph
              if (i - 1) // 3 == (j - 1) // 3 or (i - 1) % 3 == (j - 1) % 3]),
)


def relabelled_7_to_9_vertex_graphs():
    rng = random.Random(2201)
    graphs_ = [random_graph(n, rng, p) for n in (7, 8, 9) for p in (0.3, 0.5, 0.7)]
    for G in VERTEX_TRANSITIVE + tuple(graphs_):
        perm = list(range(1, G.n + 1))
        rng.shuffle(perm)
        yield relabel(G, perm)


def test_walks_match_the_partition_sums_on_relabelled_7_to_9_vertex_graphs():
    for G in relabelled_7_to_9_vertex_graphs():
        assert_walks_match(G)


def assert_neighbourhoods_match(G):
    reach = graphs._neighbourhoods(G)
    assert len(reach) == 1 << G.n
    for m in range(0, 2 << G.n, 2):
        vertices = [v for v in range(1, G.n + 1) if m >> v & 1]
        assert reach[m >> 1] == reduce(operator.or_, (G.adj[v] for v in vertices), 0)


def test_neighbourhood_list_is_the_or_over_each_masks_vertices():
    """The list that δ and the action read a block's neighbourhood from,
    entry m >> 1 against the OR of the adjacency masks of m's vertices."""
    for n in range(6):
        for G in all_graphs(n):
            assert_neighbourhoods_match(G)
    for G in relabelled_7_to_9_vertex_graphs():
        assert_neighbourhoods_match(G)
