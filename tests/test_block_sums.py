"""The sums over admissible partitions that read G|p block by block, against
the extract-based formulas they replace.

For an admissible p, G|p is the disjoint union of the subgraphs induced on
p's blocks, so `delta_small_graph`, `pchr_character_formula`,
`convolve_value`, `invert_character` and `act` evaluate it through
`graphs.block_map` instead of building extract(G, p); `delta_small_graph`
also groups the partitions by the labelled G/p and the block forms before it
builds any term.  The functions below are test-only copies of the bodies
that built extract(G, p) for every p.  The restriction counts wrap
`graphs._restrict`, through which every restriction goes.
"""

import operator
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
    complete,
    contract,
    cycle_graph,
    extract,
    isoclasses_up_to,
)
from graph_hopf.linear import LinComb, Polynomial

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
            assert ch.convolve_value(lam, mu, G) == convolve_by_extraction(lam, mu, G)
        assert ch.act(chrom.phi_zero, lam)(G) == act_by_extraction(chrom.phi_zero, lam)(G)
        if word_action:
            assert ch.act(ws.phi0_nc, lam)(G) == act_by_extraction(ws.phi0_nc, lam)(G)
        if lam.name in INVERSES:
            new, old = INVERSES[lam.name]
            assert new(G) == old(G)


def test_every_isoclass_up_to_5():
    for G in isoclasses_up_to(5):
        assert_sums_match(G, word_action=True)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(6, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=6, deadline=None)
@given(labeled_graphs())
def test_labeled_graphs_on_6_to_8(G):
    assert_sums_match(G, characters=(ch.LAMBDA_CHR, EDGES_PLUS_ONE))


def count_restrictions(monkeypatch):
    """Record the vertex mask of every call of `graphs._restrict`, through
    whichever module binds it: `restrict`, `block_map` and
    `component_graphs` all restrict through it."""
    calls = []
    restrict = graphs._restrict

    def counted(G, mask):
        calls.append(mask)
        return restrict(G, mask)

    for name, module in list(sys.modules.items()):
        if name.startswith("graph_hopf") and getattr(module, "_restrict", None) is restrict:
            monkeypatch.setattr(module, "_restrict", counted)
    return calls


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


def test_connected_graph_projects_without_restriction(monkeypatch):
    calls = count_restrictions(monkeypatch)
    uncached = graphs.canonical_form.__wrapped__  # the body runs even if the form is memoised
    assert bi.iso(cycle_graph(7)) == (uncached(cycle_graph(7)),)
    assert calls == []
    uncached(graphs.disjoint_union(cycle_graph(3), complete(2)))
    assert sorted(calls) == [0b111 << 1, 0b11 << 4]  # the two components, each once
