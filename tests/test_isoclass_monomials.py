"""Isoclass monomials read from the canonical-form memo, and the per-call
subset tables, against the definitions they replaced.

`old_iso` splits a graph into components and canonicalizes each one; the
reference coproducts restrict both sides of every bipartition afresh.  The
library must give exactly the same keys and coefficients.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from graph_hopf import bialgebra as bi
from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
from graph_hopf.graphs import (
    Graph,
    acyclic_orientation_count,
    acyclic_orientations,
    admissible_partitions,
    all_graphs,
    canonical_factors,
    canonical_form,
    complete,
    connected_components,
    contract,
    disjoint_union,
    extract,
    path_graph,
    restrict,
)
from graph_hopf.linear import LinComb


def old_iso(G):
    return tuple(sorted(canonical_form(restrict(G, c)) for c in connected_components(G)))


def labelled_graphs(max_n):
    for n in range(max_n + 1):
        yield from all_graphs(n)


def bipartitions(n):
    verts = range(1, n + 1)
    for r in range(n + 1):
        for left in itertools.combinations(verts, r):
            yield left, tuple(v for v in verts if v not in left)


class TestCanonicalFactors:
    def test_iso_matches_components_up_to_5_vertices(self):
        for G in labelled_graphs(5):
            assert bi.iso(G) == old_iso(G), G

    def test_empty_graph(self):
        assert bi.iso(Graph(0)) == () == canonical_factors(Graph(0))
        assert canonical_form(Graph(0)) == Graph(0)

    def test_connected_graph_is_its_own_factor(self):
        C = canonical_form(path_graph(4))
        assert canonical_factors(path_graph(4)) == (C,)
        assert C.factors is None

    def test_factors_do_not_change_equality_or_hash(self):
        G = disjoint_union(complete(3), path_graph(2))
        C = canonical_form(G)
        assert C.factors == old_iso(G)
        plain = Graph(C.n, C.edges)
        assert plain.factors is None
        assert plain == C and hash(plain) == hash(C)
        assert canonical_factors(plain) == C.factors


@st.composite
def graphs(draw, min_n=6, max_n=9):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    # sparse enough that most samples are disconnected
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k == 0])


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_iso_matches_components_on_6_to_9_vertices(G):
    assert bi.iso(G) == old_iso(G)


class TestFactorisedValues:
    def test_acyclic_orientation_count_up_to_5_vertices(self):
        for G in labelled_graphs(5):
            assert acyclic_orientation_count(G) == sum(1 for _ in acyclic_orientations(G)), G

    def test_chromatic_character_is_the_product_over_components(self):
        for G in labelled_graphs(5):
            comps = connected_components(G)
            if len(comps) > 1:
                want = math.prod(ch.LAMBDA_CHR.of_connected(restrict(G, c)) for c in comps)
                assert ch.LAMBDA_CHR(G) == want, G

    def test_stanley_families_matches_restricting_every_block(self):
        for G in labelled_graphs(4):
            for k in (1, 2, 3):
                want = sum(
                    math.prod(sum(1 for _ in acyclic_orientations(
                        restrict(G, [v + 1 for v, q in enumerate(a) if q == part])))
                        for part in range(k))
                    for a in itertools.product(range(k), repeat=G.n))
                assert chrom.stanley_families(G, k) == want, (G, k)


def reference_delta_big(G, proj):
    return LinComb(((proj(restrict(G, left)), proj(restrict(G, right))), 1)
                   for left, right in bipartitions(G.n))


def reference_cointeraction_lhs(G, proj):
    def terms():
        for left, right in bipartitions(G.n):
            GL, GR = restrict(G, left), restrict(G, right)
            for pl in admissible_partitions(GL):
                for pr in admissible_partitions(GR):
                    yield (proj(contract(GL, pl)), proj(contract(GR, pr)),
                           proj(disjoint_union(extract(GL, pl), extract(GR, pr)))), 1

    return LinComb(terms())


def reference_rho(G):
    return LinComb(((contract(G, p), old_iso(extract(G, p))), 1) for p in admissible_partitions(G))


class TestSubsetTables:
    def test_delta_big_both_bases_up_to_4_vertices(self):
        for G in labelled_graphs(4):
            assert bi.delta_big_graph(G) == reference_delta_big(G, old_iso), G
            assert bi.delta_big_graph(G, indexed=True) == reference_delta_big(G, lambda g: g), G

    def test_cointeraction_lhs_both_bases_up_to_4_vertices(self):
        for G in labelled_graphs(4):
            assert bi.cointeraction_lhs(G) == reference_cointeraction_lhs(G, old_iso), G
            assert (bi.cointeraction_lhs(G, indexed=True)
                    == reference_cointeraction_lhs(G, lambda g: g)), G

    def test_rho_projects_the_extraction_leg_up_to_4_vertices(self):
        for G in labelled_graphs(4):
            assert bi.rho(G) == reference_rho(G), G
