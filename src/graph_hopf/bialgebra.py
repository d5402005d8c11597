"""The two coproducts on graph algebras, the antipode, and the cointeraction.

Two parallel basis conventions:

* commutative: basis keys are *monomials*, sorted tuples of connected graphs
  in canonical form, realizing the free commutative algebra on connected
  isomorphism classes (unit = the empty tuple);
* noncommutative (indexed): basis keys are the indexed graphs themselves,
  multiplied by concatenation.

The restriction coproduct splits a graph over all ordered vertex-set
bipartitions; the contraction-extraction coproduct sums (G/p) (x) (G|p)
over admissible partitions p.  The quotient by the relation "isolated
vertex = 1" is represented by stripping single-vertex factors from
monomials; that quotient carries the antipode, whose two independent engines
are registered in `ANTIPODE_ENGINES`.  The recursive one sums over the terms
of the commutative δ, which first groups its partitions by G/p and blocks.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    Graph,
    _graph,
    _quotient_edges,
    admissible_partitions,
    block_map,
    canonical_factors,
    canonical_form,
    contract,
    disjoint_union,
    extract,
    is_connected,
    forest_factor,
    nested_forests,
)
from .linear import LinComb, bilinear

UNIT = ()


def iso(G):
    """Project an indexed graph to its commutative monomial of component isoclasses."""
    return canonical_factors(G)


def mono_mul(a, b):
    return tuple(sorted(a + b))


def mono_graph(mono):
    """A labeled representative of a monomial: the disjoint union of its factors."""
    out = Graph(0)
    for factor in mono:
        out = disjoint_union(out, factor)
    return out


def mono_vertices(mono):
    return sum(f.n for f in mono)


def mono_degree(mono):
    """Contraction-extraction grading: each connected factor counts n - 1."""
    return sum(f.n - 1 for f in mono)


def mono_totally_disconnected(mono):
    return all(not f.edges for f in mono)


def strip_units(mono):
    """Drop single-vertex factors: the quotient sending the one-vertex graph to 1."""
    return tuple(f for f in mono if f.n >= 2)


def as_element(x, indexed=False):
    """Coerce a Graph, basis key, or LinComb to a LinComb in the chosen basis."""
    if isinstance(x, LinComb):
        return x
    if isinstance(x, Graph):
        return LinComb.term(x if indexed else iso(x))
    if isinstance(x, tuple):
        return LinComb.term(x)
    raise TypeError(f"cannot interpret {x!r} as an algebra element")


def _bipartitions(n):
    """The 2^n ordered bipartitions V = I ⊔ J of [n], each once, as the pair
    (mask of I, mask of J); read each side through `block_map`."""
    full = (1 << (n + 1)) - 2
    return ((left, full ^ left) for left in range(0, full + 1, 2))


def _extraction_monomial(G):
    """The map p -> iso(G|p) on admissible partitions p of G: the sorted
    canonical forms of p's blocks (see `block_map`)."""
    form = block_map(G, canonical_form)
    return lambda p: tuple(sorted(map(form, p.masks)))


# ---------------------------------------------------------------------------
# the restriction coproduct

def delta_big_graph(G, indexed=False):
    """Sum of G|I (x) G|J over ordered bipartitions V = I ⊔ J (2^n terms)."""
    side = block_map(G, (lambda g: g) if indexed else iso)
    return LinComb(((side(left), side(right)), 1) for left, right in _bipartitions(G.n))


def delta_big(x):
    return as_element(x).bind(lambda mono: delta_big_graph(mono_graph(mono)))


def delta_big_indexed(x):
    return as_element(x, indexed=True).bind(lambda G: delta_big_graph(G, indexed=True))


def counit_big(x):
    """Coefficient of the unit: 1 on the empty graph, 0 on everything else."""
    return as_element(x).coeff(UNIT)


# ---------------------------------------------------------------------------
# the contraction-extraction coproduct

def delta_small_graph(G, indexed=False):
    """Sum of (G/p) (x) (G|p) over admissible partitions p.

    Commutative terms are first counted by a key of ints: the edges of the
    labelled G/p and the sorted per-call ids of the blocks' canonical forms,
    each block canonicalised once.  Then each distinct key builds its term."""
    if indexed:
        return LinComb(((contract(G, p), extract(G, p)), 1) for p in admissible_partitions(G))
    forms = {}  # canonical form -> id, in order of first appearance
    form_id = block_map(G, lambda H: forms.setdefault(canonical_form(H), len(forms)))
    adj, counts = G.adj, {}
    for p in admissible_partitions(G):
        key = (_quotient_edges(adj, p), tuple(sorted(map(form_id, p.masks))))
        counts[key] = counts.get(key, 0) + 1
    form = list(forms)
    return LinComb(((iso(_graph(len(ids), edges)), tuple(sorted(map(form.__getitem__, ids)))), c)
                   for (edges, ids), c in counts.items())


def delta_small(x):
    return as_element(x).bind(lambda mono: delta_small_graph(mono_graph(mono)))


def delta_small_indexed(x):
    return as_element(x, indexed=True).bind(lambda G: delta_small_graph(G, indexed=True))


def counit_small(x):
    """1 on totally disconnected basis keys, 0 elsewhere, extended linearly."""
    return sum(coeff for key, coeff in as_element(x).items() if mono_totally_disconnected(key))


# ---------------------------------------------------------------------------
# antipode of the quotient bialgebra (isolated vertex = 1)

def antipode_forest(G):
    """Antipode of a connected graph with >= 2 vertices, by the nested-forest sum.

    Brute force on purpose: one signed term per nested forest, the sorted
    factors of its members.  Nothing is collapsed by recursion, as
    `antipode_recursive` does, so the two engines are independent routes.
    A factor depends only on its member and that member's children, and is
    canonicalised once per call for each such pair."""
    _require_antipode_arg(G)
    memo = {}

    def factor(member, children):
        key = (member, children)
        if key not in memo:
            memo[key] = canonical_form(forest_factor(G, member, children))
        return memo[key]

    return LinComb(
        (strip_units(tuple(sorted(factor(*pair) for pair in forest))),
         (-1) ** len(forest))
        for forest in nested_forests(G))


def antipode_recursive(G):
    """Same antipode through the recursion that peels one contraction level."""
    _require_antipode_arg(G)
    return _antipode_rec(canonical_form(G))


ANTIPODE_ENGINES = {"forest": antipode_forest, "recursive": antipode_recursive}


def _require_antipode_arg(G):
    if G.n < 2 or not is_connected(G):
        raise ValueError("antipode is defined on connected graphs with >= 2 vertices")


@lru_cache(maxsize=None)
def _antipode_rec(C):
    """S(C) for a connected canonical form C, from m(id (x) S)δ(C) = 0: -C
    minus c·(C/p)·Π S(f) over the terms c·(C/p) (x) Π f of δ(C) with
    1 < |p| < n, f running over the blocks of two or more vertices."""
    total = {(C,): -1}
    for (quotient, blocks), c in delta_small_graph(C).terms():
        if 1 < len(blocks) < C.n:
            term = LinComb.term(strip_units(quotient), -c)
            for f in strip_units(blocks):
                term = mono_element_mul(term, _antipode_rec(f))
            for key, coeff in term.terms():
                total[key] = total.get(key, 0) + coeff
    return LinComb(total)


def mono_element_mul(a, b):
    return bilinear(a, b, mono_mul)


def antipode_element(x):
    """Multiplicative extension of the antipode to monomials without unit factors."""
    def on_mono(mono):
        acc = LinComb.term(UNIT)
        for factor in mono:
            acc = mono_element_mul(acc, antipode_recursive(factor))
        return acc

    return as_element(x).bind(lambda mono: on_mono(strip_units(mono)))


# ---------------------------------------------------------------------------
# cointeraction of the two coproducts

def cointeraction_lhs(x, indexed=False):
    """Route one: split first, then contract-extract each side and merge the
    extraction legs (a1 (x) b1 (x) a2 (x) b2 -> a1 (x) a2 (x) b1 b2)."""
    proj = (lambda g: g) if indexed else iso

    def legs(H):
        return [(proj(contract(H, p)), extract(H, p)) for p in admissible_partitions(H)]

    def terms(G):
        side = block_map(G, legs)
        for left, right in _bipartitions(G.n):
            legs_R = side(right)
            for a1, b1 in side(left):
                for a2, b2 in legs_R:
                    yield (a1, a2, proj(disjoint_union(b1, b2))), 1

    return _extend_over_graphs(x, indexed, terms)


def cointeraction_rhs(x, indexed=False):
    """Route two: contract-extract first, then split the contracted leg."""
    proj = (lambda g: g) if indexed else iso

    def terms(G):
        extracted_of = (lambda p: extract(G, p)) if indexed else _extraction_monomial(G)
        for p in admissible_partitions(G):
            contracted, extracted = contract(G, p), extracted_of(p)
            side = block_map(contracted, proj)
            for left, right in _bipartitions(contracted.n):
                yield (side(left), side(right), extracted), 1

    return _extend_over_graphs(x, indexed, terms)


def _extend_over_graphs(x, indexed, terms):
    """Linear extension of a graph -> (key, coeff) term stream to elements of either basis."""
    if indexed:
        return as_element(x, indexed=True).bind(lambda G: LinComb(terms(G)))
    return as_element(x).bind(lambda mono: LinComb(terms(mono_graph(mono))))


# ---------------------------------------------------------------------------
# from indexed graphs to isoclasses

def varpi(x):
    """Projection of an indexed-graph element onto commutative monomials."""
    return as_element(x, indexed=True).map_keys(iso)


def rho(x):
    """Coaction: contract-extract, then project the extraction leg."""
    def on_graph(G):
        extracted = _extraction_monomial(G)
        return LinComb(((contract(G, p), extracted(p)), 1) for p in admissible_partitions(G))

    return as_element(x, indexed=True).bind(on_graph)
