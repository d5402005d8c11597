"""The two coproducts on graph algebras, the antipode, and the cointeraction.

Two parallel bases:

* commutative: basis keys are *monomials*, sorted tuples of connected graphs
  in canonical form, realizing the free commutative algebra on connected
  isomorphism classes (unit = the empty tuple); `delta_big` and
  `delta_small` act here;
* noncommutative (indexed): basis keys are the indexed graphs themselves,
  multiplied by concatenation; `delta_big_indexed` and `delta_small_indexed`
  are the same two maps with every leg left indexed.

The restriction coproduct Δ splits a graph over all ordered vertex-set
bipartitions; the contraction-extraction coproduct δ sums (G/p) (x) (G|p)
over admissible partitions p.  In either basis the two cointeraction routes
compose these maps: (δ (x) δ)∘Δ with the extraction legs joined by the
product passed in, and (Δ (x) id)∘δ.  The quotient by the relation "isolated
vertex = 1" is represented by stripping single-vertex factors from monomials;
that quotient carries the antipode, whose two independent engines are
registered in `ANTIPODE_ENGINES`.  The recursive one sums over the terms of
the commutative δ, which walks the admissible partitions block by block and
counts them by G/p and blocks before it builds a term.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .graphs import (
    Graph,
    _bits,
    _graph,
    _memoised,
    _restrict,
    admissible_partitions,
    block_map,
    canonical_factors,
    canonical_form,
    contract,
    disjoint_union,
    extract,
    is_connected,
    forest_factor,
    least_blocks,
    nested_forests,
)
from .linear import LinComb, bilinear

UNIT = ()


def iso(G):
    """Project an indexed graph to its commutative monomial of component isoclasses."""
    return canonical_factors(G)


def mono_mul(a, b):
    return tuple(sorted(a + b))


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


# ---------------------------------------------------------------------------
# the restriction coproduct

def _split(G, leg):
    """Sum of leg(G|I) (x) leg(G|J) over the 2^n ordered bipartitions V = I ⊔ J,
    I and J as vertex masks, each side restricted once (`block_map`)."""
    side, full = block_map(G, leg), (1 << (G.n + 1)) - 2
    return LinComb(((side(left), side(full ^ left)), 1) for left in range(0, full + 1, 2))


def delta_big_graph(G):
    """Sum of iso(G|I) (x) iso(G|J) over ordered bipartitions V = I ⊔ J (2^n terms)."""
    return _split(G, iso)


def delta_big(x):
    return as_element(x).bind(lambda mono: delta_big_graph(disjoint_union(*mono)))


def delta_big_indexed(x):
    """Sum of G|I (x) G|J over ordered bipartitions, both legs left indexed."""
    return as_element(x, indexed=True).bind(lambda G: _split(G, lambda g: g))


def counit_big(x):
    """Coefficient of the unit: 1 on the empty graph, 0 on everything else."""
    return as_element(x).coeff(UNIT)


# ---------------------------------------------------------------------------
# the contraction-extraction coproduct

def delta_small_graph(G):
    """Sum of iso(G/p) (x) iso(G|p) over admissible partitions p, walked block
    by block (`least_blocks`): block k is vertex k of G/p, as in `contract`.
    Adding it sets edge bit j(n + 1) + k for each earlier block j that its
    neighbourhood meets (found once per block, beside its form id).  Terms
    are counted by those bits and the sorted form ids, then built once, and
    each distinct G/p (its size and bits) is projected once."""
    forms, seen, counts = {}, {}, {}  # form -> id; block mask -> (neighbourhood, id)
    adj, blocks_of, width = G.adj, least_blocks(G), G.n + 1

    def walk(rest, masks, edges, ids):
        if not rest:
            key = (edges, tuple(sorted(ids)))
            counts[key] = counts.get(key, 0) + 1
            return
        k = len(masks) + 1
        for b in blocks_of(rest):
            if b not in seen:
                seen[b] = (reduce(int.__or__, map(adj.__getitem__, _bits(b))),
                           forms.setdefault(canonical_form(_restrict(G, b)), len(forms)))
            reach, f = seen[b]
            bits = edges
            for j, m in enumerate(masks, 1):
                if reach & m:
                    bits |= 1 << j * width + k
            walk(rest ^ b, masks + (b,), bits, ids + (f,))

    walk((1 << width) - 2, (), 0, ())
    form = list(forms)
    quotient = {(k, edges): iso(_graph(k, tuple(divmod(e, width) for e in _bits(edges))))
                for k, edges in {(len(ids), edges) for edges, ids in counts}}
    return LinComb(((quotient[len(ids), edges], tuple(sorted(map(form.__getitem__, ids)))), c)
                   for (edges, ids), c in counts.items())


def delta_small(x):
    return as_element(x).bind(lambda mono: delta_small_graph(disjoint_union(*mono)))


def delta_small_indexed(x):
    """Sum of (G/p) (x) (G|p) over admissible partitions p, both legs left indexed."""
    return as_element(x, indexed=True).bind(lambda G: LinComb(
        ((contract(G, p), extract(G, p)), 1) for p in admissible_partitions(G)))


def counit_small(x):
    """1 on totally disconnected basis keys, 0 elsewhere, extended linearly."""
    return sum(coeff for key, coeff in as_element(x).terms() if all(not f.edges for f in key))


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
    factor = _memoised(lambda pair: canonical_form(forest_factor(G, *pair)))
    return LinComb((strip_units(tuple(sorted(map(factor, forest)))), (-1) ** len(forest))
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

def cointeraction_lhs(x, big, small, mul):
    """Route one, (δ (x) δ)∘Δ, for a restriction coproduct `big` and a
    contraction-extraction coproduct `small` of one basis, and its product
    `mul`: split first, then contract-extract each side and join the
    extraction legs by `mul` (a1 (x) b1 (x) a2 (x) b2 -> a1 (x) a2 (x) b1 b2):
    `mono_mul` on monomials, `disjoint_union` on indexed graphs.  A memoised
    `small` takes δ once per distinct leg."""
    return big(x).bind(lambda k: bilinear(
        small(k[0]), small(k[1]), lambda s, t: (s[0], t[0], mul(s[1], t[1]))))


def cointeraction_rhs(x, big, small):
    """Route two, (Δ (x) id)∘δ, for coproducts `big` and `small` of one basis
    as in route one: contract-extract first, then split the contracted leg."""
    return small(x).bind(lambda k: big(k[0]).map_keys(lambda ab: (ab[0], ab[1], k[1])))


# ---------------------------------------------------------------------------
# from indexed graphs to isoclasses

def varpi(x):
    """Projection of an indexed-graph element onto commutative monomials."""
    return as_element(x, indexed=True).map_keys(iso)


def rho(x):
    """Coaction: contract-extract, then project the extraction leg."""
    return delta_small_indexed(x).map_keys(lambda k: (k[0], iso(k[1])))
