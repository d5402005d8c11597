"""The character monoid of the contraction-extraction bialgebra.

A character is a multiplicative rational-valued functional on graph
monomials, determined by its values on connected isomorphism classes.
Characters act on graph-to-algebra morphisms on the right, dually to the
contraction-extraction coproduct:

    (phi <- lam)(G) = sum over admissible p of lam(G|p) * phi(G/p).

A character is a morphism into Q, so the convolution lam * mu is the action
lam <- mu: the sum over admissible p of lam(G/p) * mu(G|p), with unit the
counit (1 on totally disconnected graphs).  An action walks the admissible
partitions block by block with G/p as edge bits, reading lam(G|p) and phi(G/p)
from tables it keeps for as long as it lives, shared by all graphs it acts on.

The distinguished characters: the all-ones character, whose convolution
inverse is the chromatic character (the derivative of the chromatic
polynomial at 0 on connected graphs).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .bialgebra import delta_small_graph
from .graphs import (
    Graph,
    _graph,
    _memoised,
    _neighbourhoods,
    _quotient_graph,
    _restrict,
    _slot_table,
    canonical_factors,
    canonical_form,
    contract_edge,
    degree,
    delete_edge,
    is_bridge,
    is_connected,
    nested_forests,
)
from .linear import LinComb

K1 = Graph(1)


class Character:
    """Multiplicative functional on graphs, memoized per connected isoclass.

    Evaluation accepts a Graph (value = product over components) or a
    monomial tuple of connected graphs; the unit (empty graph) maps to 1.
    Concurrent evaluations of the same key return equal values: the memo
    only ever stores the one pure result.
    """

    __slots__ = ("_fn", "_memo", "name")

    def __init__(self, connected_value, name="character"):
        self._fn = connected_value
        self._memo = {}
        self.name = name

    def of_connected(self, G):
        C = canonical_form(G)
        if C not in self._memo:
            self._memo[C] = self._fn(C)
        return self._memo[C]

    def __call__(self, x):
        value = 1
        for f in canonical_factors(x) if isinstance(x, Graph) else x:
            value *= self.of_connected(f)
        return value

    def __repr__(self):
        return f"Character({self.name})"


EPSILON_PRIME = Character(lambda G: 1 if not G.edges else 0, "counit")
LAMBDA_ZERO = Character(lambda G: 1, "all-ones")


def convolve(lam, mu):
    return Character(act(lam, mu), f"{lam.name}*{mu.name}")


def invert_character(lam):
    """Convolution inverse; defined exactly when lam is nonzero on one vertex.

    Computed by induction on the vertex count: for connected G the full-block
    partition isolates lam(K1) * inverse(G), every other admissible partition
    only extracts strictly smaller connected pieces: a sum over the terms of δ(G).
    """
    c = lam(K1)
    if c == 0:
        raise ValueError("character is not invertible: it vanishes on the one-vertex graph")

    def value(G):
        if G.n == 1:
            return Fraction(1) / c
        total = sum(coeff * lam(a) * inv(b)
                    for (a, b), coeff in delta_small_graph(G).terms() if len(b) > 1)
        # counit vanishes on connected graphs with an edge
        return Fraction(-total) / c

    inv = Character(value, f"{lam.name}^-1")
    return inv


def act(phi, lam):
    """Right action of a character on a graph-to-algebra morphism, owning its
    tables for as long as it lives (`_memoised`).  The block table, keyed by
    (n, block mask B, the edge slots of G inside B), holds lam(G|B), or None
    when G|B is disconnected.  A graph reads its vertex masks' entries once and
    walks its admissible partitions p block by block: a block of the least
    uncovered vertex (one list per uncovered mask) with an entry, then one of
    what it leaves.  Block k is vertex k of G/p, as in `contract`, with edge bit
    j(n + 1) + k for each earlier block j its neighbourhood (`_neighbourhoods`)
    meets.  Weights lam(G|p) are summed per (block count, edge bits, n + 1), phi read once per key.
    LinComb values times nonzero weights go term by term into one dict; others
    (a Polynomial, or a scalar: a convolution) are summed times their weights."""
    def block_value(key):
        n, mask, inside = key
        edges = tuple(e for e, k in _slot_table(n).items() if inside >> k & 1)
        H = _restrict(_graph(n, edges), mask)
        return lam.of_connected(H) if is_connected(H) else None

    table = _memoised(block_value)
    # by n: each vertex mask of [n], at index mask >> 1, with the edge slots inside it
    inside_of = _memoised(lambda n: [(mask, sum(1 << k for (i, j), k in _slot_table(n).items()
                                                if mask >> i & mask >> j & 1))
                                     for mask in range(0, 1 << (n + 1), 2)])
    # by uncovered mask: its submasks that hold its least vertex, largest first
    blocks_of = _memoised(lambda rest: [b for b in range(rest, 0, -1)
                                        if b | rest == rest and b & -b == rest & -rest])
    quotient = _memoised(lambda key: phi(_quotient_graph(*key)))

    def acted(G):
        n, slots, reach = G.n, _slot_table(G.n), _neighbourhoods(G)
        edges = sum(1 << slots[e] for e in G.edges)
        lam_of = [table((n, mask, edges & inside)) for mask, inside in inside_of(n)]
        width, weights = n + 1, {} if n else {(0, 0, 1): 1}  # the empty graph: no block

        def walk(rest, masks, bits, weight):
            k = len(masks) + 1
            for b in blocks_of(rest):
                value = lam_of[b >> 1]
                if value is not None:
                    r, new = reach[b >> 1], bits
                    for j, m in enumerate(masks, 1):
                        if r & m:
                            new |= 1 << j * width + k
                    if b == rest:  # the last block: p is complete
                        weights[k, new, width] = weights.get((k, new, width), 0) + weight * value
                    else:
                        walk(rest ^ b, masks + (b,), new, weight * value)

        walk((1 << width) - 2, (), 0, 1)
        values = [(quotient(key), weight) for key, weight in weights.items()]
        if not isinstance(values[0][0], LinComb):
            return sum((value * weight for value, weight in values[1:]),
                       values[0][0] * values[0][1])
        terms = {}
        for value, weight in values:
            if weight:
                for key, coeff in value.terms():
                    terms[key] = terms.get(key, 0) + coeff * weight
        return LinComb(terms)

    return acted


# ---------------------------------------------------------------------------
# the chromatic character: three engines
#
# (a) derivative of the chromatic polynomial at 0;
# (b) signed count of nested forests;
# (c) deletion-contraction with a bridge shortcut (the default: it re-visits
#     minors heavily, which the canonical-form memo absorbs).

def chr_derivative(G):
    from .chromatic import pchr_partition

    if not is_connected(G):
        raise ValueError("chromatic character engines take a connected graph")
    return pchr_partition(G).coeff(1)


def chr_forest(G):
    if not is_connected(G):
        raise ValueError("chromatic character engines take a connected graph")
    if G.n == 1:
        return 1
    return sum((-1) ** len(forest) for forest in nested_forests(G))


def chr_delcon(G):
    if not is_connected(G):
        raise ValueError("chromatic character engines take a connected graph")
    return _chr_delcon(canonical_form(G))


@lru_cache(maxsize=None)
def _chr_delcon(C):
    if not C.edges:
        return 1  # connected and edgeless means one vertex
    e = C.edges[0]
    contracted = canonical_form(contract_edge(C, e))
    if is_bridge(C, e):
        return -_chr_delcon(contracted)
    return _chr_delcon(canonical_form(delete_edge(C, e))) - _chr_delcon(contracted)


LAMBDA_CHR = Character(chr_delcon, "chromatic")
LAMBDA_CHR_TILDE = Character(lambda G: (-1) ** degree(G) * chr_delcon(G),
                             "signed-chromatic")
