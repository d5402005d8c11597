"""The character monoid of the contraction-extraction bialgebra.

A character is a multiplicative rational-valued functional on graph
monomials, determined by its values on connected isomorphism classes.
Convolution is dual to the contraction-extraction coproduct:

    (lam * mu)(G) = sum over admissible p of lam(G/p) * mu(G|p)

with unit the counit (1 on totally disconnected graphs).  Characters act on
graph-to-algebra morphisms on the right:

    (phi <- lam)(G) = sum over admissible p of lam(G|p) * phi(G/p).

The distinguished characters: the all-ones character, whose convolution
inverse is the chromatic character (the derivative of the chromatic
polynomial at 0 on connected graphs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .graphs import (
    Graph,
    admissible_partitions,
    block_map,
    canonical_factors,
    canonical_form,
    contract,
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


def convolve_value(lam, mu, G):
    """The convolution sum evaluated directly on any graph; mu(G|p) is the
    product of mu over p's blocks (see `block_map`)."""
    mu_of = block_map(G, mu.of_connected)
    return sum(lam(contract(G, p)) * math.prod(map(mu_of, p.masks))
               for p in admissible_partitions(G))


def convolve(lam, mu):
    return Character(lambda G: convolve_value(lam, mu, G), f"{lam.name}*{mu.name}")


def invert_character(lam):
    """Convolution inverse; defined exactly when lam is nonzero on one vertex.

    Computed by induction on the vertex count: for connected G the full-block
    partition isolates lam(K1) * inverse(G), every other admissible partition
    only extracts strictly smaller connected pieces.
    """
    c = lam(K1)
    if c == 0:
        raise ValueError("character is not invertible: it vanishes on the one-vertex graph")

    def value(G):
        if G.n == 1:
            return Fraction(1) / c
        inv_of = block_map(G, inv.of_connected)
        total = sum(lam(contract(G, p)) * math.prod(map(inv_of, p.masks))
                    for p in admissible_partitions(G) if len(p) > 1)
        # counit vanishes on connected graphs with an edge
        return Fraction(-total) / c

    inv = Character(value, f"{lam.name}^-1")
    return inv


def act(phi, lam):
    """Right action of a character on a graph-to-algebra morphism; lam(G|p) is
    the product of lam over p's blocks (see `block_map`).  LinComb values times
    their nonzero weights are added term by term into one dict; other values
    (Polynomial) times their weights are added in turn."""
    def acted(G):
        lam_of = block_map(G, lam.of_connected)
        values = [(phi(contract(G, p)), math.prod(map(lam_of, p.masks)))
                  for p in admissible_partitions(G)]
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
