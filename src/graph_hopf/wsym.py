"""Word symmetric functions and the noncommutative chromatic morphisms.

A packed word is a finite sequence over positive integers whose letters are
exactly 1..k; its fiber partition groups positions by letter.  The W basis
is indexed by set partitions: the W element of a partition is the sum of the
k! packed words with that fiber partition.

Two morphisms from indexed graphs land here, both stored on the W basis and
expanded to words on demand: the noncommutative chromatic element (sum of W
over independent partitions, equivalently of all packed valid colorings read
as words) and the packed-coloring morphism, which sums over *all* packed
colorings f the word f induces on the components of its fibers, read in the
order of their minima.  The latter is the sum of W of Q(G, p) over the set
partitions p of [n], where Q(G, p) numbers the components of p's blocks 1..m
by their minima and groups them by the block of p that holds them: f is its
fiber partition p with a numbering of p's blocks by 1..k, the word f induces
has fiber partition Q(G, p), and the k! numberings read each word with that
fiber partition once.  Words of different lengths are W elements of
different degrees.

All of it works on bitmasks: a packed word carries a clash mask over the
edge slots (`graphs._slot_table`), `phi0_nc` reads each set partition's
components through one per-graph table of component minima by vertex mask and
one reader per minima mask, its terms the shared partitions that
`set_partitions` yields, and the W product and coproduct restrict partitions
to masks of positions.

The projection onto univariate polynomials takes W keys only: the W element
of a k-block partition goes to k! times the k-th Hilbert polynomial, the
normalization under which the projection intertwines both chromatic
morphisms exactly: the falling factorial X(X-1)...(X-k+1), whose integer
coefficients times the W coefficients summed by block count fill one list.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter

from .chromatic import independent_partitions
from .graphs import _component_of, _set_partitions_list, _slot_table, set_partitions
from .linear import LinComb, Polynomial, falling_factorial


def is_packed(word):
    return set(word) == set(range(1, (max(word) if word else 0) + 1))


def _reader(positions):
    """`itemgetter(*positions)`, but a tuple for one position or none too."""
    return (itemgetter(*positions) if len(positions) > 1
            else lambda g: tuple(g[i] for i in positions))


def _words(p):
    """The k! packed words with fiber partition p, for p with k blocks: one
    per numbering of the blocks, giving every position its block's number."""
    return map(_reader(p.growth), itertools.permutations(range(1, len(p) + 1)))


def expand(x):
    """Word expansion of a W-basis element in one dict: a word fixes its fiber
    partition, so distinct W keys have disjoint words and no two terms merge."""
    words = {}
    for p, coeff in x.terms():
        words.update(zip(_words(p), itertools.repeat(coeff)))
    return LinComb._merged(words)


# ---------------------------------------------------------------------------
# Hopf structure on the W basis

def wsym_product(p, q):
    """Product of two W elements: all partitions of [k+l] whose packed
    restrictions to the first k and last l positions recover the factors."""
    first = (1 << (p.n + 1)) - 2  # positions 1..k
    last = ((1 << q.n) - 1) << (p.n + 1)  # positions k+1..k+l
    return LinComb((r, 1) for r in set_partitions(p.n + q.n)
                   if r.packed_restriction(first) == p and r.packed_restriction(last) == q)


def wsym_coproduct(p):
    """Coproduct on the W basis: split the block set and pack each side."""
    full = (1 << (p.n + 1)) - 2
    lefts = (sum(chosen)
             for r in range(len(p) + 1) for chosen in itertools.combinations(p.masks, r))
    return LinComb(((p.packed_restriction(left), p.packed_restriction(full ^ left)), 1)
                   for left in lefts)


# ---------------------------------------------------------------------------
# the two morphisms from indexed graphs

@lru_cache(maxsize=None)
def pchr_nc(G):
    """Noncommutative chromatic element: sum of W over the (distinct) independent partitions."""
    return LinComb._merged(dict.fromkeys(independent_partitions(G), 1))


@lru_cache(maxsize=None)
def _packed_words(n):
    """All packed words of length n (one per ordered set partition), each with
    its clash mask: bit `_slot_table(n)[(i, j)]` is set when positions i and j
    carry equal letters.  The words are kept as a filter of all n^n words on
    purpose: through `packed_valid_colorings` this is the side of
    `verify.check_wsym_words` that does not use `expand`."""
    slots = _slot_table(n).items()
    return tuple((f, sum(1 << k for (i, j), k in slots if f[i - 1] == f[j - 1]))
                 for f in itertools.product(range(1, n + 1), repeat=n) if is_packed(f))


def packed_valid_colorings(G):
    """The packed colorings of G (image exactly 1..k for some k) that are
    valid: the packed words whose clash mask misses every edge slot of G."""
    slots = _slot_table(G.n)
    edges = sum(1 << slots[e] for e in G.edges)
    for f, clash in _packed_words(G.n):
        if not clash & edges:
            yield f


@lru_cache(maxsize=None)
def phi0_nc(G):
    """Packed-coloring morphism on the W basis: the sum of W of Q(G, p) over
    the set partitions p of [n] (see the module docstring).  One pass over
    the vertex masks fills two tables: a mask's 0-based positions, and the
    mask of its components' minima, one search per mask.  Read at the minima
    of p's blocks (their sum is an OR, the blocks being disjoint), p's growth
    string names the block of each component by increasing minimum: that is
    Q(G, p): read by one `_reader` per minima mask, made on first use,
    counted, and keyed to the shared table, so equal terms are one object."""
    minima = [0] * (1 << (G.n + 1))  # by vertex mask; bit 0 is never set
    positions = [()] * len(minima)
    for m in range(2, len(minima), 2):
        low = m & -m
        minima[m] = low | minima[m ^ _component_of(G.adj, low, m)]
        positions[m] = (low.bit_length() - 2,) + positions[m ^ low]
    read = [None] * len(minima)  # by minima mask
    counts = {}
    for p in set_partitions(G.n):
        at = sum(map(minima.__getitem__, p.masks))
        get = read[at]
        if get is None:
            get = read[at] = _reader(positions[at])
        growth = get(p.growth)
        counts[growth] = counts.get(growth, 0) + 1
    return LinComb._merged({_set_partitions_list(len(growth))[growth]: c
                            for growth, c in counts.items()})


# ---------------------------------------------------------------------------
# projection onto univariate polynomials

def hilbert_morphism(x):
    """Linear projection of a W-basis element to polynomials: the W element of
    a k-block partition goes to k! H_k, the falling factorial.  W keys only, as
    no caller hands it words; they add up in falling-factorial units, and the
    units times the falling factorials' integer coefficients in one list, so an
    int W element projects to int coefficients and a Fraction one stays exact."""
    units = {}  # by k: the coefficient of k! H_k
    for key, coeff in x.terms():
        k = len(key.blocks)
        units[k] = units.get(k, 0) + coeff
    coeffs = [0] * (max(units, default=-1) + 1)
    for k, c in units.items():
        for d, a in enumerate(falling_factorial(k).coeffs):
            coeffs[d] += a * c
    return Polynomial(coeffs)
