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

Both work on bitmasks: a packed word carries a clash mask over the edge
slots (`graphs._slot_table`), and `phi0_nc` reads components from one table
per graph, its terms the shared partitions that `set_partitions` yields.

The projection onto univariate polynomials sends a packed word w to the
Hilbert polynomial of max(w); on the W basis this is k! times the k-th
Hilbert polynomial for a k-block partition, the normalization under which
the projection intertwines both chromatic morphisms exactly.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache
from operator import attrgetter, itemgetter

from .chromatic import independent_partitions
from .graphs import Partition, _set_partitions_list, _slot_table, component_masks, set_partitions
from .linear import LinComb, Polynomial, bilinear, hilbert


def pack(word):
    """Standardize letters by the increasing bijection onto 1..k, preserving order."""
    relabel = {x: i for i, x in enumerate(sorted(set(word)), start=1)}
    return tuple(relabel[x] for x in word)


def is_packed(word):
    return set(word) == set(range(1, (max(word) if word else 0) + 1))


def _shared_partition(growth):
    """The partition with this restricted-growth string, as the very object
    that `set_partitions(len(growth))` yields: found by bisection, since that
    list is in increasing order of `growth`."""
    parts = _set_partitions_list(len(growth))
    return parts[bisect_left(parts, growth, key=attrgetter("growth"))]


def partition_of_word(w):
    """Fiber partition of a packed word: positions grouped by letter."""
    if not is_packed(w):
        raise ValueError(f"{w!r} is not packed")
    return Partition.of_labels(w)


def expand_W(p):
    """The W basis element of a set partition p with k blocks: the sum of the
    k! packed words whose fiber partition is p, one per numbering of p's
    blocks, each word giving every position the number of its block."""
    at = p.growth
    # itemgetter returns a bare item for one index and needs at least one
    read = itemgetter(*at) if len(at) > 1 else lambda sigma: tuple(sigma[i] for i in at)
    return LinComb((read(sigma), 1) for sigma in itertools.permutations(range(1, len(p) + 1)))


def expand(x):
    """Word expansion of a W-basis element."""
    return x.bind(expand_W)


# ---------------------------------------------------------------------------
# Hopf structure on the W basis

def wsym_product(p, q):
    """Product of two W elements: all partitions of [k+l] whose packed
    restrictions to the first k and last l positions recover the factors."""
    k, l = p.n, q.n
    first, last = range(1, k + 1), range(k + 1, k + l + 1)
    return LinComb((r, 1) for r in set_partitions(k + l)
                   if r.packed_restriction(first) == p and r.packed_restriction(last) == q)


def wsym_element_product(x, y):
    return bilinear(x, y, wsym_product)


def wsym_coproduct(p):
    """Coproduct on the W basis: split the block set and pack each side."""
    everything = set(range(1, p.n + 1))
    lefts = (set().union(*chosen)
             for r in range(len(p) + 1) for chosen in itertools.combinations(p.blocks, r))
    return LinComb(((p.packed_restriction(left), p.packed_restriction(everything - left)), 1)
                   for left in lefts)


def wsym_element_coproduct(x):
    return x.bind(wsym_coproduct)


# ---------------------------------------------------------------------------
# the two morphisms from indexed graphs

@lru_cache(maxsize=None)
def pchr_nc(G):
    """Noncommutative chromatic element: sum of W over independent partitions."""
    return LinComb((p, 1) for p in independent_partitions(G))


@lru_cache(maxsize=None)
def _packed_words(n):
    """All packed words of length n (one per ordered set partition), each with
    its clash mask: bit `_slot_table(n)[(i, j)]` is set when positions i and j
    carry equal letters.  The words are kept as a filter of all n^n words on
    purpose: through `packed_valid_colorings` this is the side of
    `verify.check_wsym_words` that does not use `expand_W`."""
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
    the vertex masks fills a table of component minima, one search per mask.
    Read by their minima, the components of p's blocks name their blocks:
    that restricted-growth string is Q(G, p), counted in one dict and read
    as a shared partition, so equal terms of any two graphs are one object."""
    minima = [()] * (1 << (G.n + 1))  # by vertex mask; bit 0 is never set
    for m in range(2, len(minima), 2):
        minima[m] = (m & -m,) + minima[m ^ next(component_masks(G, m))]
    counts = {}
    for p in set_partitions(G.n):
        by_minima = sorted([(low, i) for i, mask in enumerate(p.masks) for low in minima[mask]])
        growth = tuple([i for _, i in by_minima])
        counts[growth] = counts.get(growth, 0) + 1
    return LinComb((_shared_partition(growth), c) for growth, c in counts.items())


def act_nc(G, lam):
    """Right action of a character on the packed-coloring morphism, on the
    W basis; with the chromatic character it gives `pchr_nc(G)`."""
    from .characters import act

    return act(phi0_nc, lam)(G)


# ---------------------------------------------------------------------------
# projection onto univariate polynomials

def hilbert_morphism(x):
    """Linear projection to polynomials: word w -> H_max(w); W element of a
    k-block partition -> k! H_k.  Accepts word-space or W-basis elements."""
    weights = {}
    for key, coeff in x.terms():
        if isinstance(key, Partition):
            k = len(key)
            coeff = coeff * math.factorial(k)
        else:
            k = max(key) if key else 0
        weights[k] = weights.get(k, 0) + coeff
    return sum((hilbert(k) * coeff for k, coeff in sorted(weights.items())), Polynomial.zero())
