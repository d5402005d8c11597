"""Word symmetric functions and the noncommutative chromatic morphisms.

A packed word is a finite sequence over positive integers whose letters are
exactly 1..k; its fiber partition groups positions by letter.  The W basis
is indexed by set partitions: the W element of a partition is the sum of the
k! packed words with that fiber partition.

Two morphisms from indexed graphs land here: the noncommutative chromatic
element (sum of W over independent partitions, equivalently the sum of all
packed valid colorings read as words) and the packed-coloring morphism,
which sums over *all* packed colorings after contracting the connected
components of each color fiber.  The word-level morphism is not supported
on the W basis termwise (its terms mix lengths), so it lives in word space;
the chromatic element is stored on the W basis and expanded on demand.

The projection onto univariate polynomials sends a packed word w to the
Hilbert polynomial of max(w); on the W basis this is k! times the k-th
Hilbert polynomial for a k-block partition, the normalization under which
the projection intertwines both chromatic morphisms exactly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .chromatic import independent_partitions, is_valid_coloring
from .graphs import Graph, Partition, connected_components, set_partitions
from .linear import LinComb, Polynomial, bilinear, hilbert


def pack(word):
    """Standardize letters by the increasing bijection onto 1..k, preserving order."""
    letters = sorted(set(word))
    relabel = {x: i + 1 for i, x in enumerate(letters)}
    return tuple(relabel[x] for x in word)


def is_packed(word):
    return set(word) == set(range(1, (max(word) if word else 0) + 1))


def partition_of_word(w):
    """Fiber partition of a packed word: positions grouped by letter."""
    if not is_packed(w):
        raise ValueError(f"{w!r} is not packed")
    k = max(w) if w else 0
    fibers = [[] for _ in range(k)]
    for pos, letter in enumerate(w, start=1):
        fibers[letter - 1].append(pos)
    return Partition(len(w), fibers)


def _block_numberings(p, positions):
    """For each numbering of p's blocks by 1..k, in `itertools.permutations`
    order, the word it reads at `positions`: the number of each position's block."""
    index = {b: i for i, b in enumerate(p.blocks)}
    at = [index[p.block_of(v)] for v in positions]
    # itemgetter returns a bare item for one index and needs at least one
    read = itemgetter(*at) if len(at) > 1 else lambda sigma: tuple(sigma[i] for i in at)
    return map(read, itertools.permutations(range(1, len(p) + 1)))


def expand_W(p):
    """The W basis element of a set partition p with k blocks: the sum of the
    k! packed words whose fiber partition is p, one per numbering of p's blocks."""
    return LinComb((w, 1) for w in _block_numberings(p, range(1, p.n + 1)))


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
    """All packed words of length n (one per ordered set partition).

    Kept as a filter of all n^n words on purpose: through
    `packed_valid_colorings` it is the side of `verify.check_wsym_words` that
    does not go through `_block_numberings`, which `expand_W` and `phi0_nc` share.
    """
    if n == 0:
        return ((),)
    return tuple(f for f in itertools.product(range(1, n + 1), repeat=n) if is_packed(f))


def packed_valid_colorings(G):
    """The packed colorings of G (image exactly 1..k for some k) that are valid."""
    for f in _packed_words(G.n):
        if is_valid_coloring(G, f):
            yield f


def coloring_fiber_partition(G, f):
    """Blocks are the connected components of the color fibers of f."""
    return Partition(G.n, connected_components(
        Graph(G.n, [(i, j) for i, j in G.edges if f[i - 1] == f[j - 1]])))


@lru_cache(maxsize=None)
def phi0_nc(G):
    """Packed-coloring morphism: for each packed coloring f, contract the
    connected components of its fibers and read off the induced word, the
    color of each component in the order of their minima.

    A packed coloring is a fiber partition p together with a numbering of
    p's blocks by 1..k.  The components depend on p alone, so they are found
    once per set partition and then read through every numbering.
    """
    def words(p):
        by_block = [p.block_of(v) for v in range(1, G.n + 1)]  # each vertex colored by its block
        minima = [c[0] for c in coloring_fiber_partition(G, by_block).blocks]
        return _block_numberings(p, minima)

    return LinComb((w, 1) for p in set_partitions(G.n) for w in words(p))


def act_nc(G, lam):
    """Right action of a character on the packed-coloring morphism, in word space."""
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
