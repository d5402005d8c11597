"""The chromatic polynomial through independent routes.

Engines: the independent-partition closed form, deletion-contraction, and
the character-expansion formula, the first and last summed block by block
per uncovered vertex set.  Brute-force coloring counts and the two
combinatorial interpretations of values at negative integers (block families
with acyclic orientations; monotone function/orientation pairs) serve as
cross-checks.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .graphs import (
    _memoised,
    _set_partitions_list,
    acyclic_orientation_count,
    acyclic_orientations,
    block_map,
    canonical_form,
    component_graphs,
    contract_edge,
    delete_edge,
    least_blocks,
)
from .linear import Polynomial, falling_factorial


def independent_partitions(G):
    """Partitions of [n] whose blocks are independent (induce no edge): the
    `set_partitions` entries, in order.  Vertex v = 1, ..., n goes into each
    earlier block without a neighbour of v, then into a new block, and the
    growth string so recorded is the entry's key in the shared table."""
    n, adj = G.n, G.adj
    table = _set_partitions_list(n)
    blocks, growth, found = [], [0] * n, []

    def place(v):
        if v > n:
            found.append(table[tuple(growth)])
            return
        nbrs = adj[v]
        for k, mask in enumerate(blocks):
            if not nbrs & mask:
                blocks[k], growth[v - 1] = mask | 1 << v, k
                place(v + 1)
                blocks[k] = mask
        growth[v - 1] = len(blocks)
        blocks.append(1 << v)
        place(v + 1)
        blocks.pop()

    place(1)
    yield from found


def block_sums(G, blocks, weight):
    """c[k] = the sum, over the partitions of [n] into k blocks of the walk
    `blocks` (`least_blocks`), of the product of weight(block mask), kept per
    uncovered mask."""
    @_memoised
    def sums(rest):
        if not rest:
            return [1]
        out = [0] * (rest.bit_count() + 1)
        for b in blocks(rest):
            w = weight(b)
            for k, c in enumerate(sums(rest ^ b)):
                out[k + 1] += w * c
        return out

    return sums((1 << G.n + 1) - 2)


def pchr_partition(G):
    """Chromatic polynomial as the sum of falling factorials over independent partitions."""
    counts = block_sums(G, least_blocks(G, independent=True), lambda b: 1)
    return sum((falling_factorial(k) * a for k, a in enumerate(counts) if a), Polynomial.zero())


def pchr_deletion_contraction(G):
    """Chromatic polynomial by deleting and contracting the smallest edge."""
    out = Polynomial.one()
    for H in component_graphs(G):
        out = out * _pchr_delcon(canonical_form(H))
    return out


@lru_cache(maxsize=None)
def _pchr_delcon(C):
    if not C.edges:
        return Polynomial.x(C.n)
    e = C.edges[0]
    return (pchr_deletion_contraction(delete_edge(C, e))
            - pchr_deletion_contraction(contract_edge(C, e)))


def pchr_character_formula(G):
    """Chromatic polynomial as sum of chromatic-character values times X^(#blocks):
    the value on G|p is the product over p's blocks (`block_map`), summed by
    block count over the admissible partitions (`block_sums`)."""
    from .characters import LAMBDA_CHR

    return Polynomial(block_sums(G, least_blocks(G), block_map(G, LAMBDA_CHR.of_connected)))


ENGINES = {
    "partition": pchr_partition,
    "delcon": pchr_deletion_contraction,
    "character": pchr_character_formula,
}


def count_valid_colorings(G, k):
    """Brute-force count of valid colorings with colors 1..k (backtracking)."""
    if k < 0:
        raise ValueError("color count must be >= 0")
    earlier = [[] for _ in range(G.n + 1)]
    for i, j in G.edges:
        earlier[max(i, j)].append(min(i, j))
    colors = [0] * (G.n + 1)

    def count(v):
        if v > G.n:
            return 1
        total = 0
        for c in range(1, k + 1):
            if all(colors[u] != c for u in earlier[v]):
                colors[v] = c
                total += count(v + 1)
        colors[v] = 0
        return total

    return count(1)


def phi_zero(G):
    """The homogeneous polynomial morphism: X^(vertex count)."""
    return Polynomial.x(G.n)


# ---------------------------------------------------------------------------
# values at negative integers

def stanley_families(G, k):
    """Count ordered k-tuples of (possibly empty) blocks partitioning the
    vertices, each block carrying an acyclic orientation of its induced
    subgraph.  Equals (-1)^|G| P(-k).  Each block's count is computed once
    per call (see `block_map`)."""
    if k < 1:
        raise ValueError("need k >= 1")
    count = block_map(G, acyclic_orientation_count)
    total = 0
    for assignment in itertools.product(range(k), repeat=G.n):
        parts = [0] * k  # the vertex mask of each block
        for v, q in enumerate(assignment, 1):
            parts[q] |= 1 << v
        total += math.prod(map(count, parts))
    return total


def stanley_pairs(G, ks):
    """Yield, for each k in ks, the number (-1)^|G| P(-k) of pairs (f, O):
    f maps vertices to 1..k, O is an acyclic orientation of G, and f never
    decreases along oriented edges.

    Brute force on purpose, after Stanley (1973): every f is tested against
    every acyclic orientation, and nothing is counted by products over blocks
    or levels, as `stanley_families` does.  An orientation is an edge mask
    (see `acyclic_orientations`), listed once for all ks; it is compatible
    with f when, on the edges where f rises or falls, it sets exactly the
    rising ones."""
    if min(ks) < 1:
        raise ValueError("need k >= 1")
    orientations = acyclic_orientations(G)
    edges = [(i - 1, j - 1, 1 << e) for e, (i, j) in enumerate(G.edges)]
    for k in ks:
        total = 0
        for f in itertools.product(range(k), repeat=G.n):
            up = down = 0
            for i, j, bit in edges:
                if f[i] < f[j]:
                    up |= bit
                elif f[i] > f[j]:
                    down |= bit
            mask = up | down
            total += [o & mask for o in orientations].count(up)
        yield total
