"""The bounded graded lattice of admissible partitions of a graph.

Elements are the partitions of [n] whose blocks induce connected subgraphs,
ordered by refinement and listed in sorted order.  The order is held in
bitsets.  Element p gets the refinement code that ORs the mask of the block
of v into slot v (bits v(n+1) .. v(n+1)+n), so p refines q exactly when
code_p & ~code_q == 0.  Each element's down-set and up-set are masks over
element indices, both holding the element itself: covers, intervals and the
Mobius recursion are bit operations on them.  Meet and join read flats, made
on first read: p's flat masks the edges inside p's blocks, bit k for G.edges[k].
The meet's flat is an AND of two; the join spans their OR, once per distinct
OR.  The interval quotient (G|q)/p is built in one pass over the vertices.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .graphs import (
    Partition,
    _bits,
    _graph,
    admissible_partitions,
    components_partition,
    extract,
    is_admissible,
)


class AdmissibleLattice:
    """All admissible partitions of a fixed graph under refinement order."""

    def __init__(self, G):
        self.G = G
        self.elements = sorted(admissible_partitions(G), key=attrgetter("blocks"))
        self._by_masks = {frozenset(p.masks): i for i, p in enumerate(self.elements)}
        width = G.n + 1
        codes = [sum(p.masks[k] << v * width for v, k in enumerate(p.growth, 1))
                 for p in self.elements]
        self.down = [0] * len(codes)
        self.up = [0] * len(codes)
        for j, code in enumerate(codes):
            outside = ~code
            for i, other in enumerate(codes):
                if not other & outside:
                    self.down[j] |= 1 << i
                    self.up[i] |= 1 << j
        self._mobius, self._joins = {}, {}  # _joins: the join of each OR of two flats met so far

    def __len__(self):
        return len(self.elements)

    def index(self, p):
        i = self._by_masks.get(frozenset(p.masks))
        if i is None:
            raise ValueError(f"{p} is not an admissible partition of the graph")
        return i

    def leq(self, i, j):
        """Does element i refine element j?"""
        return bool(self.down[j] >> i & 1)

    @property
    def bottom(self):
        return Partition.singletons(self.G.n)

    @property
    def top(self):
        return components_partition(self.G)

    def rank(self, p):
        self.index(p)
        return self.G.n - len(p)

    def covers(self):
        """Hasse diagram: index pairs (i, j) with element i covered by element j,
        by i and then j ascending."""
        return [(i, j) for i, up in enumerate(self.up) for j in _bits(up ^ 1 << i)
                if up & self.down[j] == (1 << i) | (1 << j)]

    @cached_property
    def _inside(self):
        """Per vertex mask, the mask of the edges with both ends in it."""
        ends = [1 << a | 1 << b for a, b in self.G.edges]
        return [sum(1 << k for k, e in enumerate(ends) if not e & ~m) for m in range(2 << self.G.n)]

    @cached_property
    def flats(self):
        """Per element, the mask of the edges inside its blocks, bit k for G.edges[k]."""
        return [sum(map(self._inside.__getitem__, p.masks)) for p in self.elements]

    @cached_property
    def _by_flat(self):
        return {flat: i for i, flat in enumerate(self.flats)}

    def meet_index(self, i, j):
        """Index of the greatest lower bound of elements i and j: the flats of
        the cycle matroid are closed under intersection."""
        return self._by_flat[self.flats[i] & self.flats[j]]

    def join_index(self, i, j):
        """Index of the least upper bound of elements i and j: its blocks are the
        components of the edges in either flat, spanned once per distinct union."""
        union = self.flats[i] | self.flats[j]
        if union not in self._joins:
            self._joins[union] = self._by_flat[self._span(union)]
        return self._joins[union]

    def _span(self, edges):
        """The flat spanned by an edge mask, one merge of two blocks per edge between them."""
        block, flat = [1 << v for v in range(self.G.n + 1)], 0  # block[v]: v's block so far
        while edges:
            a, b = self.G.edges[(edges & -edges).bit_length() - 1]
            rest = merged = block[a] | block[b]
            while rest:  # `_bits` inlined: its generator took over a quarter of the span's time
                low = rest & -rest
                block[low.bit_length() - 1] = merged
                rest ^= low
            flat |= self._inside[merged]
            edges &= ~flat  # the edges now inside a block
        return flat

    def meet(self, p, q):
        """The meet of two elements; ValueError if either is not admissible."""
        return self.elements[self.meet_index(self.index(p), self.index(q))]

    def join(self, p, q):
        """The join of two elements; ValueError if either is not admissible."""
        return self.elements[self.join_index(self.index(p), self.index(q))]

    def mobius(self, p, q):
        """Mobius function of the lattice; requires p <= q."""
        i, j = self.index(p), self.index(q)
        if not self.leq(i, j):
            raise ValueError("mobius needs p <= q")
        return self.mobius_index(i, j)

    def mobius_index(self, i, j):
        """Mobius function on element indices i <= j, not checked."""
        if (i, j) in self._mobius:
            return self._mobius[(i, j)]
        value = 1 if i == j else -sum(self.mobius_index(i, k)
                                      for k in _bits(self.up[i] & self.down[j] & ~(1 << j)))
        self._mobius[(i, j)] = value
        return value

    def quotient(self, i, j):
        """The interval quotient (G|q)/p of elements i <= j, taken without
        re-checking that they are admissible (see `interval_quotient`)."""
        if not self.leq(i, j):
            raise ValueError("quotient needs element i <= element j")
        return _quotient(self.G, self.elements[i], self.elements[j])

    def interval(self, p, q):
        """Indices of the elements between p and q."""
        i, j = self.index(p), self.index(q)
        if not self.leq(i, j):
            raise ValueError("empty interval: p <= q fails")
        return list(_bits(self.up[i] & self.down[j]))


def build_lattice(G):
    return AdmissibleLattice(G)


def _require_admissible(G, *parts):
    for p in parts:
        if not is_admissible(G, p):
            raise ValueError(f"{p} is not admissible")


def interval_quotient(G, p, q):
    """The graph (G|q)/p: extract along the coarser partition, then contract
    the finer one.  The interval [p, q] is order-isomorphic to the admissible
    lattice of the result."""
    _require_admissible(G, p, q)
    if not p.refines(q):
        raise ValueError("interval_quotient needs p <= q")
    return _quotient(G, p, q)


def _quotient(G, p, q):
    """(G|q)/p, numbered as `contract` numbers it, from the edges of G inside q's blocks."""
    adj, masks, reach = G.adj, p.masks, [0] * len(p.masks)
    for v, b in enumerate(p.growth, 1):
        reach[b] |= adj[v] & q.masks[q.growth[v - 1]]
    return _graph(len(masks), tuple((a + 1, b + 1) for a, hit in enumerate(reach)
                                    for b in range(a + 1, len(masks)) if hit & masks[b]))


def zeta(G, p):
    """Edges internal to blocks of p: an order embedding into subsets of E(G)."""
    _require_admissible(G, p)
    return frozenset(extract(G, p).edges)


def zeta_is_bijective(G):
    """True exactly when every edge subset arises, i.e. the lattice has 2^|E| elements."""
    count = sum(1 for _ in admissible_partitions(G))
    return count == 2 ** len(G.edges)
