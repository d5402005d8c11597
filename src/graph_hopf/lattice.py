"""The bounded graded lattice of admissible partitions of a graph.

Elements are the partitions of [n] whose blocks induce connected subgraphs,
ordered by refinement and listed in sorted order.  The methods take element
indices, except `index(p)` and `mobius(p, q)`.  The order is held in bitsets.
Element p gets the refinement code that ORs the mask of the block of v into
slot v (bits v(n+1) .. v(n+1)+n), so p refines q exactly when
code_p & ~code_q == 0.  Each element's down-set and up-set are masks over
element indices, both holding the element itself: covers, intervals and the
Mobius recursion are bit operations on them.  Meet and join read flats, made
on first read: p's flat masks the edges inside p's blocks, bit k for G.edges[k],
and p refines q exactly when p's flat is inside q's.  The meet's flat is an
AND of two; the join spans their OR, once per distinct OR.  The interval
quotient (G|q)/p is built in one pass over the vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from operator import attrgetter

from .graphs import Partition, _bits, _graph, admissible_partitions, components_partition


class AdmissibleLattice:
    """All admissible partitions of a fixed graph under refinement order."""

    def __init__(self, G):
        self.G = G
        self.elements = sorted(admissible_partitions(G), key=attrgetter("blocks"))
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
        E = self.elements
        i = bisect_left(E, p.blocks, key=attrgetter("blocks"))
        if i == len(E) or E[i] != p:
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
        """The interval quotient (G|q)/p of elements p = i <= q = j, numbered as
        `contract` numbers it, from the edges of G inside q's blocks."""
        if not self.leq(i, j):
            raise ValueError("quotient needs element i <= element j")
        p, q = self.elements[i], self.elements[j]
        adj, masks, reach = self.G.adj, p.masks, [0] * len(p.masks)
        for v, b in enumerate(p.growth, 1):
            reach[b] |= adj[v] & q.masks[q.growth[v - 1]]
        return _graph(len(masks), tuple((a + 1, b + 1) for a, hit in enumerate(reach)
                                        for b in range(a + 1, len(masks)) if hit & masks[b]))


def build_lattice(G):
    return AdmissibleLattice(G)
