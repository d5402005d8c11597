"""The bounded graded lattice of admissible partitions of a graph.

Elements are the partitions of [n] whose blocks induce connected subgraphs,
ordered by refinement and listed in sorted order.  The order is held in
bitsets.  Element p gets the refinement code that ORs the mask of the block
of v into slot v (bits v(n+1) .. v(n+1)+n), so p refines q exactly when
code_p & ~code_q == 0.  Each element's down-set and up-set are masks over
element indices, both holding the element itself: covers, intervals and the
Mobius recursion are bit operations on them.  Meet and join are the paper's
formulas on block masks, looked up by the set of the result's block masks.
"""

from __future__ import annotations

from .graphs import (
    Partition,
    admissible_partitions,
    component_masks,
    components_partition,
    contract,
    extract,
    is_admissible,
)


def _bits(mask):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AdmissibleLattice:
    """All admissible partitions of a fixed graph under refinement order."""

    def __init__(self, G):
        self.G = G
        self.elements = sorted(admissible_partitions(G))
        self._by_masks = {frozenset(p.masks): i for i, p in enumerate(self.elements)}
        width = G.n + 1
        codes = [sum(m << v * width for m in p.masks for v in _bits(m)) for p in self.elements]
        self.down = [0] * len(codes)
        self.up = [0] * len(codes)
        for j, code in enumerate(codes):
            outside = ~code
            for i, other in enumerate(codes):
                if not other & outside:
                    self.down[j] |= 1 << i
                    self.up[i] |= 1 << j
        self._mobius = {}

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

    def meet_index(self, i, j):
        """Index of the greatest lower bound of elements i and j: the connected
        components of their pairwise block intersections."""
        return self._by_masks[frozenset(
            comp for a in self.elements[i].masks for b in self.elements[j].masks if a & b
            for comp in component_masks(self.G, a & b))]

    def join_index(self, i, j):
        """Index of the least upper bound of elements i and j: the transitive
        closure of the union of the two relations, which merges each block of j
        with the blocks it overlaps."""
        blocks = list(self.elements[i].masks)
        for b in self.elements[j].masks:
            merged = b
            for a in [a for a in blocks if a & b]:
                blocks.remove(a)
                merged |= a
            blocks.append(merged)
        return self._by_masks[frozenset(blocks)]

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
        return self._mobius_idx(i, j)

    def _mobius_idx(self, i, j):
        if (i, j) in self._mobius:
            return self._mobius[(i, j)]
        value = 1 if i == j else -sum(self._mobius_idx(i, k)
                                      for k in _bits(self.up[i] & self.down[j] ^ 1 << j))
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
    return contract(extract(G, q), p)


def zeta(G, p):
    """Edges internal to blocks of p: an order embedding into subsets of E(G)."""
    _require_admissible(G, p)
    return frozenset(extract(G, p).edges)


def zeta_is_bijective(G):
    """True exactly when every edge subset arises, i.e. the lattice has 2^|E| elements."""
    count = sum(1 for _ in admissible_partitions(G))
    return count == 2 ** len(G.edges)
