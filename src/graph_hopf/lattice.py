"""The bounded graded lattice of admissible partitions of a graph.

Elements are the partitions of [n] whose blocks induce connected subgraphs,
ordered by refinement.  The lattice is materialized fully (element list plus
order matrix): its size is bounded by the Bell numbers at desk scale, and an
explicit matrix makes the Mobius recursion and isomorphism checks direct.
"""

from __future__ import annotations

from .graphs import (
    Partition,
    admissible_partitions,
    components_partition,
    components_within,
    contract,
    extract,
    is_admissible,
)


class AdmissibleLattice:
    """All admissible partitions of a fixed graph under refinement order."""

    def __init__(self, G):
        self.G = G
        self.elements = sorted(admissible_partitions(G))
        self._index = {p: i for i, p in enumerate(self.elements)}
        n = len(self.elements)
        self.leq = [[self.elements[i].refines(self.elements[j]) for j in range(n)]
                    for i in range(n)]
        self._mobius = {}

    def __len__(self):
        return len(self.elements)

    def index(self, p):
        if p not in self._index:
            raise ValueError(f"{p} is not an admissible partition of the graph")
        return self._index[p]

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
        """Hasse diagram: index pairs (i, j) with element i covered by element j."""
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq[i][j]:
                    continue
                if not any(k != i and k != j and self.leq[i][k] and self.leq[k][j]
                           for k in range(n)):
                    out.append((i, j))
        return out

    def meet(self, p, q):
        """Greatest lower bound: connected components of pairwise block intersections."""
        self.index(p), self.index(q)
        inters = (set(a) & set(b) for a in p.blocks for b in q.blocks)
        return Partition(self.G.n, [comp for inter in inters if inter
                                    for comp in components_within(self.G, inter)])

    def join(self, p, q):
        """Least upper bound: transitive closure of the union of the two relations."""
        self.index(p), self.index(q)
        parent = list(range(self.G.n + 1))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for part in (p, q):
            for block in part.blocks:
                for v in block[1:]:
                    parent[find(v)] = find(block[0])
        groups = {}
        for v in range(1, self.G.n + 1):
            groups.setdefault(find(v), []).append(v)
        return Partition(self.G.n, groups.values())

    def mobius(self, p, q):
        """Mobius function of the lattice; requires p <= q."""
        i, j = self.index(p), self.index(q)
        if not self.leq[i][j]:
            raise ValueError("mobius needs p <= q")
        return self._mobius_idx(i, j)

    def _mobius_idx(self, i, j):
        if (i, j) in self._mobius:
            return self._mobius[(i, j)]
        if i == j:
            value = 1
        else:
            value = -sum(self._mobius_idx(i, k)
                         for k in range(len(self.elements))
                         if k != j and self.leq[i][k] and self.leq[k][j])
        self._mobius[(i, j)] = value
        return value

    def interval(self, p, q):
        """Indices of the elements between p and q."""
        i, j = self.index(p), self.index(q)
        if not self.leq[i][j]:
            raise ValueError("empty interval: p <= q fails")
        return [k for k in range(len(self.elements)) if self.leq[i][k] and self.leq[k][j]]


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
    return contract(extract(G, q), p)


def zeta(G, p):
    """Edges internal to blocks of p: an order embedding into subsets of E(G)."""
    _require_admissible(G, p)
    return frozenset(extract(G, p).edges)


def zeta_is_bijective(G):
    """True exactly when every edge subset arises, i.e. the lattice has 2^|E| elements."""
    count = sum(1 for _ in admissible_partitions(G))
    return count == 2 ** len(G.edges)
