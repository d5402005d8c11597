"""Independent reference values for checking query-mix outputs.

Nothing here imports graph_hopf.  Graphs are (n, edges) with vertices 1..n,
and the chromatic polynomial comes from counting partitions into
independent sets by a subset recursion, a route none of the library's
engines takes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _adjacency(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def _submasks_with_low_bit(mask):
    """Every submask of mask that contains its lowest set bit."""
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while True:
        yield sub | low
        if sub == 0:
            return
        sub = (sub - 1) & rest


def _independent(adj, mask):
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if adj[v] & mask:
            return False
        m &= m - 1
    return True


def _reach(adj, mask, start):
    """The vertices of mask reachable from the vertex set start inside mask."""
    seen = frontier = start
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = adj[v] & mask & ~seen
        seen |= new
        frontier |= new
    return seen


def _connected(adj, mask):
    return _reach(adj, mask, mask & -mask) == mask


def independent_partition_counts(n, edges):
    """a[k] = number of partitions of the vertices into k independent blocks."""
    adj = _adjacency(n, edges)
    full = (1 << n) - 1
    memo = {0: {0: 1}}

    def count(mask):
        if mask in memo:
            return memo[mask]
        out = {}
        for block in _submasks_with_low_bit(mask):
            if _independent(adj, block):
                for k, c in count(mask ^ block).items():
                    out[k + 1] = out.get(k + 1, 0) + c
        memo[mask] = out
        return out

    by_k = count(full)
    return [by_k.get(k, 0) for k in range(n + 1)]


def connected_partition_count(n, edges):
    """Number of partitions of the vertices whose blocks induce connected subgraphs."""
    adj = _adjacency(n, edges)
    memo = {0: 1}

    def count(mask):
        if mask not in memo:
            memo[mask] = sum(count(mask ^ block) for block in _submasks_with_low_bit(mask)
                             if _connected(adj, block))
        return memo[mask]

    return count((1 << n) - 1)


def chromatic_coefficients(n, edges):
    """Integer coefficients of the chromatic polynomial, index = degree."""
    coeffs = [0] * (n + 1)
    for k, a in enumerate(independent_partition_counts(n, edges)):
        if not a:
            continue
        falling = [1]  # x (x - 1) ... (x - k + 1), built one factor at a time
        for r in range(k):
            falling = [(falling[d - 1] if d else 0) - r * (falling[d] if d < len(falling) else 0)
                       for d in range(len(falling) + 1)]
        for d, c in enumerate(falling):
            coeffs[d] += a * c
    return coeffs


def poly_json(coeffs):
    """The CLI's polynomial encoding: rational strings by degree, zero as ["0"]."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return [str(Fraction(c)) for c in coeffs] or ["0"]


def proper_colorings(n, edges, k):
    """Count maps from the vertices to k colours with distinct colours on every edge."""
    return sum(1 for f in itertools.product(range(k), repeat=n)
               if all(f[i - 1] != f[j - 1] for i, j in edges))


def components(n, edges):
    adj = _adjacency(n, edges)
    left = (1 << n) - 1
    out = 0
    while left:
        left &= ~_reach(adj, left, left & -left)
        out += 1
    return out
