"""Indexed simple graphs on the vertex set [n] = {1, ..., n}.

Structural operations: restriction, contraction, extraction, admissible
partitions (every block induces a connected subgraph), nested forests,
acyclic orientations, and exact isomorphism canonicalization for small
graphs.

Vertices are the integers 1..n; an edge is an unordered pair stored as
(i, j) with i < j.  The adjacency as per-vertex bitmasks is built on first
read.  Inside the package a vertex set is a mask with bit v for each vertex
v; only `restrict` and `connected_components` take or give vertex tuples.
Each Partition keeps one mask per block and its restricted-growth string;
the table of all of them is keyed by that string, in increasing order, and
extends that of [n - 1] by n, sharing blocks.  Any other is built from a
labelling (`Partition.of_labels`).  A sum over the partitions into connected
or into independent blocks walks the blocks of the least uncovered vertex
(`least_blocks`); G/p's edges come from one neighbourhood list by mask
(`_neighbourhoods`).  The empty graph (n = 0), the unit `disjoint_union()`,
is accepted everywhere.

All values are immutable after construction (the masks, once built, are
fixed too) and every operation is a pure function, so values can be shared
freely across threads.  Memo tables only cache idempotent pure results.
A memo for the life of one call is `_memoised`; `lru_cache` keeps the rest.
The canonical form of a disconnected graph also carries its sorted
connected factors, set when `canonical_form` builds it, so the isoclass
monomial of a graph is one memo lookup (`canonical_factors`).
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

_DIGITS = re.compile(r"\s*[0-9]+\s*")  # a number in the text format: ASCII digits only


class Graph:
    """Simple graph on vertices 1..n: the edges as a sorted tuple of pairs and
    the adjacency as a tuple of n + 1 bitmasks (bit u of adj[v] is the edge
    v-u; adj[0] is 0), built on first read; the hash is set on construction.

    `factors` is None except on a disconnected canonical form, where it holds
    the canonical forms of the components, sorted; equality and the hash
    ignore it."""

    __slots__ = ("n", "edges", "_adj", "_hash", "factors")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        normalized = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop edge {i}-{j} not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {i}-{j} out of range for n={n}")
            normalized.add((i, j) if i < j else (j, i))
        self._set(n, tuple(sorted(normalized)))

    def _set(self, n, edges):
        self.n, self.edges, self._adj, self.factors = n, edges, None, None
        self._hash = hash((n, edges))

    @property
    def adj(self):
        if self._adj is None:
            adj = [0] * (self.n + 1)
            for i, j in self.edges:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            self._adj = tuple(adj)
        return self._adj

    def has_edge(self, i, j):
        """True when i-j is an edge; False for any pair outside 1..n."""
        return 1 <= i <= self.n and 1 <= j <= self.n and bool(self.adj[i] >> j & 1)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.n, self.edges) < (other.n, other.edges)

    def __str__(self):
        return format_graph(self)

    def __repr__(self):
        return f"Graph({format_graph(self)!r})"


def _graph(n, edges):
    """A Graph from a sorted tuple of normalised in-range edges, without the
    checks of the public constructor."""
    G = Graph.__new__(Graph)
    G._set(n, edges)
    return G


class Partition:
    """Set partition of [n]: disjoint nonempty blocks covering 1..n.

    Canonical presentation: every block sorted, blocks ordered by their
    minimal element; `masks` holds each block's vertex mask, in block order,
    and `growth` the restricted-growth string: growth[v - 1] is the index of
    the block that holds v.  Doubles as an equivalence relation on vertices
    and as a basis key for word symmetric functions.  A partition derived
    from another structure is built from a labelling by `of_labels`.
    """

    __slots__ = ("n", "blocks", "masks", "growth", "_hash")

    def __init__(self, n, blocks):
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        growth = [None] * n
        masks = []
        for k, b in enumerate(blocks):
            if not b:
                raise ValueError("empty block")
            mask = 0
            for v in b:
                if not (1 <= v <= n):
                    raise ValueError(f"element {v} out of range for n={n}")
                if growth[v - 1] is not None:
                    raise ValueError(f"element {v} in two blocks")
                growth[v - 1] = k
                mask |= 1 << v
            masks.append(mask)
        if None in growth:
            raise ValueError("blocks do not cover [n]")
        self.n = n
        self.blocks = blocks
        self.masks = tuple(masks)
        self.growth = tuple(growth)
        self._hash = hash(self.masks)

    @classmethod
    def of_labels(cls, labels):
        """The partition of 1..len(labels) grouping the positions of equal labels."""
        blocks = {}
        for v, label in enumerate(labels, 1):
            blocks.setdefault(label, []).append(v)
        return cls(len(labels), blocks.values())

    @classmethod
    def singletons(cls, n):
        return cls(n, [(v,) for v in range(1, n + 1)])

    def __len__(self):
        return len(self.blocks)

    def refines(self, other):
        """True when every block of self lies inside the block of other that holds its minimum."""
        if self.n != other.n:
            raise ValueError("partitions on different ground sets")
        masks, at = other.masks, other.growth
        return all(not m & ~masks[at[b[0] - 1]] for b, m in zip(self.blocks, self.masks))

    def packed_restriction(self, mask):
        """Restrict to the vertices of a mask, relabelled 1..k in increasing order."""
        return Partition.of_labels([self.growth[v - 1] for v in _bits(mask)])

    def __eq__(self, other):
        return isinstance(other, Partition) and self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.n, self.blocks) < (other.n, other.blocks)

    def __str__(self):
        return "{" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"

    def __repr__(self):
        return f"Partition({self.n}, {list(map(list, self.blocks))})"


# ---------------------------------------------------------------------------
# text format: "n: i-j, k-l"; "0:" is the empty graph

def parse_graph(text):
    """Parse the graph text format `n: i-j, k-l, ...`; rejects loops and duplicates."""
    if ":" not in text:
        raise ValueError(f"missing ':' in graph {text!r}")
    head, _, tail = text.partition(":")
    if not _DIGITS.fullmatch(head):
        raise ValueError(f"bad vertex count in graph {text!r}")
    n = int(head)
    edges = {}  # each edge as written, keyed by its pair in order
    if tail.strip():
        for token in tail.split(","):
            parts = token.split("-")
            if len(parts) != 2 or not all(map(_DIGITS.fullmatch, parts)):
                raise ValueError(f"bad edge {token.strip()!r} in graph {text!r}")
            i, j = int(parts[0]), int(parts[1])
            key = (min(i, j), max(i, j))
            if key in edges:
                raise ValueError(f"duplicate edge {i}-{j} in graph {text!r}")
            edges[key] = (i, j)
    return Graph(n, edges.values())


def format_graph(G):
    if not G.edges:
        return f"{G.n}:"
    return f"{G.n}: " + ", ".join(f"{i}-{j}" for i, j in G.edges)


# ---------------------------------------------------------------------------
# constructions

def edgeless(n):
    return Graph(n)


def complete(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def disjoint_union(*graphs):
    """Concatenate: each graph's vertices are shifted by the sizes of those
    before it.  This is the graph product, and `disjoint_union()` its unit."""
    edges, k = [], 0
    for H in graphs:
        edges += [(i + k, j + k) for i, j in H.edges]
        k += H.n
    return _graph(k, tuple(edges))


# ---------------------------------------------------------------------------
# restriction / contraction / extraction

def restrict(G, subset):
    """Induced subgraph on a subset of [n], relabeled to [k] by the increasing bijection."""
    subset = sorted(set(subset))
    for v in subset:
        if not (1 <= v <= G.n):
            raise ValueError(f"vertex {v} out of range for n={G.n}")
    return _restrict(G, sum(1 << v for v in subset))


def _restrict(G, mask):
    """`restrict` to the vertices of a mask within [n], without the range check."""
    at, k = [0] * (G.n + 1), 0  # at[v]: the vertex of the result that v becomes, or 0
    for v in range(1, G.n + 1):
        if mask >> v & 1:
            k += 1
            at[v] = k
    return _graph(k, tuple((at[i], at[j]) for i, j in G.edges if at[i] and at[j]))


def contract(G, p):
    """Collapse every block of p to one vertex, dropping loops and multi-edges.

    Blocks are indexed by their minimal elements: the block with the b-th
    smallest minimum becomes vertex b of the result, joined to each later
    block that the OR of its vertices' adjacency masks meets.
    """
    if p.n != G.n:
        raise ValueError("partition does not match the vertex set")
    adj, masks = G.adj, p.masks
    reach = [0] * len(masks)
    for v, b in enumerate(p.growth, 1):
        reach[b] |= adj[v]
    return _graph(len(masks), tuple((a + 1, b + 1) for a, hit in enumerate(reach)
                                    for b in range(a + 1, len(masks)) if hit & masks[b]))


def _quotient_graph(k, bits, width):
    """The graph on [k] with the edge j-l for each set bit j * width + l of `bits`."""
    return _graph(k, tuple(divmod(e, width) for e in _bits(bits)))


def extract(G, p):
    """Keep only the edges internal to blocks of p; vertex set unchanged."""
    if p.n != G.n:
        raise ValueError("partition does not match the vertex set")
    at = p.growth
    return _graph(G.n, tuple((i, j) for i, j in G.edges if at[i - 1] == at[j - 1]))


def _memoised(f):
    """f with a memo that lives as long as the returned function does."""
    memo = {}
    return lambda x: memo[x] if x in memo else memo.setdefault(x, f(x))


def block_map(G, fn):
    """The map S -> fn(G|S) on vertex masks S, computed once per mask and
    kept only as long as the returned function.

    For an admissible partition p, the extraction G|p is the disjoint union of
    the subgraphs induced on p's blocks, each of them connected.  So a sum over
    admissible partitions that only projects or evaluates G|p may read it block
    by block (`p.masks`) through this map instead of building extract(G, p),
    and a block shared by many partitions is restricted once.  A sum over the
    bipartitions V = I ⊔ J reads both sides through it, restricting each once.
    """
    return _memoised(lambda mask: fn(_restrict(G, mask)))


def _neighbourhoods(G):
    """Entry m >> 1: the OR of the adjacency masks of mask m's vertices."""
    adj, reach = G.adj, [0]
    for i in range(1, 1 << G.n):
        reach.append(reach[i & i - 1] | adj[(i & -i).bit_length()])
    return reach


@lru_cache(maxsize=None)
def _set_partitions_list(n):
    """The set partitions of [n] keyed by their `growth`, inserted in
    increasing order of it, built by extension: each one of [n - 1] in turn,
    with n put into each of its blocks, then alone.  The blocks without n are
    the parent's own tuples.  Not to be mutated: every caller shares it."""
    if n == 0:
        return {(): Partition.of_labels(())}
    out = {}
    for q in _set_partitions_list(n - 1).values():  # n alone: added to an empty last block
        for k, (block, mask) in enumerate(zip(q.blocks + ((),), q.masks + (0,))):
            p = Partition.__new__(Partition)
            p.n, p.growth = n, q.growth + (k,)
            p.blocks = q.blocks[:k] + (block + (n,),) + q.blocks[k + 1:]
            p.masks = q.masks[:k] + (mask | 1 << n,) + q.masks[k + 1:]
            p._hash = hash(p.masks)
            out[p.growth] = p
    return out


def set_partitions(n):
    """All set partitions of [n], by increasing restricted-growth string (`growth`)."""
    yield from _set_partitions_list(n).values()


@lru_cache(maxsize=None)
def _admissible_list(G):
    adj = G.adj
    connected = [_connected_mask(adj, m) for m in range(1 << (G.n + 1))]  # by block mask
    return tuple(p for p in _set_partitions_list(G.n).values()
                 if all(map(connected.__getitem__, p.masks)))


def admissible_partitions(G):
    """Every partition of [n] whose blocks all induce connected subgraphs."""
    yield from _admissible_list(G)


def least_blocks(G, independent=False):
    """The map rest -> the blocks inside the vertex mask `rest` that hold its
    least vertex and are connected, or independent; each list is found once
    per mask, for as long as the returned function lives.  A block of the
    least uncovered vertex, then one of what it leaves, and so on, reaches
    each partition into such blocks once, blocks by least vertex (the subset
    recursion of Bjorklund-Husfeldt-Koivisto, SIAM J. Comput. 2009)."""
    adj = G.adj

    def blocks(rest):
        low = rest & -rest
        found = [low]
        if independent:  # extend each independent set by each later non-neighbour
            for u in _bits(rest & ~adj[low.bit_length() - 1] ^ low):
                found += [b | 1 << u for b in found if not adj[u] & b]
        else:  # the connected subsets of low's component that hold low
            room = s = _component_of(adj, low, rest) ^ low
            while s:
                if _connected_mask(adj, low | s):
                    found.append(low | s)
                s = (s - 1) & room
        return found

    return _memoised(blocks)


# ---------------------------------------------------------------------------
# edge surgery

def _require_edge(G, e):
    i, j = e
    if not G.has_edge(i, j):
        raise ValueError(f"edge {i}-{j} not in graph")
    return (min(i, j), max(i, j))


def delete_edge(G, e):
    key = _require_edge(G, e)
    return _graph(G.n, tuple(f for f in G.edges if f != key))


def contract_edge(G, e):
    i, j = _require_edge(G, e)
    return contract(G, Partition.of_labels([i if v == j else v for v in range(1, G.n + 1)]))


def is_bridge(G, e):
    return cc(delete_edge(G, e)) > cc(G)


# ---------------------------------------------------------------------------
# components and grading

def _bits(mask):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component_of(adj, seed, within):
    """Mask of the component that holds the one-vertex mask `seed` in the
    subgraph induced on the mask `within`: grown by OR-ing the adjacency masks
    of its frontier."""
    comp = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & within & ~comp
        comp |= frontier
    return comp


def _connected_mask(adj, mask):
    """Does the vertex mask induce a connected subgraph?  The empty set does not."""
    return mask != 0 and _component_of(adj, mask & -mask, mask) == mask


def component_masks(G, mask):
    """Vertex masks of the components of the subgraph induced on `mask`, by lowest vertex."""
    adj = G.adj
    while mask:  # the vertices not yet in a component
        comp = _component_of(adj, mask & -mask, mask)
        mask ^= comp
        yield comp


def connected_components(G):
    """Vertex sets of the components, each sorted, listed by minimal element."""
    return [tuple(_bits(c)) for c in component_masks(G, (1 << (G.n + 1)) - 2)]


def component_graphs(G):
    """The subgraphs induced on the components, listed by minimal vertex; G
    itself when it is connected."""
    comps = list(component_masks(G, (1 << (G.n + 1)) - 2))
    return [G] if len(comps) == 1 else [_restrict(G, c) for c in comps]


def cc(G):
    return sum(1 for _ in component_masks(G, (1 << (G.n + 1)) - 2))


def is_connected(G):
    return cc(G) == 1


def degree(G):
    """Grading of the contraction-extraction bialgebra: |G| - cc(G)."""
    return G.n - cc(G)


def components_partition(G):
    """The coarsest admissible partition: blocks are the connected components."""
    return Partition(G.n, connected_components(G))


# ---------------------------------------------------------------------------
# isomorphism canonicalization
#
# The representative minimizes the upper-triangular adjacency bitstring (edge
# (i, j) sets bit _slot_table(n)[(i, j)]) over the relabelings that list the
# vertex-signature classes (degree, neighbor degrees, triangle count) in
# sorted order.  That candidate set is isomorphism-invariant, so its minimum
# is canonical.  Row p, the slots (p, q) with q > p, outweighs every row below
# it, so the minimum is found row by row: fill positions n, n-1, ..., 1 from
# the class that owns each, keep only the partial labelings whose new row is
# least, and carry ties forward (after McKay-Piperno's search tree, with
# lexicographic leaves).  It reaches the sweep's minimum, so the
# representative does not depend on how the search is done:
# - Position bits: a partial labeling is a list `at` with at[w] = 1 << q for w
#   placed at q, else 0, so a candidate's row is the OR of `at` over its
#   neighbors.  Slot (p, q) rises with q, so these ints order the candidates
#   as their slot bits do.
# - Twin rule: if unplaced u and v have equal neighborhoods apart from each
#   other, swapping them is an automorphism fixing every placed vertex, so
#   only one is tried.  A plain loop: a generator per candidate cost more.
# - The edges of the result are the `_slot_table(n)` keys, read through the
#   slot mask, so all memoised forms share them; fresh pairs per form raised
#   query-mix `peak_rss_mb` by 3-4 %.

@lru_cache(maxsize=None)
def _slot_table(n):
    table = {}
    k = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            table[(i, j)] = k
            k += 1
    return table


def _vertex_signature(adj):
    """Each vertex's neighbor list, by vertex, and its invariants (degree,
    sorted neighbor degrees, triangle count) from adjacency bitmasks (bit u of
    adj[v] is edge v-u)."""
    nbrs = [list(_bits(a)) for a in adj]
    sig = {}
    for v in range(1, len(adj)):
        tri = sum([(adj[u] & adj[v]).bit_count() for u in nbrs[v]]) // 2
        sig[v] = (len(nbrs[v]), tuple(sorted([len(nbrs[u]) for u in nbrs[v]])), tri)
    return nbrs, sig


def _canonical_connected(G):
    n, adj = G.n, G.adj
    nbrs, sig = _vertex_signature(adj)
    classes = {}
    for v, s in sig.items():
        classes.setdefault(s, []).append(v)
    owner = [None] + [classes[s] for s in sorted(classes) for _ in classes[s]]
    slots = _slot_table(n)
    mask, states = 0, [[0] * (n + 1)]  # the tied labelings' position bits
    for p in range(n, 0, -1):
        best, ties = 2 << n, []  # above every row
        for at in states:
            tried = []
            for v in owner[p]:
                if at[v]:
                    continue
                for u in tried:
                    if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                        break
                else:
                    tried.append(v)
                    row = 0
                    for w in nbrs[v]:
                        row |= at[w]
                    if row < best:
                        best, ties = row, []
                    if row == best:
                        ties.append(at[:])
                        ties[-1][v] = 1 << p
        states = ties
        if best:  # bit q of the row is slot (p, q)
            mask |= best >> p + 1 << slots[(p, p + 1)]
    return _graph(n, tuple(e for e, k in slots.items() if mask >> k & 1))


def _canonical_form(G):
    """`canonical_form` without its memo."""
    if G.n == 0:
        return G
    forms = tuple(sorted(map(_canonical_connected, component_graphs(G))))
    if len(forms) == 1:
        return forms[0]
    out = disjoint_union(*forms)
    out.factors = forms
    return out


@lru_cache(maxsize=None)
def canonical_form(G):
    """A canonical representative of the isomorphism class of G.

    A disconnected G maps to the disjoint union of its components' canonical
    forms in sorted order, and that representative keeps the sorted forms
    as its `factors`, set when it is built."""
    return _canonical_form(G)


def canonical_factors(G):
    """The isoclass monomial of G: the canonical forms of its components,
    sorted; (C,) for a connected G with canonical form C, () for the empty
    graph.  One lookup in the `canonical_form` memo."""
    C = canonical_form(G)
    return C.factors or ((C,) if C.n else ())


# ---------------------------------------------------------------------------
# enumeration of isomorphism classes

def all_graphs(n):
    """Every labeled graph on [n] (2^(n choose 2) of them)."""
    pairs = list(complete(n).edges)
    for mask in range(1 << len(pairs)):
        yield Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


@lru_cache(maxsize=None)
def graph_isoclasses(n):
    """Canonical representatives of all isomorphism classes on exactly n
    vertices, sorted.  Each is a class H on n - 1 vertices with vertex n
    joined to a subset of [n - 1] (the extension step of McKay, Isomorph-free
    exhaustive generation, J. Algorithms 1998), deduplicated by canonical form.
    The candidates bypass the `canonical_form` memo: only their forms are kept."""
    if n == 0:
        return (Graph(0),)
    forms = set()
    for H in graph_isoclasses(n - 1):
        for S in range(0, 1 << n, 2):  # bit v of S: the edge v-n
            edges = sorted(H.edges + tuple((v, n) for v in _bits(S)))
            forms.add(_canonical_form(_graph(n, tuple(edges))))
    return tuple(sorted(forms))


def connected_isoclasses(n):
    return tuple(g for g in graph_isoclasses(n) if g.n and is_connected(g))


def isoclasses_up_to(n):
    """All isomorphism classes with 0..n vertices."""
    out = []
    for k in range(n + 1):
        out.extend(graph_isoclasses(k))
    return tuple(out)


# ---------------------------------------------------------------------------
# nested forests
#
# A nested forest of a connected graph is a family of vertex masks that
# contains the full vertex set, is pairwise nested-or-disjoint, and whose
# members all induce connected subgraphs.  Proper members have size >= 2:
# allowing singleton proper members would break both the stated forest
# counts on small graphs and the antipode formula they feed.

@lru_cache(maxsize=None)
def _connected_subsets(G):
    """The masks of the vertex sets of size >= 2 that induce a connected
    subgraph, ascending."""
    adj = G.adj
    return tuple(m for m in range(2, 1 << (G.n + 1), 2)
                 if m & (m - 1) and _connected_mask(adj, m))


def nested_forests(G):
    """Yield every nested forest of a connected graph, each exactly once.

    A forest is yielded as a tuple of (member, children) pairs, one per
    member, the full vertex mask first.  A member is a vertex mask and its
    children are the masks of the maximal members strictly below it,
    ascending.
    """
    if G.n == 0 or not is_connected(G):
        raise ValueError("nested forests are defined for nonempty connected graphs")
    subsets = _connected_subsets(G)

    @_memoised
    def families(mask):
        # all forests of the induced subgraph on mask, as tuples of pairs, mask first
        proper = [m for m in subsets if m & mask == m != mask]
        results = []

        def antichains(start, chosen, used):
            # the pairwise disjoint families of proper members: the possible children
            yield chosen
            for k in range(start, len(proper)):
                if not proper[k] & used:
                    chosen.append(proper[k])
                    yield from antichains(k + 1, chosen, used | proper[k])
                    chosen.pop()

        for children in antichains(0, [], 0):
            head = (mask, tuple(children))
            results.extend(sum(combo, (head,))
                           for combo in itertools.product(*map(families, children)))
        return results

    yield from families((1 << (G.n + 1)) - 2)


def forest_factor(G, member, children):
    """The factor of one forest member, given by masks: restrict to the member
    and contract each child to one vertex (its other vertices stay single).
    Each vertex is labelled by the lowest bit of its child, or by its own."""
    label = {v: J & -J for J in children for v in _bits(J)}
    return contract(_restrict(G, member),
                    Partition.of_labels([label.get(v, 1 << v) for v in _bits(member)]))


# ---------------------------------------------------------------------------
# acyclic orientations

def acyclic_orientations(G):
    """The set of acyclic orientations of E(G), each as an edge mask: bit e
    is set when edge e = (i, j) of the sorted edge list, i < j, points i -> j.

    Every acyclic orientation is induced by at least one vertex order, so the
    vertex orders are swept and the set keeps each orientation once.
    """
    edges = [(i - 1, j - 1, 1 << e) for e, (i, j) in enumerate(G.edges)]
    return {sum(bit for i, j, bit in edges if rank[i] < rank[j])
            for rank in itertools.permutations(range(G.n))}


@lru_cache(maxsize=None)
def _acyclic_count_canonical(C):
    return len(acyclic_orientations(C))


def acyclic_orientation_count(G):
    """Acyclic orientations of G: the product of the memoized counts of its
    connected factors."""
    return math.prod(map(_acyclic_count_canonical, canonical_factors(G)))
