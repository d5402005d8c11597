"""Helpers that only the tests use: graph constructions and maps that no
path of `graph_hopf` runs, kept here so the package holds only what the CLI,
a `verify` suite or the public API reaches.  Not collected by pytest (no
`test_` prefix); test modules import it by name."""

import itertools
import math

from graph_hopf.graphs import (
    Graph,
    Partition,
    _connected_mask,
    canonical_form,
    complete,
    forest_factor,
)
from graph_hopf.linear import LinComb, Polynomial, hilbert, parse_rational
from graph_hopf.wsym import is_packed


def random_graph(n, rng, p=0.5):
    """Erdos-Renyi style sample; rng is a random.Random for reproducibility."""
    return Graph(n, [e for e in complete(n).edges if rng.random() < p])


def is_admissible(G, p):
    """True when every block of p induces a connected subgraph of G."""
    if p.n != G.n:
        raise ValueError("partition does not match the vertex set")
    adj = G.adj
    return all(_connected_mask(adj, m) for m in p.masks)


def isoclasses_by_sweep(n):
    """Oracle of `graph_isoclasses`: the canonical forms of every labelled
    graph on [n] whose labelled degrees do not increase, sorted (every class
    has such a labelling)."""
    pairs = list(complete(n).edges)
    reps = set()
    for mask in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        degs = [0] * n
        for i, j in edges:
            degs[i - 1] += 1
            degs[j - 1] += 1
        if any(degs[i] < degs[i + 1] for i in range(n - 1)):
            continue
        reps.add(canonical_form(Graph(n, edges)))
    return tuple(sorted(reps))


def relabel(G, perm):
    """Apply a bijection [n] -> [n] given as a dict or as a tuple with perm[v-1] = image."""
    if not isinstance(perm, dict):
        perm = {v: perm[v - 1] for v in range(1, G.n + 1)}
    return Graph(G.n, [(perm[i], perm[j]) for i, j in G.edges])


def forest_evaluate(G, forest):
    """Factor graphs of a nested forest, one per member (see `forest_factor`)."""
    return [forest_factor(G, S, children) for S, children in forest]


def one_block(n):
    """The partition of [n] into one block; no block for n = 0."""
    return Partition(n, [tuple(range(1, n + 1))] if n else [])


def poly_from_json(data):
    """The inverse of `Polynomial.to_json`, through the CLI's rational parser."""
    return Polynomial([parse_rational(s) for s in data])


def derivative(P):
    return Polynomial([i * c for i, c in enumerate(P.coeffs)][1:])


def pack(word):
    """Standardize letters by the increasing bijection onto 1..k, preserving order."""
    relabel = {x: i for i, x in enumerate(sorted(set(word)), start=1)}
    return tuple(relabel[x] for x in word)


def partition_of_word(w):
    """Fiber partition of a packed word: positions grouped by letter."""
    if not is_packed(w):
        raise ValueError(f"{w!r} is not packed")
    return Partition.of_labels(w)


def expand_W(p):
    """The W basis element of a set partition p: the sum of its packed words,
    one per numbering sigma of the blocks, position v read as sigma of its
    block.  Built here from `p.growth`, not through `wsym.expand`."""
    return LinComb((tuple(sigma[b] for b in p.growth), 1)
                   for sigma in itertools.permutations(range(1, len(p) + 1)))


def hilbert_by_fractions(x):
    """Oracle of `wsym.hilbert_morphism`: the projection as a sum of Hilbert
    polynomials H_k = X(X-1)...(X-k+1)/k!, in Fractions: coeff * k! * H_k for
    a k-block W key, coeff * H_max(w) for a word.  The word route is the one
    the package dropped, since no caller hands it words."""
    weights = {}
    for key, coeff in x.terms():
        if isinstance(key, Partition):
            k = len(key)
            coeff = coeff * math.factorial(k)
        else:
            k = max(key) if key else 0
        weights[k] = weights.get(k, 0) + coeff
    return sum((hilbert(k) * coeff for k, coeff in sorted(weights.items())), Polynomial.zero())
