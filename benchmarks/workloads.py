"""Workload inputs, drawn from a seed, and the checks on their outputs.

Every operation is one `graph_hopf.cli.main(argv)` call with stdout
captured: a verify workload issues one `verify --suite S` call per suite,
and query-mix issues a stream of single-graph queries.  The program only
ever sees the generated argv lists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import oracle

MAX_N = {"full": 5, "tiny": 3}

# The ten suites and the number of checks each returns at any max_n.
EXPECTED_CHECKS = {
    "coassoc": 4, "counit": 1, "cointeraction": 1, "antipode": 2, "engines": 5,
    "signs": 7, "stanley": 1, "mobius": 7, "wsym": 7, "projection": 3,
}
ISO_SUITES = ("coassoc", "counit", "cointeraction", "antipode", "engines",
              "signs", "stanley", "mobius")
# Kept in the CLI's own order.  The total does not depend on the order, but
# whichever suite runs first fills the pchr_nc memo for the other: the per-suite
# latencies are 23.5 s and 1.4 s one way round and 12.7 s and 12.3 s the other,
# so a seed that picked the order would flip query_p50_ms between the two.
WSYM_SUITES = ("wsym", "projection")


def verify_argvs(workload, seed, rep, size):
    """The `verify --suite` calls of one process; the seed sets the suite order."""
    if workload == "verify-iso":
        suites = list(ISO_SUITES)
        random.Random(f"{seed}/{rep}").shuffle(suites)
    else:
        suites = list(WSYM_SUITES)
    return [["verify", "--suite", s, "--max-n", str(MAX_N[size])] for s in suites]


def check_verify(argv, code, stdout):
    """None when the suite passed with its expected number of checks, else a reason."""
    suite = argv[2]
    if code != 0:
        return f"exit code {code}"
    result = json.loads(stdout)["suites"][suite]
    if result["violations"]:
        return f"{len(result['violations'])} violations, first: {result['violations'][0]}"
    if result["checks"] != EXPECTED_CHECKS[suite]:
        return f"{result['checks']} checks, expected {EXPECTED_CHECKS[suite]}"
    return None


# ---------------------------------------------------------------------------
# query-mix

# command -> (argv prefix, vertex counts, needs a connected graph)
QUERIES = {
    "chromatic": (["chromatic"], (7, 8), False),
    "character": (["character", "--which", "chr"], (8, 9), True),
    "coproduct": (["coproduct"], (7, 8), False),
    "antipode": (["antipode", "--engine", "recursive"], (6, 7), True),
    "lattice": (["lattice", "--mobius"], (5, 6), False),
    "ncchromatic": (["ncchromatic", "--project"], (7, 8, 9), False),
}
TINY_N = 4
PER_COMMAND = {"full": 40, "tiny": 2}
DENSITIES = (0.3, 0.5, 0.7)


def _circulant(n, steps):
    return sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps})


def _cube():
    return [(a, b) for a in range(8) for b in range(8) if a < b and bin(a ^ b).count("1") == 1]


def _rook(k):
    cells = list(itertools.product(range(k), repeat=2))
    return [(a, b) for a in range(k * k) for b in range(a + 1, k * k)
            if (cells[a][0] == cells[b][0]) != (cells[a][1] == cells[b][1])]


# Connected vertex-transitive graphs, 0-based edges: every vertex looks alike,
# which is the worst case for canonical labelling by trying labelings.
VERTEX_TRANSITIVE = {
    7: [_circulant(7, [1]), _circulant(7, [1, 2])],
    8: [_circulant(8, [1]), _circulant(8, [1, 2]), _circulant(8, [1, 4]), _cube(),
        [(a, b) for a in range(4) for b in range(4, 8)]],
    9: [_circulant(9, [1]), _circulant(9, [1, 2]), _circulant(9, [1, 3]), _rook(3)],
}


def _relabel(n, edges, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def _gnm(n, p, connected, rng):
    """A uniform graph with round(p * C(n, 2)) edges, and at least n - 1 when it
    must be connected: G(n, p) held at its expected edge count, since the cost
    of most queries follows the edge count."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    m = max(round(p * len(pairs)), n - 1 if connected else 0)
    while True:
        edges = sorted(rng.sample(pairs, m))
        if not connected or oracle.components(n, edges) == 1:
            return edges


def graph_text(n, edges):
    return f"{n}: " + ", ".join(f"{i}-{j}" for i, j in edges)


def query_mix(seed, size):
    """The seeded query stream: [(command, n, edges, argv)].

    Each command gets the same number of queries, spread evenly over its
    vertex counts.  Of every four draws on 7 or more vertices one is a
    relabelled vertex-transitive graph, the families taken in turn; the rest
    are random graphs with edge density p cycling through DENSITIES.  The seed draws the
    graphs, the relabellings and the order, but not how many queries of each
    kind there are: a few vertex-transitive queries take most of the time,
    so their number must not vary with the seed.
    """
    rng = random.Random(seed)
    out = []
    for command, (prefix, sizes, connected) in QUERIES.items():
        if size == "tiny":
            sizes = (TINY_N,)
        for i in range(PER_COMMAND[size]):
            n = sizes[i % len(sizes)]
            slot = i // len(sizes)
            if n >= 7 and slot % 4 == 3:
                families = VERTEX_TRANSITIVE[n]
                edges = _relabel(n, families[slot // 4 % len(families)], rng)
            else:
                edges = _gnm(n, DENSITIES[slot % len(DENSITIES)], connected, rng)
            out.append((command, n, edges, prefix + ["--graph", graph_text(n, edges)]))
    rng.shuffle(out)
    return out


def _value(P, k):
    return sum(Fraction(c) * k ** d for d, c in enumerate(P))


def check_query(command, n, edges, code, stdout):
    """None when the output agrees with the benchmark's own references, else a reason."""
    if code != 0:
        return f"exit code {code}"
    obj = json.loads(stdout)
    chi = oracle.chromatic_coefficients(n, edges)
    derivative_at_0 = chi[1]
    if command == "chromatic":
        if obj["poly"] != oracle.poly_json(chi):
            return "chromatic polynomial differs from the independent-partition count"
        for k in range(4):
            if _value(obj["poly"], k) != oracle.proper_colorings(n, edges, k):
                return f"P({k}) differs from the proper-colouring count"
    elif command == "character":
        if Fraction(obj["value"]) != derivative_at_0:
            return "chromatic character differs from P'(0)"
    elif command == "coproduct":
        if sum(Fraction(t["coeff"]) for t in obj["terms"]) != oracle.connected_partition_count(n, edges):
            return "coefficient sum differs from the number of admissible partitions"
    elif command == "antipode":
        # the all-ones character composed with the antipode is its inverse, the chromatic character
        if sum(Fraction(t["coeff"]) for t in obj["terms"]) != derivative_at_0:
            return "antipode coefficient sum differs from P'(0)"
    elif command == "lattice":
        if len(obj["elements"]) != oracle.connected_partition_count(n, edges):
            return "element count differs from the number of admissible partitions"
        if Fraction(obj["mobius"]) != chi[oracle.components(n, edges)]:
            return "Mobius value differs from the chromatic coefficient (Whitney)"
    elif command == "ncchromatic":
        if obj["poly"] != oracle.poly_json(chi):
            return "Hilbert projection differs from the chromatic polynomial"
        if len(obj["terms"]) != sum(oracle.independent_partition_counts(n, edges)):
            return "term count differs from the number of independent partitions"
    return None


def digest(outputs):
    """sha256 of every captured stdout in stream order, NUL-separated."""
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()
