"""Command-line frontend.

Graphs are passed as `n: i-j, k-l, ...` (see the library's text format;
`0:` is the empty graph).  Output is compact JSON on stdout, deterministic
byte-for-byte across runs; `--pretty` renders polynomials readably instead.
The emitters hand `json` the library's own tuples (blocks, words, cover
pairs), which it writes as arrays.  The W terms of `ncchromatic` are sorted
by their blocks: for the partitions of one [n] that is `LinComb`'s order.
Exit codes: 0 success, 1 violated identity (with the counterexample
printed), 2 malformed input.  The environment variable GRAPH_HOPF_MAX_N
caps the size bound of `verify`; `verify --timings` also writes one JSON
object on stderr: the seconds and object count of every check it ran, and
the hits, misses and size of every `lru_cache` in the package.  The parser
is built once per process, by the first `main` call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bialgebra as bi
from . import characters as ch
from . import chromatic as chrom
from . import lattice as lat
from . import wsym as ws
from .graphs import format_graph, parse_graph
from .linear import format_rational, parse_rational
from .verify import SUITES

_parser = None  # `build_parser()`, built by the first `main` call


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":")))


def _mono_json(mono):
    return [format_graph(g) for g in mono]


def _run_engines(kind, engines, choice, G):
    """The chosen engine's result; for "all", the common result of every
    engine, or None after reporting on stderr that they disagree."""
    if choice != "all":
        return engines[choice](G)
    results = [engine(G) for engine in engines.values()]
    if any(r != results[0] for r in results):
        print(f"{kind} engines disagree on {format_graph(G)}", file=sys.stderr)
        return None
    return results[0]


def cmd_chromatic(args):
    G = parse_graph(args.graph)
    P = _run_engines("chromatic", chrom.ENGINES, args.engine, G)
    if P is None:
        return 1
    if args.pretty:
        print(P.pretty())
        return 0
    obj = {"poly": P.to_json()}
    if args.eval is not None:
        obj["value"] = format_rational(P(parse_rational(args.eval)))
    _emit(obj)
    return 0


def cmd_character(args):
    G = parse_graph(args.graph)
    if args.which == "chr":
        value = ch.LAMBDA_CHR(G)
    elif args.which == "zero":
        value = ch.LAMBDA_ZERO(G)
    else:
        value = ch.invert_character(ch.LAMBDA_CHR)(G)
    _emit({"value": format_rational(value)})
    return 0


def cmd_coproduct(args):
    G = parse_graph(args.graph)
    big = args.which == "big"
    if args.indexed:
        coproduct, fmt = (bi.delta_big_indexed if big else bi.delta_small_indexed), format_graph
    else:
        coproduct, fmt = (bi.delta_big if big else bi.delta_small), _mono_json
    terms = [{"coeff": format_rational(c), "left": fmt(k[0]), "right": fmt(k[1])}
             for k, c in coproduct(G).items()]
    _emit({"terms": terms})
    return 0


def cmd_antipode(args):
    G = parse_graph(args.graph)
    element = _run_engines("antipode", bi.ANTIPODE_ENGINES, args.engine, G)
    if element is None:
        return 1
    terms = [{"coeff": format_rational(c), "monomial": _mono_json(k)}
             for k, c in element.items()]
    _emit({"terms": terms})
    return 0


def cmd_lattice(args):
    G = parse_graph(args.graph)
    L = lat.build_lattice(G)
    obj = {"elements": [p.blocks for p in L.elements], "covers": L.covers()}
    if args.mobius:
        obj["mobius"] = format_rational(L.mobius(L.bottom, L.top))
    _emit(obj)
    return 0


def cmd_ncchromatic(args):
    G = parse_graph(args.graph)
    element = ws.pchr_nc(G)
    obj = {"basis": args.basis}
    if args.basis == "W":
        # all keys partition one [n], so sorting by blocks is element.items()'s order
        obj["terms"] = [{"coeff": format_rational(c), "partition": p.blocks}
                        for p, c in sorted(element.terms(), key=lambda t: t[0].blocks)]
    else:
        words = ws.expand(element)
        obj["terms"] = [{"coeff": format_rational(c), "word": w} for w, c in words.items()]
    if args.project:
        obj["poly"] = ws.hilbert_morphism(element).to_json()
    _emit(obj)
    return 0


def _size_bound(text, name):
    """verify's size bound: a non-negative integer, else a ValueError naming its source."""
    if not text.strip().isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {text!r}")
    return int(text)


def cmd_verify(args):
    max_n = _size_bound(args.max_n, "--max-n")
    cap = os.environ.get("GRAPH_HOPF_MAX_N")
    if cap is not None:
        max_n = min(max_n, _size_bound(cap, "GRAPH_HOPF_MAX_N"))
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites, timings = {}, {}
    ok = True
    for name in names:
        result = SUITES[name](max_n, timings.setdefault(name, {}) if args.timings else None)
        suites[name] = result
        if result["violations"]:
            ok = False
    _emit({"ok": ok, "max_n": max_n, "suites": suites})
    if args.timings:
        caches = {f"{m.rpartition('.')[2]}.{name}": fn.cache_info()
                  for m in sorted(sys.modules) if m.startswith(f"{__package__}.")
                  for name, fn in vars(sys.modules[m]).items()
                  if hasattr(fn, "cache_info") and fn.__module__ == m}
        counters = {key: {"hits": c.hits, "misses": c.misses, "currsize": c.currsize}
                    for key, c in caches.items()}
        print(json.dumps({"timings": timings, "caches": counters}, separators=(",", ":")),
              file=sys.stderr)
    if not ok:
        for name, result in suites.items():
            for v in result["violations"]:
                print(f"{name}: {v}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graph-hopf",
        description="Exact computations with graph coproducts, chromatic invariants, "
                    "admissible-partition lattices, and word symmetric functions.",
        epilog='Graph format: "n: i-j, k-l" with vertices 1..n; "0:" is the empty graph. '
               "GRAPH_HOPF_MAX_N caps the size bound of verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chromatic", help="chromatic polynomial of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--engine", choices=[*chrom.ENGINES, "all"], default="all")
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--eval", default=None, metavar="Q",
                       help="also evaluate at a rational point")
    shown.add_argument("--pretty", action="store_true", help="human-readable polynomial")
    p.set_defaults(fn=cmd_chromatic)

    p = sub.add_parser("character", help="distinguished character values")
    p.add_argument("--graph", required=True)
    p.add_argument("--which", choices=["chr", "zero", "chr-inverse"], required=True)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("coproduct", help="expand one of the two coproducts")
    p.add_argument("--graph", required=True)
    p.add_argument("--which", choices=["big", "small"], default="small",
                   help="big = vertex bipartitions, small = contraction-extraction")
    p.add_argument("--indexed", action="store_true",
                   help="keep indexed graphs instead of projecting to isoclasses")
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of a connected graph (>= 2 vertices)")
    p.add_argument("--graph", required=True)
    p.add_argument("--engine", choices=[*bi.ANTIPODE_ENGINES, "all"], default="all")
    p.set_defaults(fn=cmd_antipode)

    p = sub.add_parser("lattice", help="lattice of admissible partitions")
    p.add_argument("--graph", required=True)
    p.add_argument("--mobius", action="store_true",
                   help="also print the Mobius value of the full interval")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("ncchromatic", help="noncommutative chromatic element")
    p.add_argument("--graph", required=True)
    p.add_argument("--basis", choices=["W", "words"], default="W")
    p.add_argument("--project", action="store_true",
                   help="also print the Hilbert projection as a polynomial")
    p.set_defaults(fn=cmd_ncchromatic)

    p = sub.add_parser("verify", help="run identity suites; nonzero exit on violation")
    p.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    p.add_argument("--max-n", default="5", dest="max_n")
    p.add_argument("--timings", action="store_true",
                   help="also write per-check timings and memo counters as JSON on stderr")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
