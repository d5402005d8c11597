"""Command-line frontend.

Graphs are passed as `n: i-j, k-l, ...` (see the library's text format;
`0:` is the empty graph).  Output is compact JSON on stdout, deterministic
byte-for-byte across runs; `--pretty` renders polynomials readably instead.
Exit codes: 0 success, 1 violated identity (with the counterexample
printed), 2 malformed input.  The environment variable GRAPH_HOPF_MAX_N
caps the size bound of `verify`.
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
from .graphs import format_graph, is_connected, parse_graph
from .linear import format_rational, parse_rational
from .verify import SUITES


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
    if args.indexed:
        element = (bi.delta_big_indexed if args.which == "big" else bi.delta_small_indexed)(G)
        terms = [{"coeff": format_rational(c),
                  "left": format_graph(k[0]), "right": format_graph(k[1])}
                 for k, c in element.items()]
    else:
        element = (bi.delta_big if args.which == "big" else bi.delta_small)(G)
        terms = [{"coeff": format_rational(c),
                  "left": _mono_json(k[0]), "right": _mono_json(k[1])}
                 for k, c in element.items()]
    _emit({"terms": terms})
    return 0


def cmd_antipode(args):
    G = parse_graph(args.graph)
    if G.n < 2 or not is_connected(G):
        print("antipode needs a connected graph with at least 2 vertices", file=sys.stderr)
        return 2
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
    obj = {
        "elements": [[list(b) for b in p.blocks] for p in L.elements],
        "covers": [[i, j] for i, j in L.covers()],
    }
    if args.mobius:
        obj["mobius"] = format_rational(L.mobius(L.bottom, L.top))
    _emit(obj)
    return 0


def cmd_ncchromatic(args):
    G = parse_graph(args.graph)
    element = ws.pchr_nc(G)
    obj = {"basis": args.basis}
    if args.basis == "W":
        obj["terms"] = [{"coeff": format_rational(c), "partition": [list(b) for b in p.blocks]}
                        for p, c in element.items()]
    else:
        words = ws.expand(element)
        obj["terms"] = [{"coeff": format_rational(c), "word": list(w)}
                        for w, c in words.items()]
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
    suites = {}
    ok = True
    for name in names:
        result = SUITES[name](max_n)
        suites[name] = result
        if result["violations"]:
            ok = False
    _emit({"ok": ok, "max_n": max_n, "suites": suites})
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
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
