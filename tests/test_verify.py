"""Pins on what `verify` reports: the violation messages, the suite payload
of `graph-hopf verify --max-n 3` byte for byte, and which checks each suite
runs.  A passing run prints no violation, so the message text is pinned here
by substituting a wrong engine at run time."""

import hashlib

import pytest

from graph_hopf import bialgebra, characters, cli, verify
from graph_hopf.lattice import AdmissibleLattice

SUITE_SIZES = {"coassoc": 4, "counit": 1, "cointeraction": 1, "antipode": 2, "engines": 5,
               "signs": 7, "stanley": 1, "mobius": 7, "wsym": 7, "projection": 3}


def _violations(max_n):
    return {name: suite(max_n)["violations"] for name, suite in verify.SUITES.items()}


def _zero_character(monkeypatch):
    monkeypatch.setattr(characters, "LAMBDA_CHR", characters.Character(lambda G: 0, "zero"))


def _doubled_delta_small(monkeypatch):
    delta_small = bialgebra.delta_small
    monkeypatch.setattr(bialgebra, "delta_small", lambda x: delta_small(x) * 2)


# substitution -> {suite: (violation count, first message)}; other suites report none
EXPECTED = {
    _zero_character: {
        "engines": (13, "chromatic engines disagree on 1:"),
        "signs": (9, "character bound equality mischaracterized on 1:"),
        "mobius": (29, "Mobius value != character of interval quotient on 1: at [{{1}}, {{1}}]"),
        "wsym": (11, "chromatic element != acted packed-coloring morphism on 1:"),
    },
    _doubled_delta_small: {
        "coassoc": (5, "contraction-extraction coproduct not multiplicative on 1: * 1:"),
        "counit": (8, "counit law fails for contraction-extraction coproduct on 0:"),
        "projection": (12, "isoclass projection not a contraction-extraction morphism on 0:"),
    },
}


@pytest.mark.parametrize("substitute", list(EXPECTED), ids=lambda f: f.__name__.strip("_"))
def test_violation_messages_under_a_wrong_engine(monkeypatch, substitute):
    substitute(monkeypatch)
    found = {name: (len(v), v[0]) for name, v in _violations(3).items() if v}
    assert found == EXPECTED[substitute]


def test_verify_max_n_3_stdout_is_pinned(monkeypatch, capsys):
    monkeypatch.delenv("GRAPH_HOPF_MAX_N", raising=False)
    assert cli.main(["verify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"ok":true,"max_n":3,"suites":{"coassoc":{"checks":4,')
    assert out.endswith('"projection":{"checks":3,"violations":[]}}}\n')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fab4c7d2548e50d3f2ca6dcd97fa6749099c916e57b6ccab2ca4b8b0880ba68c")


def test_every_check_runs_in_exactly_one_suite(monkeypatch):
    names = [name for name in vars(verify) if name.startswith("check_")]
    calls = []
    for name in names:
        monkeypatch.setattr(verify, name, lambda *args, name=name: calls.append(name) or [])
    runs = {}
    for suite_name, suite in verify.SUITES.items():
        calls.clear()
        result = suite(2)
        runs[suite_name] = list(calls)
        assert result["checks"] == len(calls) == len(set(calls))
    assert {s: len(c) for s, c in runs.items()} == SUITE_SIZES
    assert sorted(c for ran in runs.values() for c in ran) == sorted(names)
    assert len(names) == 38


def _swap_atom_and_coatom(L):
    """The transposition of the first atom and the first coatom of L, when its
    rank is at least 3 (so they differ and neither is a bound); else the identity."""
    ranks = [L.rank(p) for p in L.elements]
    top = max(ranks)
    if top < 3:
        return lambda i: i
    a, c = ranks.index(1), ranks.index(top - 1)
    return lambda i: c if i == a else a if i == c else i


def test_glb_lub_law_catches_a_relabelled_lattice(monkeypatch):
    """Meet and join conjugated by a swap that is not an order automorphism
    still satisfy idempotence, commutativity, absorption, associativity and
    the bounds; only the greatest lower / least upper bound law sees it."""
    for name in ("meet_index", "join_index"):
        original = getattr(AdmissibleLattice, name)

        def conjugated(L, i, j, original=original):
            swap = _swap_atom_and_coatom(L)
            return swap(original(L, swap(i), swap(j)))

        monkeypatch.setattr(AdmissibleLattice, name, conjugated)
    found = verify.check_lattice_laws(4)
    assert (len(found), found[0]) == (
        6, "lattice glb/lub fails on 4: 1-2, 1-3, 1-4, 2-3, 2-4, 3-4")
    assert all(message.startswith("lattice glb/lub fails on 4: ") for message in found)
