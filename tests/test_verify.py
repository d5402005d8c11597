"""Pins on what `verify` reports: the violation messages, the suite payload
of `graph-hopf verify --max-n 3` and `--max-n 4` and of the `coassoc`,
`counit`, `engines`, `mobius`, `wsym` and `projection` suites at `--max-n 5`
byte for byte, which checks each suite runs, where each witness runs, how
often a check takes a coproduct, and how often the lattice laws span a union
of flats.  A passing run prints no violation, so the message text is pinned
here by substituting a wrong engine at run time, or a copy of a module with
one source line changed."""

import collections
import hashlib
import inspect
import sys
import types

import pytest

from graph_hopf import bialgebra, characters, chromatic, cli, graphs, lattice, verify, wsym
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
        "signs": (16, "signed chromatic character != |chromatic character| on 1:"),
        "mobius": (29, "Mobius value != character of interval quotient on 1: at [{{1}}, {{1}}]"),
        "wsym": (11, "chromatic element != acted packed-coloring morphism on 1:"),
    },
    _doubled_delta_small: {
        "coassoc": (5, "contraction-extraction coproduct not multiplicative on 1: * 1:"),
        "counit": (8, "counit law fails for contraction-extraction coproduct on 0:"),
        "cointeraction": (8, "cointeraction identity fails on 0:"),
        "projection": (12, "isoclass projection not a contraction-extraction morphism on 0:"),
    },
}


@pytest.mark.parametrize("substitute", list(EXPECTED), ids=lambda f: f.__name__.strip("_"))
def test_violation_messages_under_a_wrong_engine(monkeypatch, substitute):
    substitute(monkeypatch)
    found = {name: (len(v), v[0]) for name, v in _violations(3).items() if v}
    assert found == EXPECTED[substitute]


def _one_line_mutant(module, line, mutated):
    """A copy of `module`, run from its source with `line` replaced."""
    source = inspect.getsource(module)
    assert source.count(line) == 1
    copy = types.ModuleType(module.__name__)
    copy.__package__ = module.__package__
    exec(compile(source.replace(line, mutated), module.__file__, "exec"), vars(copy))
    return copy


# (module, function or class, line, mutated line, check)
#     -> (violation count at max_n 4, first message)
MUTANTS = {
    (wsym, "_packed_words", "slots = _slot_table(n).items()",
     "slots = list(_slot_table(n).items())[:-1]", "check_wsym_words"):
        (37, "word expansion != packed valid colorings on 2: 1-2"),
    (wsym, "phi0_nc", "minima[m] = low | ", "minima[m] = ", "check_wsym_action"):
        (75, "chromatic element != acted packed-coloring morphism on 1:"),
    (wsym, "phi0_nc", "counts[growth] = counts.get(growth, 0) + 1", "counts[growth] = 1",
     "check_wsym_action"):
        (61, "chromatic element != acted packed-coloring morphism on 3: 1-2, 1-3"),
    (wsym, "phi0_nc", "_set_partitions_list(len(growth))[growth]",
     "_set_partitions_list(len(growth))[(0,) * len(growth)]", "check_wsym_action"):
        (74, "chromatic element != acted packed-coloring morphism on 2:"),
    (wsym, "hilbert_morphism", "k = len(key.blocks)", "k = key.n", "check_projection_chromatic"):
        (142, "Hilbert projection of chromatic element is wrong on 2:"),
    (wsym, "hilbert_morphism", "coeffs[d] += a * c", "coeffs[d] += a",
     "check_projection_chromatic"):
        (133, "Hilbert projection of chromatic element is wrong on 3:"),
    (wsym, "pchr_nc", "dict.fromkeys(independent_partitions(G), 1)",
     "dict.fromkeys(independent_partitions(G), 2)", "check_wsym_words"):
        (76, "word expansion != packed valid colorings on 0:"),
    (wsym, "expand", "words.update(zip(_words(p), ",
     "words.update(zip(itertools.islice(_words(p), 1, None), ", "check_wsym_words"):
        (76, "word expansion != packed valid colorings on 0:"),
    (characters, "act", "for value, weight in values:",
     "for value, weight in values[1:]:", "check_wsym_action"):
        (76, "chromatic element != acted packed-coloring morphism on 0:"),
    (characters, "act", "table((n, mask, edges & inside))", "table((n, mask, 0))",
     "check_wsym_action"):
        (71, "chromatic element != acted packed-coloring morphism on 2: 1-2"),
    (characters, "act", "if r & m:", "if r & m & -m:", "check_wsym_action"):
        (42, "chromatic element != acted packed-coloring morphism on 3: 1-2, 2-3"),
    (chromatic, "stanley_pairs", "mask = up | down", "mask = up", "check_stanley"):
        (28, "monotone-pair count != (-1)^n P(-2) on 2: 1-2"),
    (bialgebra, "antipode_forest", "forest_factor(G, *pair)", "forest_factor(G, pair[0], ())",
     "check_antipode_engines"):
        (8, "antipode engines disagree on 3: 1-2, 1-3, 2-3"),
    (graphs, "nested_forests", "head = (mask, tuple(children))",
     "head = (mask, tuple(children[1:]))", "check_antipode_engines"):
        (8, "antipode engines disagree on 3: 1-2, 1-3, 2-3"),
    (wsym, "wsym_coproduct", "full ^ left", "full & left", "check_wsym_coalgebra_morphism"):
        (75, "noncommutative chromatic not a coalgebra morphism on 1:"),
    (lattice, "AdmissibleLattice", "if up & self.down[j] == (1 << i) | (1 << j)]",
     "if up & self.down[j] == (2 << i) | (1 << j)]", "check_lattice_grading"):
        (14, "covers above an element != edges of its contraction on 2: 1-2"),
    (lattice, "AdmissibleLattice", "return bool(self.down[j] >> i & 1)",
     "return bool(self.down[j] << i & 1)", "check_zeta"):
        (11, "lattice order != refinement on 3: 1-2, 1-3, 2-3"),
    (lattice, "AdmissibleLattice", "self.up[i] |= 1 << j", "self.up[i] |= 1 << i",
     "check_lattice_laws"):
        (14, "lattice order fails on 2: 1-2"),
    (lattice, "AdmissibleLattice", "return Partition.singletons(self.G.n)",
     "return components_partition(self.G)", "check_lattice_laws"):
        (14, "lattice bounds fails on 2: 1-2"),
    (chromatic, "independent_partitions", "if not nbrs & mask:", "if not nbrs & mask & -mask:",
     "check_projection_chromatic"):
        (26, "Hilbert projection of chromatic element is wrong on 3: 2-3"),
    (chromatic, "independent_partitions", "table[tuple(growth)]", "table[(0,) * n]",
     "check_wsym_words"):
        (74, "word expansion != packed valid colorings on 2:"),
    (graphs, "least_blocks", "if _connected_mask(adj, low | s):", "if _connected_mask(adj, s):",
     "check_varpi_morphism"):
        (52, "isoclass projection not a contraction-extraction morphism on 3: 1-2, 1-3"),
    (graphs, "least_blocks", "if not adj[u] & b]", "if not adj[u] & b & -b]",
     "check_chromatic_engines"):
        (7, "chromatic engines disagree on 3: 2-3"),
    (bialgebra, "delta_small_graph", "if reach & m:", "if reach & m & -m:",
     "check_antipode_engines"):
        (6, "antipode engines disagree on 3: 1-3, 2-3"),
    (graphs, "_neighbourhoods", "reach[i & i - 1] | ", "", "check_antipode_engines"):
        (6, "antipode engines disagree on 3: 1-3, 2-3"),
    (graphs, "_neighbourhoods", "reach[i & i - 1] | ", "", "check_wsym_action"):
        (26, "chromatic element != acted packed-coloring morphism on 3: 1-3, 2-3"),
    (chromatic, "block_sums", "out[k + 1] += w * c", "out[k] += w * c", "check_chromatic_engines"):
        (18, "chromatic engines disagree on 1:"),
    (lattice, "AdmissibleLattice", "self.up[i] |= 1 << j", "self.up[i] |= 1 << i",
     "check_mobius_values"):
        (66, "Mobius value != character of interval quotient on 3: 1-2, 1-3, 2-3 "
             "at [{{1},{2},{3}}, {{1,2,3}}]"),
    (lattice, "AdmissibleLattice", "union = self.flats[i] | self.flats[j]",
     "union = self.flats[i] & self.flats[j]", "check_lattice_laws"):
        (14, "lattice glb/lub fails on 2: 1-2"),
    (characters, "LAMBDA_CHR_TILDE", "(-1) ** degree(G)", "(-2) ** degree(G)",
     "check_sign_positivity"):
        (14, "signed chromatic character != |chromatic character| on 2: 1-2"),
    (graphs, "_canonical_connected", "ties[-1][v] = 1 << p", "ties[-1][v] = 1 << p - 1",
     "check_cointeraction"):
        (1, "cointeraction identity fails on 4: 1-3, 2-3"),
    (bialgebra, "_split", "side(full ^ left)), 1)", "side(left)), 1)",
     "check_coassociativity"):
        (18, "restriction coproduct not coassociative on 1:"),
    (bialgebra, "mono_mul", "return tuple(sorted(a + b))", "return tuple(a + b)",
     "check_multiplicativity"):
        (12, "restriction coproduct not multiplicative on 2: 1-2 * 1:"),
    (characters, "convolve", "Character(act(lam, mu), ", "Character(act(lam, lam), ",
     "check_monoid_laws"):
        (252, "convolution not associative on 2: 1-2"),
    (characters, "convolve", "Character(act(lam, mu), ", "Character(act(lam, lam), ",
     "check_action_axioms"):
        (28, "action axiom fails on 2: 1-2"),
    (bialgebra, "cointeraction_lhs", "mul(s[1], t[1])", "mul(s[1], s[1])",
     "check_cointeraction"):
        (18, "cointeraction identity fails on 1:"),
    (characters, "act", "values[0][0] * values[0][1])", "values[0][0])", "check_action_axioms"):
        (56, "acting by the counit is not the identity on 2: 1-2"),
    (characters, "invert_character", "return Fraction(-total) / c", "return Fraction(total) / c",
     "check_character_inverse"):
        (9, "inverse of all-ones != chromatic character on 2: 1-2"),
    (lattice, "AdmissibleLattice", "return self._by_flat[self.flats[i] & self.flats[j]]",
     "return self._by_flat[self.flats[i] | self.flats[j]]", "check_lattice_laws"):
        (14, "lattice glb/lub fails on 2: 1-2"),
    (lattice, "AdmissibleLattice", "self._inside.__getitem__, p.masks))",
     "self._inside.__getitem__, p.masks[1:]))", "check_zeta"):
        (20, "edge-set embedding not an order embedding on 2: 1-2"),
    (lattice, "AdmissibleLattice", "reach[b] |= adj[v] & q.masks[q.growth[v - 1]]",
     "reach[b] |= adj[v]", "check_mobius_values"):
        (175, "Mobius value != character of interval quotient on 2: 1-2 "
              "at [{{1},{2}}, {{1},{2}}]"),
    (lattice, "AdmissibleLattice", "reach[b] |= adj[v] & q.masks[q.growth[v - 1]]",
     "reach[b] |= adj[v]", "check_interval_isomorphism"):
        (192, "r -> r/p is not an order isomorphism onto the quotient lattice on 2: 1-2 "
              "at [{{1},{2}}, {{1},{2}}]"),
}


# A row's id is "{name}-{check}", save where its mutated line names the row:
# the quotient pass keeps the id of `_quotient`, the module function it was
# before it moved into AdmissibleLattice.quotient, the bipartition sum keeps
# that of `delta_big_graph`, whose body it was before both bases shared it,
# and the flats that drop a block, the minima table counting each growth
# string once, the coloring morphism that reads every growth string as the
# one-block entry, the projection that drops the units, the block table
# keyed without the edges inside the block and the action's quotient edges
# read at each earlier block's least vertex are told apart from the other row
# of their function and check.
ROW_NAMES = {"reach[b] |= adj[v]": "_quotient",
             "side(left)), 1)": "delta_big_graph",
             "self._inside.__getitem__, p.masks[1:]))": "AdmissibleLattice.flats",
             "counts[growth] = 1": "phi0_nc.counts",
             "_set_partitions_list(len(growth))[(0,) * len(growth)]": "phi0_nc.table",
             "coeffs[d] += a": "hilbert_morphism.coeffs",
             "table((n, mask, 0))": "act.table",
             "if r & m & -m:": "act.quotient"}


@pytest.mark.parametrize("mutant", list(MUTANTS),
                         ids=lambda m: f"{ROW_NAMES.get(m[3], m[1])}-{m[4]}")
def test_one_line_mutants_of_the_fast_sides_are_caught(monkeypatch, mutant):
    """The clash mask without the last edge slot, a component-minima table
    that drops each component's minimum, a coloring morphism that counts
    each distinct growth string once, or reads each as the one-block
    partition, a W element projected by its length
    instead of its block count, a projection that adds the falling
    factorials' coefficients without their units, a chromatic element with
    every coefficient 2, a word expansion that drops one
    numbering per partition, an action that drops its first quotient's terms,
    an action whose block table keys a block without the edges inside it,
    an action whose walk joins a block only to earlier blocks whose least
    vertex it meets,
    monotone pairs that ignore the edges on which f falls, forest factors
    that leave the member's children uncontracted, nested forests that drop each member's
    first child, a W coproduct whose right leg packs the left mask again, a
    Hasse diagram that lists no cover, a lattice order that
    holds only from the bottom, up masks that hold only the element itself
    (seen by the order law and by the Mobius values, which no longer recurse
    without end on them), a bottom that is the top, a join that spans the
    intersection of two flats, a meet read at their union, flats that leave
    out each element's first block, interval
    quotients that keep the edges leaving the blocks of q, independent
    partitions or independent blocks that test
    only one vertex of the block for a neighbour, independent partitions
    all found as the one-block entry of the table, connected blocks that leave
    out the least vertex from the connectivity test, quotient edges that
    look only at the least vertex of each earlier block, a neighbourhood list
    that holds each mask's least vertex's neighbours alone (seen through δ
    and through the action), block sums that do not count the block
    they add, a signed chromatic character that is positive but 2^deg
    times too large, a canonical search that places each tied labeling's
    new vertex one position low, a bipartition sum whose right leg
    repeats the left one, monomial products left unsorted, a convolution of
    lam with itself in place of lam * mu, a cointeraction route that joins
    each extraction leg to itself, an action on polynomial values
    that drops the weight of its first quotient, and a character inverse
    that adds the sum over smaller pieces instead of subtracting it: each is
    seen by the check that compares that side with an independent one.  A mutated function or class replaces
    the original in every package module that imported it, and in the engine
    registries.  A mutated plain function runs over its own module's names,
    so the graphs it builds are that module's `Graph`s.
    The package's memos are emptied before the check, so a memo filled
    earlier does not hide the mutant, and after it, so no mutant value
    outlives the test."""
    module, name, line, mutated, check = mutant
    original = getattr(module, name)
    replacement = getattr(_one_line_mutant(module, line, mutated), name)
    if isinstance(replacement, types.FunctionType):
        replacement = types.FunctionType(replacement.__code__, vars(module), name,
                                         replacement.__defaults__, replacement.__closure__)
    packages = [m for key, m in sys.modules.items() if key.split(".")[0] == "graph_hopf"]
    for mod in packages:
        for attr in [attr for attr, obj in vars(mod).items() if obj is original]:
            monkeypatch.setattr(mod, attr, replacement)
    for registry in (bialgebra.ANTIPODE_ENGINES, chromatic.ENGINES):
        for key in [key for key, engine in registry.items() if engine is original]:
            monkeypatch.setitem(registry, key, replacement)
    memos = {id(obj): obj for mod in packages for obj in vars(mod).values()
             if hasattr(obj, "cache_clear")}.values()
    for memo in memos:
        memo.cache_clear()
    try:
        found = getattr(verify, check)(4)
    finally:
        for memo in memos:
            memo.cache_clear()
    assert (len(found), found[0]) == MUTANTS[mutant]


def test_verify_max_n_3_stdout_is_pinned(monkeypatch, capsys):
    monkeypatch.delenv("GRAPH_HOPF_MAX_N", raising=False)
    assert cli.main(["verify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"ok":true,"max_n":3,"suites":{"coassoc":{"checks":4,')
    assert out.endswith('"projection":{"checks":3,"violations":[]}}}\n')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fab4c7d2548e50d3f2ca6dcd97fa6749099c916e57b6ccab2ca4b8b0880ba68c")


def test_verify_max_n_4_stdout_is_pinned(monkeypatch, capsys):
    monkeypatch.delenv("GRAPH_HOPF_MAX_N", raising=False)
    assert cli.main(["verify", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"ok":true,"max_n":4,"suites":{"coassoc":{"checks":4,')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1d4a5d410e7ba8101e4d5f9da89e17e80ba532dbf9d2a9e3157360f9fdd903b9")


@pytest.mark.parametrize("suite, digest", [
    ("coassoc", "ac6856a401cc8de980d1314850af6babbc9cc5cf132bd9e9b0c2d0916886d3df"),
    ("counit", "aa2f019849a62ca2f9aaccc58e0a0c7f24a269fb960fd13391280e748a5544c4"),
    ("engines", "d73765c60b18efec7d220c5ba9cf0a1e35ea1c05adefc130cf4595959c37d3e7"),
])
def test_isoclass_suite_max_n_5_stdout_is_pinned(monkeypatch, capsys, suite, digest):
    monkeypatch.delenv("GRAPH_HOPF_MAX_N", raising=False)
    assert cli.main(["verify", "--suite", suite, "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f'{{"ok":true,"max_n":5,"suites":{{"{suite}":{{"checks":')
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite, digest", [
    ("wsym", "0e89a93256e9da884c8ab3035f2ae88cefa9d358f4963531b5cdce984393edee"),
    ("projection", "14ab4ecc6b5411079ca70d8a23c6089239136825f731741b7c4962ad9fcac5e6"),
])
def test_labelled_suite_max_n_5_stdout_is_pinned(monkeypatch, capsys, suite, digest):
    monkeypatch.delenv("GRAPH_HOPF_MAX_N", raising=False)
    assert cli.main(["verify", "--suite", suite, "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f'{{"ok":true,"max_n":5,"suites":{{"{suite}":{{"checks":')
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mobius_suite_max_n_5_stdout_is_pinned(monkeypatch, capsys):
    monkeypatch.delenv("GRAPH_HOPF_MAX_N", raising=False)
    assert cli.main(["verify", "--suite", "mobius", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"ok":true,"max_n":5,"suites":{"mobius":{"checks":7,')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d718ba2e02a98208ad70f8fc958c9f398c173ceafae145fc77914be29ed9274a")


def count_coproduct_calls(monkeypatch):
    """Count the calls of `bialgebra.delta_small_graph` and `delta_big_graph`
    by graph argument, through whichever module binds them."""
    counts = {}
    for name in ("delta_small_graph", "delta_big_graph"):
        original, calls = getattr(bialgebra, name), collections.Counter()

        def counted(G, original=original, calls=calls):
            calls[G] += 1
            return original(G)

        for key, module in list(sys.modules.items()):
            if key.startswith("graph_hopf") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        counts[name] = calls
    return counts


def test_coassociativity_takes_each_coproduct_once_per_distinct_argument(monkeypatch):
    """Every leg's coproduct is a monomial that other isoclasses of the sweep
    also split into; one call of the check takes each once (53 graphs at
    max_n 5, against 543 calls of δ and 505 of Δ when each isoclass took its
    legs afresh)."""
    counts = count_coproduct_calls(monkeypatch)
    assert not verify.check_coassociativity(5)
    for calls in counts.values():
        assert len(calls) == 53 and set(calls.values()) == {1}


def test_cointeraction_takes_each_coproduct_once_per_distinct_argument(monkeypatch):
    """Both routes on every isoclass share one memo of each coproduct, keyed
    by monomial: 53 graphs at max_n 5, against 505 calls of δ and 402 of Δ
    when each route took its legs afresh."""
    counts = count_coproduct_calls(monkeypatch)
    assert not verify.check_cointeraction(5)
    for calls in counts.values():
        assert len(calls) == 53 and set(calls.values()) == {1}


def test_lattice_laws_span_each_union_of_flats_once(monkeypatch):
    """The glb/lub law asks for the join of every ordered pair of elements;
    each lattice finds the components of each distinct union of two flats
    once: 3,000 unions over the 53 isoclasses at max_n 5, against 22,327
    join calls."""
    calls, spanned = collections.Counter(), collections.Counter()
    join_index, span = AdmissibleLattice.join_index, AdmissibleLattice._span

    def counted_join(L, i, j):
        calls[L, L.flats[i] | L.flats[j]] += 1
        return join_index(L, i, j)

    def counted_span(L, edges):
        spanned[L, edges] += 1
        return span(L, edges)

    monkeypatch.setattr(AdmissibleLattice, "join_index", counted_join)
    monkeypatch.setattr(AdmissibleLattice, "_span", counted_span)
    assert not verify.check_lattice_laws(5)
    assert sum(calls.values()) == 22327
    assert spanned.keys() == calls.keys() and set(spanned.values()) == {1}
    assert len(spanned) == 3000


def test_every_check_runs_in_exactly_one_suite(monkeypatch):
    """Each check is a per-object check: it carries its enumerator and runs
    one object through `.one`."""
    names = [name for name in vars(verify) if name.startswith("check_")]
    for name in names:
        check = getattr(verify, name)
        assert callable(check.one) and callable(check.objects), name
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


def test_witness_tails_run_on_their_own_object(monkeypatch):
    """Each witness is the tail of its check on one object and on no other:
    with equal indexed cointeraction sides, or a leg swap that leaves δ of the
    edge alone, the check reports that one object, and a bound below the
    witness never reaches it."""
    monkeypatch.setattr(verify, "_indexed_cointeraction_sides", lambda G: (1, 1))
    witness = graphs.canonical_form(verify.INDEXED_PATH_WITNESS)
    assert list(verify.check_cointeraction.one(witness)) == [
        "indexed cointeraction unexpectedly holds on the labeled path 3: 1-3, 2-3"]
    assert verify.check_cointeraction(2) == []
    monkeypatch.setattr(verify, "_swap_legs", lambda x: x)
    assert list(verify.check_cocommutativity.one(graphs.complete(2))) == [
        "contraction-extraction coproduct unexpectedly cocommutative on 2: 1-2"]
    assert verify.check_cocommutativity(1) == []


def _swap_atom_and_coatom(L):
    """The transposition of the first atom and the first coatom of L, when its
    rank is at least 3 (so they differ and neither is a bound); else the identity."""
    ranks = [L.G.n - len(p) for p in L.elements]
    top = max(ranks)
    if top < 3:
        return lambda i: i
    a, c = ranks.index(1), ranks.index(top - 1)
    return lambda i: c if i == a else a if i == c else i


def test_glb_lub_law_catches_a_relabelled_lattice(monkeypatch):
    """Meet and join conjugated by a swap that is not an order automorphism
    still satisfy idempotence, commutativity, absorption, associativity and
    the bounds.  Those laws are no longer checked one by one (they follow
    from the order and the glb/lub law), but the greatest lower / least upper
    bound law is still the only one that sees this substitution."""
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
