"""Acceptance suite: one test per criterion, exact assertions, timed against
the stated budget, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from graph_hopf import bialgebra as bi
from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
from graph_hopf import verify
from graph_hopf import wsym as ws
from graph_hopf.graphs import (
    complete,
    connected_isoclasses,
    isoclasses_up_to,
    path_graph,
    random_graph,
)
from graph_hopf.linear import LinComb


class _Criterion:
    def __init__(self, number, limit_s, description):
        self.number = number
        self.limit_s = limit_s
        self.description = description

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.1f}s / {self.limit_s}s) "
              f"- {self.description}")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget: {elapsed:.1f}s")
        return False


def _assert_clean(violations):
    assert not violations, "\n".join(violations)


def test_criterion_01_chromatic_character_ground_truth():
    with _Criterion(1, 1, "chromatic character table and complete-graph values"):
        table = [(complete(1), 1), (complete(2), -1), (complete(3), 2),
                 (path_graph(3), 1), (complete(4), -6)]
        for G, want in table:
            assert ch.chr_delcon(G) == want
            assert ch.chr_forest(G) == want
            assert ch.chr_derivative(G) == want
        for n in range(1, 7):
            want = Fraction(-1) ** (n - 1) * math.factorial(n - 1)
            assert ch.LAMBDA_CHR(complete(n)) == want


def test_criterion_02_chromatic_engine_agreement():
    with _Criterion(2, 120, "three polynomial engines and brute-force counts"):
        count5 = 0
        for G in isoclasses_up_to(5):
            if G.n == 5:
                count5 += 1
            polys = {name: engine(G) for name, engine in chrom.ENGINES.items()}
            assert len(set(polys.values())) == 1, G
            P = polys["delcon"]
            for k in range(5):
                assert P(k) == chrom.count_valid_colorings(G, k), (G, k)
        assert count5 == 34
        rng = random.Random(20260810)
        graphs = [random_graph(6, rng) for _ in range(100)]
        graphs += [random_graph(7, rng) for _ in range(100)]
        for G in graphs:
            polys = {name: engine(G) for name, engine in chrom.ENGINES.items()}
            assert len(set(polys.values())) == 1, G
            P = polys["delcon"]
            for k in range(5):
                assert P(k) == chrom.count_valid_colorings(G, k), (G, k)


def test_criterion_03_bialgebra_laws():
    with _Criterion(3, 60, "coassociativity, counits, multiplicativity, grading"):
        _assert_clean(verify.check_coassociativity(5))
        _assert_clean(verify.check_counit_laws(5))
        _assert_clean(verify.check_multiplicativity(5))
        _assert_clean(verify.check_grading(5))


def test_criterion_04_cointeraction():
    with _Criterion(4, 60, "cointeraction identity and the indexed counterexample"):
        _assert_clean(verify.check_cointeraction(5))
        W = verify.INDEXED_PATH_WITNESS
        assert bi.cointeraction_lhs(W, indexed=True) != bi.cointeraction_rhs(W, indexed=True)


def test_criterion_05_antipode():
    with _Criterion(5, 60, "antipode engine agreement and convolution law"):
        _assert_clean(verify.check_antipode_engines(6))
        _assert_clean(verify.check_antipode_law(5))


def test_criterion_06_character_monoid():
    with _Criterion(6, 30, "chromatic and all-ones characters are mutually inverse"):
        inv = ch.invert_character(ch.LAMBDA_ZERO)
        for n in range(1, 7):
            for G in connected_isoclasses(n):
                assert ch.convolve_value(ch.LAMBDA_CHR, ch.LAMBDA_ZERO, G) == ch.EPSILON_PRIME(G)
                assert ch.convolve_value(ch.LAMBDA_ZERO, ch.LAMBDA_CHR, G) == ch.EPSILON_PRIME(G)
                assert inv(G) == ch.LAMBDA_CHR(G)


def test_criterion_07_coefficient_signs():
    with _Criterion(7, 30, "coefficient support, alternating signs, edge count"):
        _assert_clean(verify.check_rota_signs(6))


def test_criterion_08_forest_characterizations():
    with _Criterion(8, 30, "forest characterizations and the bridge lemma"):
        _assert_clean(verify.check_forest_lambda(6))
        _assert_clean(verify.check_zeta(6))
        _assert_clean(verify.check_bridge_lemma(6))


def test_criterion_09_mobius():
    with _Criterion(9, 60, "Mobius values equal characters of interval quotients"):
        _assert_clean(verify.check_mobius_values(5))


def test_criterion_10_negative_values():
    with _Criterion(10, 120, "values at negative integers count orientations"):
        _assert_clean(verify.check_stanley(5))


def test_criterion_11_noncommutative_layer():
    with _Criterion(11, 120, "noncommutative chromatic morphisms and projections"):
        _assert_clean(verify.check_wsym_examples(5))
        _assert_clean(verify.check_wsym_algebra_morphism(4))
        _assert_clean(verify.check_wsym_coalgebra_morphism(4))
        _assert_clean(verify.check_wsym_action(5))
        _assert_clean(verify.check_projection_chromatic(5))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "graph_hopf", *args],
                          capture_output=True, env=dict(os.environ))


def test_criterion_12_cli_contract():
    with _Criterion(12, 300, "documented CLI outputs and the full verify run"):
        r = _run_cli("chromatic", "--graph", "3: 1-2, 2-3, 1-3", "--engine", "all")
        assert r.returncode == 0 and r.stdout == b'{"poly":["0","2","-3","1"]}\n'
        r = _run_cli("character", "--graph", "2: 1-2", "--which", "chr")
        assert r.returncode == 0 and r.stdout == b'{"value":"-1"}\n'
        r = _run_cli("verify", "--suite", "cointeraction", "--max-n", "4")
        assert r.returncode == 0
        r = _run_cli("verify", "--max-n", "4")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"] is True
        assert sorted(payload["suites"]) == sorted(verify.SUITES)
