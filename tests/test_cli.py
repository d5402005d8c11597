import hashlib
import json
import os
import subprocess
import sys

import pytest


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "graph_hopf", *args],
                          capture_output=True, env=env)


class TestDocumentedOutputs:
    def test_chromatic_triangle(self):
        r = run_cli("chromatic", "--graph", "3: 1-2, 2-3, 1-3", "--engine", "all")
        assert r.returncode == 0
        assert r.stdout == b'{"poly":["0","2","-3","1"]}\n'

    def test_character_edge(self):
        r = run_cli("character", "--graph", "2: 1-2", "--which", "chr")
        assert r.returncode == 0
        assert r.stdout == b'{"value":"-1"}\n'

    def test_verify_cointeraction(self):
        r = run_cli("verify", "--suite", "cointeraction", "--max-n", "4")
        assert r.returncode == 0


class TestChromatic:
    def test_eval(self):
        r = run_cli("chromatic", "--graph", "3: 1-2, 2-3, 1-3", "--eval", "-1")
        out = json.loads(r.stdout)
        assert out == {"poly": ["0", "2", "-3", "1"], "value": "-6"}

    def test_rational_eval(self):
        r = run_cli("chromatic", "--graph", "2: 1-2", "--eval", "1/2")
        assert json.loads(r.stdout)["value"] == "-1/4"

    def test_negative_eval_is_given_with_an_equals_sign(self):
        # argparse reads "--eval -1/2" as an option; "--eval=-1/2" is the value
        r = run_cli("chromatic", "--graph", "3: 1-2", "--eval=-1/2")
        assert r.returncode == 0
        assert json.loads(r.stdout)["value"] == "-3/8"
        r = run_cli("chromatic", "--graph", "3: 1-2", "--eval", "-1/2")
        assert r.returncode == 2
        assert b"expected one argument" in r.stderr

    def test_pretty(self):
        r = run_cli("chromatic", "--graph", "3: 1-2, 2-3, 1-3", "--pretty")
        assert r.stdout == b"X^3 - 3X^2 + 2X\n"

    def test_single_engine(self):
        for engine in ["partition", "delcon", "character"]:
            r = run_cli("chromatic", "--graph", "2: 1-2", "--engine", engine)
            assert json.loads(r.stdout)["poly"] == ["0", "-1", "1"]


class TestCharacter:
    def test_zero(self):
        r = run_cli("character", "--graph", "4: 1-2, 3-4", "--which", "zero")
        assert json.loads(r.stdout)["value"] == "1"

    def test_chr_inverse_is_all_ones(self):
        r = run_cli("character", "--graph", "3: 1-2, 2-3, 1-3", "--which", "chr-inverse")
        assert json.loads(r.stdout)["value"] == "1"

    def test_disconnected_multiplies(self):
        r = run_cli("character", "--graph", "5: 1-2, 3-4, 4-5, 3-5", "--which", "chr")
        assert json.loads(r.stdout)["value"] == "-2"


class TestOtherCommands:
    def test_coproduct_small(self):
        r = run_cli("coproduct", "--graph", "2: 1-2", "--which", "small")
        terms = json.loads(r.stdout)["terms"]
        assert {"coeff": "1", "left": ["1:"], "right": ["2: 1-2"]} in terms
        assert {"coeff": "1", "left": ["2: 1-2"], "right": ["1:", "1:"]} in terms
        assert len(terms) == 2

    def test_coproduct_indexed(self):
        r = run_cli("coproduct", "--graph", "3: 1-3, 2-3", "--which", "small", "--indexed")
        terms = json.loads(r.stdout)["terms"]
        assert {"coeff": "1", "left": "2: 1-2", "right": "3: 1-3"} in terms

    def test_antipode(self):
        r = run_cli("antipode", "--graph", "3: 1-2, 2-3, 1-3")
        terms = json.loads(r.stdout)["terms"]
        assert {"coeff": "3", "monomial": ["2: 1-2", "2: 1-2"]} in terms

    def test_antipode_rejects_disconnected(self):
        # one guard, the engines' own, for every engine choice
        for graph in ("2:", "1:", "3: 1-2"):
            for engine in ("forest", "recursive", "all"):
                r = run_cli("antipode", "--graph", graph, "--engine", engine)
                assert r.returncode == 2
                assert r.stdout == b""
                assert r.stderr == (b"error: antipode is defined on connected graphs "
                                    b"with >= 2 vertices\n")

    def test_lattice(self):
        r = run_cli("lattice", "--graph", "3: 1-2, 2-3, 1-3", "--mobius")
        out = json.loads(r.stdout)
        assert len(out["elements"]) == 5
        assert out["mobius"] == "2"

    def test_ncchromatic_words(self):
        r = run_cli("ncchromatic", "--graph", "2: 1-2", "--basis", "words")
        out = json.loads(r.stdout)
        assert out["terms"] == [{"coeff": "1", "word": [1, 2]}, {"coeff": "1", "word": [2, 1]}]

    def test_ncchromatic_project(self):
        r = run_cli("ncchromatic", "--graph", "3: 1-2, 2-3", "--project")
        assert json.loads(r.stdout)["poly"] == ["0", "1", "-2", "1"]

    def test_ncchromatic_words_of_the_five_cycle_are_pinned(self):
        # the 11 W terms of C5 expand to its 270 packed valid colorings
        r = run_cli("ncchromatic", "--graph", "5: 1-2, 2-3, 3-4, 4-5, 1-5", "--basis", "words",
                    "--project")
        assert r.returncode == 0
        assert json.loads(r.stdout)["poly"] == ["0", "4", "-10", "10", "-5", "1"]
        assert hashlib.sha256(r.stdout).hexdigest() == (
            "2c16bc77cf19f6f1e8b8023b9080995140a4333a921809edc1a6a9d65abf944b")

    @pytest.mark.parametrize("args, terms, digest", [
        # the 9-cycle; its poly is P(C9) = (X - 1)^9 - (X - 1)
        (("--graph", "9: 1-2, 2-3, 3-4, 4-5, 5-6, 6-7, 7-8, 8-9, 1-9"), 3425,
         "de9a3c84642997ca45e9d4f29be6ef97a0c51ce469f07fef2d83450c920e6fb0"),
        (("--graph", "9: 1-5, 1-6, 2-3, 2-7, 3-5, 3-9, 4-7, 4-8, 5-8, 6-9, 7-9"), 2384,
         "d65907d1169d249a8dc54bd9f6db1b9d7a4ac33b649bf9b065f02480ce9f1dea"),
        # the 6-cycle's packed valid colorings, as words
        (("--basis", "words", "--graph", "6: 1-2, 2-3, 3-4, 4-5, 5-6, 1-6"), 2342,
         "8f2d6a1f481664c37b6fdf3bd469db5976680d7e2a8ba640e09ebe3c005d5183"),
    ])
    def test_ncchromatic_outputs_are_pinned(self, capsys, args, terms, digest):
        """Full stdout of the W terms on two 9-vertex graphs and of the words
        of C6, in-process, as the emission through `LinComb.items()` wrote it."""
        from graph_hopf import cli

        assert cli.main(["ncchromatic", "--project", *args]) == 0
        out = capsys.readouterr().out.encode()
        assert len(json.loads(out)["terms"]) == terms
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        # the 3-cube, and a triangle beside a diamond and an isolated vertex
        (("coproduct", "--graph",
          "8: 1-2, 1-3, 1-5, 2-4, 2-6, 3-4, 3-7, 4-8, 5-6, 5-7, 6-8, 7-8"),
         "eea18d8015366896b4957ed2548f351dcb122b539fc8123337594cb13cc14251"),
        (("coproduct", "--graph", "8: 1-2, 1-3, 2-3, 4-5, 4-6, 4-7, 5-6, 6-7"),
         "a65fbea2943354a54936dcb12412e351a5c6b4747c496121e7e4073d2bd24fec"),
        # the wheel with six spokes
        (("antipode", "--engine", "recursive", "--graph",
          "7: 1-2, 1-6, 1-7, 2-3, 2-7, 3-4, 3-7, 4-5, 4-7, 5-6, 5-7, 6-7"),
         "94d9b24e1af7d2ec78b140f50b997f42873bbb2c3c33efd6cb63a48e7e0d3d43"),
    ])
    def test_contraction_extraction_outputs_are_pinned(self, args, digest):
        r = run_cli(*args)
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout).hexdigest() == digest


class TestContract:
    def test_parse_failure_exits_2(self):
        r = run_cli("chromatic", "--graph", "3: 1-1")
        assert r.returncode == 2
        assert r.stderr

    def test_duplicate_edge_exits_2(self):
        r = run_cli("chromatic", "--graph", "3: 1-2, 2-1")
        assert r.returncode == 2

    def test_zero_denominator_eval_exits_2(self):
        r = run_cli("chromatic", "--graph", "2: 1-2", "--eval", "1/0")
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr.startswith(b"error:")

    def test_exponent_eval_exits_2(self):
        # an exponent would make Fraction build 10**exp first
        r = run_cli("chromatic", "--graph", "2: 1-2", "--eval", "1e5")
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr.startswith(b"error:")

    def test_eval_with_pretty_exits_2(self):
        # --pretty prints no value, so the two options may not be combined
        r = run_cli("chromatic", "--graph", "2: 1-2", "--eval", "2", "--pretty")
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"not allowed with argument" in r.stderr

    def test_unknown_flag_exits_2(self):
        r = run_cli("chromatic", "--nope")
        assert r.returncode == 2

    def test_deterministic_output(self):
        args = ("antipode", "--graph", "4: 1-2, 2-3, 3-4, 1-4")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_env_caps_verify(self):
        r = run_cli("verify", "--suite", "counit", "--max-n", "5",
                    env_extra={"GRAPH_HOPF_MAX_N": "2"})
        assert r.returncode == 0
        assert json.loads(r.stdout)["max_n"] == 2

    def test_negative_max_n_exits_2(self):
        r = run_cli("verify", "--suite", "counit", "--max-n", "-1")
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"--max-n" in r.stderr

    def test_negative_env_cap_exits_2(self):
        r = run_cli("verify", "--suite", "wsym", "--max-n", "2",
                    env_extra={"GRAPH_HOPF_MAX_N": "-3"})
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"GRAPH_HOPF_MAX_N" in r.stderr

    def test_non_integer_env_cap_exits_2(self):
        r = run_cli("verify", "--suite", "counit", "--max-n", "2",
                    env_extra={"GRAPH_HOPF_MAX_N": "abc"})
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"GRAPH_HOPF_MAX_N" in r.stderr

    @pytest.mark.parametrize("args, env", [
        (("chromatic", "--graph=1_0:"), None),
        (("chromatic", "--graph=-1:"), None),
        (("chromatic", "--graph", "3: 1-\u0662"), None),
        (("chromatic", "--graph", "\u0663:"), None),
        (("chromatic", "--graph", "3: 1-2", "--eval=\u0663"), None),
        (("verify", "--suite", "counit", "--max-n", "\u0663"), None),
        (("verify", "--suite", "counit", "--max-n", "+3"), None),
        (("verify", "--suite", "counit", "--max-n", "2"), {"GRAPH_HOPF_MAX_N": "\u0663"}),
    ], ids=["underscore", "signed-count", "arabic-edge", "arabic-count", "arabic-eval",
            "arabic-max-n", "signed-max-n", "arabic-env-cap"])
    def test_numbers_are_ascii_digits(self, args, env):
        """Every number read at the boundary is a string of [0-9], with
        whitespace around it allowed (and a sign, "/" or "." in --eval);
        anything else exits 2 with an error and no output."""
        r = run_cli(*args, env_extra=env)
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr.startswith(b"error:")

    def test_zero_max_n_is_valid(self):
        r = run_cli("verify", "--suite", "counit", "--max-n", "0")
        assert r.returncode == 0
        assert json.loads(r.stdout)["max_n"] == 0

    def test_verify_timings_leave_stdout_alone(self):
        plain = run_cli("verify", "--max-n", "3")
        timed = run_cli("verify", "--max-n", "3", "--timings")
        assert plain.returncode == timed.returncode == 0
        assert timed.stdout == plain.stdout
        assert plain.stderr == b""
        suites = json.loads(plain.stdout)["suites"]
        report = json.loads(timed.stderr)
        assert list(report) == ["timings", "caches"]
        timings = report["timings"]
        assert list(timings) == list(suites)
        for name, checks in timings.items():
            assert len(checks) == suites[name]["checks"]
            assert all(set(row) == {"seconds", "objects"} and row["seconds"] >= 0
                       for row in checks.values())
        # labelled graphs with 0..3 vertices; isoclasses; the examples worked by hand
        assert timings["wsym"]["check_wsym_action"]["objects"] == 1 + 1 + 2 + 8
        assert timings["coassoc"]["check_cocommutativity"]["objects"] == 1 + 1 + 2 + 4
        assert timings["wsym"]["check_wsym_examples"]["objects"] == 3
        # one row per lru_cache; a memo that is never cleared holds one entry per miss
        caches = report["caches"]
        assert len(caches) == 15
        assert all(set(row) == {"hits", "misses", "currsize"} and row["currsize"] == row["misses"]
                   for row in caches.values())
        assert caches["graphs.canonical_form"]["hits"] > caches["graphs.canonical_form"]["misses"]
        assert caches["graphs.graph_isoclasses"]["misses"] == 4  # 0..3 vertices

    def test_verify_single_suite_payload(self):
        r = run_cli("verify", "--suite", "counit", "--max-n", "3")
        out = json.loads(r.stdout)
        assert out["ok"] is True
        assert list(out["suites"]) == ["counit"]


class TestEngineRegistries:
    """`--engine all` runs every registered engine and exits 1 when they disagree."""

    @pytest.mark.parametrize("command, registry, engine, graph", [
        ("chromatic", "chromatic.ENGINES", "character", "3: 1-2, 2-3"),
        ("antipode", "bialgebra.ANTIPODE_ENGINES", "recursive", "3: 1-2, 2-3"),
    ])
    def test_disagreement_exits_1(self, monkeypatch, capsys, command, registry, engine, graph):
        from graph_hopf import bialgebra, chromatic, cli

        engines = {"chromatic.ENGINES": chromatic.ENGINES,
                   "bialgebra.ANTIPODE_ENGINES": bialgebra.ANTIPODE_ENGINES}[registry]
        right = engines[engine]
        monkeypatch.setitem(engines, engine, lambda G: right(G) * 2)
        assert cli.main([command, "--graph", graph]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{command} engines disagree on 3: 1-2, 2-3\n"
        assert cli.main([command, "--graph", graph, "--engine", engine]) == 0

    def test_every_registered_engine_is_a_choice(self):
        from graph_hopf import bialgebra, chromatic, cli

        parser = cli.build_parser()
        for command, engines in (("chromatic", chromatic.ENGINES),
                                 ("antipode", bialgebra.ANTIPODE_ENGINES)):
            for name in [*engines, "all"]:
                args = parser.parse_args([command, "--graph", "2: 1-2", "--engine", name])
                assert args.engine == name


# `lattice` stdout without --mobius, and the Mobius value that --mobius adds
LATTICE_PINS = {
    "0:": (
        b'{"elements":[[]],"covers":[]}'
        b'\n', b'"1"'),
    "1:": (
        b'{"elements":[[[1]]],"covers":[]}'
        b'\n', b'"1"'),
    "4: 1-2, 1-3, 1-4, 2-3, 2-4, 3-4": (
        b'{"elements":[[[1],[2],[3],[4]],[[1],[2],[3,4]],[[1],[2,3],[4]],[[1],[2,3,4]]'
        b',[[1],[2,4],[3]],[[1,2],[3],[4]],[[1,2],[3,4]],[[1,2,3],[4]],[[1,2,3,4]],[[1'
        b',2,4],[3]],[[1,3],[2],[4]],[[1,3],[2,4]],[[1,3,4],[2]],[[1,4],[2],[3]],[[1,4'
        b'],[2,3]]],"covers":[[0,1],[0,2],[0,4],[0,5],[0,10],[0,13],[1,3],[1,6],[1,12]'
        b',[2,3],[2,7],[2,14],[3,8],[4,3],[4,9],[4,11],[5,6],[5,7],[5,9],[6,8],[7,8],['
        b'9,8],[10,7],[10,11],[10,12],[11,8],[12,8],[13,9],[13,12],[13,14],[14,8]]}'
        b'\n', b'"-6"'),
    "5: 1-2, 2-3, 3-4, 4-5, 1-5": (
        b'{"elements":[[[1],[2],[3],[4],[5]],[[1],[2],[3],[4,5]],[[1],[2],[3,4],[5]],['
        b'[1],[2],[3,4,5]],[[1],[2,3],[4],[5]],[[1],[2,3],[4,5]],[[1],[2,3,4],[5]],[[1'
        b'],[2,3,4,5]],[[1,2],[3],[4],[5]],[[1,2],[3],[4,5]],[[1,2],[3,4],[5]],[[1,2],'
        b'[3,4,5]],[[1,2,3],[4],[5]],[[1,2,3],[4,5]],[[1,2,3,4],[5]],[[1,2,3,4,5]],[[1'
        b',2,3,5],[4]],[[1,2,4,5],[3]],[[1,2,5],[3],[4]],[[1,2,5],[3,4]],[[1,3,4,5],[2'
        b']],[[1,4,5],[2],[3]],[[1,4,5],[2,3]],[[1,5],[2],[3],[4]],[[1,5],[2],[3,4]],['
        b'[1,5],[2,3],[4]],[[1,5],[2,3,4]]],"covers":[[0,1],[0,2],[0,4],[0,8],[0,23],['
        b'1,3],[1,5],[1,9],[1,21],[2,3],[2,6],[2,10],[2,24],[3,7],[3,11],[3,20],[4,5],'
        b'[4,6],[4,12],[4,25],[5,7],[5,13],[5,22],[6,7],[6,14],[6,26],[7,15],[8,9],[8,'
        b'10],[8,12],[8,18],[9,11],[9,13],[9,17],[10,11],[10,14],[10,19],[11,15],[12,1'
        b'3],[12,14],[12,16],[13,15],[14,15],[16,15],[17,15],[18,16],[18,17],[18,19],['
        b'19,15],[20,15],[21,17],[21,20],[21,22],[22,15],[23,18],[23,21],[23,24],[23,2'
        b'5],[24,19],[24,20],[24,26],[25,16],[25,22],[25,26],[26,15]]}'
        b'\n', b'"4"'),
    "4: 1-2, 2-3": (
        b'{"elements":[[[1],[2],[3],[4]],[[1],[2,3],[4]],[[1,2],[3],[4]],[[1,2,3],[4]]'
        b'],"covers":[[0,1],[0,2],[1,3],[2,3]]}'
        b'\n', b'"1"'),
    "4: 1-2, 3-4": (
        b'{"elements":[[[1],[2],[3],[4]],[[1],[2],[3,4]],[[1,2],[3],[4]],[[1,2],[3,4]]'
        b'],"covers":[[0,1],[0,2],[1,3],[2,3]]}'
        b'\n', b'"1"'),
}


@pytest.mark.parametrize("graph", list(LATTICE_PINS))
def test_lattice_stdout_is_pinned(capsys, graph):
    """Elements in sorted order and covers by (i, j) ascending, byte for byte."""
    from graph_hopf import cli

    expected, mobius = LATTICE_PINS[graph]
    assert cli.main(["lattice", "--graph", graph]) == 0
    assert capsys.readouterr().out.encode() == expected
    assert cli.main(["lattice", "--graph", graph, "--mobius"]) == 0
    assert capsys.readouterr().out.encode() == expected[:-2] + b',"mobius":' + mobius + b'}\n'


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    """A valid query, a malformed graph (exit 2), an argparse error
    (SystemExit 2) and the first query again, in one process: the parser is
    built once, and the last stdout is the first byte for byte."""
    from graph_hopf import cli

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    query = ["chromatic", "--graph", "5: 1-2, 2-3, 3-4, 4-5, 1-5", "--eval", "3"]
    assert cli.main(query) == 0
    first = capsys.readouterr().out.encode()
    assert cli.main(["chromatic", "--graph", "3: 1-1"]) == 2
    assert capsys.readouterr() == ("", "error: loop edge 1-1 not allowed\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["chromatic", "--graph", "2:", "--engine", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert cli.main(query) == 0
    assert capsys.readouterr().out.encode() == first
    assert first == b'{"poly":["0","4","-10","10","-5","1"],"value":"30"}\n'
    assert built == [1]


@pytest.mark.parametrize("engine", ["all", "partition", "character", "delcon"])
def test_edgeless_eleven_vertices_needs_no_set_partition_table(capsys, engine):
    """The edgeless graph on 11 vertices has X^11 on every engine, and no
    engine asks for a table of set partitions: `_set_partitions_list` is not
    called at all, so Bell(11) = 678570 partitions are never built."""
    from graph_hopf import cli, graphs

    before = graphs._set_partitions_list.cache_info()
    assert cli.main(["chromatic", "--graph", "11:", "--engine", engine]) == 0
    assert json.loads(capsys.readouterr().out)["poly"] == ["0"] * 11 + ["1"]
    assert graphs._set_partitions_list.cache_info() == before


def test_inverse_character_on_the_eleven_vertex_path_needs_no_set_partition_table(capsys):
    """The inverse of the chromatic character is the all-ones character; on
    the path with 11 vertices it sums over the counted terms of δ, so the
    Bell(11) table of set partitions is never built."""
    from graph_hopf import cli, graphs

    before = graphs._set_partitions_list.cache_info()
    path = "11: " + ", ".join(f"{v}-{v + 1}" for v in range(1, 11))
    assert cli.main(["character", "--graph", path, "--which", "chr-inverse"]) == 0
    assert capsys.readouterr().out == '{"value":"1"}\n'
    assert graphs._set_partitions_list.cache_info() == before


@pytest.mark.parametrize("engine", ["partition", "character"])
def test_twelve_cycle_on_the_partition_sum_engines(capsys, engine):
    """P(C12) = (X - 1)^12 + (X - 1), summed block by block without a table
    of set partitions."""
    from graph_hopf import cli, graphs
    from graph_hopf.linear import Polynomial

    before = graphs._set_partitions_list.cache_info()
    cycle = "12: " + ", ".join(f"{v}-{v % 12 + 1}" for v in range(1, 13))
    assert cli.main(["chromatic", "--graph", cycle, "--engine", engine]) == 0
    x_minus_1 = Polynomial([-1, 1])
    assert json.loads(capsys.readouterr().out)["poly"] == (x_minus_1 ** 12 + x_minus_1).to_json()
    assert graphs._set_partitions_list.cache_info() == before


def _stdout_the_sorted_way(command, G, basis=None):
    """`ncchromatic --project` or `lattice --mobius` stdout rendered from the
    library through `LinComb.items()`, with a fresh list for every block,
    word and cover pair."""
    from graph_hopf import lattice, wsym
    from graph_hopf.linear import format_rational

    if command == "lattice":
        L = lattice.build_lattice(G)
        obj = {"elements": [[list(b) for b in p.blocks] for p in L.elements],
               "covers": [[i, j] for i, j in L.covers()],
               "mobius": format_rational(L.mobius(L.bottom, L.top))}
    else:
        element = wsym.pchr_nc(G)
        if basis == "W":
            terms = [{"coeff": format_rational(c), "partition": [list(b) for b in p.blocks]}
                     for p, c in element.items()]
        else:
            terms = [{"coeff": format_rational(c), "word": list(w)}
                     for w, c in wsym.expand(element).items()]
        obj = {"basis": basis, "terms": terms,
               "poly": wsym.hilbert_morphism(element).to_json()}
    return json.dumps(obj, separators=(",", ":")) + "\n"


def test_emitted_tuples_and_block_order_match_the_sorted_rendering(capsys):
    """On seeded random labelled graphs with 0-8 vertices, stdout equals the
    rendering through `LinComb.items()` byte for byte: the W terms of
    `ncchromatic --project` on all of them, its words and `lattice --mobius`
    for n <= 6."""
    import random

    from graph_hopf import cli
    from graph_hopf.graphs import format_graph
    from helpers import random_graph, relabel

    rng = random.Random(35)
    for n in range(9):
        for p in (0.2, 0.5, 0.8):
            G = relabel(random_graph(n, rng, p), rng.sample(range(1, n + 1), n))
            runs = [(["ncchromatic", "--project"], "ncchromatic", "W")]
            if n <= 6:
                runs += [(["ncchromatic", "--project", "--basis", "words"], "ncchromatic", "words"),
                         (["lattice", "--mobius"], "lattice", None)]
            for argv, command, basis in runs:
                assert cli.main([*argv, "--graph", format_graph(G)]) == 0
                assert capsys.readouterr().out == _stdout_the_sorted_way(command, G, basis)


@pytest.mark.parametrize("argv", [
    ["ncchromatic", "--project", "--graph", "9: 1-2, 2-3, 3-4, 4-5, 5-6, 6-7, 7-8, 8-9, 1-9"],
    ["lattice", "--mobius", "--graph", "6: 1-2, 1-3, 2-3, 3-4, 4-5, 5-6, 4-6"],
])
def test_emission_makes_no_partition_comparison(monkeypatch, capsys, argv):
    """The W terms are sorted by their blocks, so no `Partition.__lt__` call
    is made: sorting the 3425 terms of the 9-cycle through `LinComb.items()`
    makes 23,702.  The lattice emission compares no partition either."""
    from graph_hopf import cli
    from graph_hopf.graphs import Partition

    calls = []
    less = Partition.__lt__
    monkeypatch.setattr(Partition, "__lt__", lambda p, q: calls.append(1) or less(p, q))
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)
    assert calls == []
