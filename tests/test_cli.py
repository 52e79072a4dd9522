import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG2_TEXT, S0_TEXT, S1_TEXT
from shexval.cli import main
from shexval.genbench import GenConfig, generate_graph
from shexval.graph import Graph, format_graph, parse_graph, relabel_wildcards
from shexval.schema import parse_schema
from shexval.validate import ALGORITHMS, format_pretyping, infer_types, validate_multi

WILDCARD_TEXT = """\
wildcard P = prefix "x"
t -> <P>::u*
"""
WILDCARD_GRAPH_TEXT = "n\txfoo\tm\n"

NONDET_LABEL_TEXT = """\
T -> reportedBy::User , reportedBy::Employee
User -> eps
Employee -> eps
"""


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child_env():
    """The environment of a child interpreter, with ``src/`` on its path, so
    the subprocess tests run from a fresh checkout without PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def s0_file(tmp_path):
    return write(tmp_path, "s0.shex", S0_TEXT)


@pytest.fixture
def s1_file(tmp_path):
    return write(tmp_path, "s1.shex", S1_TEXT)


@pytest.fixture
def fig2_file(tmp_path):
    return write(tmp_path, "fig2.shex", FIG2_TEXT)


@pytest.fixture
def g0_file(tmp_path, g0):
    return write(tmp_path, "g0.tsv", format_graph(g0))


@pytest.fixture
def g1_file(tmp_path, g1):
    return write(tmp_path, "g1.tsv", format_graph(g1))


@pytest.fixture
def g2_file(tmp_path, g2):
    return write(tmp_path, "g2.tsv", format_graph(g2))


class TestValidate:
    def test_valid_graph_exits_zero(self, capsys, s0_file, g0_file):
        code = main(["validate", "--schema", s0_file, "--graph", g0_file])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["valid"]

    def test_emit_typing_adds_typed_lines(self, capsys, s0_file, g0_file):
        code = main(
            ["validate", "--schema", s0_file, "--graph", g0_file, "--emit-typing"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "TYPED\tn0\tt0" in out

    def test_invalid_graph_exits_one_with_failures(self, capsys, s0_file, g2_file, g2):
        code = main(
            [
                "validate",
                "--schema",
                s0_file,
                "--graph",
                g2_file,
                "--report-remaining",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[0] == "invalid"
        assert any(line.startswith("FAILED\tn1\t") for line in out)
        remaining = [line for line in out if line.startswith("REMAINING\t")]
        assert len(remaining) == len(g2.edges)

    def test_machine_format_prefixes_verdict(self, capsys, s0_file, g0_file):
        code = main(
            [
                "validate",
                "--schema",
                s0_file,
                "--graph",
                g0_file,
                "--format",
                "machine",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "verdict\tvalid"

    def test_single_mode_brute(self, capsys, s1_file, g1_file, g2_file):
        assert (
            main(
                [
                    "validate",
                    "--schema",
                    s1_file,
                    "--graph",
                    g1_file,
                    "--mode",
                    "single",
                    "--algo",
                    "brute",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "validate",
                    "--schema",
                    s1_file,
                    "--graph",
                    g2_file,
                    "--mode",
                    "single",
                    "--algo",
                    "brute",
                ]
            )
            == 1
        )

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_brute_reports_the_edges_of_universally_typed_nodes(
        self, capsys, tmp_path, mode
    ):
        schema = write(tmp_path, "top.shex", "t -> a::TOP\n")
        graph = write(tmp_path, "g.tsv", "n\ta\tm\n")
        code = main(
            [
                "validate",
                "--schema",
                schema,
                "--graph",
                graph,
                "--mode",
                mode,
                "--algo",
                "brute",
                "--report-remaining",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["valid", "REMAINING\tn\ta\tm"]

    def test_single_mode_brute_names_the_failure(self, capsys, s1_file, g2_file):
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                g2_file,
                "--mode",
                "single",
                "--algo",
                "brute",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "invalid",
            "FAILED\t-\t-\tno valid s-typing exists",
        ]

    def test_single_mode_flood_needs_pretyping(self, capsys, s1_file, g1_file):
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                g1_file,
                "--mode",
                "single",
                "--algo",
                "flood",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: single-mode flooding needs --pretyping\n"
        )

    def test_single_mode_flood_with_pretyping(
        self, capsys, tmp_path, s1_file, g1_file
    ):
        pre = write(tmp_path, "pre.tsv", "n0\tt0\n")
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                g1_file,
                "--mode",
                "single",
                "--algo",
                "flood",
                "--pretyping",
                pre,
                "--emit-typing",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "TYPED\tn3\tt3" in out

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_flood_accepts_a_node_sent_to_top(self, capsys, tmp_path, mode):
        # z is reached only through the extra::TOP edge.
        schema = write(tmp_path, "s.shex", "t -> a::u , extra::TOP*\nu -> eps\n")
        graph = write(tmp_path, "g.tsv", "x\ta\ty\nx\textra\tz\n")
        pre = write(tmp_path, "pre.tsv", "x\tt\n")
        code = main(
            [
                "validate",
                "--schema",
                schema,
                "--graph",
                graph,
                "--mode",
                mode,
                "--algo",
                "flood",
                "--pretyping",
                pre,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["valid"]

    def test_single_mode_refinement_is_a_usage_error(self, capsys, s1_file, g1_file):
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                g1_file,
                "--mode",
                "single",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: algorithm refine supports only --mode multi\n"
        )

    @pytest.mark.parametrize(
        "algo, schema_text, message",
        [
            (
                "rbe0-refine",
                "t -> (a::u | a::v)*\nu -> eps\nv -> eps\n",
                "error: rbe0-refine needs a schema of symbol products\n",
            ),
            (
                "s-refine",
                "t -> a::t* , a::u?\nu -> eps\n",
                "error: s-refine needs a deterministic single-occurrence schema\n",
            ),
        ],
        ids=["rbe0-refine", "s-refine"],
    )
    def test_inadmissible_algorithm_is_named(
        self, capsys, tmp_path, algo, schema_text, message
    ):
        code = main(
            [
                "validate",
                "--algo",
                algo,
                "--schema",
                write(tmp_path, "s.shex", schema_text),
                "--graph",
                write(tmp_path, "g.tsv", "x\ta\ty\n"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == message
        assert "strategy" not in err

    def test_multi_flood_without_pretyping_or_universal_type(
        self, capsys, tmp_path, s1_file, g1_file
    ):
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                g1_file,
                "--algo",
                "flood",
            ]
        )
        assert code == 2
        pre = write(tmp_path, "pre.tsv", "n0\tt0\n")
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                g1_file,
                "--algo",
                "flood",
                "--pretyping",
                pre,
            ]
        )
        assert code == 0

    def test_schema_with_intersection_is_a_parse_error(
        self, capsys, tmp_path, g1_file
    ):
        bad = write(tmp_path, "bad.shex", "t -> a::u & b::u\nu -> eps\n")
        code = main(["validate", "--schema", bad, "--graph", g1_file])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, capsys, s1_file, tmp_path):
        code = main(
            [
                "validate",
                "--schema",
                s1_file,
                "--graph",
                str(tmp_path / "absent.tsv"),
            ]
        )
        assert code == 2

    def test_no_arguments_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_graph_labels_are_relabeled_onto_wildcards(self, capsys, tmp_path):
        schema = parse_schema(WILDCARD_TEXT)
        graph = relabel_wildcards(
            parse_graph(WILDCARD_GRAPH_TEXT), schema.wildcard_family()
        )
        assert validate_multi(graph, schema).valid
        code = main(
            [
                "validate",
                "--schema",
                write(tmp_path, "wild.shex", WILDCARD_TEXT),
                "--graph",
                write(tmp_path, "wild.tsv", WILDCARD_GRAPH_TEXT),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["valid"]

    def _validate_wildcard(self, tmp_path, schema_text, graph_text):
        return main(
            [
                "validate",
                "--schema",
                write(tmp_path, "wild.shex", schema_text),
                "--graph",
                write(tmp_path, "wild.tsv", graph_text),
                "--emit-typing",
            ]
        )

    def test_unclaimed_label_fails_a_closed_rule(self, capsys, tmp_path):
        code = self._validate_wildcard(
            tmp_path, WILDCARD_TEXT, WILDCARD_GRAPH_TEXT + "n\tzz\tm\n"
        )
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "invalid"

    def test_unclaimed_label_passes_the_universal_type(self, capsys, tmp_path):
        schema_text = 'wildcard P = prefix "x"\nt -> <P>::TOP*\n'
        code = self._validate_wildcard(
            tmp_path, schema_text, WILDCARD_GRAPH_TEXT + "n\tzz\tm\n"
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "valid"
        assert "TYPED\tn\tTOP" in out

    def test_label_named_like_an_unclaiming_wildcard(self, capsys, tmp_path):
        code = self._validate_wildcard(
            tmp_path, WILDCARD_TEXT, WILDCARD_GRAPH_TEXT + "n\tP\tm\n"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'P'" in err


LONG_RULE_TEXT = "t -> " + ", ".join(f"a{i}::t?" for i in range(1500)) + "\n"
DEEP_RULE_TEXT = "t -> " + "(" * 1500 + "a::t?" + ")" * 1500 + "\n"


def _run_cli(tmp_path, command, schema_text):
    args = ["--schema", write(tmp_path, "rule.shex", schema_text)]
    if command == "validate":
        args += ["--graph", write(tmp_path, "g.tsv", "n\ta0\tm\n")]
    return subprocess.run(
        [sys.executable, "-m", "shexval.cli", command, *args],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


@pytest.mark.parametrize("command", ["check", "validate"])
def test_long_rule_is_accepted(tmp_path, command):
    proc = _run_cli(tmp_path, command, LONG_RULE_TEXT)
    assert proc.returncode == 0
    assert proc.stderr == ""
    if command == "validate":
        assert proc.stdout.splitlines() == ["valid"]


@pytest.mark.parametrize("command", ["check", "validate"])
def test_deeply_parenthesised_rule_is_a_usage_error(tmp_path, command):
    proc = _run_cli(tmp_path, command, DEEP_RULE_TEXT)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


HUB_SCHEMA_TEXT = "t -> a::u*, a::v*\nu -> eps\nv -> eps\n"


@pytest.mark.parametrize("algo", ["refine", "rbe0-refine"])
def test_hub_of_many_edges_is_valid(capsys, tmp_path, algo):
    hub = "".join(f"n\ta\tm{i}\n" for i in range(1200))
    code = main(
        [
            "validate",
            "--algo",
            algo,
            "--schema",
            write(tmp_path, "hub.shex", HUB_SCHEMA_TEXT),
            "--graph",
            write(tmp_path, "hub.tsv", hub),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["valid"]


class TestCheck:
    def test_clean_schema_reports_flags(self, capsys, s1_file):
        code = main(["check", "--schema", s1_file])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert (
            "schema\tdeterministic=yes\tsorbe=yes\trbe0=yes" == out[-1]
        )
        assert sum(1 for line in out if line.startswith("type\t")) == 4

    def test_nondeterministic_schema_names_the_label(self, capsys, tmp_path):
        path = write(tmp_path, "nondet.shex", NONDET_LABEL_TEXT)
        code = main(["check", "--schema", path])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "nondeterministic\tT\treportedBy" in out
        assert out[-1].startswith("schema\tdeterministic=no")

    def test_optional_sat_and_unambiguity_columns(self, capsys, fig2_file):
        code = main(["check", "--schema", fig2_file, "--sat", "--unambiguity"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        typed = [line for line in out if line.startswith("type\t")]
        assert typed
        assert all("satisfiable=sat" in line for line in typed)
        assert all("unambiguous=unambiguous" in line for line in typed)

    def test_intersection_rule_is_a_parse_error(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.shex", "t -> a::u & b::u\n")
        assert main(["check", "--schema", bad]) == 2


class TestFindTypes:
    def test_maximal_typing_lines(self, capsys, s1_file, g2_file):
        code = main(["find-types", "--schema", s1_file, "--graph", g2_file])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == [
            "TYPED\tn0\tt0",
            "TYPED\tn1\tt1,t2",
            "TYPED\tn2\tt3",
        ]

    def test_untypable_node_is_flagged(self, capsys, s0_file, g2_file):
        code = main(["find-types", "--schema", s0_file, "--graph", g2_file])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "EMPTY\tn1" in out

    def test_empty_graph_prints_nothing(self, capsys, s1_file, tmp_path):
        empty = write(tmp_path, "empty.tsv", "")
        code = main(["find-types", "--schema", s1_file, "--graph", empty])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_graph_labels_are_relabeled_onto_wildcards(self, capsys, tmp_path):
        schema = parse_schema(WILDCARD_TEXT)
        graph = relabel_wildcards(
            parse_graph(WILDCARD_GRAPH_TEXT), schema.wildcard_family()
        )
        expected = [
            f"TYPED\t{node}\t{','.join(sorted(types))}"
            for node, types in sorted(infer_types(graph, schema).items())
        ]
        code = main(
            [
                "find-types",
                "--schema",
                write(tmp_path, "wild.shex", WILDCARD_TEXT),
                "--graph",
                write(tmp_path, "wild.tsv", WILDCARD_GRAPH_TEXT),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == expected


class TestGen:
    def test_writes_reproducible_graph_and_roots(self, capsys, tmp_path, fig2_file):
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        roots1 = tmp_path / "a.roots"
        roots2 = tmp_path / "b.roots"
        for out, roots in ((out1, roots1), (out2, roots2)):
            code = main(
                [
                    "gen",
                    "--schema",
                    fig2_file,
                    "--nodes",
                    "25",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                    "--roots",
                    str(roots),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert roots1.read_bytes() == roots2.read_bytes()
        assert capsys.readouterr().err == ""

    def test_generated_graph_floods_from_its_roots(self, tmp_path, fig2_file):
        out = tmp_path / "g.tsv"
        roots = tmp_path / "g.roots"
        main(
            [
                "gen",
                "--schema",
                fig2_file,
                "--nodes",
                "30",
                "--seed",
                "11",
                "--out",
                str(out),
                "--roots",
                str(roots),
            ]
        )
        code = main(
            [
                "validate",
                "--schema",
                fig2_file,
                "--graph",
                str(out),
                "--algo",
                "flood",
                "--pretyping",
                str(roots),
            ]
        )
        assert code == 0

    def test_missing_seed_is_generated_and_printed(self, capsys, tmp_path):
        schema = write(tmp_path, "chain.shex", "t -> a::u\nu -> eps\n")
        out = tmp_path / "g.tsv"
        code = main(["gen", "--schema", schema, "--nodes", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        assert err.startswith("seed\t")
        assert out.exists()

    def test_nondeterministic_schema_is_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "nondet.shex", NONDET_LABEL_TEXT)
        code = main(
            [
                "gen",
                "--schema",
                path,
                "--nodes",
                "5",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "g.tsv"),
            ]
        )
        assert code == 2


class TestBench:
    def test_csv_file_output(self, tmp_path, fig2_file):
        csv = tmp_path / "out.csv"
        code = main(
            [
                "bench",
                "--schema",
                fig2_file,
                "--sizes",
                "12,24",
                "--algos",
                "flood,s-refine",
                "--repeats",
                "2",
                "--seed",
                "5",
                "--csv",
                str(csv),
            ]
        )
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "algo,n_nodes,n_triples,seed,millis"
        assert len(lines) == 5

    def test_stdout_when_no_csv_path(self, capsys, fig2_file):
        code = main(
            [
                "bench",
                "--schema",
                fig2_file,
                "--sizes",
                "10",
                "--algos",
                "refine",
                "--repeats",
                "2",
                "--seed",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("algo,n_nodes,n_triples,seed,millis\n")

    def test_unknown_algorithm_is_a_usage_error(self, capsys, fig2_file):
        code = main(
            [
                "bench",
                "--schema",
                fig2_file,
                "--sizes",
                "10",
                "--algos",
                "guess",
                "--repeats",
                "2",
                "--seed",
                "5",
            ]
        )
        assert code == 2


class TestRbe:
    def test_member_yes_and_no(self, capsys):
        assert main(["rbe", "member", "--expr", "a,b*", "--bag", "a,b,b"]) == 0
        assert capsys.readouterr().out.strip() == "member"
        assert main(["rbe", "member", "--expr", "a,b*", "--bag", "b"]) == 1
        assert capsys.readouterr().out.strip() == "not-member"

    def test_member_accepts_count_suffix(self, capsys):
        assert (
            main(["rbe", "member", "--expr", "a[2;3],b?", "--bag", "a^2,b"]) == 0
        )

    def test_member_takes_a_huge_count_without_expanding_it(self, capsys):
        bag = "a^99999999999999999999"
        assert main(["rbe", "member", "--expr", "a*", "--bag", bag]) == 0
        assert capsys.readouterr().out.strip() == "member"
        assert main(["rbe", "member", "--expr", "a[0;5]", "--bag", bag]) == 1
        assert capsys.readouterr().out.strip() == "not-member"

    def test_member_zero_count_means_absent(self, capsys):
        assert main(["rbe", "member", "--expr", "a", "--bag", "a^0"]) == 1
        assert capsys.readouterr().out.strip() == "not-member"
        assert main(["rbe", "member", "--expr", "b", "--bag", "a^0,b"]) == 0
        assert capsys.readouterr().out.strip() == "member"

    def test_sat_verdicts(self, capsys):
        assert main(["rbe", "sat", "--expr", "a|b"]) == 0
        assert capsys.readouterr().out.startswith("satisfiable\t")
        assert main(["rbe", "sat", "--expr", "a & b"]) == 1
        assert capsys.readouterr().out.strip() == "unsatisfiable"

    def test_sat_capped_parity_instance(self, capsys):
        assert main(["rbe", "sat", "--expr", "(a,a)*,a & (a,a)*"]) == 3
        assert capsys.readouterr().out.strip() == "unknown"

    def test_cap_override_is_read_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SHEX_ILP_CAP", "1")
        assert main(["rbe", "sat", "--expr", "(a,a)*,a & (a,a)*"]) == 3

    def test_inter1_verdicts(self, capsys):
        assert main(["rbe", "inter1", "--left", "(a|b)", "--right", "a"]) == 0
        assert capsys.readouterr().out.strip() == "nonempty"
        assert main(["rbe", "inter1", "--left", "(a|b)", "--right", "c"]) == 1
        assert capsys.readouterr().out.strip() == "empty"

    def test_inter1_left_operand_must_be_choice_shaped(self, capsys):
        assert main(["rbe", "inter1", "--left", "a*", "--right", "a"]) == 2

    def test_unambiguous_verdicts(self, capsys):
        assert main(["rbe", "unambiguous", "--expr", "a::t1,b::t2?"]) == 0
        assert capsys.readouterr().out.strip() == "unambiguous"
        assert main(["rbe", "unambiguous", "--expr", "(a::t1|a::t2)"]) == 1
        assert capsys.readouterr().out.startswith("ambiguous\t")


# Nondeterministic and not single-occurrence, so refinement takes the
# general test.
NONDET_ILP_TEXT = """\
t0 -> (a::tc | a::t0)* , b::tc* , (c::t0 , d::t0)* , (c::tc , d::tc)*
tc -> (a::tc+ | b::tc) , a::t0* , b::tc* , (c::tc | d::t0)*
"""


def _hash_seed_case(tmp_path, case):
    """The arguments of a validate run on a small graph of ``case``."""
    if case == "nondet":
        rng = random.Random(3)
        nodes = [f"n{i}" for i in range(40)]
        edges = [
            (rng.choice(nodes), rng.choice("abcd"), rng.choice(nodes))
            for _ in range(90)
        ]
        graph, text, extra = Graph(edges, nodes), NONDET_ILP_TEXT, []
    else:
        graph, roots = generate_graph(
            GenConfig(schema=parse_schema(FIG2_TEXT), n_nodes=80, seed=7)
        )
        text, extra = FIG2_TEXT, []
        if case == "fig2-flood":
            pre = write(tmp_path, "roots.tsv", format_pretyping(roots))
            extra = ["--algo", "flood", "--pretyping", pre]
    return [
        "--schema", write(tmp_path, "s.shex", text),
        "--graph", write(tmp_path, "g.tsv", format_graph(graph)),
        *extra,
    ]


@pytest.mark.parametrize("case", ["fig2", "fig2-flood", "nondet"])
def test_validate_prints_the_same_bytes_under_any_hash_seed(tmp_path, case):
    args = _hash_seed_case(tmp_path, case)
    outputs = []
    for seed in ("0", "1"):
        env = _child_env()
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [
                sys.executable, "-m", "shexval.cli", "validate", *args,
                "--emit-typing", "--report-remaining", "--format", "machine",
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode in (0, 1), proc.stderr
        outputs.append(proc.stdout)
    assert b"\nTYPED\t" in outputs[0]
    assert outputs[0] == outputs[1]


def test_module_entry_point_runs_in_a_subprocess(tmp_path, g1):
    schema = tmp_path / "s.shex"
    schema.write_text(S1_TEXT, encoding="utf-8")
    graph = tmp_path / "g.tsv"
    graph.write_text(format_graph(g1), encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "shexval.cli",
            "validate",
            "--schema",
            str(schema),
            "--graph",
            str(graph),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["valid"]


TYPE_NAMES = ("t", "u", "v")
SYMBOLS = tuple(f"{a}::{t}" for a in ("a", "b") for t in (*TYPE_NAMES, "TOP"))
EXPRESSIONS = st.recursive(
    st.one_of(
        st.just("eps"),
        st.builds(
            lambda s, mark: s + mark,
            st.sampled_from(SYMBOLS),
            st.sampled_from(("", "?", "*", "+", "[1;2]", "[0;0]", "[2;*]")),
        ),
    ),
    lambda inner: st.one_of(
        st.builds(lambda x, y: f"({x} | {y})", inner, inner),
        st.builds(lambda x, y: f"({x} , {y})", inner, inner),
        st.builds(lambda x, mark: f"({x}){mark}", inner, st.sampled_from("?*+")),
    ),
    max_leaves=4,
)
NODE_NAMES = ("n0", "n1", "n2")
SCHEMA_TEXTS = st.dictionaries(
    st.sampled_from(TYPE_NAMES), EXPRESSIONS, min_size=1, max_size=3
).map(lambda rules: "".join(f"{t} -> {e}\n" for t, e in rules.items()))
GRAPH_TEXTS = st.lists(
    st.tuples(
        st.sampled_from(NODE_NAMES),
        st.sampled_from(("a", "b", "stray")),
        st.sampled_from(NODE_NAMES),
    ),
    max_size=5,
).map(
    lambda edges: "".join(f"{s}\t{a}\t{m}\n" for s, a, m in edges)
    + "".join(f"node\t{n}\n" for n in NODE_NAMES)
)
PRETYPINGS = st.one_of(
    st.none(),
    st.lists(
        st.tuples(st.sampled_from(NODE_NAMES), st.sampled_from((*TYPE_NAMES, "TOP"))),
        max_size=3,
    ).map(lambda pairs: "".join(f"{n}\t{t}\n" for n, t in pairs)),
)


@settings(max_examples=100, deadline=None)
@given(schema_text=SCHEMA_TEXTS, graph_text=GRAPH_TEXTS, pre_text=PRETYPINGS)
def test_no_exception_escapes_main(tmp_path_factory, schema_text, graph_text, pre_text):
    # Every input the parsers accept gets a verdict or a usage, parse or cap
    # exit code, under every mode and algorithm.
    folder = tmp_path_factory.mktemp("fuzz")
    schema = write(folder, "s.shex", schema_text)
    graph = write(folder, "g.tsv", graph_text)
    files = ["--schema", schema, "--graph", graph]
    if pre_text is not None:
        files += ["--pretyping", write(folder, "pre.tsv", pre_text)]
    runs = [
        ["validate", *files, "--mode", mode, "--algo", algo,
         "--emit-typing", "--report-remaining"]
        for mode in ("single", "multi")
        for algo in ALGORITHMS
    ]
    runs += [
        ["find-types", "--schema", schema, "--graph", graph],
        ["check", "--schema", schema, "--sat", "--unambiguity"],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
