import subprocess
import sys

import pytest

from conftest import FIG2_TEXT, S0_TEXT, S1_TEXT
from shexval.cli import main
from shexval.graph import format_graph, parse_graph, relabel_wildcards
from shexval.schema import parse_schema
from shexval.validate import infer_types, validate_multi

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
        assert capsys.readouterr().err.startswith("error: ")


LONG_RULE_TEXT = "t -> " + ", ".join(f"a{i}::t?" for i in range(1500)) + "\n"


@pytest.mark.parametrize("command", ["check", "validate"])
def test_deeply_nested_rule_is_a_usage_error(tmp_path, command):
    schema = write(tmp_path, "long.shex", LONG_RULE_TEXT)
    args = ["--schema", schema]
    if command == "validate":
        args += ["--graph", write(tmp_path, "g.tsv", "n\ta0\tm\n")]
    proc = subprocess.run(
        [sys.executable, "-m", "shexval.cli", command, *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


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
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["valid"]
