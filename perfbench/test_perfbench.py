"""Tests of the benchmark itself, on tiny inputs (``--quick``).

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from inputs import chain_input, fig2_input, nondet_input  # noqa: E402
from shexval.schema import parse_schema  # noqa: E402
from shexval.validate import ValidationReport  # noqa: E402


def _run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record, last = proc.stdout.splitlines()
    return json.loads(record), json.loads(last)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_reports_every_metric_and_correct_answers(workload, trace):
    record, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert record["seed"] == 5 and record["nproc"] >= 1 and record["python"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        ops = {op for op, _ in bench.WORKLOADS[workload].ops if op in bench.TIMED_OPS}
        for op in ops:
            for phase in bench.PHASES:
                assert record["metrics"][f"{op}_{phase}_s"]["n"] >= 1


def test_traced_counts_repeat_between_processes():
    first, _ = _result(_run("nondet-ilp", 1))
    second, _ = _result(_run("nondet-ilp", 1))
    for name in bench.REPEATED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["sat.ilp.calls"]["value"] > 0


def test_traced_layers_reach_their_workloads():
    _, fig2 = _result(_run("fig2-bulk", 1))
    _, chain = _result(_run("chain-tail", 1))
    assert fig2["metrics"]["membership.calls"]["value"] > 0
    assert fig2["metrics"]["validate.init.calls"]["value"] == 2
    assert fig2["metrics"]["sat.ilp.calls"]["value"] == 0
    assert chain["metrics"]["sat.flow.calls"]["value"] > 0


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("fig2-bulk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_inputs_follow_the_seed():
    assert fig2_input(3, 60).graph_text == fig2_input(3, 60).graph_text
    assert fig2_input(3, 60).graph_text != fig2_input(4, 60).graph_text
    assert nondet_input(3, 200).graph_text == nondet_input(3, 200).graph_text
    assert nondet_input(3, 200).graph_text != nondet_input(4, 200).graph_text


def _report(valid: bool, typing: dict) -> ValidationReport:
    return ValidationReport(valid=valid, typing=typing)


def test_check_rejects_wrong_answers():
    chain = chain_input(1, 5)
    empty = {n: frozenset() for n in chain.expect.empty}
    failed = [f"FAILED\t{n}\t-\tno type survives refinement" for n in sorted(empty)]
    assert bench.check("refine", chain, _report(False, empty), failed)
    # Wrong verdict, a node keeping a type, a missing FAILED line.
    assert not bench.check("refine", chain, _report(True, empty), failed)
    kept = dict(empty, v0=frozenset({"t"}))
    assert not bench.check("refine", chain, _report(False, kept), failed)
    assert not bench.check("refine", chain, _report(False, empty), failed[1:])
    # Flooding must fail at the last node and nowhere else.
    assert bench.check("flood", chain, _report(False, {}), ["FAILED\tv5\tt\tx"])
    assert not bench.check("flood", chain, _report(False, {}), ["FAILED\tv4\tt\tx"])


def test_failures_are_counted_and_only_wrong_answers_are_incorrect(monkeypatch):
    chain = chain_input(1, 5)
    s = parse_schema(chain.schema_text)
    g = bench.setup({"chain": chain})["chain"]
    outcomes = bench.Outcomes()
    assert bench.run_op("refine", chain, g, s, outcomes) is not None

    def boom(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(bench, "_call", boom)
    assert bench.run_op("flood_single", chain, g, s, outcomes) is None
    monkeypatch.setattr(bench, "_call", lambda *args: _report(True, {}))
    assert bench.run_op("refine", chain, g, s, outcomes) is None
    assert (outcomes.attempted, outcomes.failed, outcomes.wrong) == (3, 2, 1)
    assert outcomes.errors == {
        "flood_single: RecursionError": 1, "refine: wrong answer": 1,
    }
