import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_pairs_writes_alternated_pairs_and_their_summary(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), str(ROOT),
            "--out", str(out), "--workload", "chain-tail:3-4", "--seconds", "0.05",
            "--quick", "--trace", "chain-tail:5", "--claim", "chain-tail:cold_s",
        ],
        check=True,
        capture_output=True,
    )
    bench = json.loads(out.read_text())
    workload = bench["workloads"]["chain-tail"]
    assert workload["seeds"] == [3, 4]
    assert [pair["first"] for pair in workload["pairs"]] == ["parent", "change"]
    for pair in workload["pairs"]:
        for side in ("parent", "change"):
            run = pair[side]
            assert run["result"]["correct"] and run["result"]["failed"] == 0
            assert set(run["wall"]) <= set(run["result"]["metrics"])
            assert run["reference_s"] > 0
    summary = workload["summary"]["cold_s"]
    low, high = summary["parent_quartiles"]
    assert low <= summary["parent_median"] <= high
    assert summary["change_lower_in"] in ("0/2", "1/2", "2/2")
    assert set(workload["summary"]) == set(workload["pairs"][0]["parent"]["result"]["metrics"])
    assert bench["trace"]["parent"]["graph.nodes"] == bench["trace"]["change"]["graph.nodes"]
    assert bench["claim"] == {"workload": "chain-tail", "metric": "cold_s", **summary}
    # Both sides are this checkout, whose src/ has code and comment lines.
    lines = bench["src_lines"]["parent"]
    assert bench["src_lines"]["change"] == lines
    texts = [path.read_text() for path in (ROOT / "src").rglob("*.py")]
    assert lines["lines"] == sum(len(text.splitlines()) for text in texts)
    assert 0 < lines["code"] < lines["lines"]


def test_bench_pairs_refuses_a_claim_on_a_workload_it_does_not_run(tmp_path):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), str(ROOT),
            "--out", str(tmp_path / "bench.json"), "--workload", "chain-tail:3",
            "--quick", "--claim", "nondet-ilp:cold_s",
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert "'nondet-ilp'" in done.stderr
    assert not (tmp_path / "bench.json").exists()
