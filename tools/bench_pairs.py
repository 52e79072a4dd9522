"""Benchmark a change against its parent in alternated pairs of runs.

Run from anywhere, naming two checkouts (e.g. made with ``git archive``),
the workloads with their seeds and where to write the result:

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_21.json \\
        --workload fig2-bulk:21001-21010 --workload nondet-ilp:21101-21105 \\
        --seconds 40 --trace fig2-bulk:21301 --claim fig2-bulk:cold_s

Each seed is one pair: ``perfbench/run.py --workload W --seed N`` runs
once in each checkout, each run in a fresh process started in its own
checkout, the parent first in odd pairs (the first, third, ... of each
workload) and the change first in even ones.  ``--trace W:N`` adds one
traced pair (``--trace 1``), whose per-layer metrics are kept as they
are.  The output has the layout of the earlier ``BENCH_*.json`` files:
per workload the seeds, a summary, and every pair with each run's last
output line (``result``), its wall-clock medians (``wall``) and its
reference loop median (``reference_s``).  The summary gives, per
end-to-end metric, the parent's median and quartiles, the change's
median, and in how many pairs the change read lower.  The two sides are
labelled with their checkouts' directory names.  ``--claim W:M`` names
the metric M of workload W that the pairs test, and writes its summary
line as the file's ``claim``.  ``src_lines`` gives each checkout's line
count of the Python files under ``src/``: all lines, and the code lines,
which are neither blank nor comments.  ``--quick`` passes ``--quick`` on
to ``perfbench/run.py``, so that the tool's own test runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

FIELDS = (
    "result is the run's last output line; wall holds the wall-clock medians"
    " of the same metrics and reference_s the median of the reference loop,"
    " both from the line before it; summary values are in reference seconds;"
    " quartiles are statistics.quantiles(n=4) of the parent's runs;"
    " change_lower_in counts the pairs in which the change read lower"
)


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _workload(text: str) -> tuple[str, list[int]]:
    name, sep, seeds = text.partition(":")
    if not sep or not name or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    try:
        return name, _seeds(seeds)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seeds in {text!r}") from None


def _claim(text: str) -> tuple[str, str]:
    workload, sep, metric = text.partition(":")
    if not sep or not workload or not metric:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workload", type=_workload, action="append", required=True,
        help="WORKLOAD:SEEDS, seeds as 1,2,5-9; repeatable",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=_workload, help="WORKLOAD:SEED, one traced pair")
    parser.add_argument("--quick", action="store_true", help="tiny inputs")
    parser.add_argument(
        "--claim", type=_claim, help="WORKLOAD:METRIC, the metric the pairs test"
    )
    args = parser.parse_args(argv)
    if args.claim and args.claim[0] not in dict(args.workload):
        parser.error(f"--claim names {args.claim[0]!r}, which no --workload runs")
    return args


def _command(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> list[str]:
    command = [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return command + ["--quick"] if quick else command


def _run(checkout: Path, command: list[str]) -> tuple[dict, dict]:
    """The last two output lines of one run: its record and its result."""
    done = subprocess.run(
        [sys.executable, *command], cwd=checkout, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} failed:\n{done.stderr}")
    record, result = done.stdout.splitlines()[-2:]
    return json.loads(record), json.loads(result)


def _pair(args, workload: str, seed: int, index: int, trace: int) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    order = ("parent", "change") if index % 2 == 1 else ("change", "parent")
    pair = {"seed": seed, "first": order[0], "parent": None, "change": None}
    seconds = 5.0 if trace else args.seconds
    for side in order:
        print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
        record, result = _run(sides[side], _command(workload, seed, seconds, trace, args.quick))
        if trace:
            pair[side] = {name: cell["value"] for name, cell in result["metrics"].items()}
            continue
        wall = record["metrics"]["wall"]
        pair[side] = {
            "result": result,
            "wall": {name: wall[name]["value"] for name in result["metrics"] if name in wall},
            "reference_s": record["metrics"]["reference_s"]["value"],
        }
    return pair


def _src_lines(checkout: Path) -> dict:
    lines = code = 0
    for path in sorted((checkout / "src").rglob("*.py")):
        for line in path.read_text().splitlines():
            lines += 1
            stripped = line.strip()
            code += bool(stripped) and not stripped.startswith("#")
    return {"lines": lines, "code": code}


def _summary(pairs: list[dict]) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        summary[name] = {
            "parent_median": round(statistics.median(parent), 5),
            "parent_quartiles": [round(quartiles[0], 5), round(quartiles[2], 5)],
            "change_median": round(statistics.median(change), 5),
            "change_lower_in": f"{sum(c < p for p, c in zip(parent, change))}/{len(pairs)}",
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {checkout}", file=sys.stderr)
            return 2
    flag = " --quick" if args.quick else ""
    out = {
        "change": args.change.resolve().name,
        "parent": args.parent.resolve().name,
        "command": "python3 perfbench/run.py --workload {workload} --seed {seed}"
        f" --seconds {args.seconds:g} --trace 0{flag}",
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
        "pairing": "parent and change alternated per seed, the parent first in odd"
        " pairs of each workload; each run in a fresh process in its own checkout",
        "fields": FIELDS,
        "src_lines": {"parent": _src_lines(args.parent), "change": _src_lines(args.change)},
        "claim": None,
        "workloads": {},
    }
    for workload, seeds in args.workload:
        pairs = [_pair(args, workload, seed, i, 0) for i, seed in enumerate(seeds, 1)]
        out["workloads"][workload] = {
            "seeds": seeds, "summary": _summary(pairs), "pairs": pairs,
        }
    if args.trace:
        workload, (seed, *_) = args.trace
        traced = _pair(args, workload, seed, 1, 1)
        out["trace"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {seed}"
            f" --seconds 5 --trace 1{flag}",
            "parent": traced["parent"],
            "change": traced["change"],
        }
    missing = None
    if args.claim:
        workload, metric = args.claim
        line = out["workloads"][workload]["summary"].get(metric)
        if line is None:
            missing = f"error: --claim names {metric!r}, which {workload} does not report"
        else:
            out["claim"] = {"workload": workload, "metric": metric, **line}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if missing:
        print(missing, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
