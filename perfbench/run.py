"""Benchmark of shexval: seeded inputs, timed operations, checked answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-bulk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics without any wrapper in
place; ``--trace 1`` wraps the layers' public functions and reports the
per-layer metrics.  ``--quick`` uses tiny inputs, for the benchmark's own
tests.  The program under test is imported from ``src/`` next to this
directory, never from elsewhere.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full record: the
seed, input sizes, interpreter, CPU count, every metric with its sample
count, and (traced) the layers per operation and phase.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "shexval" / "__init__.py").is_file():
        print(f"error: the package to benchmark is missing: {SRC / 'shexval'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    inputs = bench.build_inputs(args.workload, args.seed, args.quick)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": {name: inp.sizes for name, inp in inputs.items()},
    }
    if args.trace:
        metrics, outcomes, record["layers"] = bench.measure_traced(args.workload, inputs)
        wanted = bench.PER_LAYER
    else:
        metrics, outcomes = bench.measure(args.workload, inputs, args.seconds)
        wanted = bench.END_TO_END
    record["metrics"] = metrics
    record["errors"] = dict(outcomes.errors)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
