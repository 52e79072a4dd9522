"""Print the answers of every benchmark operation of a checkout, untimed.

Run from anywhere, naming the root of a checkout:

    python3 tools/same_answers.py path/to/checkout > answers.json

For each workload of ``perfbench/bench.py`` at seeds 7 and 11, every
operation runs cold (a freshly parsed schema) and then warm (the same
schema again), as the benchmark runs them, and then a third time with
the warm schema on a freshly parsed copy of the graph (``fresh-graph``),
so that a graph whose views are not built yet meets full memos, which
no benchmark pass runs.  Each input that a workload floods gets one more
flood in the same three runs (``flood-failing``), from a pre-typing
that fails: the input's own, with its first root (the first node of the
pre-typing, in its order) given instead the least type of the schema
that it does not hold.  On fig2 that is ``BugReport`` on an
``Employee`` root, which fails at the root's first label, in the middle
of a large graph; the chain's one type leaves nothing to give, and its
flood already fails at the tail.  Three more floods of such an input
run the same way: ``flood-fragment``, from the first root alone with
its types, which on fig2 leaves most edges in the REMAINING section;
``flood-reach``, ``validate_multi(g, s, "flood", pre)`` from the input's
own pre-typing, which also checks that every node is reached; and
``flood-reach-fragment``, the same from the first root alone, which on
fig2 fails at every node the root does not reach.  Per run the output
gives the
verdict, the counters of the report, its algorithm, its failure count,
the SHA-256 of its rendered ``report_lines`` and the entries of each
refinement memo of the schema.  Two checkouts give the same answers
exactly when their outputs are equal, e.g. ``cmp`` of the two files.

The workloads, inputs and operations are the benchmark's own
(``WORKLOADS``, ``build_inputs``, ``setup``); nothing is timed.  The
package is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

SEEDS = (7, 11)


def _answers(checkout: Path) -> dict:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import bench
    import shexval
    from shexval.graph import parse_graph
    from shexval.schema import parse_schema
    from shexval.validate import report_lines

    if not Path(shexval.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"error: shexval was imported from {shexval.__file__}")
    out = {}
    for workload, spec in bench.WORKLOADS.items():
        for seed in SEEDS:
            inputs = bench.build_inputs(workload, seed)
            graphs = bench.setup(inputs)
            # Per run: its name, the call that validates, its input and graph.
            runs_of = [
                (op, functools.partial(bench._call, op), inputs[name], graphs[name])
                for op, name in spec.ops
            ]
            flood = functools.partial(bench._call, "flood")
            for op, name in spec.ops:
                if op != "flood":
                    continue
                inp, g = inputs[name], graphs[name]
                failing = _failing(inp)
                if failing is not None:
                    runs_of.append(("flood-failing", flood, failing, g))
                runs_of.append(("flood-fragment", flood, _fragment(inp), g))
                runs_of.append(("flood-reach", _reach, inp, g))
                runs_of.append(("flood-reach-fragment", _reach, _fragment(inp), g))
            for run, call, inp, g in runs_of:
                s = parse_schema(inp.schema_text)
                runs = [(phase, g) for phase in bench.PHASES]
                runs.append(("fresh-graph", parse_graph(inp.graph_text)))
                for phase, graph in runs:
                    report = call(graph, s, inp)
                    lines = "\n".join(report_lines(report)).encode()
                    out[f"{workload}/{seed}/{run}/{phase}"] = {
                        "valid": report.valid,
                        "iterations": report.iterations,
                        "local_tests": report.local_tests,
                        "edges_examined": report.edges_examined,
                        "algorithm": report.algorithm,
                        "failures": len(report.failures),
                        "report_lines_sha256": hashlib.sha256(lines).hexdigest(),
                        "memo_entries": {
                            key: len(memo)
                            for key, memo in sorted(s._derived.items())
                            if key.startswith("refine:")
                        },
                    }
    return out


def _reach(g, s, inp):
    from shexval.validate import validate_multi

    return validate_multi(g, s, "flood", inp.pre)


def _fragment(inp):
    """The input with its first root alone as the pre-typing."""
    root = next(iter(inp.pre))
    return dataclasses.replace(inp, pre={root: inp.pre[root]})


def _failing(inp):
    """The input with its first root given the least type of the schema
    that the root does not hold, or None when it holds every type."""
    from shexval.schema import parse_schema

    root = next(iter(inp.pre))
    others = sorted(set(parse_schema(inp.schema_text).gamma) - inp.pre[root])
    if not others:
        return None
    return dataclasses.replace(inp, pre={**inp.pre, root: frozenset(others[:1])})


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: same_answers.py <checkout>", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    if not (checkout / "perfbench" / "bench.py").is_file():
        print(f"error: no perfbench/bench.py under {checkout}", file=sys.stderr)
        return 2
    print(json.dumps(_answers(checkout), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
