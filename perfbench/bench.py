"""Workloads, the timing loop and the answer checks.

Each workload is a list of operations on seeded inputs.  The benchmark
drives the public functions of ``shexval`` the way ``shex validate``
does: ``parse_schema`` and ``parse_graph`` on text, then the operation,
then ``report_lines``.  Every operation is timed up to and including its
rendered report and checked against the input's known answer.

* cold: the schema text is parsed again, so every ``Schema._derived``
  memo starts empty;
* warm: the same ``Schema`` object runs the operation a second time on
  the graph it has just validated.

The garbage collector stays on, as in the CLI.  Everything runs in one
thread of one process.
"""

from __future__ import annotations

import gc
import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from shexval.graph import parse_graph
from shexval.schema import check_deterministic, parse_schema
from shexval.validate import flood_extension, report_lines, validate_multi

from inputs import Input, chain_input, fig2_input, nondet_input
from spans import Tracer

REFINE_ALGOS = {"refine": "refine", "srefine": "s-refine", "rbe0": "rbe0-refine"}
TIMED_OPS = ("flood", "refine", "srefine", "rbe0")
PHASES = ("cold", "warm")


@dataclass(frozen=True)
class Workload:
    ops: tuple[tuple[str, str], ...]  # (operation, input name)
    full: dict  # input name -> (builder, size)
    quick: dict


# Why each workload was chosen, and which per-layer metric should move
# which end-to-end metric on it, is written down in README.md.
WORKLOADS = {
    "fig2-bulk": Workload(
        ops=(("flood", "fig2"), ("refine", "fig2"), ("srefine", "fig2")),
        full={"fig2": (fig2_input, 5_000)},
        quick={"fig2": (fig2_input, 150)},
    ),
    "chain-tail": Workload(
        ops=(
            ("refine", "chain-refine"),
            ("srefine", "chain-refine"),
            ("flood", "chain"),
            ("flood_single", "chain"),
            ("rbe0", "chain-rbe0"),
        ),
        # Refinement is quadratic on the chain (rbe0, without a verdict
        # memo, takes 20 s on 1000 nodes), so it runs on shorter chains of
        # the same form; flooding keeps the length at which single-mode
        # flooding overflows the stack.
        full={
            "chain": (chain_input, 1000),
            "chain-refine": (chain_input, 300),
            "chain-rbe0": (chain_input, 120),
        },
        quick={
            "chain": (chain_input, 40),
            "chain-refine": (chain_input, 30),
            "chain-rbe0": (chain_input, 20),
        },
    ),
    "nondet-ilp": Workload(
        ops=(("refine", "nondet"),),
        full={"nondet": (nondet_input, 5_000)},
        quick={"nondet": (nondet_input, 200)},
    ),
}

# End-to-end metrics every workload reports.  cold_s and warm_s are the
# time of one pass over all of the workload's timed operations.
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "refine_cold_s": "s",
    "refine_warm_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "schema.parse_s": "s",
    "schema.analysis_s": "s",
    "graph.parse_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "validate.init.calls": "count",
    "validate.init_s": "s",
    "validate.refine.rounds": "count",
    "validate.refine.self_s": "s",
    "validate.refine.pairs_removed": "count",
    "validate.refine.removed_per_round": "ratio",
    "validate.memo_entries": "count",
    "validate.flood.obligations": "count",
    "validate.flood.edges_examined": "count",
    "validate.flood.self_s": "s",
    "validate.report_s": "s",
    "validate.report.lines": "count",
    "membership.calls": "count",
    "membership.sorbe_calls": "count",
    "membership.ilp_calls": "count",
    "membership.self_s": "s",
    "sat.inter1.calls": "count",
    "sat.inter1.self_s": "s",
    "sat.flow.calls": "count",
    "sat.flow.self_s": "s",
    "sat.ilp.calls": "count",
    "sat.ilp.self_s": "s",
    "sat.ilp.unknown": "count",
    "trace.overhead_ratio": "ratio",
}

# The speed of a shared host can drift by a third within minutes, for
# every operation.  Passes are bracketed by a fixed reference loop, and
# end-to-end times are reported in reference seconds: wall seconds
# scaled to a machine on which the loop takes REFERENCE_S (README.md).
REFERENCE_S = 0.09

# Per-layer figures derived from counts only; they repeat exactly
# between traced passes over the same inputs.
REPEATED = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "count" or name == "validate.refine.removed_per_round"
)


def build_inputs(workload: str, seed: int, quick: bool = False) -> dict[str, Input]:
    spec = WORKLOADS[workload]
    table = spec.quick if quick else spec.full
    return {name: builder(seed, size) for name, (builder, size) in table.items()}


class Outcomes:
    """Attempted and failed operations, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: Counter[str] = Counter()

    def record(self, op: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[f"{op}: {error}"] += 1
            if error == "wrong answer":
                self.wrong += 1


def _types_of(value) -> set[str]:
    return {value} if isinstance(value, str) else set(value)


def check(op: str, inp: Input, report, lines: list[str]) -> bool:
    """Whether a report and its rendered lines give the input's known answer."""
    e = inp.expect
    if report.valid != e.valid:
        return False
    failed_nodes = {line.split("\t")[1] for line in lines if line.startswith("FAILED\t")}
    typing = report.typing
    if not all(t in _types_of(typing.get(n, ())) for n, t in e.kept):
        return False
    if op.startswith("flood"):
        if e.valid:
            return not failed_nodes and all(typing.get(n) for n in e.reached)
        return failed_nodes == {e.flood_fails_at}
    return (
        all(not typing[n] for n in e.empty)
        and e.empty <= failed_nodes
        and not failed_nodes & {n for n, _ in e.kept}
    )


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def setup(inputs: dict[str, Input], tracer: Tracer | None = None) -> dict:
    """Parse and analyse every schema and parse every graph, as the CLI does."""
    graphs = {}
    for name, inp in inputs.items():
        with _span(tracer, "schema.parse"):
            s = parse_schema(inp.schema_text)
        with _span(tracer, "schema.analysis"):
            check_deterministic(s)
            s.class_flags
        with _span(tracer, "graph.parse"):
            g = parse_graph(inp.graph_text)
        graphs[name] = g
        if tracer is not None:
            tracer.count("graph.nodes", len(g.nodes))
            tracer.count("graph.edges", len(g.edges))
    return graphs


def _call(op: str, g, s, inp: Input):
    if op == "flood":
        return flood_extension(g, s, inp.pre, mode="multi")
    if op == "flood_single":
        return flood_extension(g, s, inp.pre, mode="single")
    return validate_multi(g, s, REFINE_ALGOS[op])


def _memo_entries(s) -> int:
    return sum(
        len(memo) for key, memo in s._derived.items()
        if key.startswith("refine:memo:") or key == "refine:init"
    )


def run_op(op: str, inp: Input, g, s, outcomes: Outcomes,
           tracer: Tracer | None = None) -> float | None:
    """Run one operation and render its report.

    Returns the time taken, or None when the operation raised or gave an
    answer other than the known one; either counts as a failed operation.
    """
    memo_before = _memo_entries(s)
    layer = "validate.flood" if op.startswith("flood") else "validate.refine"
    start = perf_counter()
    try:
        with _span(tracer, layer):
            report = _call(op, g, s, inp)
        with _span(tracer, "validate.report"):
            lines = report_lines(report)
    except Exception as exc:  # any failure is recorded and the run goes on
        outcomes.record(op, type(exc).__name__)
        return None
    elapsed = perf_counter() - start
    if not check(op, inp, report, lines):
        outcomes.record(op, "wrong answer")
        return None
    outcomes.record(op, None)
    if tracer is not None:
        _count(tracer, op, g, s, report, lines, _memo_entries(s) - memo_before)
    return elapsed


def _count(tracer: Tracer, op: str, g, s, report, lines, memo_added: int) -> None:
    tracer.count("validate.report.lines", len(lines))
    tracer.count("validate.memo_entries", memo_added)
    if op.startswith("flood"):
        tracer.count("validate.flood.obligations", report.iterations)
        tracer.count("validate.flood.edges_examined", report.edges_examined)
        return
    if op == "srefine":
        initial = tracer.counts[tracer.current]["validate.init.pairs"]
    else:
        initial = len(g.nodes) * len(s.gamma)
    tracer.count("validate.refine.rounds", report.iterations)
    tracer.count(
        "validate.refine.pairs_removed",
        initial - sum(map(len, report.typing.values())),
    )


def run_pass(spec: Workload, inputs: dict[str, Input], graphs: dict,
             outcomes: Outcomes, tracer: Tracer | None = None) -> dict:
    """Every operation of the workload, cold then warm; returns the times."""
    times = {}
    for op, name in spec.ops:
        inp, g = inputs[name], graphs[name]
        s = parse_schema(inp.schema_text)
        if op not in TIMED_OPS:
            # Outcome only: not timed and not traced.
            with tracer.paused() if tracer is not None else nullcontext():
                run_op(op, inp, g, s, outcomes)
            continue
        for phase in PHASES:
            if tracer is not None:
                tracer.set_label(f"{op}/{phase}")
            times[(op, phase)] = run_op(op, inp, g, s, outcomes, tracer)
    return times


def reference_time() -> float:
    """Wall time of a fixed piece of dict, tuple and frozenset work.

    The collector is off meanwhile, so the heap the program leaves behind
    does not change it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(4):
            table = {}
            for i in range(20_000):
                table[(f"n{i % 5000}", i % 7)] = frozenset((i % 3, i % 5))
            sorted(Counter(node for node, _ in table).items())
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _stat(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def measure(workload: str, inputs: dict[str, Input], seconds: float) -> tuple[dict, Outcomes]:
    """The untraced run: passes of set-up and operations until the time is
    spent, at least three.  Set-up and operations alternate, so every
    median samples the same stretch of time.

    Each sample is scaled by the reference loop timed before and after
    its pass; the record keeps the wall-clock medians too.
    """
    spec = WORKLOADS[workload]
    outcomes = Outcomes()
    deadline = perf_counter() + seconds
    wall: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    references = [reference_time()]
    while True:
        start = perf_counter()
        graphs = setup(inputs)
        sample = {"setup_s": perf_counter() - start}
        times = run_pass(spec, inputs, graphs, outcomes)
        sample.update(
            (f"{op}_{phase}_s", t) for (op, phase), t in times.items() if t is not None
        )
        for phase in PHASES:
            phase_times = [t for (_, p), t in times.items() if p == phase]
            if None not in phase_times:
                sample[f"{phase}_s"] = sum(phase_times)
        references.append(reference_time())
        scale = REFERENCE_S / statistics.mean(references[-2:])
        for name, t in sample.items():
            wall.setdefault(name, []).append(t)
            scaled.setdefault(name, []).append(t * scale)
        took = perf_counter() - start
        if len(wall["setup_s"]) >= 3 and perf_counter() + took > deadline:
            break
    metrics = {name: _stat(values, "s") for name, values in sorted(scaled.items())}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
        "n": 1,
    }
    metrics["failed_ops"] = {
        "value": outcomes.failed / outcomes.attempted,
        "unit": "ratio",
        "n": outcomes.attempted,
    }
    metrics["wall"] = {name: _stat(values, "s") for name, values in sorted(wall.items())}
    metrics["reference_s"] = _stat(references, "s")
    return metrics, outcomes


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans: dict[str, dict[str, float]] = {}
    for (_, name), cell in tracer.layers().items():
        total = spans.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
        for field, value in cell.items():
            total[field] += value
    counts: Counter[str] = Counter()
    for per_label in tracer.counts.values():
        counts.update(per_label)

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    rounds = counts["validate.refine.rounds"]
    return {
        "schema.parse_s": span("schema.parse", "time"),
        "schema.analysis_s": span("schema.analysis", "time"),
        "graph.parse_s": span("graph.parse", "time"),
        "graph.nodes": counts["graph.nodes"],
        "graph.edges": counts["graph.edges"],
        "validate.init.calls": span("validate.init", "calls"),
        "validate.init_s": span("validate.init", "time"),
        "validate.refine.rounds": rounds,
        "validate.refine.self_s": span("validate.refine", "self"),
        "validate.refine.pairs_removed": counts["validate.refine.pairs_removed"],
        "validate.refine.removed_per_round":
            counts["validate.refine.pairs_removed"] / rounds if rounds else 0.0,
        "validate.memo_entries": counts["validate.memo_entries"],
        "validate.flood.obligations": counts["validate.flood.obligations"],
        "validate.flood.edges_examined": counts["validate.flood.edges_examined"],
        "validate.flood.self_s": span("validate.flood", "self"),
        "validate.report_s": span("validate.report", "time"),
        "validate.report.lines": counts["validate.report.lines"],
        "membership.calls": span("membership", "calls"),
        "membership.sorbe_calls": counts["membership.sorbe-interval"],
        "membership.ilp_calls": counts["membership.ilp"],
        "membership.self_s": span("membership", "self"),
        "sat.inter1.calls": span("sat.inter1", "calls"),
        "sat.inter1.self_s": span("sat.inter1", "self"),
        "sat.flow.calls": span("sat.flow", "calls"),
        "sat.flow.self_s": span("sat.flow", "self"),
        "sat.ilp.calls": span("sat.ilp", "calls"),
        "sat.ilp.self_s": span("sat.ilp", "self"),
        "sat.ilp.unknown": counts["sat.ilp.unknown"],
    }


def _breakdown(tracer: Tracer) -> dict[str, dict]:
    """Per operation and phase: calls and self time of every layer, and counts."""
    out: dict[str, dict] = {}
    for (label, name), cell in sorted(tracer.layers().items()):
        out.setdefault(label, {})[name] = {
            "calls": cell["calls"], "self_s": cell["self"], "time_s": cell["time"],
        }
    for label, per_label in tracer.counts.items():
        out.setdefault(label, {})["counts"] = dict(sorted(per_label.items()))
    return out


def measure_traced(workload: str, inputs: dict[str, Input]) -> tuple[dict, Outcomes, dict]:
    """The traced run: a traced, an untraced and a second traced pass.

    Every count must repeat exactly between the traced passes; times are
    medians over them.  The overhead ratio compares the operation times
    of the traced passes with those of the untraced one.
    """
    spec = WORKLOADS[workload]
    outcomes = Outcomes()

    def traced_pass() -> tuple[Tracer, float]:
        tracer = Tracer()
        with tracer.installed():
            tracer.set_label("setup")
            graphs = setup(inputs, tracer)
            times = run_pass(spec, inputs, graphs, outcomes, tracer)
        return tracer, sum(filter(None, times.values()))

    traced = [traced_pass()]
    untraced = sum(filter(None, run_pass(spec, inputs, setup(inputs), outcomes).values()))
    traced.append(traced_pass())
    per_pass = [_layer_metrics(tracer) for tracer, _ in traced]
    for name in REPEATED:
        if per_pass[0][name] != per_pass[1][name]:
            raise RuntimeError(
                f"{name} differs between traced passes: "
                f"{per_pass[0][name]} != {per_pass[1][name]}"
            )
    metrics = {
        name: {
            "value": per_pass[0][name] if name in REPEATED
            else statistics.median(p[name] for p in per_pass),
            "unit": PER_LAYER[name],
            "n": len(per_pass),
        }
        for name in per_pass[0]
    }
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(t for _, t in traced) / untraced,
        "unit": "ratio",
        "n": len(traced),
    }
    return metrics, outcomes, _breakdown(traced[0][0])
