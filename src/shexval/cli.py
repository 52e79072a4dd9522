"""Command-line front end.

One binary, ``shex``, with subcommands for validation (``validate``),
schema inspection (``check``), maximal typing inference (``find-types``),
conforming-graph generation (``gen``), scaling benchmarks (``bench``),
and direct queries against bag expressions (``rbe``).

Exit codes are uniform across subcommands: 0 for valid/yes, 1 for
invalid/no, 2 for usage or parse errors, and 3 when a solver gave up at
its cap, which the SHEX_ILP_CAP environment variable overrides.
"""

from __future__ import annotations

import argparse
import dataclasses
import secrets
import sys
from collections import Counter
from pathlib import Path

from .genbench import GenConfig, bench, bench_csv, generate_graph
from .graph import format_graph, parse_graph, relabel_wildcards
from .membership import member
from .rbe import parse_rbe
from .sat import SolverCapped, inter1, is_unambiguous, rbe_satisfiable
from .schema import TOP, nondeterministic_labels, parse_schema
from .validate import (
    ALGORITHMS,
    BruteCapExceeded,
    ValidationReport,
    format_pretyping,
    infer_types,
    parse_pretyping,
    report_lines,
    validate_multi,
    validate_single,
)

__all__ = ["main"]


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_bag(text: str) -> Counter[str]:
    """Comma-separated symbols, each optionally suffixed ``^count``; a
    symbol whose counts add up to zero is absent."""
    counts: Counter[str] = Counter()
    for item in _split_csv(text):
        symbol, sep, raw = item.partition("^")
        symbol = symbol.strip()
        if not symbol:
            raise ValueError(f"empty symbol in bag item {item!r}")
        if sep:
            count = int(raw)
            if count < 0:
                raise ValueError(f"negative count in bag item {item!r}")
        else:
            count = 1
        counts[symbol] += count
    return +counts


def _format_bag(counts: Counter[str]) -> str:
    if not counts:
        return "eps"
    return ",".join(
        a if k == 1 else f"{a}^{k}" for a, k in sorted(counts.items())
    )


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_report(report: ValidationReport, args) -> int:
    verdict = "valid" if report.valid else "invalid"
    if args.format == "machine":
        print(f"verdict\t{verdict}")
    else:
        print(verdict)
    if not args.emit_typing:
        report = dataclasses.replace(report, typing={})
    if not args.report_remaining:
        report = dataclasses.replace(report, remaining_edges=frozenset())
    for line in report_lines(report):
        print(line)
    return 0 if report.valid else 1


def _schema_and_graph(args):
    """The schema and the graph, relabeled onto the schema's wildcards."""
    schema = parse_schema(_read(args.schema))
    graph = parse_graph(_read(args.graph))
    if schema.wildcards:
        graph = relabel_wildcards(graph, schema.wildcard_family())
    return schema, graph


def _cmd_validate(args) -> int:
    schema, graph = _schema_and_graph(args)
    pre = parse_pretyping(_read(args.pretyping)) if args.pretyping else None
    validate = validate_single if args.mode == "single" else validate_multi
    return _emit_report(validate(graph, schema, args.algo, pre), args)


def _cmd_check(args) -> int:
    schema = parse_schema(_read(args.schema))
    for t in sorted(schema.gamma):
        if t == TOP:
            continue
        rule = schema.compiled[t]
        parts = [
            f"deterministic={_yesno(rule.deterministic)}",
            f"sorbe={_yesno(rule.sorbe)}",
            f"rbe0={_yesno(rule.product)}",
        ]
        if args.sat:
            parts.append(f"satisfiable={rbe_satisfiable(rule.expr).status}")
        if args.unambiguity:
            parts.append(f"unambiguous={is_unambiguous(rule.expr).status}")
        print(f"type\t{t}\t" + "\t".join(parts))
    for t, label in nondeterministic_labels(schema):
        print(f"nondeterministic\t{t}\t{label}")
    flags = schema.class_flags
    print(
        f"schema\tdeterministic={_yesno(flags.deterministic)}"
        f"\tsorbe={_yesno(flags.sorbe)}\trbe0={_yesno(flags.rbe0)}"
    )
    return 0


def _cmd_find_types(args) -> int:
    schema, graph = _schema_and_graph(args)
    typing = infer_types(graph, schema)
    empty = False
    for node in sorted(typing):
        types = typing[node]
        if types:
            print(f"TYPED\t{node}\t{','.join(sorted(types))}")
        else:
            empty = True
            print(f"EMPTY\t{node}")
    return 1 if empty else 0


def _pick_seed(given: int | None) -> int:
    if given is not None:
        return given
    seed = secrets.randbits(64)
    print(f"seed\t{seed}", file=sys.stderr)
    return seed


def _cmd_gen(args) -> int:
    schema = parse_schema(_read(args.schema))
    cfg = GenConfig(schema=schema, n_nodes=args.nodes, seed=_pick_seed(args.seed))
    graph, pre = generate_graph(cfg)
    Path(args.out).write_text(format_graph(graph), encoding="utf-8")
    if args.roots:
        Path(args.roots).write_text(format_pretyping(pre), encoding="utf-8")
    return 0


def _cmd_bench(args) -> int:
    schema = parse_schema(_read(args.schema))
    sizes = [int(part) for part in _split_csv(args.sizes)]
    if not sizes:
        raise ValueError("--sizes needs at least one size")
    rows = bench(
        schema,
        sizes,
        _split_csv(args.algos),
        repeats=args.repeats,
        seed=_pick_seed(args.seed),
    )
    text = bench_csv(rows)
    if args.csv:
        Path(args.csv).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_rbe_member(args) -> int:
    expr = parse_rbe(args.expr, allow_isect=True)
    witness = member(_parse_bag(args.bag), expr)
    print("member" if witness.verdict else "not-member")
    return 0 if witness.verdict else 1


def _cmd_rbe_sat(args) -> int:
    result = rbe_satisfiable(parse_rbe(args.expr, allow_isect=True))
    if result.status == "sat":
        print(f"satisfiable\t{_format_bag(result.witness)}")
        return 0
    if result.status == "unsat":
        print("unsatisfiable")
        return 1
    print("unknown")
    return 3


def _cmd_rbe_inter1(args) -> int:
    left = parse_rbe(args.left)
    right = parse_rbe(args.right)
    if inter1(left, right):
        print("nonempty")
        return 0
    print("empty")
    return 1


def _cmd_rbe_unambiguous(args) -> int:
    result = is_unambiguous(parse_rbe(args.expr))
    if result.status == "unambiguous":
        print("unambiguous")
        return 0
    first, second = result.witness
    print(f"ambiguous\t{_format_bag(first)}\t{_format_bag(second)}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shex",
        description="Validate edge-labeled graphs against shape schemas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="check a graph against a schema"
    )
    validate.add_argument("--schema", required=True)
    validate.add_argument("--graph", required=True)
    validate.add_argument(
        "--mode", choices=("single", "multi"), default="multi"
    )
    validate.add_argument(
        "--algo",
        choices=ALGORITHMS,
        default="refine",
    )
    validate.add_argument("--pretyping")
    validate.add_argument("--report-remaining", action="store_true")
    validate.add_argument("--emit-typing", action="store_true")
    validate.add_argument(
        "--format", choices=("text", "machine"), default="text"
    )
    validate.set_defaults(func=_cmd_validate)

    check = sub.add_parser("check", help="report schema class flags")
    check.add_argument("--schema", required=True)
    check.add_argument("--unambiguity", action="store_true")
    check.add_argument("--sat", action="store_true")
    check.set_defaults(func=_cmd_check)

    find_types = sub.add_parser(
        "find-types", help="print the maximal typing, flagging untypable nodes"
    )
    find_types.add_argument("--schema", required=True)
    find_types.add_argument("--graph", required=True)
    find_types.set_defaults(func=_cmd_find_types)

    gen = sub.add_parser("gen", help="generate a conforming graph")
    gen.add_argument("--schema", required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.add_argument("--roots")
    gen.set_defaults(func=_cmd_gen)

    bench_cmd = sub.add_parser("bench", help="time validation over generated graphs")
    bench_cmd.add_argument("--schema", required=True)
    bench_cmd.add_argument("--sizes", required=True)
    bench_cmd.add_argument("--algos", default="flood,s-refine")
    bench_cmd.add_argument("--repeats", type=int, default=4)
    bench_cmd.add_argument("--seed", type=int)
    bench_cmd.add_argument("--csv")
    bench_cmd.set_defaults(func=_cmd_bench)

    rbe = sub.add_parser("rbe", help="query bag expressions directly")
    rbe_sub = rbe.add_subparsers(dest="rbe_command", required=True)

    rbe_member = rbe_sub.add_parser("member", help="bag membership")
    rbe_member.add_argument("--expr", required=True)
    rbe_member.add_argument("--bag", required=True)
    rbe_member.set_defaults(func=_cmd_rbe_member)

    rbe_sat = rbe_sub.add_parser("sat", help="language non-emptiness")
    rbe_sat.add_argument("--expr", required=True)
    rbe_sat.set_defaults(func=_cmd_rbe_sat)

    rbe_inter1 = rbe_sub.add_parser(
        "inter1", help="intersection non-emptiness against a choice expression"
    )
    rbe_inter1.add_argument("--left", required=True)
    rbe_inter1.add_argument("--right", required=True)
    rbe_inter1.set_defaults(func=_cmd_rbe_inter1)

    rbe_unambiguous = rbe_sub.add_parser(
        "unambiguous", help="single-type witness uniqueness"
    )
    rbe_unambiguous.add_argument("--expr", required=True)
    rbe_unambiguous.set_defaults(func=_cmd_rbe_unambiguous)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SolverCapped, BruteCapExceeded) as exc:
        print(f"capped: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: an expression is parenthesised too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
