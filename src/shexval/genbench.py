"""Random generation of schema-conforming graphs and a scaling benchmark.

The generator assigns every node a uniformly random shape type, then
realizes each node's outbound edges by walking its rule: multiplicities
are sampled from configurable ranges, disjunction branches are picked
uniformly, and targets are drawn (distinct per label) from the nodes of
the required type.  Types defined as the empty content model act as
datatypes: each occurrence creates a fresh leaf node.  By construction
every generated graph is multi-type valid for its schema.

All randomness flows through an explicit splitmix-style 64-bit generator
so that the same (schema, config) pair produces byte-identical output on
every platform and Python build.  The benchmark times only the
validation call, discards the first of its repeated runs, and reports
the fastest of the rest.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from .graph import Graph
from .rbe import (
    ANY,
    Concat,
    Disj,
    Epsilon,
    Interval,
    OPT,
    Plus,
    Rbe,
    SOME,
    Star,
    Symbol,
    split_symbol,
)
from .schema import TOP, Schema, SemanticLanguage
from .validate import ValidationReport, flood_extension, validate_multi

__all__ = [
    "SplitMix64",
    "GenConfig",
    "generate_graph",
    "BenchRow",
    "bench",
    "bench_csv",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator with a single word of state.

    Each step adds the golden-ratio increment 0x9E3779B97F4A7C15 to the
    state and scrambles it with two xor-shift-multiply rounds (constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Bounded draws reduce the
    raw word modulo the range size; the slight bias is irrelevant here
    and keeps the byte-stability contract trivial.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from range(n)."""
        if n <= 0:
            raise ValueError("empty range")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive bounds."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def sample(self, seq, k: int, taken=frozenset()):
        """k distinct elements of seq, avoiding ``taken``; order random."""
        candidates = len(seq) - len(taken)
        if k > candidates:
            raise ValueError(f"cannot draw {k} distinct items from {candidates}")
        if k * 3 >= candidates:
            pool = [x for x in seq if x not in taken]
            for i in range(k):
                j = i + self.below(len(pool) - i)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[:k]
        chosen = []
        used = set(taken)
        while len(chosen) < k:
            item = seq[self.below(len(seq))]
            if item not in used:
                used.add(item)
                chosen.append(item)
        return chosen


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters.

    ``n_nodes`` counts the non-leaf nodes; literal leaves come on top.
    The three ranges give the inclusive multiplicity bounds sampled for
    optional, one-or-more, and unbounded symbols; explicit intervals
    [n;m] are sampled from [n; min(m, n + interval_span)].
    """

    schema: Schema
    n_nodes: int
    seed: int = 0
    opt_range: tuple[int, int] = (0, 1)
    plus_range: tuple[int, int] = (1, 15)
    star_range: tuple[int, int] = (0, 15)
    interval_span: int = 15

    def __post_init__(self):
        if self.n_nodes < 0:
            raise ValueError("n_nodes must be non-negative")
        for name in ("opt_range", "plus_range", "star_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo or hi < 1:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, hi >= 1")
        if self.plus_range[0] < 1:
            raise ValueError("plus_range lower bound must be at least 1")
        if self.opt_range[1] > 1:
            raise ValueError("opt_range must lie within [0, 1]")
        if self.interval_span < 0:
            raise ValueError("interval_span must be non-negative")


def _sample_count(rng: SplitMix64, cfg: GenConfig, bounds: Interval) -> int:
    if bounds.lo == 1 and bounds.hi == 1:
        return 1
    if bounds == OPT:
        return rng.randint(*cfg.opt_range)
    if bounds == SOME:
        return rng.randint(*cfg.plus_range)
    if bounds == ANY:
        return rng.randint(*cfg.star_range)
    hi = bounds.lo + cfg.interval_span
    if bounds.hi is not None:
        hi = min(bounds.hi, hi)
    return rng.randint(bounds.lo, hi)


class _Generator:
    def __init__(self, cfg: GenConfig):
        flags = cfg.schema.class_flags
        if not (flags.deterministic and flags.sorbe):
            raise ValueError(
                "generation needs a deterministic single-occurrence schema"
            )
        self.cfg = cfg
        self.schema = cfg.schema
        self.rng = SplitMix64(cfg.seed)
        self.leaf_types = {
            t
            for t, rule in self.schema.delta.items()
            if isinstance(rule, Epsilon)
        }
        semantic = {
            t
            for t, rule in self.schema.delta.items()
            if isinstance(rule, SemanticLanguage)
        }
        shape_types = [
            t
            for t in sorted(self.schema.gamma)
            if t not in semantic and t not in self.leaf_types
        ]
        # A schema of nothing but empty content models still generates:
        # isolated nodes typed uniformly.
        self.shape_types = shape_types or sorted(
            t for t in self.schema.gamma if t not in semantic
        )
        self.edges: list[tuple[str, str, str]] = []
        self.leaf_count = 0

    def run(self) -> tuple[Graph, dict[str, set[str]]]:
        cfg = self.cfg
        if cfg.n_nodes > 0 and not self.shape_types:
            raise ValueError("schema has no types to generate nodes for")
        nodes = [f"u{i}" for i in range(cfg.n_nodes)]
        assigned = {n: self.rng.choice(self.shape_types) for n in nodes}
        pools: dict[str, list[str]] = {}
        for n in nodes:
            pools.setdefault(assigned[n], []).append(n)
        for n in nodes:
            self._expand(n, self.schema.delta[assigned[n]], pools, {})
        graph = Graph(self.edges, nodes)
        roots = _root_cover(graph, frozenset(assigned))
        return graph, {r: {assigned[r]} for r in roots}

    def _expand(self, source: str, rule: Rbe, pools, used: dict[str, set[str]]):
        match rule:
            case Epsilon():
                return
            case Symbol(name, bounds):
                count = _sample_count(self.rng, self.cfg, bounds)
                self._emit(source, name, count, bounds.lo, pools, used)
            case Concat(left, right):
                self._expand(source, left, pools, used)
                self._expand(source, right, pools, used)
            case Disj(left, right):
                branch = left if self.rng.below(2) == 0 else right
                self._expand(source, branch, pools, used)
            case Star(body):
                for _ in range(self.rng.randint(*self.cfg.star_range)):
                    self._expand(source, body, pools, used)
            case Plus(body):
                for _ in range(self.rng.randint(*self.cfg.plus_range)):
                    self._expand(source, body, pools, used)
            case _:
                raise ValueError(f"cannot generate from {rule!r}")

    def _emit(self, source, symbol, count, lo, pools, used):
        if count == 0:
            return
        label, target_type = split_symbol(symbol)
        if target_type == TOP or target_type in self.leaf_types:
            for _ in range(count):
                leaf = f"L{self.leaf_count}"
                self.leaf_count += 1
                self.edges.append((source, label, leaf))
            return
        pool = pools.get(target_type, ())
        taken = used.setdefault(label, set())
        # Distinct targets per label keep the edge multiset faithful under
        # the graph's set semantics; shrink the draw toward the symbol's
        # lower bound rather than emit duplicates.
        want = min(count, len(pool) - len(taken))
        if want < lo:
            raise ValueError(
                f"only {max(len(pool) - len(taken), 0)} candidate targets of "
                f"type {target_type} for label {label} (need at least {lo})"
            )
        for target in self.rng.sample(pool, want, taken):
            taken.add(target)
            self.edges.append((source, label, target))


def generate_graph(cfg: GenConfig) -> tuple[Graph, dict[str, set[str]]]:
    """Generate a conforming graph and a pre-typing of its access roots.

    Nodes u0..u{n-1} each get one uniformly random non-leaf type; edges
    realize each node's rule with distinct targets per label.  The
    returned pre-typing maps a greedily chosen set of roots, preferring
    nodes no unvisited node points at, to their assigned types; every
    node is reachable from the root set.
    """
    return _Generator(cfg).run()


def _root_cover(graph: Graph, preferred: frozenset[str]) -> list[str]:
    """Greedy root set from which every node is reachable.

    Prefer nodes nothing points at; once only cycles remain, fall back to
    the smallest unreached name, staying within ``preferred`` if possible.
    A node left unreached has no reached in-neighbor (search is exhaustive),
    so in-degrees within the unreached part never change.
    """
    unreached = set(graph.nodes)
    indeg = {n: 0 for n in graph.nodes}
    for s, _, t in graph.edges:
        if s != t:
            indeg[t] += 1
    zeros = sorted((n for n in graph.nodes if indeg[n] == 0), reverse=True)
    roots = []
    while unreached:
        while zeros and zeros[-1] not in unreached:
            zeros.pop()
        if zeros:
            root = zeros.pop()
        else:
            pool = [n for n in unreached if n in preferred] or unreached
            root = min(pool)
        roots.append(root)
        frontier = [root]
        unreached.discard(root)
        while frontier:
            nxt = []
            for n in frontier:
                for _, m in graph.out_lab_node(n):
                    if m in unreached:
                        unreached.discard(m)
                        nxt.append(m)
            frontier = nxt
    return roots


@dataclass(frozen=True)
class BenchRow:
    algo: str
    n_nodes: int
    n_triples: int
    seed: int
    millis: float


def _run_algorithm(g, schema, algo, pre) -> ValidationReport:
    if algo == "flood":
        return flood_extension(g, schema, pre, mode="multi")
    return validate_multi(g, schema, algo)


def bench(
    schema: Schema,
    sizes: list[int],
    algos: list[str],
    repeats: int = 4,
    seed: int = 1,
) -> list[BenchRow]:
    """Time validation over generated graphs of growing size.

    One graph is generated per size (seeded from ``seed`` plus the size)
    and shared by all algorithms; only the validation call is timed, with
    garbage collection paused during it, as timeit does.  Of ``repeats``
    runs per cell the first is discarded as warm-up and the fastest of the
    rest is reported in milliseconds: interference from other processes
    only ever adds time, so the minimum is the stable per-cell figure.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2 (the first is discarded)")
    rows = []
    for size in sizes:
        graph_seed = seed + size
        g, pre = generate_graph(
            GenConfig(schema=schema, n_nodes=size, seed=graph_seed)
        )
        for algo in algos:
            times = []
            for _ in range(repeats):
                was_enabled = gc.isenabled()
                gc.disable()
                try:
                    start = time.perf_counter()
                    report = _run_algorithm(g, schema, algo, pre)
                    elapsed = time.perf_counter() - start
                finally:
                    if was_enabled:
                        gc.enable()
                times.append(elapsed * 1000.0)
                if not report.valid:
                    raise RuntimeError(
                        f"generated graph failed validation under {algo}"
                    )
            rows.append(
                BenchRow(algo, size, len(g.edges), graph_seed, min(times[1:]))
            )
    return rows


def bench_csv(rows: list[BenchRow]) -> str:
    lines = ["algo,n_nodes,n_triples,seed,millis"]
    lines.extend(
        f"{r.algo},{r.n_nodes},{r.n_triples},{r.seed},{r.millis:.3f}" for r in rows
    )
    return "\n".join(lines) + "\n"
