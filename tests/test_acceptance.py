"""End-to-end checks recomputing every core result against an independent
reference: frozen fixture verdicts, exhaustive sweeps over all small graphs
up to isomorphism, cross-implementation agreement on random instances, and
scaling-shape bounds on generated graphs.

Each test covers one numbered check and finishes by printing a single
verdict line with its key figures; run with ``-s`` to see them for passing
tests.  The time budgets asserted here are deliberately loose so the suite
stays meaningful on slow machines while still catching complexity
regressions.
"""

import itertools
import random
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

from conftest import LAM0, LAM1, LAM2
from shexval.genbench import GenConfig, bench, generate_graph
from shexval.graph import Graph
from shexval.membership import sorbe_member
from shexval.rbe import (
    ANY,
    Concat,
    Disj,
    EPSILON,
    Interval,
    ONCE,
    OPT,
    Plus,
    SOME,
    Star,
    Symbol,
    bag_key,
    enumerate_language,
    is_sorbe,
    normalize_product,
    parse_rbe,
    typed_symbol,
)
from shexval.sat import (
    LinearSystem,
    encode_phi,
    ilp_feasible,
    inter1,
    inter1_groups,
    is_unambiguous,
    normal_form_isect,
)
from shexval.schema import (
    homomorphism_schema,
    intersect_schemas,
    nondeterministic_labels,
    parse_schema,
    powerset_schema,
    rule_member,
)
from shexval.validate import (
    brute_force_multi,
    brute_force_single,
    check_s_typing,
    flood_extension,
    infer_types,
    m_typing_leq,
    refine_fixpoint,
    validate_multi,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} failed: {detail}"


# ---------------------------------------------------------------------------
# graphs up to isomorphism
#
# Small graphs are swept exhaustively but modulo node renaming, which no
# validation result can observe.  A graph on n nodes with L labels is a
# subset of the (pair, label) slots, encoded as a bit mask; the canonical
# representative of an isomorphism class is the smallest mask in its orbit
# under the node permutations.  Orbit counts are cross-checked against an
# independent Burnside computation.

def _slot_pairs(n: int, loops: bool) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if loops or i != j]


def _canonical_codes(n: int, n_labels: int, loops: bool) -> list[int]:
    pairs = _slot_pairs(n, loops)
    index = {p: k for k, p in enumerate(pairs)}
    n_bits = len(pairs) * n_labels
    codes = np.arange(1 << n_bits, dtype=np.uint32)
    canon = codes.copy()
    for perm in itertools.permutations(range(n)):
        mapped = np.zeros_like(codes)
        for src in range(n_bits):
            i, j = pairs[src // n_labels]
            dst = index[(perm[i], perm[j])] * n_labels + src % n_labels
            mapped |= ((codes >> np.uint32(src)) & np.uint32(1)) << np.uint32(dst)
        np.minimum(canon, mapped, out=canon)
    return [int(c) for c in codes[canon == codes]]


def _orbit_count(n: int, n_labels: int, loops: bool) -> int:
    pairs = _slot_pairs(n, loops)
    index = {p: k for k, p in enumerate(pairs)}
    total = 0
    n_perms = 0
    for perm in itertools.permutations(range(n)):
        n_perms += 1
        seen: set[int] = set()
        orbits = 0
        for start in range(len(pairs)):
            if start in seen:
                continue
            orbits += 1
            k = start
            while k not in seen:
                seen.add(k)
                i, j = pairs[k]
                k = index[(perm[i], perm[j])]
        total += (1 << n_labels) ** orbits
    return total // n_perms


def _decode_out(
    code: int, n: int, labels: str, loops: bool
) -> dict[str, list[tuple[str, str]]]:
    pairs = _slot_pairs(n, loops)
    nodes = [f"v{i}" for i in range(n)]
    out: dict[str, list[tuple[str, str]]] = {m: [] for m in nodes}
    for b in range(len(pairs) * len(labels)):
        if code >> b & 1:
            i, j = pairs[b // len(labels)]
            out[nodes[i]].append((labels[b % len(labels)], nodes[j]))
    return out


def _graph_of(out: dict[str, list[tuple[str, str]]]) -> Graph:
    return Graph(
        [(u, a, v) for u, lv in out.items() for a, v in lv], tuple(out)
    )


class _FlatteningOracle:
    """Validity of set-valued assignments, recomputed from the definition.

    A type holds at a node when some per-edge pick of target types turns the
    outbound neighborhood into a bag of the type's language.  Picks shrink
    when target sets shrink, so a type failing with all-of-gamma targets
    fails under every assignment; that monotone bound prunes enumeration
    domains without assuming anything about the refinement operator.
    """

    def __init__(self, schema):
        self.schema = schema
        self.gamma = tuple(sorted(schema.gamma))
        self.flat: dict[tuple, bool] = {}
        self.mem: dict[tuple, bool] = {}

    def rule_ok(self, t: str, w: Counter) -> bool:
        key = (t, bag_key(w))
        got = self.mem.get(key)
        if got is None:
            got = rule_member(self.schema, w, t)
            self.mem[key] = got
        return got

    def some_flattening(self, t: str, nkey: tuple) -> bool:
        key = (t, nkey)
        got = self.flat.get(key)
        if got is not None:
            return got
        per_item = []
        for (label, types), count in nkey:
            per_item.append(
                [
                    Counter(typed_symbol(label, pick) for pick in picks)
                    for picks in itertools.combinations_with_replacement(
                        types, count
                    )
                ]
            )
        got = False
        for assignment in itertools.product(*per_item):
            w: Counter = Counter()
            for part in assignment:
                w.update(part)
            if self.rule_ok(t, w):
                got = True
                break
        self.flat[key] = got
        return got

    def neighborhood_key(self, targets: list[tuple[str, str]], assign) -> tuple:
        nb = Counter((a, tuple(sorted(assign[v]))) for a, v in targets)
        return tuple(sorted(nb.items()))

    def candidates(self, out, node) -> list[str]:
        full = Counter((a, self.gamma) for a, _ in out[node])
        nkey = tuple(sorted(full.items()))
        return [t for t in self.gamma if self.some_flattening(t, nkey)]

    def assignment_valid(self, out, assign) -> bool:
        for node, targets in out.items():
            nkey = self.neighborhood_key(targets, assign)
            if not all(self.some_flattening(t, nkey) for t in assign[node]):
                return False
        return True


def _nonempty_subsets(types) -> list[frozenset]:
    items = sorted(types)
    return [
        frozenset(combo)
        for size in range(1, len(items) + 1)
        for combo in itertools.combinations(items, size)
    ]


def _collect_generated(pool, sizes, count, base_seed, **ranges):
    """Deterministically generate ``count`` (schema, graph, roots) instances.

    Seeds where generation finds no admissible target for a mandatory edge
    are skipped; the scan order is fixed, so the collection is stable.
    """
    schemas = [parse_schema(text) for text in pool]
    instances = []
    seed = base_seed
    while len(instances) < count:
        for s in schemas:
            for size in sizes:
                if len(instances) >= count:
                    break
                seed += 1
                cfg = GenConfig(s, size, seed=seed, **ranges)
                try:
                    g, roots = generate_graph(cfg)
                except ValueError:
                    continue
                instances.append((s, g, roots))
    return instances


# ---------------------------------------------------------------------------
# 01 — frozen fixture typings

def test_a01_fixture_typings(g0, s0, g1, s1, g2):
    start = perf_counter()
    assert check_s_typing(g0, s0, LAM0)
    assert check_s_typing(g1, s1, LAM1)
    assert brute_force_single(g2, s1) is None
    report = validate_multi(g2, s1)
    assert report.valid
    assert m_typing_leq(LAM2, report.typing)
    inferred = infer_types(g2, s1)
    assert inferred == {
        "n0": frozenset({"t0"}),
        "n1": frozenset({"t1", "t2"}),
        "n2": frozenset({"t3"}),
    }
    elapsed = perf_counter() - start
    _verdict(
        1,
        elapsed < 1.0,
        f"two accepted typings, no single-typing on g2, inferred sets exact, "
        f"{elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 02 — single-occurrence membership vs. language enumeration

def _random_bounds(rng: random.Random) -> Interval:
    roll = rng.random()
    if roll < 0.40:
        return ONCE
    if roll < 0.55:
        return OPT
    if roll < 0.70:
        return SOME
    if roll < 0.85:
        return ANY
    lo = rng.randint(0, 3)
    return Interval(lo, lo + rng.randint(0, 3))


def _random_sorbe(rng: random.Random, symbols: list[str], depth: int):
    if len(symbols) == 1 or depth == 0:
        e = Symbol(symbols[0], _random_bounds(rng))
        for name in symbols[1:]:
            e = Concat(e, Symbol(name, _random_bounds(rng)))
    else:
        cut = rng.randint(1, len(symbols) - 1)
        op = Concat if rng.random() < 0.6 else Disj
        e = op(
            _random_sorbe(rng, symbols[:cut], depth - 1),
            _random_sorbe(rng, symbols[cut:], depth - 1),
        )
    if depth > 0:
        roll = rng.random()
        if roll < 0.15:
            e = Star(e)
        elif roll < 0.25:
            e = Plus(e)
    return e


def test_a02_sorbe_membership_matches_enumeration():
    start = perf_counter()
    rng = random.Random(20260825)
    mismatches = []
    members = 0
    for case in range(2000):
        names = rng.sample("abcdef", rng.randint(1, 6))
        e = _random_sorbe(rng, names, depth=4)
        assert is_sorbe(e)
        counts = {name: rng.randint(0, 5) for name in names}
        if rng.random() < 0.15:
            counts["z"] = rng.randint(1, 5)
        # Keep the enumeration oracle small; per-symbol counts stay <= 5.
        nonzero = [n for n, c in counts.items() if c]
        while sum(counts.values()) > 6:
            counts[rng.choice(nonzero)] = 0
            nonzero = [n for n, c in counts.items() if c]
        w = Counter({n: c for n, c in counts.items() if c})
        language = enumerate_language(e, sum(w.values()))
        want = bag_key(w) in language
        got = sorbe_member(w, e)
        members += want
        if got != want:
            mismatches.append((case, e, dict(w), got, want))
    elapsed = perf_counter() - start
    _verdict(
        2,
        not mismatches and elapsed < 30.0,
        f"2000 expression/bag pairs, {members} members, "
        f"{len(mismatches)} disagreements, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 03 — choice groups against interval products: circulation, arithmetic
# encoding, and explicit language enumeration must agree

def _bag_fits(w: Counter, intervals) -> bool:
    if intervals is None:
        return False
    zero = Interval(0, 0)
    return all(
        w[a] in intervals.get(a, zero) for a in set(w) | set(intervals)
    )


def _groups_ilp(left, right, n_groups: int) -> bool:
    system = LinearSystem()
    lvars = encode_phi(left, system)
    rvars = encode_phi(right, system)
    for a in sorted(set(lvars) | set(rvars)):
        if a in lvars and a in rvars:
            system.eq({lvars[a]: 1, rvars[a]: -1}, 0)
        else:
            system.eq({lvars.get(a, rvars.get(a)): 1}, 0)
    # Every member of the left language has exactly one symbol per group.
    result = ilp_feasible(system, bound=n_groups + 1)
    assert result.status != "unknown"
    return result.status == "sat"


def test_a03_choice_group_intersection_triple_agreement():
    start = perf_counter()
    rng = random.Random(3031)
    mismatches = []
    nonempty = 0
    for case in range(500):
        n_groups = 0 if rng.random() < 0.04 else rng.randint(1, 4)
        groups = [
            sorted(rng.sample("abcde", rng.randint(1, 3)))
            for _ in range(n_groups)
        ]
        left = EPSILON
        for group in groups:
            expr = Symbol(group[0], ONCE)
            for name in group[1:]:
                expr = Disj(expr, Symbol(name, ONCE))
            left = expr if left is EPSILON else Concat(left, expr)
        n_syms = 0 if rng.random() < 0.04 else rng.randint(1, 5)
        right = EPSILON
        for name in rng.sample("abcdef", n_syms):
            lo = rng.randint(0, 3)
            hi = None if rng.random() < 0.2 else lo + rng.randint(0, 3)
            part = Symbol(name, Interval(lo, hi))
            right = part if right is EPSILON else Concat(right, part)
        intervals = normalize_product(right)
        via_flow = inter1_groups([frozenset(g) for g in groups], intervals)
        via_public = inter1(left, right)
        via_ilp = _groups_ilp(left, right, n_groups)
        via_brute = any(
            _bag_fits(Counter(pick), intervals)
            for pick in itertools.product(*groups)
        )
        nonempty += via_brute
        if not via_flow == via_public == via_ilp == via_brute:
            mismatches.append((case, via_flow, via_public, via_ilp, via_brute))
    witnessed = inter1(parse_rbe("(a|c),(b|c)"), parse_rbe("a?,b*,c"))
    elapsed = perf_counter() - start
    _verdict(
        3,
        not mismatches and witnessed is True and elapsed < 30.0,
        f"500 instances, {nonempty} nonempty, {len(mismatches)} disagreements, "
        f"two-group example nonempty: {witnessed}, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 04 — intersection satisfiability: interval normal form on products, and
# the arithmetic path against enumeration for bounded witnesses

def _random_rbe(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Symbol(rng.choice("abcd"), _random_bounds(rng))
    roll = rng.random()
    if roll < 0.35:
        return Concat(_random_rbe(rng, depth - 1), _random_rbe(rng, depth - 1))
    if roll < 0.70:
        return Disj(_random_rbe(rng, depth - 1), _random_rbe(rng, depth - 1))
    if roll < 0.85:
        return Star(_random_rbe(rng, depth - 1))
    return Plus(_random_rbe(rng, depth - 1))


def test_a04_intersection_normal_form_and_bounded_witnesses():
    start = perf_counter()
    got = normal_form_isect(parse_rbe("a,a+"), parse_rbe("a,a?,a?"))
    assert got == {"a": Interval(2, 3)}

    bound = 6
    rng = random.Random(404)
    mismatches = []
    witnessed = 0
    for case in range(300):
        e1 = _random_rbe(rng, 3)
        e2 = _random_rbe(rng, 3)
        want = bool(
            enumerate_language(e1, bound) & enumerate_language(e2, bound)
        )
        system = LinearSystem()
        left = encode_phi(e1, system)
        right = encode_phi(e2, system)
        rep: dict[str, str] = {}
        for a in sorted(set(left) | set(right)):
            if a in left and a in right:
                system.eq({left[a]: 1, right[a]: -1}, 0)
            else:
                system.eq({left.get(a, right.get(a)): 1}, 0)
            rep[a] = left.get(a, right.get(a))
        if rep:
            system.le({x: 1 for x in rep.values()}, bound)
        # Iteration unknowns in the encoding never exceed bag size plus one.
        result = ilp_feasible(system, bound=bound + 1)
        assert result.status != "unknown"
        via_ilp = result.status == "sat"
        witnessed += want
        if via_ilp != want:
            mismatches.append((case, via_ilp, want))
    elapsed = perf_counter() - start
    _verdict(
        4,
        not mismatches and elapsed < 60.0,
        f"product normal form a[2;3] exact; 300 bounded intersections, "
        f"{witnessed} nonempty, {len(mismatches)} disagreements, "
        f"{elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 05 — the refinement fixpoint bounds every valid set-valued assignment

_POOL6 = [
    "t0 -> a::t0* , b::t1*\nt1 -> eps\n",
    "t0 -> (a::t1 | b::t1)\nt1 -> a::t0?\n",
    "t0 -> a::t0 | a::t1\nt1 -> b::t0*\n",
    "t0 -> a::t1 , a::t1\nt1 -> b::t0*\n",
    "t0 -> (a::t0 , b::t0)*\nt1 -> a::t0 , b::t1*\n",
    "t0 -> eps\nt1 -> (a::t0 | a::t1) , b::t1?\n",
]

_REPS_2LABEL = {0: 1, 1: 4, 2: 136, 3: 44224}


def test_a05_refinement_fixpoint_is_maximal():
    start = perf_counter()
    schemas = [parse_schema(text) for text in _POOL6]
    assert len(schemas) == 6
    assert all(len(s.gamma) <= 2 for s in schemas)
    oracles = [_FlatteningOracle(s) for s in schemas]
    violations = []
    checked = 0
    nowhere_empty = 0
    for n in range(4):
        reps = _canonical_codes(n, 2, loops=True)
        assert len(reps) == _orbit_count(n, 2, loops=True) == _REPS_2LABEL[n]
        for code in reps:
            out = _decode_out(code, n, "ab", loops=True)
            g = _graph_of(out)
            full_keys = {
                m: tuple(sorted(Counter((a, ("t0", "t1")) for a, _ in lv).items()))
                for m, lv in out.items()
            }
            for s, oracle in zip(schemas, oracles):
                fixpoint = infer_types(g, s)
                if all(fixpoint.values()):
                    nowhere_empty += 1
                    if not oracle.assignment_valid(out, fixpoint):
                        violations.append((code, s, "fixpoint not valid"))
                cand = {
                    m: [
                        t
                        for t in ("t0", "t1")
                        if oracle.some_flattening(t, full_keys[m])
                    ]
                    for m in out
                }
                # Types outside cand fail under every assignment, so only
                # assignments within cand can be valid at all.
                if any(not c for c in cand.values()):
                    continue
                domains = [_nonempty_subsets(cand[m]) for m in out]
                for combo in itertools.product(*domains):
                    assign = dict(zip(out, combo))
                    if all(assign[m] <= fixpoint[m] for m in out):
                        continue
                    checked += 1
                    if oracle.assignment_valid(out, assign):
                        violations.append((code, s, assign))
    elapsed = perf_counter() - start
    _verdict(
        5,
        not violations and checked > 50_000 and nowhere_empty > 2_000
        and elapsed < 60.0,
        f"{sum(_REPS_2LABEL.values())} graphs x 6 schemas, "
        f"{checked} assignments outside the fixpoint all invalid, "
        f"{nowhere_empty} nowhere-empty fixpoints all valid, "
        f"{len(violations)} violations, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 06 — the four per-node tests compute one fixpoint

_RBE0_DET_POOL = [
    "BugReport -> descr::Str , reportedBy::User , reportedOn::Date , "
    "reproducedBy::Employee? , reproducedOn::Date? , related::BugReport*\n"
    "User -> name::Str , email::Str?\n"
    "Employee -> name::Str? , first-name::Str? , last-name::Str? , email::Str\n"
    "Str -> eps\nDate -> eps\n",
    "A -> x::B[2;4] , y::A*\nB -> z::L?\nL -> eps\n",
    "A -> p::A* , q::B+\nB -> r::L , s::L?\nL -> eps\n",
    "A -> m::L , n::A?\nL -> eps\n",
]


def test_a06_strategies_reach_identical_fixpoints():
    start = perf_counter()
    for text in _RBE0_DET_POOL:
        flags = parse_schema(text).class_flags
        assert flags.deterministic and flags.sorbe and flags.rbe0
    instances = _collect_generated(
        _RBE0_DET_POOL,
        sizes=(4, 8, 15, 25),
        count=200,
        base_seed=600,
        star_range=(0, 3),
        plus_range=(1, 3),
    )
    deployments = [
        ("full-gamma", "general"),
        ("full-gamma", "rbe0-flow"),
        ("full-gamma", "det-membership"),
        ("structure-filtered", "structure-filtered"),
    ]
    rng = random.Random(606)
    mismatches = 0
    perturbed = 0
    for index, (s, g, _) in enumerate(instances):
        if index % 3 == 0 and g.nodes:
            # Break validity on a third of the instances; the fixpoints
            # must agree on invalid graphs too.
            nodes = sorted(g.nodes)
            extra = (
                rng.choice(nodes),
                rng.choice(sorted(s.sigma)),
                rng.choice(nodes),
            )
            g = Graph(list(g.edges) + [extra], g.nodes)
            perturbed += 1
        fixpoints = [
            refine_fixpoint(g, s, init, strategy)
            for init, strategy in deployments
        ]
        if any(fp != fixpoints[0] for fp in fixpoints[1:]):
            mismatches += 1
    elapsed = perf_counter() - start
    _verdict(
        6,
        len(instances) == 200 and mismatches == 0,
        f"200 generated instances ({perturbed} perturbed), four per-node "
        f"tests, {mismatches} fixpoint mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 07 — flooding computes the minimal valid extension

_MARKER_POOL = [
    "T1 -> d1::L , a::T2?\nT2 -> d2::L , a::T1*\nL -> eps\n",
    "T1 -> d1::L , a::T2 , b::T3?\nT2 -> d2::L , b::T3*\nT3 -> d3::L\nL -> eps\n",
    "T1 -> d1::L , a::T1*\nL -> eps\n",
    "T1 -> d1::L , a::T2+\nT2 -> d2::L , b::T1?\nL -> eps\n",
]


def test_a07_flood_is_the_minimal_extension():
    start = perf_counter()
    instances = _collect_generated(
        _MARKER_POOL,
        sizes=(2, 3, 4),
        count=200,
        base_seed=700,
        star_range=(0, 2),
        plus_range=(1, 2),
    )
    oracles: dict[int, _FlatteningOracle] = {}
    violations = []
    extensions_checked = 0
    for s, g, roots in instances:
        oracle = oracles.setdefault(id(s), _FlatteningOracle(s))
        multi = flood_extension(g, s, roots, mode="multi")
        if not multi.valid:
            violations.append((g, "multi flood rejected a generated graph"))
            continue
        reached = set(multi.typing)
        assert reached == set(g.nodes)  # roots cover the graph
        fixpoint = infer_types(g, s)
        if dict(multi.typing) != {m: fixpoint[m] for m in reached}:
            violations.append((g, "flood differs from the fixpoint"))
        out = {m: sorted(g.out_lab_node(m)) for m in sorted(g.nodes)}
        domains = []
        order = sorted(g.nodes)
        for m in order:
            cand = oracle.candidates(out, m)
            required = roots.get(m, frozenset())
            subsets = [
                c for c in _nonempty_subsets(cand) if set(required) <= c
            ]
            domains.append(subsets)
        found_valid = 0
        for combo in itertools.product(*domains):
            assign = dict(zip(order, combo))
            if not oracle.assignment_valid(out, assign):
                continue
            found_valid += 1
            extensions_checked += 1
            if not m_typing_leq(multi.typing, assign):
                violations.append((g, assign))
        if found_valid == 0:
            violations.append((g, "no valid extension found by enumeration"))
        single = flood_extension(g, s, roots, mode="single")
        if not single.valid:
            violations.append((g, "single flood rejected a generated graph"))
        elif single.edges_examined > len(g.edges):
            violations.append(
                (g, f"{single.edges_examined} scans > {len(g.edges)} edges")
            )
        elif not check_s_typing(g, s, single.typing):
            violations.append((g, "single flood typing not valid"))
    elapsed = perf_counter() - start
    _verdict(
        7,
        len(instances) == 200 and not violations,
        f"200 instances, {extensions_checked} enumerated valid extensions "
        f"all above the flood result, single-mode scans within the edge "
        f"count, {len(violations)} violations, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 08 — the set-cover selection gadget

def test_a08_exact_cover_selection(exact_cover_graph, exact_cover_schema):
    start = perf_counter()
    g, s = exact_cover_graph, exact_cover_schema
    assert len(g.nodes) == 7
    # 8 types over 7 nodes sits just above the default safety cap.
    via_brute = brute_force_single(g, s, cap=3_000_000)
    assert via_brute is not None
    assert check_s_typing(g, s, via_brute)
    flooded = flood_extension(g, s, {"r": {"t0"}}, mode="single")
    assert flooded.valid
    assert check_s_typing(g, s, flooded.typing)
    # The only exact cover is {S1, S3}: element 1 and 3 go to S1, 2 to S3.
    chosen = {n: via_brute[n] for n in ("u1", "u2", "u3")}
    assert chosen == {"u1": "t1S1", "u2": "t2S3", "u3": "t3S1"}
    assert dict(flooded.typing) == via_brute
    elapsed = perf_counter() - start
    _verdict(
        8,
        elapsed < 1.0,
        f"both searches select the unique cover {{S1, S3}}, {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 09 — graph coloring through a target-graph schema

_REPS_DIGRAPH = {0: 1, 1: 1, 2: 3, 3: 16, 4: 218, 5: 9608}


def _three_colorable(edge_pairs, n: int) -> bool:
    for coloring in itertools.product(range(3), repeat=n):
        if all(coloring[i] != coloring[j] for i, j in edge_pairs):
            return True
    return False


def test_a09_three_colorability_reduction(k3):
    start = perf_counter()
    hom = homomorphism_schema(k3)
    assert sorted(hom.gamma) == ["c0", "c1", "c2"]
    disagreements = []
    colorable = 0
    total = 0
    for n in range(6):
        pairs = _slot_pairs(n, loops=False)
        reps = _canonical_codes(n, 1, loops=False)
        assert len(reps) == _orbit_count(n, 1, loops=False) == _REPS_DIGRAPH[n]
        nodes = tuple(f"v{i}" for i in range(n))
        for code in reps:
            edge_pairs = [pairs[b] for b in range(len(pairs)) if code >> b & 1]
            g = Graph(
                [(nodes[i], "a", nodes[j]) for i, j in edge_pairs], nodes
            )
            via_schema = brute_force_single(g, hom) is not None
            via_colors = _three_colorable(edge_pairs, n)
            total += 1
            colorable += via_colors
            if via_schema != via_colors:
                disagreements.append((n, code))
    elapsed = perf_counter() - start
    _verdict(
        9,
        not disagreements and elapsed < 60.0,
        f"{total} digraphs up to isomorphism, {colorable} three-colorable, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 10 — schema products and the powerset construction at desk scale

_ISECT_PAIRS = [
    ("t -> a::t*\n", "u -> (a::u , a::u) | eps\n"),
    ("s -> a::s?\n", "v -> a::v+\n"),
    ("x -> a::y?\ny -> a::x , a::x\n", "p -> a::p | a::q\nq -> eps\n"),
]

_POWERSET_CASES = [
    "t -> a::t , a::u?\nu -> eps\n",
    "x -> a::y?\ny -> a::x , a::x\n",
    "p -> a::q+\nq -> a::p | eps\nr -> a::r?\n",
]


def test_a10_product_and_powerset_closure():
    start = perf_counter()
    graphs = []
    for n in range(4):
        for code in _canonical_codes(n, 1, loops=True):
            graphs.append(_graph_of(_decode_out(code, n, "a", loops=True)))
    assert len(graphs) == 1 + 2 + 10 + 104

    counterexamples = []
    for s1_text, s2_text in _ISECT_PAIRS:
        s1, s2 = parse_schema(s1_text), parse_schema(s2_text)
        assert len(s1.gamma) <= 3 and len(s2.gamma) <= 3
        product = intersect_schemas(s1, s2)
        seen = Counter()
        for g in graphs:
            joint = brute_force_single(g, product) is not None
            split = (
                brute_force_single(g, s1) is not None
                and brute_force_single(g, s2) is not None
            )
            seen[split] += 1
            if joint != split:
                counterexamples.append(("product", s1_text, s2_text, g))
        assert seen[True] and seen[False]  # the pair separates the graphs

    for text in _POWERSET_CASES:
        s = parse_schema(text)
        assert len(s.gamma) <= 3
        lifted = powerset_schema(s)
        seen = Counter()
        for g in graphs:
            multi = brute_force_multi(g, s) is not None
            single = brute_force_single(g, lifted) is not None
            seen[multi] += 1
            if multi != single:
                counterexamples.append(("powerset", text, g))
        assert seen[True] and seen[False]
    elapsed = perf_counter() - start
    _verdict(
        10,
        not counterexamples,
        f"{len(graphs)} graphs, 3 schema pairs and 3 powerset cases, "
        f"{len(counterexamples)} counterexamples, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11 — generated bug-tracker graphs: density and self-validation

def test_a11_generated_graph_density_and_self_validation(fig2_schema):
    start = perf_counter()
    n = 10_000
    g, roots = generate_graph(GenConfig(fig2_schema, n, seed=11))
    ratio = len(g.edges) / n
    assert 4.0 <= ratio <= 7.0
    verdicts = {
        "refine": validate_multi(g, fig2_schema, "refine").valid,
        "s-refine": validate_multi(g, fig2_schema, "s-refine").valid,
        "flood": flood_extension(g, fig2_schema, roots, mode="multi").valid,
    }
    elapsed = perf_counter() - start
    _verdict(
        11,
        all(verdicts.values()) and elapsed < 60.0,
        f"{len(g.edges)} triples for {n} entities (ratio {ratio:.2f} in "
        f"[4, 7]), all admissible algorithms accept: {verdicts}, "
        f"{elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 12 — scaling shape on generated graphs

_REDUCED_FIG2 = _RBE0_DET_POOL[0]


@pytest.mark.slow
def test_a12_scaling_shape(fig2_schema):
    start = perf_counter()
    sizes = (25_000, 50_000, 100_000, 200_000)
    # Five repeats so the per-cell minimum survives two noisy runs.
    rows = bench(fig2_schema, list(sizes), ["flood", "s-refine"], repeats=5, seed=1)
    millis = {(r.algo, r.n_nodes): r.millis for r in rows}
    problems = []
    for algo in ("flood", "s-refine"):
        for small, large in zip(sizes, sizes[1:]):
            growth = millis[(algo, large)] / millis[(algo, small)]
            if growth > 3.0:
                problems.append(f"{algo} {small}->{large}: x{growth:.2f}")
    for size in sizes:
        head_to_head = millis[("s-refine", size)] / millis[("flood", size)]
        if head_to_head > 3.0:
            problems.append(f"s-refine/flood at {size}: x{head_to_head:.2f}")

    reduced = parse_schema(_REDUCED_FIG2)
    rows0 = bench(reduced, [5_000], ["rbe0-refine", "refine"], repeats=4, seed=3)
    by_algo = {r.algo: r.millis for r in rows0}
    if by_algo["rbe0-refine"] < by_algo["refine"]:
        problems.append(
            f"flow-based refinement beat the membership shortcut: {by_algo}"
        )
    elapsed = perf_counter() - start
    growths = [
        f"{algo} {millis[(algo, b)] / millis[(algo, a)]:.2f}"
        for algo in ("flood", "s-refine")
        for a, b in zip(sizes, sizes[1:])
    ]
    _verdict(
        12,
        not problems and elapsed < 600.0,
        f"doubling growth {growths}, rbe0/det "
        f"{by_algo['rbe0-refine'] / by_algo['refine']:.1f}x, "
        f"problems: {problems or 'none'}, {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# 13 — ambiguity verdicts

def test_a13_unambiguity_verdicts(fig2_schema):
    start = perf_counter()
    split_pair = parse_rbe("(a::t1 , b::t2) | (a::t3 , c::t4)")
    double_use = parse_rbe("a::t1 , b::t2* , a::t3 , c::t2")
    assert is_unambiguous(split_pair).status == "unambiguous"
    verdict = is_unambiguous(double_use)
    assert verdict.status == "ambiguous"
    w1, w2 = verdict.witness
    assert w1["a::t1"] and w1["a::t3"]  # one member uses a with both types
    # Every bug-tracker rule uses each label with one type, which already
    # forces unambiguity; the analysis must agree.
    assert nondeterministic_labels(fig2_schema) == []
    rules_checked = 0
    for t in sorted(fig2_schema.gamma):
        rule = fig2_schema.delta[t]
        assert is_unambiguous(rule).status == "unambiguous"
        rules_checked += 1
    elapsed = perf_counter() - start
    _verdict(
        13,
        elapsed < 5.0,
        f"split choice unambiguous, double label use ambiguous with witness, "
        f"{rules_checked} bug-tracker rules unambiguous, {elapsed:.1f}s < 5s",
    )
