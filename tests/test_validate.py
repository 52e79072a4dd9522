import importlib.util
import inspect
import itertools
import random
import sys
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import (
    EXACT_COVER_TEXT,
    FIG2_TEXT,
    LAM0,
    LAM1,
    LAM2,
    S_CYCLE_TEXT,
    S0_TEXT,
    S1_TEXT,
    m_typing_leq,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bag, bag_key, enumerate_language
from shexval import graph as graph_module
from shexval import schema as schema_module
from shexval import validate as validate_module
from shexval.genbench import GenConfig, generate_graph
from shexval.graph import Graph, format_graph, parse_graph
from shexval.membership import member
from shexval.rbe import ops as rbe_ops
from shexval.rbe import (
    EMPTY,
    EPSILON,
    ONCE,
    OPT,
    SOME,
    Interval,
    Symbol,
    choice_groups,
    concat,
    format_rbe,
    parse_rbe,
    project_sigma,
    typed_symbol,
)
from shexval.sat import core as sat_core
from shexval.sat import inter1
from shexval.schema import (
    TOP,
    UNIVERSAL,
    Schema,
    homomorphism_schema,
    intersect_schemas,
    parse_schema,
    powerset_schema,
    rule_member,
)
from shexval.validate import (
    ValidationReport,
    _RefineEngine,
    _some_flattening_member,
    brute_force_multi,
    brute_force_single,
    check_m_typing,
    check_s_typing,
    flatten,
    flood_extension,
    infer_types,
    out_lab_type_m,
    out_lab_type_s,
    parse_pretyping,
    remaining_edges,
    report_lines,
    structure_filtered_init,
    validate_multi,
    validate_single,
)

S0 = parse_schema(S0_TEXT)
S1 = parse_schema(S1_TEXT)
S_CYCLE = parse_schema(S_CYCLE_TEXT)
EXACT_COVER = parse_schema(EXACT_COVER_TEXT)

# Deterministic two-type chain; u is a leaf content model.
CHAIN = parse_schema("t -> a::u?\nu -> eps\n")
# Label a is used with two types in t, so determinism fails.
NONDET = parse_schema("t -> (a::t | a::u)* , b::u*\nu -> a::t?\n")
# Every node must keep exactly one a-edge to another t node.
LOOP = parse_schema("t -> a::t\n")
# Routes the label extra out of validation through the universal type.
TOP_SCHEMA = parse_schema("t -> a::u , extra::TOP*\nu -> eps\n")
# Deterministic but not single-occurrence: a::u occurs twice in t.
DET_REPEATED = parse_schema("t -> a::u , (a::u | b::v)\nu -> a::t?\nv -> eps\n")

EXACT_COVER_TYPING = {
    "r": "t0",
    "u1": "t1S1",
    "u2": "t2S3",
    "u3": "t3S1",
    "S1": "In",
    "S2": "Out",
    "S3": "In",
}


def lift(typing):
    """Single-type assignment as a set-valued one."""
    return {n: frozenset((t,)) for n, t in typing.items()}


def all_graphs(nodes, labels):
    slots = [(u, lab, v) for u in nodes for lab in labels for v in nodes]
    for mask in range(2 ** len(slots)):
        edges = [slot for i, slot in enumerate(slots) if mask >> i & 1]
        yield Graph(edges, nodes)


def random_graph(rng, nodes, labels):
    slots = [(u, lab, v) for u in nodes for lab in labels for v in nodes]
    chosen = [slot for slot in slots if rng.random() < 0.35]
    return Graph(chosen, nodes)


REFINE_ALGORITHMS = ("refine", "s-refine", "rbe0-refine")


def admissible_algorithms(schema):
    """The refinement algorithms the schema's class admits."""
    flags = schema.class_flags
    yield "refine"
    if flags.deterministic and flags.sorbe:
        yield "s-refine"
    if flags.rbe0:
        yield "rbe0-refine"


def per_node_structure_filtered_init(g, schema):
    """The structure-filtered typing, decided node by node: the types whose
    rule is universal or whose label projection holds the node's label bag."""
    return {
        n: frozenset(
            t
            for t, rule in schema.compiled.items()
            if rule.universal
            or member(g.out_lab(n), project_sigma(rule.expr)).verdict
        )
        for n in g.nodes
    }


def reference_round(g, schema, typing):
    """One synchronous refinement round, with no engine: t stays at n when
    t's rule is universal or some flattening of n's neighborhood under
    ``typing`` satisfies it."""
    return {
        n: frozenset(
            t
            for t in typing[n]
            if schema.compiled[t].universal
            or _some_flattening_member(schema, out_lab_type_m(g, typing, n), t)
        )
        for n in g.nodes
    }


def reference_refinement(g, schema, algo):
    """Synchronous rounds from the start of ``algo`` until nothing changes:
    the typing and the number of rounds, the last one included."""
    if algo == "s-refine":
        typing = per_node_structure_filtered_init(g, schema)
    else:
        typing = {n: frozenset(schema.gamma) for n in g.nodes}
    rounds = 0
    while True:
        rounds += 1
        following = reference_round(g, schema, typing)
        if following == typing:
            return typing, rounds
        typing = following


def assert_algorithms_match_the_reference(g, schema):
    """Every admissible algorithm reports the reference's typing and rounds,
    and every other one is rejected by name."""
    admissible = set(admissible_algorithms(schema))
    for algo in REFINE_ALGORITHMS:
        if algo in admissible:
            report = validate_multi(g, schema, algo)
            assert (report.typing, report.iterations) == reference_refinement(
                g, schema, algo
            )
        else:
            with pytest.raises(ValueError, match=f"^{algo} needs"):
                validate_multi(g, schema, algo)


class MemberMemo:
    """Validity of (node, type) pairs by direct flattening enumeration.

    Deliberately avoids the intersection test the refinement code relies
    on: every flattening is materialized and checked with the membership
    decision procedure, so the sweeps cross two independent code paths.
    Verdicts are memoized by neighborhood shape because the exhaustive
    loops revisit a tiny vocabulary thousands of times.
    """

    def __init__(self, schema):
        self.schema = schema
        self.cache = {}

    def valid_m_typing(self, g, typing):
        if any(not typing[n] for n in g.nodes):
            return False
        return all(
            self.type_fits(g, typing, n, t) for n in g.nodes for t in typing[n]
        )

    def type_fits(self, g, typing, n, t):
        edges = sorted(g.out_lab_node(n))
        shape = (t, tuple((a, tuple(sorted(typing[m]))) for a, m in edges))
        if shape not in self.cache:
            rule = self.schema.delta[t]
            hit = False
            for picks in itertools.product(*(sorted(typing[m]) for _, m in edges)):
                w = bag(f"{a}::{u}" for (a, _), u in zip(edges, picks))
                if member(w, rule).verdict:
                    hit = True
                    break
            self.cache[shape] = hit
        return self.cache[shape]


def enumerate_m_typings(g, gamma):
    nodes = sorted(g.nodes)
    subsets = [
        frozenset(c)
        for size in range(1, len(gamma) + 1)
        for c in itertools.combinations(sorted(gamma), size)
    ]
    for combo in itertools.product(subsets, repeat=len(nodes)):
        yield dict(zip(nodes, combo))


class TestOutLabTypeS:
    def test_mixed_neighborhood(self, g0):
        assert out_lab_type_s(g0, LAM0, "n1") == bag(["a::t1", "b::t2"])

    def test_single_edge(self, g0):
        assert out_lab_type_s(g0, LAM0, "n4") == bag(["c::t1"])

    def test_sink(self, g0):
        assert out_lab_type_s(g0, LAM0, "n3") == bag()

    def test_unknown_node(self, g0):
        with pytest.raises(KeyError):
            out_lab_type_s(g0, LAM0, "nope")

    def test_set_valued_variant(self, g2):
        got = out_lab_type_m(g2, LAM2, "n1")
        assert got == {
            ("b", frozenset({"t1", "t2"})): 1,
            ("c", frozenset({"t3"})): 1,
        }


class TestFlatten:
    def test_groups_and_counts(self):
        b = {("a", frozenset({"t0", "t1"})): 2, ("b", frozenset({"t1"})): 1}
        expr = flatten(b)
        assert choice_groups(expr) == [
            frozenset({"a::t0", "a::t1"}),
            frozenset({"a::t0", "a::t1"}),
            frozenset({"b::t1"}),
        ]

    def test_language_is_the_flattenings(self):
        b = {("b", frozenset({"t1", "t2"})): 1, ("c", frozenset({"t3"})): 1}
        got = enumerate_language(flatten(b), 2)
        assert got == {
            bag_key(bag(["b::t1", "c::t3"])),
            bag_key(bag(["b::t2", "c::t3"])),
        }

    def test_empty_bag(self):
        assert flatten({}) == EPSILON

    def test_empty_type_set_rejected(self):
        with pytest.raises(ValueError):
            flatten({("a", frozenset()): 1})


class TestCheckSTyping:
    def test_reference_typing_g0(self, g0, s0):
        assert check_s_typing(g0, s0, LAM0)

    def test_reference_typing_g1(self, g1, s1):
        assert check_s_typing(g1, s1, LAM1)

    def test_no_assignment_works_on_g2(self, g2, s1):
        nodes = sorted(g2.nodes)
        for combo in itertools.product(sorted(s1.gamma), repeat=len(nodes)):
            assert not check_s_typing(g2, s1, dict(zip(nodes, combo)))

    def test_wrong_type_rejected(self, g0, s0):
        broken = dict(LAM0, n4="t1")
        assert not check_s_typing(g0, s0, broken)

    def test_partial_typing_rejected(self, g0, s0):
        with pytest.raises(ValueError):
            check_s_typing(g0, s0, {"n0": "t0"})

    def test_m_typing_reference(self, g2, s1):
        assert check_m_typing(g2, s1, LAM2)

    def test_m_typing_singleton_matches_single(self, g0, s0):
        assert check_m_typing(g0, s0, lift(LAM0))

    def test_m_typing_empty_set_invalid(self, g2, s1):
        broken = dict(LAM2, n1=frozenset())
        assert not check_m_typing(g2, s1, broken)

    def test_m_typing_partial_invalid(self, g2, s1):
        assert not check_m_typing(g2, s1, {"n0": frozenset({"t0"})})


class TestRefineStep:
    """The synchronous round of the reference, and the algorithms on the
    examples it settles in one round."""

    def test_one_step_from_full_typing(self, g2, s1):
        full = {n: frozenset(s1.gamma) for n in g2.nodes}
        assert reference_round(g2, s1, full) == LAM2

    def test_result_contained_in_input(self, g0, s0):
        full = {n: frozenset(s0.gamma) for n in g0.nodes}
        out = reference_round(g0, s0, full)
        assert all(out[n] <= full[n] for n in g0.nodes)

    def test_fixpoint_is_stable(self, g2, s1):
        assert reference_round(g2, s1, LAM2) == LAM2

    def test_strategies_agree_on_one_step(self, g2, s1):
        # From the full typing one round removes everything and the second
        # one nothing; the structure filter already leaves LAM2.
        assert set(admissible_algorithms(s1)) == set(REFINE_ALGORITHMS)
        for algo, rounds in (("refine", 2), ("rbe0-refine", 2), ("s-refine", 1)):
            report = validate_multi(g2, s1, algo)
            assert (report.typing, report.iterations) == (LAM2, rounds)
        assert_algorithms_match_the_reference(g2, s1)

    def test_universal_type_always_survives(self):
        g = Graph([("x", "a", "y"), ("x", "extra", "z"), ("z", "b", "w0")])
        assert set(admissible_algorithms(TOP_SCHEMA)) == set(REFINE_ALGORITHMS)
        for algo in REFINE_ALGORITHMS:
            out = validate_multi(g, TOP_SCHEMA, algo).typing
            assert all(TOP in out[n] for n in g.nodes)
            assert out["z"] == frozenset({TOP})
        assert_algorithms_match_the_reference(g, TOP_SCHEMA)

    def test_class_mismatch_rejected(self, g0, s0):
        with pytest.raises(
            ValueError, match="rbe0-refine needs a schema of symbol products"
        ):
            validate_multi(g0, s0, "rbe0-refine")
        assert_algorithms_match_the_reference(g0, s0)
        g = Graph([("x", "a", "x")])
        with pytest.raises(
            ValueError,
            match="s-refine needs a deterministic single-occurrence schema",
        ):
            validate_multi(g, NONDET, "s-refine")
        assert_algorithms_match_the_reference(g, NONDET)


class TestStructureFilteredInit:
    def test_filters_by_label_bag(self, g2, s1):
        init = structure_filtered_init(g2, s1)
        assert init == LAM2

    def test_keeps_universal_type(self):
        g = Graph([("x", "a", "y"), ("x", "extra", "z")])
        init = structure_filtered_init(g, TOP_SCHEMA)
        assert all(TOP in init[n] for n in g.nodes)


class TestRefineFixpoint:
    def test_reference_fixpoint(self, g2, s1):
        assert reference_refinement(g2, s1, "refine") == (LAM2, 2)
        for algo in REFINE_ALGORITHMS:
            assert validate_multi(g2, s1, algo).typing == LAM2

    def test_init_does_not_change_fixpoint(self, g0, g1, g2, s0, s1):
        for g, s in ((g0, s0), (g1, s1), (g2, s1)):
            assert (
                validate_multi(g, s, "refine").typing
                == validate_multi(g, s, "s-refine").typing
            )

    def test_strategies_share_the_fixpoint(self, g0, g1, g2, s1):
        for g in (g0, g1, g2):
            expected, _ = reference_refinement(g, s1, "refine")
            for algo in REFINE_ALGORITHMS:
                assert validate_multi(g, s1, algo).typing == expected
            assert infer_types(g, s1) == expected
            assert_algorithms_match_the_reference(g, s1)

    @pytest.mark.parametrize(
        "edges",
        [[("x", "b", "y")], [("x", "a", "y"), ("x", "a", "z")]],
        ids=["stray-label", "label-twice"],
    )
    def test_every_strategy_checks_the_label_bag(self, edges):
        # Successors that carry the required types do not make up for a
        # label bag the rule rejects.
        s = parse_schema("t -> a::u\nu -> eps\n")
        g = Graph(edges)
        expected = infer_types(g, s)
        assert expected["x"] == frozenset()
        assert all(expected[n] == {"u"} for n in g.nodes - {"x"})
        for algo in REFINE_ALGORITHMS:
            assert validate_multi(g, s, algo).typing == expected
        assert_algorithms_match_the_reference(g, s)

    def test_unsatisfiable_node_keeps_empty_set(self):
        g = Graph([], nodes=["x"])
        assert infer_types(g, LOOP) == {"x": frozenset()}


class TestInferTypes:
    def test_reference_result(self, g2, s1):
        assert infer_types(g2, s1) == LAM2

    def test_empty_graph(self, s1):
        assert infer_types(Graph(), s1) == {}

    def test_bug_tracker_roles(self, fig1, fig2_schema):
        got = infer_types(fig1, fig2_schema)
        assert got["emp1"] == frozenset({"User", "Employee"})
        assert got["user1"] == frozenset({"User"})
        assert got["bug1"] == frozenset({"BugReport"})
        assert got["Kaboom!"] == frozenset({"Str", "Date"})


class TestValidateMulti:
    def test_refine_valid_report(self, g2, s1):
        report = validate_multi(g2, s1)
        assert report.valid
        assert report.typing == LAM2
        assert report.failures == ()
        assert report.remaining_edges == frozenset()
        assert report.algorithm == "refine"
        assert 1 <= report.iterations <= len(g2.nodes) * len(s1.gamma) + 1

    def test_refine_invalid_report(self, g2, s0):
        report = validate_multi(g2, s0)
        assert not report.valid
        failed = {n for n, _, _ in report.failures}
        assert "n1" in failed
        assert report.remaining_edges == g2.edges

    def test_bug_tracker_needs_both_roles(self, fig1, fig2_schema):
        report = validate_multi(fig1, fig2_schema)
        assert report.valid
        assert report.typing["emp1"] >= {"User", "Employee"}

    def test_s_refine_agrees(self, fig1, fig2_schema, g2, s1):
        for g, s in ((fig1, fig2_schema), (g2, s1)):
            assert validate_multi(g, s, "s-refine").typing == validate_multi(g, s).typing

    def test_rbe0_refine_agrees_where_admissible(self, g2, s1):
        assert validate_multi(g2, s1, "rbe0-refine").typing == LAM2

    def test_rbe0_refine_rejects_other_classes(self, fig1, fig2_schema):
        with pytest.raises(ValueError):
            validate_multi(fig1, fig2_schema, "rbe0-refine")

    def test_brute_agrees(self, g2, s1, s0):
        report = validate_multi(g2, s1, "brute")
        assert report.valid
        assert check_m_typing(g2, s1, report.typing)
        assert not validate_multi(g2, s0, "brute").valid

    def test_flood_needs_pretyping_or_top(self, fig1, fig2_schema):
        with pytest.raises(ValueError):
            validate_multi(fig1, fig2_schema, "flood")

    def test_flood_with_pretyping(self, fig1, fig2_schema):
        report = validate_multi(
            fig1, fig2_schema, "flood", pre={"bug1": {"BugReport"}}
        )
        assert report.valid
        assert report.typing["emp1"] == frozenset({"User", "Employee"})
        assert report.algorithm == "flood"

    def test_flood_unreached_nodes_invalidate(self):
        g = Graph([("x", "a", "y"), ("p", "a", "q")])
        report = validate_multi(g, CHAIN, "flood", pre={"x": {"t"}})
        assert not report.valid
        assert {n for n, _, _ in report.failures} == {"p", "q"}

    def test_unknown_algorithm(self, g2, s1):
        with pytest.raises(ValueError):
            validate_multi(g2, s1, "guess")


class TestValidateSingle:
    def test_brute_report(self, g1, g2, s1):
        report = validate_single(g1, s1, "brute")
        assert report.valid and report.typing == LAM1
        assert report.algorithm == "brute-single"
        report = validate_single(g2, s1, "brute")
        assert not report.valid
        assert report.failures == (("-", "-", "no valid s-typing exists"),)
        assert report.remaining_edges == g2.edges

    def test_flood_unreached_nodes_invalidate(self):
        g = Graph([("x", "a", "y"), ("p", "a", "q")])
        report = validate_single(g, CHAIN, "flood", pre={"x": {"t"}})
        assert not report.valid
        assert report.typing == {"x": "t", "y": "u"}
        assert report.failures == (
            ("p", "-", "not reached from the pre-typing"),
            ("q", "-", "not reached from the pre-typing"),
        )
        assert report.remaining_edges == frozenset({("p", "a", "q")})

    def test_flood_needs_pretyping_and_refinement_is_multi_only(self, g1, s1):
        with pytest.raises(ValueError, match="needs --pretyping"):
            validate_single(g1, s1, "flood")
        with pytest.raises(ValueError, match="supports only --mode multi"):
            validate_single(g1, s1, "refine")


class TestFloodExtension:
    def test_minimal_extension_of_bug_tracker(self, fig1, fig2_schema):
        report = flood_extension(fig1, fig2_schema, {"bug1": {"BugReport"}})
        assert report.valid
        assert report.typing["emp1"] == frozenset({"User", "Employee"})
        assert report.typing["user1"] == frozenset({"User"})
        # Minimality: the maximal typing also allows Date here.
        assert report.typing["Kaboom!"] == frozenset({"Str"})
        assert report.remaining_edges == frozenset()

    def test_failing_requirement_reported(self, fig1, fig2_schema):
        report = flood_extension(fig1, fig2_schema, {"user1": {"BugReport"}})
        assert not report.valid
        assert report.failures[0][:2] == ("user1", "BugReport")

    def test_stray_label_fails_membership(self):
        g = Graph([("x", "zap", "y")])
        report = flood_extension(g, CHAIN, {"x": {"t"}})
        assert not report.valid
        assert "zap" in report.failures[0][2]

    def test_multi_mode_needs_determinism(self, exact_cover_graph, exact_cover_schema):
        with pytest.raises(ValueError):
            flood_extension(exact_cover_graph, exact_cover_schema, {"r": {"t0"}})

    def test_single_mode_needs_single_occurrence(self):
        doubled = parse_schema("t -> a::u , a::u\nu -> eps\n")
        g = Graph([("x", "a", "y")])
        with pytest.raises(ValueError):
            flood_extension(g, doubled, {"x": {"t"}}, mode="single")

    def test_single_mode_solves_the_cover_gadget(
        self, exact_cover_graph, exact_cover_schema
    ):
        report = flood_extension(
            exact_cover_graph, exact_cover_schema, {"r": {"t0"}}, mode="single"
        )
        assert report.valid
        assert report.typing == EXACT_COVER_TYPING
        assert report.typing["u1"] == "t1S1"
        assert report.typing["u3"] == "t3S1"
        assert report.typing["S2"] == "Out"
        assert check_s_typing(exact_cover_graph, exact_cover_schema, report.typing)

    def test_single_mode_straight_line_on_deterministic_schema(self, g1, s1):
        report = flood_extension(g1, s1, {"n0": {"t0"}}, mode="single")
        assert report.valid
        assert report.typing == LAM1
        assert report.edges_examined == len(g1.edges)

    def test_single_mode_conflict(self, fig1, fig2_schema):
        report = flood_extension(
            fig1, fig2_schema, {"bug1": {"BugReport"}}, mode="single"
        )
        assert not report.valid
        assert "already typed" in report.failures[0][2]

    def test_universal_type_cuts_the_flood(self):
        g = Graph([("x", "a", "y"), ("x", "extra", "z"), ("z", "b", "w0")])
        report = flood_extension(g, TOP_SCHEMA, {"x": {"t"}})
        assert report.valid
        assert report.typing == {"x": frozenset({"t"}), "y": frozenset({"u"})}
        assert report.remaining_edges == frozenset({("z", "b", "w0")})
        single = flood_extension(g, TOP_SCHEMA, {"x": {"t"}}, mode="single")
        assert single.valid
        assert single.typing == {"x": "t", "y": "u"}

    def test_empty_pretyping(self, g1, s1):
        report = flood_extension(g1, s1, {})
        assert report.valid
        assert report.typing == {}
        assert report.remaining_edges == g1.edges

    def test_unknown_pre_node_or_type(self, g1, s1):
        with pytest.raises(ValueError):
            flood_extension(g1, s1, {"ghost": {"t0"}})
        with pytest.raises(ValueError):
            flood_extension(g1, s1, {"n0": {"tX"}})


class TestBruteForce:
    def test_unique_assignment_found(self, g1, s1):
        assert brute_force_single(g1, s1) == LAM1

    def test_no_assignment_on_g2(self, g2, s1):
        assert brute_force_single(g2, s1) is None

    def test_three_coloring_oracle(self, k3):
        hom = homomorphism_schema(k3)

        def three_colorable(g):
            nodes = sorted(g.nodes)
            for combo in itertools.product(range(3), repeat=len(nodes)):
                coloring = dict(zip(nodes, combo))
                if all(coloring[u] != coloring[v] for u, _, v in g.edges):
                    return True
            return not nodes

        triangle = Graph([("x", "a", "y"), ("y", "a", "z"), ("z", "a", "x")])
        k4_nodes = ("p0", "p1", "p2", "p3")
        k4 = Graph([(u, "a", v) for u in k4_nodes for v in k4_nodes if u != v])
        path = Graph([("x", "a", "y"), ("y", "a", "z")])
        loop = Graph([("x", "a", "x")])
        for g in (triangle, k4, k3, path, loop):
            assert (brute_force_single(g, hom) is not None) == three_colorable(g)

    def test_cap_enforced(self, g0, s0):
        with pytest.raises(ValueError):
            brute_force_single(g0, s0, cap=10)
        with pytest.raises(ValueError):
            brute_force_multi(g0, s0, cap=10)

    def test_multi_finds_assignment_single_misses(self, g2, s1):
        found = brute_force_multi(g2, s1)
        assert found is not None
        assert check_m_typing(g2, s1, found)

    def test_multi_single_node(self):
        schema = parse_schema("t -> eps\n")
        g = Graph([], nodes=["n"])
        assert brute_force_multi(g, schema) == {"n": frozenset({"t"})}

    def test_empty_graph(self, s1):
        assert brute_force_single(Graph(), s1) == {}
        assert brute_force_multi(Graph(), s1) == {}


class TestRemainingEdges:
    def test_fully_typed_graph(self, g2, s1):
        report = validate_multi(g2, s1)
        assert remaining_edges(g2, s1, report) == frozenset()

    def test_unreached_component(self):
        g = Graph([("x", "a", "y"), ("p", "a", "q")])
        report = flood_extension(g, CHAIN, {"x": {"t"}})
        assert remaining_edges(g, CHAIN, report) == frozenset({("p", "a", "q")})

    def test_matches_report_field(self, fig1, fig2_schema):
        report = validate_multi(fig1, fig2_schema)
        assert remaining_edges(fig1, fig2_schema, report) == report.remaining_edges

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_a_universal_type_under_any_name_leaves_its_node_uncovered(self, mode):
        s = Schema({"t": UNIVERSAL, "u": parse_rbe("a::t")})
        g = Graph([("x", "a", "y"), ("y", "b", "z")])
        report = flood_extension(g, s, {"x": {"u"}}, mode)
        assert report.valid
        assert set(report.typing) == {"x", "y"}
        assert report.remaining_edges == frozenset({("y", "b", "z")})
        assert remaining_edges(g, s, report) == report.remaining_edges


def reference_remaining(g, s, typing):
    """Every edge of the graph whose source holds no type but ones with a
    universal rule in ``s``; a type ``s`` does not know has no rule."""

    def universal(t):
        return t in s.compiled and s.compiled[t].universal

    covered = {
        n
        for n, value in typing.items()
        if not all(map(universal, {value} if isinstance(value, str) else value))
    }
    return frozenset(e for e in g.edges if e[0] not in covered)


# Schemas whose universal types among t, u and TOP differ: TOP alone, t
# alone (TOP unknown), and t with TOP.
REMAINING_SCHEMAS = (
    parse_schema("t -> a::u*\nu -> b::TOP?\n"),
    Schema({"t": UNIVERSAL, "u": parse_rbe("a::t")}),
    Schema({"t": UNIVERSAL, "u": parse_rbe("a::t , b::TOP?")}),
)


TYPING_VALUES = st.one_of(
    st.sampled_from(("t", "u", TOP)),
    st.sampled_from(
        ((), frozenset(), set(), {TOP}, frozenset({TOP}), {TOP, "t"}, ["t", "u"])
    ),
    st.frozensets(st.sampled_from(("t", "u", TOP))),
    st.sets(st.sampled_from(("t", "u", TOP))),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_remaining_edges_match_the_full_edge_scan(data):
    nodes = [f"y{i}" for i in range(data.draw(st.integers(0, 6)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(("a", "b")), st.sampled_from(nodes)
            ),
            max_size=14,
        )
        if nodes
        else st.just([])
    )
    g = Graph(edges, nodes)
    # Some nodes are absent; "ghost" is typed but not in the graph.
    typing = data.draw(
        st.dictionaries(st.sampled_from(nodes + ["ghost"]), TYPING_VALUES)
    )
    s = data.draw(st.sampled_from(REMAINING_SCHEMAS))
    report = ValidationReport(valid=True, typing=typing)
    assert remaining_edges(g, s, report) == reference_remaining(g, s, typing)


def count_edge_set_reads(monkeypatch):
    """The graphs whose ``edges`` are read from now on, one entry a read."""
    reads = []
    edges = Graph.edges

    def counted(g):
        reads.append(g)
        return edges.fget(g)

    monkeypatch.setattr(Graph, "edges", property(counted))
    return reads


def test_reports_of_a_fully_covered_typing_never_iterate_the_edges(monkeypatch):
    s, g, pre, _ = fig2_graph_and_label_bags()
    reads = count_edge_set_reads(monkeypatch)
    flooded = flood_extension(g, s, pre)
    # s-refine removes nothing here, so the engine needs no inbound index.
    refined = validate_multi(g, s, "s-refine")
    for report in (flooded, refined):
        assert report.valid
        assert report.typing.keys() == g.nodes
        assert report.remaining_edges == frozenset()
        assert remaining_edges(g, s, report) == frozenset()
    assert reads == []


def types_of(value):
    return {value} if isinstance(value, str) else set(value)


def reference_report_lines(report):
    """The rendering with a sort per node, as the definition reads."""
    lines = [
        f"TYPED\t{n}\t{t}"
        for n in sorted(report.typing)
        for t in sorted(types_of(report.typing[n]))
    ]
    lines += [f"FAILED\t{n}\t{t}\t{reason}" for n, t, reason in report.failures]
    lines += [
        f"REMAINING\t{s}\t{a}\t{o}" for s, a, o in sorted(report.remaining_edges)
    ]
    return lines


def same_types_another_form(data, value):
    # The types of ``value`` as a str, set, frozenset or list; lists may
    # repeat a type.
    types = sorted(types_of(value))
    forms = [set(types), frozenset(types), types[::-1], types + types[:1]]
    if len(types) == 1:
        forms.append(types[0])
    return data.draw(st.sampled_from(forms))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_lines_ignore_key_order_and_value_form(data):
    nodes = ("y0", "y1", "y 2", "y10", "ghost")
    typing = data.draw(st.dictionaries(st.sampled_from(nodes), TYPING_VALUES))
    failures = data.draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.just("t"), st.just("why")))
    )
    remaining = data.draw(
        st.frozensets(
            st.tuples(st.sampled_from(nodes), st.just("a"), st.sampled_from(nodes))
        )
    )
    report = ValidationReport(
        valid=not failures, typing=typing, failures=tuple(failures),
        remaining_edges=remaining,
    )
    keys = data.draw(st.permutations(list(typing)))
    other = replace(
        report, typing={n: same_types_another_form(data, typing[n]) for n in keys}
    )
    expected = reference_report_lines(report)
    assert report_lines(report) == expected
    assert report_lines(other) == expected


class TestExhaustiveSmall:
    """Sweeps over every two-node graph and a seeded three-node sample."""

    @pytest.mark.parametrize("schema", [CHAIN, NONDET], ids=["chain", "nondet"])
    def test_agreement_and_maximality(self, schema):
        memo = MemberMemo(schema)
        rng = random.Random(7)
        graphs = list(all_graphs(("x0", "x1"), ("a", "b")))
        graphs += [
            random_graph(rng, ("x0", "x1", "x2"), ("a", "b")) for _ in range(120)
        ]
        for g in graphs:
            fixpoint = infer_types(g, schema)
            refine_valid = all(fixpoint[n] for n in g.nodes)
            some_valid = False
            for typing in enumerate_m_typings(g, schema.gamma):
                if memo.valid_m_typing(g, typing):
                    some_valid = True
                    assert m_typing_leq(typing, fixpoint)
            assert refine_valid == some_valid
            assert (brute_force_multi(g, schema) is not None) == some_valid

    def test_flood_minimality_and_completeness(self):
        memo = MemberMemo(CHAIN)
        rng = random.Random(11)
        graphs = list(all_graphs(("x0", "x1"), ("a", "b")))
        graphs += [
            random_graph(rng, ("x0", "x1", "x2"), ("a", "b")) for _ in range(80)
        ]
        for g in graphs:
            if "x0" not in g.nodes:
                continue
            pre = {"x0": frozenset({"t"})}
            report = flood_extension(g, CHAIN, pre)
            extensions = [
                typing
                for typing in enumerate_m_typings(g, CHAIN.gamma)
                if pre["x0"] <= typing["x0"] and memo.valid_m_typing(g, typing)
            ]
            if report.valid:
                for typing in extensions:
                    assert m_typing_leq(report.typing, typing)
            else:
                assert not extensions


class TestCycleSchema:
    """The two-type schema whose tc regions must flow into cycles."""

    @staticmethod
    def oracle(g):
        # Nodes with an infinite forward path, found by stripping dead ends.
        alive = set(g.nodes)
        changed = True
        while changed:
            changed = False
            for n in sorted(alive):
                if not any(m in alive for _, m in g.out_lab_node(n)):
                    alive.discard(n)
                    changed = True
        b_targets = {m for _, lab, m in g.edges if lab == "b"}
        return b_targets <= alive

    def test_pinned_examples(self):
        into_loop = Graph([("s", "b", "c"), ("c", "a", "c")])
        into_dead_end = Graph([("s", "b", "d")])
        no_b_edges = Graph([("p", "a", "q")])
        assert validate_multi(into_loop, S_CYCLE).valid
        assert not validate_multi(into_dead_end, S_CYCLE).valid
        assert validate_multi(no_b_edges, S_CYCLE).valid

    def test_exhaustive_tiny_graphs(self):
        for g in all_graphs(("x0",), ("a", "b")):
            assert validate_multi(g, S_CYCLE).valid == self.oracle(g)
        for g in all_graphs(("x0", "x1"), ("a", "b")):
            assert validate_multi(g, S_CYCLE).valid == self.oracle(g)

    def test_sampled_larger_graphs(self):
        rng = random.Random(23)
        for _ in range(80):
            g = random_graph(rng, ("x0", "x1", "x2"), ("a", "b"))
            assert validate_multi(g, S_CYCLE).valid == self.oracle(g)
        for _ in range(40):
            g = random_graph(rng, ("x0", "x1", "x2", "x3"), ("a", "b"))
            assert validate_multi(g, S_CYCLE).valid == self.oracle(g)


class TestTreesCollapseTheSemantics:
    """On trees a valid m-typing exists exactly when an s-typing does."""

    @staticmethod
    def random_tree(rng, size):
        edges = []
        for i in range(1, size):
            parent = rng.randrange(i)
            edges.append((f"v{parent}", rng.choice("ab"), f"v{i}"))
        return Graph(edges, [f"v{i}" for i in range(size)])

    @pytest.mark.parametrize("schema", [S0, S1, NONDET], ids=["s0", "s1", "nondet"])
    def test_verdicts_match(self, schema):
        rng = random.Random(5)
        for _ in range(25):
            tree = self.random_tree(rng, rng.randint(1, 5))
            multi = validate_multi(tree, schema).valid
            single = brute_force_single(tree, schema) is not None
            assert multi == single


class TestReportFormats:
    def test_parse_pretyping(self):
        text = "# roots\nbug1\tBugReport\nbug1\tUser\nemp1\tEmployee\n"
        assert parse_pretyping(text) == {
            "bug1": {"BugReport", "User"},
            "emp1": {"Employee"},
        }

    def test_parse_pretyping_rejects_bad_lines(self):
        from shexval.rbe import ParseError

        with pytest.raises(ParseError):
            parse_pretyping("just-a-node\n")
        with pytest.raises(ParseError):
            parse_pretyping("n\t\n")

    def test_report_lines(self, g2, s1):
        report = validate_multi(g2, s1)
        lines = report_lines(report)
        assert lines[0] == "TYPED\tn0\tt0"
        assert "TYPED\tn1\tt1" in lines
        assert "TYPED\tn1\tt2" in lines
        assert all(line.startswith("TYPED") for line in lines)

    def test_report_lines_failures_and_remaining(self):
        g = Graph([("x", "a", "y"), ("p", "a", "q"), ("q", "a", "p")])
        report = validate_multi(g, CHAIN, "flood", pre={"x": {"t"}})
        lines = report_lines(report)
        assert any(line.startswith("FAILED\t") for line in lines)
        assert "REMAINING\tp\ta\tq" in lines
        assert "REMAINING\tq\ta\tp" in lines

    def test_failures_empty_iff_valid(self, g2, s1, s0):
        valid = validate_multi(g2, s1)
        invalid = validate_multi(g2, s0)
        assert valid.valid and valid.failures == ()
        assert not invalid.valid and invalid.failures


GRAPH_STRATEGY = st.builds(
    Graph,
    st.lists(
        st.tuples(
            st.sampled_from(("y0", "y1", "y2")),
            st.sampled_from(("a", "b")),
            st.sampled_from(("y0", "y1", "y2")),
        ),
        max_size=8,
    ),
    st.just(("y0", "y1", "y2")),
)


@settings(max_examples=60, deadline=None)
@given(g=GRAPH_STRATEGY, schema_index=st.integers(min_value=0, max_value=1))
def test_flood_single_examines_each_edge_at_most_once(g, schema_index):
    # Deterministic schemas leave nothing to backtrack over.
    schema = (CHAIN, S1)[schema_index]
    first_type = sorted(schema.gamma)[0]
    report = flood_extension(
        g, schema, {"y0": {first_type}}, mode="single"
    )
    assert report.edges_examined <= len(g.edges)


@settings(max_examples=40, deadline=None)
@given(g=GRAPH_STRATEGY)
def test_fixpoint_round_budget(g):
    report = validate_multi(g, NONDET)
    assert report.iterations <= len(g.nodes) * len(NONDET.gamma) + 1


# Schemas for the driver equivalence test.  The products and the powerset
# have intersection rules, decided by their arithmetic encodings; the
# product of TOP_SCHEMA with itself has TOP on either side and on both.
# DET_REPEATED is deterministic, so its label bags are decided by the one
# typed bag each spells, which the interval algorithm cannot decide.
DRIVER_SCHEMAS = (
    S0,
    S1,
    S_CYCLE,
    EXACT_COVER,
    parse_schema(FIG2_TEXT),
    CHAIN,
    NONDET,
    LOOP,
    TOP_SCHEMA,
    intersect_schemas(CHAIN, NONDET),
    powerset_schema(NONDET),
    intersect_schemas(TOP_SCHEMA, TOP_SCHEMA),
    DET_REPEATED,
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_frontier_driver_matches_synchronous_rounds(data):
    schema = data.draw(st.sampled_from(DRIVER_SCHEMAS))
    labels = sorted(schema.sigma) or ["a", "b"]
    nodes = [f"y{i}" for i in range(data.draw(st.integers(1, 4)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(labels), st.sampled_from(nodes)
            ),
            max_size=10,
        )
    )
    g = Graph(edges, nodes)
    assert structure_filtered_init(g, schema) == per_node_structure_filtered_init(
        g, schema
    )
    assert_algorithms_match_the_reference(g, schema)


def test_structure_filtered_init_matches_the_projection_on_every_driver_schema():
    # Seeded graphs with repeated labels, so that label counts matter.
    rng = random.Random(11)
    for schema in DRIVER_SCHEMAS:
        labels = sorted(schema.sigma) or ["a", "b"]
        for _ in range(30):
            g = random_graph(rng, ["y0", "y1", "y2"], labels)
            assert structure_filtered_init(g, schema) == (
                per_node_structure_filtered_init(g, schema)
            )


def test_whole_graph_typings_come_in_node_order():
    rng = random.Random(13)
    for schema in DRIVER_SCHEMAS:
        labels = sorted(schema.sigma) or ["a", "b"]
        for _ in range(10):
            g = random_graph(rng, ["y2", "y10", "y0", "y1"], labels)
            order = list(g.sorted_nodes())
            assert list(structure_filtered_init(g, schema)) == order
            assert list(infer_types(g, schema)) == order
            for algo in admissible_algorithms(schema):
                assert list(validate_multi(g, schema, algo).typing) == order


def reference_flood_multi(g, schema, pre):
    """Multi-mode flooding as a plain loop over obligations: each one
    builds the typed bag of its node and asks for membership."""
    typing = {}
    queue = deque()
    seen = set()
    for n in sorted(pre):
        for t in sorted(pre[n]):
            queue.append((n, t))
            seen.add((n, t))
    examined = 0
    processed = 0
    failures = ()
    while queue:
        n, t = queue.popleft()
        processed += 1
        if schema.compiled[t].universal:
            typing.setdefault(n, set()).add(t)
            continue
        neighborhood = sorted(g.out_lab_node(n))
        examined += len(neighborhood)
        targets = schema.compiled[t].targets
        w = Counter()
        obligations = []
        for a, m in neighborhood:
            if a not in targets:
                failures = ((n, t, f"the rule uses no symbol with label {a}"),)
                break
            w[typed_symbol(a, targets[a][0])] += 1
            obligations.append((m, targets[a][0]))
        if not failures and not rule_member(schema, w, t):
            failures = ((n, t, "outbound neighborhood does not match the rule"),)
        if failures:
            break
        typing.setdefault(n, set()).add(t)
        for m, u in obligations:
            if u != TOP and (m, u) not in seen:
                seen.add((m, u))
                queue.append((m, u))
    report = ValidationReport(
        valid=not failures,
        typing={n: frozenset(ts) for n, ts in typing.items()},
        failures=failures,
        iterations=processed,
        algorithm="flood-multi",
        edges_examined=examined,
    )
    return replace(report, remaining_edges=remaining_edges(g, schema, report))


FLOOD_SCHEMAS = tuple(s for s in DRIVER_SCHEMAS if s.class_flags.deterministic)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flood_matches_per_obligation_reference(data):
    schema = data.draw(st.sampled_from(FLOOD_SCHEMAS))
    labels = sorted(schema.sigma) or ["a", "b"]
    nodes = [f"y{i}" for i in range(data.draw(st.integers(1, 5)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(labels), st.sampled_from(nodes)
            ),
            max_size=12,
        )
    )
    # The twin has the out-edges, and so the label bag, of another node but
    # no in-edges: it is reached only when the pre-typing names it.
    original = data.draw(st.sampled_from(nodes))
    edges += [("twin", a, m) for n, a, m in edges if n == original]
    g = Graph(edges, nodes + ["twin"])
    pre = data.draw(
        st.dictionaries(
            st.sampled_from(nodes + ["twin"]),
            st.sets(st.sampled_from(sorted(schema.gamma)), max_size=2),
            max_size=3,
        )
    )
    expected = reference_flood_multi(
        g, schema, {n: frozenset(ts) for n, ts in pre.items() if ts}
    )
    assert flood_extension(g, schema, pre, mode="multi") == expected


def reference_flood_single(g, schema, pre):
    """Single-mode flooding as a depth-first search that records its first
    failure through a closure and marks a search without success by a
    None typing."""
    agenda = [(n, t) for n in sorted(pre) for t in sorted(pre[n])]
    examined = 0
    processed = 0
    first_failure = []
    failure_typing = {}

    def fail(n, t, reason, lam):
        if not first_failure:
            first_failure.append((n, t, reason))
            failure_typing.update(lam)

    # trail[i] says how agenda item i was settled: None when its node
    # already had the type, the node when it took the universal type, or
    # the choice point [node, type, neighborhood, remaining picks, agenda
    # length before the pick's obligations, whether some pick matched].
    lam = {}
    trail = []
    point = None
    while True:
        if point is None:
            i = len(trail)
            if i == len(agenda):
                break
            n, t = agenda[i]
            processed += 1
            if n in lam:
                if lam[n] == t:
                    trail.append(None)
                    continue
                fail(n, t, f"node already typed {lam[n]}", lam)
            elif schema.compiled[t].universal:
                lam[n] = t
                trail.append(n)
                continue
            else:
                neighborhood = sorted(g.out_lab_node(n))
                examined += len(neighborhood)
                targets = schema.compiled[t].targets
                per_edge = [targets.get(a) for a, _ in neighborhood]
                unused = [
                    a
                    for (a, _), options in zip(neighborhood, per_edge)
                    if options is None
                ]
                if unused:
                    fail(n, t, f"the rule uses no symbol with label {unused[0]}", lam)
                else:
                    lam[n] = t
                    point = [
                        n, t, neighborhood, itertools.product(*per_edge),
                        len(agenda), False,
                    ]
        if point is not None:
            n, t, neighborhood, picks, base, _ = point
            del agenda[base:]
            for pick in picks:
                w = Counter(
                    typed_symbol(a, u) for (a, _), u in zip(neighborhood, pick)
                )
                if rule_member(schema, w, t):
                    point[5] = True
                    agenda.extend(
                        (m, u) for (_, m), u in zip(neighborhood, pick) if u != TOP
                    )
                    trail.append(point)
                    point = None
                    break
            else:
                del lam[n]
                if point[5]:
                    fail(n, t, "no consistent typing of the successors", lam)
                else:
                    fail(n, t, "outbound neighborhood does not match the rule", lam)
            if point is None:
                continue
        point = None
        while trail and point is None:
            entry = trail.pop()
            if isinstance(entry, list):
                point = entry
            elif entry is not None:
                del lam[entry]
        if point is None:
            lam = None
            break

    if lam is None:
        typing, failures = failure_typing, tuple(first_failure)
    else:
        typing, failures = lam, ()
    report = ValidationReport(
        valid=not failures,
        typing=typing,
        failures=failures,
        iterations=processed,
        algorithm="flood-single",
        edges_examined=examined,
    )
    return replace(report, remaining_edges=remaining_edges(g, schema, report))


SINGLE_FLOOD_SCHEMAS = tuple(s for s in DRIVER_SCHEMAS if s.class_flags.sorbe)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flood_single_matches_the_reference(data):
    # EXACT_COVER is nondeterministic, so the search backtracks there.
    schema = data.draw(st.sampled_from(SINGLE_FLOOD_SCHEMAS))
    labels = sorted(schema.sigma) or ["a", "b"]
    nodes = [f"y{i}" for i in range(data.draw(st.integers(1, 5)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(labels), st.sampled_from(nodes)
            ),
            max_size=12,
        )
    )
    original = data.draw(st.sampled_from(nodes))
    edges += [("twin", a, m) for n, a, m in edges if n == original]
    g = Graph(edges, nodes + ["twin"])
    pre = data.draw(
        st.dictionaries(
            st.sampled_from(nodes + ["twin"]),
            st.sets(st.sampled_from(sorted(schema.gamma)), max_size=2),
            max_size=3,
        )
    )
    expected = reference_flood_single(
        g, schema, {n: frozenset(ts) for n, ts in pre.items() if ts}
    )
    assert flood_extension(g, schema, pre, mode="single") == expected


def test_flood_single_reference_backtracks_on_the_cover_gadget(
    exact_cover_graph, exact_cover_schema
):
    # The gadget forces the search to undo picks before it finds the cover.
    pre = {"r": {"t0"}}
    report = flood_extension(exact_cover_graph, exact_cover_schema, pre, mode="single")
    assert report == reference_flood_single(
        exact_cover_graph, exact_cover_schema, {"r": frozenset({"t0"})}
    )
    assert report.valid
    assert report.iterations > len(report.typing)


def test_flood_decides_a_shared_label_bag_once_when_one_node_is_reached():
    # x and z have the same label bag; only x is reached, and it fails.
    g = Graph([("x", "a", "y"), ("x", "a", "w"), ("z", "a", "y"), ("z", "a", "w")])
    report = flood_extension(g, CHAIN, {"x": {"t"}})
    assert report == reference_flood_multi(g, CHAIN, {"x": frozenset({"t"})})
    assert report.failures == (
        ("x", "t", "outbound neighborhood does not match the rule"),
    )
    assert "z" not in report.typing


def fig2_graph_and_label_bags():
    s = parse_schema(FIG2_TEXT)
    g, pre = generate_graph(GenConfig(s, 300, seed=5))
    bags = {tuple(sorted(g.out_lab(n).items())) for n in g.nodes}
    return s, g, pre, len(bags)


def test_flooding_checks_each_label_bag_once_per_type(monkeypatch):
    s, g, pre, n_bags = fig2_graph_and_label_bags()
    calls = Counter()
    original = schema_module.member

    def counted(*args):
        calls["member"] += 1
        return original(*args)

    for module in (validate_module, schema_module):
        monkeypatch.setattr(module, "member", counted)
    report = flood_extension(g, s, pre)
    assert report.valid
    # One membership test per obligation would exceed the bound.
    assert report.iterations > len(s.gamma) * n_bags
    assert 0 < calls["member"] <= len(s.gamma) * n_bags


def test_cold_refine_tests_each_label_bag_once_per_type_in_round_one(monkeypatch):
    s, g, _, n_bags = fig2_graph_and_label_bags()
    per_call = []
    original = _RefineEngine._test

    def counted(self, *args):
        before = self.local_tests
        out = original(self, *args)
        per_call.append(self.local_tests - before)
        return out

    monkeypatch.setattr(_RefineEngine, "_test", counted)
    report = validate_multi(g, s, "refine")
    assert report.valid
    assert len(g.nodes) > n_bags
    assert 0 < per_call[0] <= len(s.gamma) * n_bags
    assert report.local_tests == sum(per_call)


def test_the_frontier_scans_forward_only_after_a_round_with_many_losses():
    # On fig2, round 1 by class takes types from every node, so round 2
    # goes forward by (label, target class) pair, finds nothing to re-test
    # and builds no inbound rows.
    s, g, _, _ = fig2_graph_and_label_bags()
    engine = _RefineEngine(g, s, "refine")
    assert engine.run()[1] == 2 and g._inbound is None
    # A chain failing from its tail loses one node per round, which the
    # graph's inbound rows find.
    chain = Graph(
        [(f"x{i:02}", "a", f"x{i + 1:02}") for i in range(20)] + [("x20", "b", "y")]
    )
    engine = _RefineEngine(chain, parse_schema("t -> a::t?\n"), "refine")
    masks, rounds = engine.run()
    assert rounds == 22 and chain._inbound is not None
    assert [n for n, types in zip(chain.sorted_nodes(), masks) if types] == ["y"]


def test_s_refine_reuses_the_label_bag_verdicts_of_refine(monkeypatch):
    s, g, _, _ = fig2_graph_and_label_bags()
    assert validate_multi(g, s, "refine").valid
    calls = Counter()
    original = validate_module.member

    def counted(*args):
        calls["member"] += 1
        return original(*args)

    for module in (validate_module, schema_module):
        monkeypatch.setattr(module, "member", counted)
    assert validate_multi(g, s, "s-refine").valid
    assert calls["member"] == 0


@pytest.mark.parametrize(
    "algo, extra_rounds",
    [("refine", 2), ("s-refine", 1), ("rbe0-refine", 2)],
)
def test_tail_failing_chain_retests_only_the_frontier(algo, extra_rounds):
    # Each round removes the type of one more node from the tail; the full
    # sweep re-tested every node every round, quadratic in the length.
    length = 2000
    g = Graph([(f"v{i}", "a", f"v{i + 1}") for i in range(length)])
    report = validate_multi(g, LOOP, algo)
    assert not report.valid
    assert all(not types for types in report.typing.values())
    assert report.iterations == length + extra_rounds
    assert report.local_tests <= 3 * length


def test_flood_single_settles_a_long_chain_without_recursion():
    length = 3000
    g = Graph([(f"v{i}", "a", f"v{i + 1}") for i in range(length)])
    report = flood_extension(g, LOOP, {"v0": {"t"}}, mode="single")
    assert not report.valid
    assert report.failures == (
        (f"v{length}", "t", "outbound neighborhood does not match the rule"),
    )
    assert report.iterations == length + 1
    assert report.edges_examined == length
    assert report.local_tests == 0
    assert len(report.typing) == length


def test_ilp_search_on_a_hub_needs_no_deep_recursion():
    # The rule is no symbol product and not deterministic, so the hub's
    # test is an ILP search whose depth grows with the number of edges.
    s = parse_schema("t -> (a::u | a::v)* , a::u\nu -> eps\nv -> eps\n")
    g = Graph([("h", "a", f"m{i}") for i in range(200)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 150)
    try:
        report = validate_multi(g, s, "refine")
    finally:
        sys.setrecursionlimit(limit)
    assert report.valid
    assert report.typing["h"] == {"t"}


RULE_ANALYSES = ("is_sorbe", "is_symbol_product", "normalize_product", "project_sigma")


def analysis_calls(monkeypatch, run) -> Counter:
    """Calls of the rule analyses, from any shexval module, during ``run``."""
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        for name in RULE_ANALYSES:
            original = getattr(rbe_ops, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("shexval") and (
                    getattr(module, name, None) is original
                ):
                    patch.setattr(module, name, counted)
        run()
    return calls


@pytest.mark.parametrize(
    "schema_text, algo",
    [
        (FIG2_TEXT, "refine"),
        (FIG2_TEXT, "s-refine"),
        (FIG2_TEXT, "flood"),
        (FIG2_TEXT, "flood-single"),
        (S1_TEXT, "rbe0-refine"),
    ],
    ids=["fig2-refine", "fig2-s-refine", "fig2-flood", "fig2-flood-single", "s1-rbe0"],
)
def test_rules_are_analysed_once_per_schema(monkeypatch, schema_text, algo):
    # Parsing compiles every rule; validation only reads the compiled
    # rules, so a graph ten times larger costs no further analyses.
    def calls(n_nodes):
        g, pre = generate_graph(
            GenConfig(parse_schema(schema_text), n_nodes, seed=7)
        )

        def run():
            s = parse_schema(schema_text)
            if algo == "flood-single":
                report = flood_extension(g, s, pre, mode="single")
            else:
                report = validate_multi(g, s, algo, pre)
            assert report.valid

        return analysis_calls(monkeypatch, run)

    small = calls(40)
    assert calls(400) == small
    assert small["is_sorbe"] > 0


# A nondeterministic symbol product: refine takes the general local test.
HUB_PRODUCT_TEXT = "t -> a::t* , a::u?\nu -> eps\n"


def hub_product_graph() -> Graph:
    # 30 hubs in a chain, each with 0 to 3 leaves; the last one's failing
    # successor x sends removals down the chain, round after round.
    edges = [(f"h{i}", "a", f"h{i + 1}") for i in range(29)]
    edges += [(f"h{i}", "a", f"m{i}.{j}") for i in range(30) for j in range(i % 4)]
    edges += [("h29", "a", "x"), ("x", "b", "y")]
    return Graph(edges)


def test_refine_reads_the_compiled_interval_products(monkeypatch):
    # Parsing computed each rule's interval product; validation decides
    # product rules by circulation on it and never analyses them again.
    s = parse_schema(HUB_PRODUCT_TEXT)
    assert s.compiled["t"].product and not s.class_flags.deterministic
    g = hub_product_graph()
    reports = []
    calls = analysis_calls(
        monkeypatch, lambda: reports.append(validate_multi(g, s, "refine"))
    )
    assert calls["normalize_product"] == 0
    (report,) = reports
    assert report.iterations > 3
    assert report.typing["m1.0"] == {"t", "u"}
    assert report.typing["x"] == report.typing["h0"] == frozenset()
    assert report.typing == validate_multi(g, s, "rbe0-refine").typing


# Nondeterministic and not single-occurrence: refine decides its rules by
# their arithmetic encodings.
NONDET_ILP_TEXT = """\
t0 -> (a::tc | a::t0)* , b::tc* , (c::t0 , d::t0)* , (c::tc , d::tc)*
tc -> (a::tc+ | b::tc) , a::t0* , b::tc* , (c::tc | d::t0)*
"""


def random_abcd_graph(n_nodes: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = {
        (f"n{i}", rng.choice("abcd"), f"n{rng.randrange(n_nodes)}")
        for i in range(n_nodes)
        for _ in range(rng.randint(0, 4))
    }
    return Graph(sorted(edges))


@pytest.mark.parametrize(
    "schemas",
    [
        lambda: [parse_schema(NONDET_ILP_TEXT)],
        lambda: [parse_schema(NONDET_ILP_TEXT), parse_schema(S1_TEXT)],
    ],
    ids=["nondet", "intersect"],
)
def test_refine_encodes_each_rule_once(monkeypatch, schemas):
    # Parsing analysed every rule; refine encodes a rule for the solver the
    # first time it needs the encoding and never again.  The rules of
    # intersect_schemas are expressions, encoded like any other.
    parts = schemas()
    s = parts[0] if len(parts) == 1 else intersect_schemas(*parts)
    g = random_abcd_graph(60 if len(parts) == 1 else 25, seed=3)
    encoded, encode = [], sat_core.encode_phi

    def counted_encode(e, system):
        encoded.append(e)
        return encode(e, system)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("shexval") and (
            getattr(module, "encode_phi", None) is encode
        ):
            monkeypatch.setattr(module, "encode_phi", counted_encode)
    reports = []
    calls = analysis_calls(
        monkeypatch, lambda: reports.append(validate_multi(g, s, "refine"))
    )
    (report,) = reports
    rules = [rule.expr for rule in s.compiled.values() if not rule.universal]
    assert calls["normalize_product"] == 0
    assert encoded and all(sum(e is r for e in encoded) <= 1 for r in rules)
    assert all(any(e is r for r in rules) for e in encoded)
    assert report.local_tests > 2 * len(rules)


product_rule_st = st.lists(
    st.builds(
        Symbol,
        st.sampled_from(["a::t", "a::u", "b::t", "b::u"]),
        st.sampled_from(
            [ONCE, OPT, SOME, Interval(0, None), Interval(2, 3), Interval(0, 0), EMPTY]
        ),
    ),
    max_size=4,
).map(lambda symbols: concat(*symbols))
# Labels and type sets outside the rules, and empty type sets, drawn less
# often: any of them decides the test alone.
neighborhood_st = st.dictionaries(
    st.tuples(
        st.sampled_from("aaabbbc"),
        st.sampled_from(["t", "u", "tu", "t", "u", "tu", ""]).map(frozenset),
    ),
    st.integers(1, 3),
    max_size=4,
).map(Counter)


@settings(max_examples=300, deadline=None)
@given(product_rule_st, neighborhood_st)
def test_product_rules_decide_like_the_flattening_intersection(rule, neighborhood):
    # A count above one repeats a (label, types) entry; an empty type set
    # has no flattening, and flatten() rejects it.
    s = parse_schema(f"t -> {format_rbe(rule)}\nu -> eps\n")
    for t in ("t", "u"):
        compiled = s.compiled[t]
        assert compiled.product
        expected = all(types for _, types in neighborhood) and inter1(
            flatten(neighborhood), compiled.expr
        )
        assert _some_flattening_member(s, neighborhood, t) == expected


def _fig2_case():
    s = parse_schema(FIG2_TEXT)
    g, pre = generate_graph(GenConfig(s, 300, seed=5))
    return s, g, pre, ("refine", "s-refine")


def _nondet_case():
    return parse_schema(NONDET_ILP_TEXT), random_abcd_graph(300, 3), None, ("refine",)


def _product_case():
    s = parse_schema(HUB_PRODUCT_TEXT)
    return s, hub_product_graph(), None, ("refine", "rbe0-refine")


@pytest.mark.parametrize(
    "case", [_fig2_case, _nondet_case, _product_case], ids=["fig2", "nondet", "rbe0"]
)
def test_validating_a_parsed_graph_never_builds_its_edge_set(monkeypatch, case):
    # A parsed graph holds only its successor index; flooding (on the
    # deterministic schema), every refinement and the reports read that
    # index alone.
    s, built, pre, algos = case()
    parsed = parse_graph(format_graph(built))
    reads = count_edge_set_reads(monkeypatch)

    def reports(g):
        out = [validate_multi(g, s, algo) for algo in algos]
        # A refinement that removed pairs read the inbound edges.
        assert out[0].iterations > 1
        if pre is not None:
            out.append(flood_extension(g, s, pre, mode="multi"))
        return out

    of_parsed = reports(parsed)
    assert reads == []
    assert of_parsed == reports(built)


# Families for the counted bounds of refinement and flooding.  Each builds
# (schema text, graph, pre-typing) at a size given in edges (nodes for the
# distinct label bags); the pre-typing is None where no flood applies.
HUB_TEXT = "t -> a::u*\nu -> a::t\n"
K_STAR_TEXT = "t -> (a::u | a::v)* , a::u\nu -> eps\nv -> eps\n"
# Deterministic single-occurrence symbol products over twelve labels.  t
# admits every label bag; u does not use l11, so the nodes with an l11-edge
# lose u, then their predecessors, round after round.
DISTINCT_TEXT = (
    "t -> " + " , ".join(f"l{i}::t?" for i in range(12)) + "\n"
    "u -> " + " , ".join(f"l{i}::u?" for i in range(11)) + "\n"
)


def chain_family(size):
    edges = [(f"v{i}", "a", f"v{i + 1}") for i in range(size)]
    return "t -> a::t\n", Graph(edges), {"v0": {"t"}}


def out_hub_family(size):
    return HUB_TEXT, Graph([("h", "a", f"m{i}") for i in range(size)]), {"h": {"t"}}


def in_hub_family(size):
    g = Graph([(f"m{i}", "a", "h") for i in range(size)])
    return HUB_TEXT, g, {f"m{i}": {"u"} for i in range(size)}


def k_star_family(size):
    return K_STAR_TEXT, Graph([("h", "a", f"m{i}") for i in range(size)]), None


def distinct_bags_family(size):
    # Odd multipliers permute the 4096 label subsets, so no two of the
    # nodes share a label bag.
    rng = random.Random(size)
    edges = [
        (f"n{i}", f"l{j}", f"n{rng.randrange(size)}")
        for i in range(size)
        for j in range(12)
        if (i * 1597) % 4096 >> j & 1
    ]
    return DISTINCT_TEXT, Graph(edges, [f"n{i}" for i in range(size)]), {"n1": {"t"}}


BOUND_CASES = [
    pytest.param(family, size, id=f"{family.__name__[:-7]}-{size}")
    for family, sizes in [
        (chain_family, (100, 400, 1600)),
        (out_hub_family, (100, 400, 1600)),
        (in_hub_family, (100, 400, 1600)),
        (k_star_family, (10, 40, 160)),
        (distinct_bags_family, (200, 800, 3200)),
    ]
    for size in sizes
]
FLOOD_BOUND_CASES = [case for case in BOUND_CASES if case.values[0] is not k_star_family]


@pytest.mark.parametrize("family, size", BOUND_CASES)
def test_refinement_stays_within_its_counted_bounds(family, size):
    # Round 1 tests every type of one node per label-bag class (s-refine:
    # of every node); a later test of (n, t) follows the loss of a type u
    # at a successor of n, and each (successor, u) is lost once.
    text, g, _ = family(size)
    s = parse_schema(text)
    n_types, n_edges = len(s.gamma), len(g.edges)
    for algo in admissible_algorithms(s):
        report = validate_multi(g, s, algo)
        first = len(g.nodes) if algo == "s-refine" else len(g.successor_rows().keys)
        assert report.iterations <= len(g.nodes) * n_types + 1
        assert report.local_tests <= n_types * first + n_types**2 * n_edges


@pytest.mark.parametrize("family, size", FLOOD_BOUND_CASES)
def test_flooding_stays_within_its_counted_bounds(monkeypatch, family, size):
    # Multi mode scans a node's edges once per type it takes and decides
    # each label bag once per type; single mode on a deterministic
    # single-occurrence schema makes no choice, so it scans each edge once.
    text, g, pre = family(size)
    s = parse_schema(text)
    assert s.class_flags.deterministic and s.class_flags.sorbe
    calls = Counter()
    original = schema_module.member

    def counted(*args):
        calls["member"] += 1
        return original(*args)

    for module in (validate_module, schema_module):
        monkeypatch.setattr(module, "member", counted)
    report = flood_extension(g, s, pre, mode="multi")
    assert 0 < report.edges_examined <= len(s.gamma) * len(g.edges)
    assert 0 < calls["member"] <= len(s.gamma) * len(g.successor_rows().keys)
    report = flood_extension(g, s, pre, mode="single")
    assert 0 < report.edges_examined <= len(g.edges)


@pytest.mark.parametrize("family, size", FLOOD_BOUND_CASES)
def test_single_mode_flooding_decides_each_label_bag_once_per_type(
    monkeypatch, family, size
):
    # On a deterministic schema the one pick of an obligation is decided
    # by the label-bag verdicts, which single mode shares between nodes.
    text, g, pre = family(size)
    s = parse_schema(text)
    calls = Counter()
    original = schema_module.member

    def counted(*args):
        calls["member"] += 1
        return original(*args)

    for module in (validate_module, schema_module):
        monkeypatch.setattr(module, "member", counted)
    report = flood_extension(g, s, pre, mode="single")
    assert report.iterations > 0
    assert 0 < calls["member"] <= len(s.gamma) * len(g.successor_rows().keys)


def test_flood_single_takes_a_universal_type_whatever_its_edges():
    # {TOP} of a powerset is universal, though not named TOP.
    s = powerset_schema(parse_schema("t -> a::TOP , b::t?\n"))
    assert s.class_flags.sorbe
    g = Graph([("x", "a", "y"), ("x", "c", "y")])
    report = flood_extension(g, s, {"x": {"{TOP}"}}, mode="single")
    assert report.valid
    assert report.typing == {"x": "{TOP}"}


def reference_key(neighborhood):
    """A key of the neighborhood bag that ignores the order in which its
    edges were listed: its entries as sorted tuples."""
    return tuple(
        sorted((a, tuple(sorted(types)), c) for (a, types), c in neighborhood.items())
    )


def named_shape(schema, shape):
    """A general-memo key's bag, the sorted tuple of its (label, mask)
    pairs with repeats, as a bag of (label, type names) pairs."""
    return Counter((a, schema.type_sets[types]) for a, types in shape)


def is_projected(schema, t, neighborhood):
    """Whether every (label, type set) of the bag is non-empty and holds
    only types that t's rule mentions under the label."""
    targets = schema.compiled[t].targets
    return all(
        types and types <= set(targets.get(a, ())) for (a, types) in neighborhood
    )


def test_refine_decides_each_type_and_neighborhood_bag_once(monkeypatch):
    # A node's neighborhood lists its edges in the order of its successor
    # set, so equal bags reach the test in different orders.  The solver
    # sees only projected bags; the memo also keeps the raw bags.
    s = parse_schema("t -> (a::t | a::u)* , b::u*\nu -> a::t?\n")
    rng = random.Random(5)
    g = Graph(
        (f"n{i}", rng.choice("ab"), f"n{rng.randrange(300)}")
        for i in range(300)
        for _ in range(rng.randint(0, 4))
    )
    decided = []
    original = validate_module._some_flattening_member

    def recorded(schema, neighborhood, t):
        assert is_projected(schema, t, neighborhood)
        decided.append((t, reference_key(neighborhood)))
        return original(schema, neighborhood, t)

    monkeypatch.setattr(validate_module, "_some_flattening_member", recorded)
    report = validate_multi(g, s, "refine")
    assert report.iterations > 2
    # Deciding the raw bags took 103 solver calls.
    assert 20 < len(decided) == len(set(decided)) < 103
    memo = s._derived["refine:memo:general"]
    assert {
        (t, reference_key(named_shape(s, shape)))
        for t, shape in memo
        if is_projected(s, t, named_shape(s, shape))
    } == set(decided)


def _general_engine(schema, neighborhoods):
    """A refine engine over one node per neighborhood, each with fresh
    successors typed as the neighborhood says; that typing as the engine
    holds it, a mask per node position; and the positions of the nodes
    x0, x1, ... that own the neighborhoods."""
    edges, typing = [], {}
    for i, neighborhood in enumerate(neighborhoods):
        typing[f"x{i}"] = frozenset(schema.gamma)
        for j, ((a, types), count) in enumerate(neighborhood.items()):
            for k in range(count):
                m = f"m{i}_{j}_{k}"
                edges.append((f"x{i}", a, m))
                typing[m] = types
    g = Graph(edges, typing)
    order = g.sorted_nodes()
    return (
        _RefineEngine(g, schema, "refine"),
        [schema.mask(typing[n]) for n in order],
        [order.index(f"x{i}") for i in range(len(neighborhoods))],
    )


def test_refine_decides_neighborhoods_equal_under_projection_once(monkeypatch):
    # The successors differ only in a type t's rule does not mention under
    # a: v, and t itself.
    s = parse_schema("t -> (a::u | a::w)+\nu -> eps\nv -> eps\nw -> eps\n")
    engine, typing, (x0, x1) = _general_engine(
        s,
        [
            Counter({("a", frozenset("uv")): 1}),
            Counter({("a", frozenset("ut")): 1}),
        ],
    )
    calls = Counter()
    original = validate_module._some_flattening_member

    def counted(schema, neighborhood, t):
        calls[t] += 1
        return original(schema, neighborhood, t)

    monkeypatch.setattr(validate_module, "_some_flattening_member", counted)
    t = s.bits["t"]
    assert engine._test([(x0, t), (x1, t)], typing) == {}
    assert calls == {"t": 1}
    # Two raw bags and their one projection.
    assert sorted(
        reference_key(named_shape(s, shape)) for _, shape in engine._memo
    ) == [(("a", ("t", "u"), 1),), (("a", ("u",), 1),), (("a", ("u", "v"), 1),)]


def test_refine_sorts_the_projected_pairs_of_a_memo_key(monkeypatch):
    # Bits t, u, v, w = 1, 2, 4, 8; t's rule mentions u and v under a.
    # x0's pairs (a, {u,v}) < (a, {u,w}) project to (a, {u,v}) and
    # (a, {u}), x1's bag in the other order: one projected bag, one call.
    s = parse_schema("t -> (a::u | a::v)+\nu -> eps\nv -> eps\nw -> eps\n")
    engine, typing, (x0, x1) = _general_engine(
        s,
        [
            Counter({("a", frozenset("uv")): 1, ("a", frozenset("uw")): 1}),
            Counter({("a", frozenset("u")): 1, ("a", frozenset("uv")): 1}),
        ],
    )
    calls = Counter()
    original = validate_module._some_flattening_member

    def counted(schema, neighborhood, t):
        calls[t] += 1
        return original(schema, neighborhood, t)

    monkeypatch.setattr(validate_module, "_some_flattening_member", counted)
    t = s.bits["t"]
    assert engine._test([(x0, t), (x1, t)], typing) == {}
    assert calls == {"t": 1}
    assert len(engine._memo) == 2

def test_refine_fails_a_group_the_projection_empties_without_the_solver(
    monkeypatch,
):
    # Under a, t's rule mentions u only; c it does not use at all.
    s = parse_schema("t -> (a::u | b::v)* , b::u?\nu -> eps\nv -> eps\n")
    engine, typing, (x0, x1) = _general_engine(
        s,
        [
            Counter({("a", frozenset("u")): 1, ("a", frozenset("v")): 1}),
            Counter({("c", frozenset("tuv")): 2}),
        ],
    )
    calls = Counter()

    def counted(schema, neighborhood, t):
        calls[t] += 1
        return True

    monkeypatch.setattr(validate_module, "_some_flattening_member", counted)
    t = s.bits["t"]
    assert engine._test([(x0, t), (x1, t)], typing) == {x0: t, x1: t}
    assert calls == {}
    # Only the raw bags are kept, each failing.
    assert len(engine._memo) == 2 and not any(engine._memo.values())


def test_refine_adds_the_counts_of_entries_the_projection_merges():
    # Both a-edges project to (a, {u}), and t allows one a-edge.
    s = parse_schema("t -> a::u? , (b::t | b::v)*\nu -> eps\nv -> eps\n")
    neighborhood = Counter({("a", frozenset("u")): 1, ("a", frozenset("uv")): 1})
    engine, typing, (x0,) = _general_engine(s, [neighborhood])
    t = s.bits["t"]
    assert engine._lost_general(x0, t, typing) == t
    assert ("t", (("a", s.bits["u"]), ("a", s.bits["u"]))) in engine._memo


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_projected_verdicts_match_the_raw_flattening_test(data):
    schema = data.draw(st.sampled_from(DRIVER_SCHEMAS))
    testable = sorted(t for t in schema.gamma if not schema.compiled[t].universal)
    t = data.draw(st.sampled_from(testable))
    # A label outside the schema and empty type sets are drawn less often.
    labels = sorted(schema.sigma) * 3 + ["zz"]
    type_sets = st.frozensets(
        st.sampled_from(sorted(schema.gamma)), min_size=1
    ) | st.just(frozenset())
    neighborhood = Counter(
        data.draw(
            st.dictionaries(
                st.tuples(st.sampled_from(labels), type_sets),
                st.integers(1, 3),
                max_size=4,
            )
        )
    )
    engine, typing, (x0,) = _general_engine(schema, [neighborhood])
    engine._memo = {}
    expected = _some_flattening_member(schema, neighborhood, t)
    # Cold: decided on the projection; warm: read under the raw bag.
    bit = schema.bits[t]
    for _ in range(2):
        assert engine._lost_general(x0, bit, typing) == (0 if expected else bit)


def test_flood_counts_nodes_sent_to_top_as_reached():
    # z is reached only through the extra::TOP edge, which TOP accepts.
    g = Graph([("x", "a", "y"), ("x", "extra", "z")])
    pre = {"x": {"t"}}
    assert validate_multi(g, TOP_SCHEMA, "refine").valid
    multi = validate_multi(g, TOP_SCHEMA, "flood", pre)
    single = validate_single(g, TOP_SCHEMA, "flood", pre)
    assert multi.valid and single.valid
    assert multi.typing == lift(single.typing) == {
        "x": frozenset({"t"}),
        "y": frozenset({"u"}),
    }
    assert multi.typing == flood_extension(g, TOP_SCHEMA, pre).typing


def test_multi_mode_flooding_takes_a_universal_type_whatever_its_edges():
    # t is universal though not named TOP, so y's b-edge is no obligation.
    s = Schema({"t": UNIVERSAL, "u": parse_rbe("a::t")})
    assert s.class_flags.deterministic and s.class_flags.sorbe
    g = Graph([("x", "a", "y"), ("y", "b", "z")])
    single = flood_extension(g, s, {"x": {"u"}}, mode="single")
    report = flood_extension(g, s, {"x": {"u"}}, mode="multi")
    assert report.valid
    assert report.typing == lift(single.typing) == {
        "x": frozenset({"u"}),
        "y": frozenset({"t"}),
    }
    report = validate_multi(g, s, "flood", {"x": {"u"}})
    assert report.failures == (("z", "-", "not reached from the pre-typing"),)
    # x holding t alone reaches none of its successors either.
    unreached = tuple((n, "-", "not reached from the pre-typing") for n in "yz")
    for validate in (validate_multi, validate_single):
        report = validate(g, s, "flood", {"x": {"t"}})
        assert report.failures == unreached


def test_typings_hold_one_set_object_per_distinct_type_set():
    # Typings are built from masks, and each distinct mask is named by one
    # frozenset that every node holding it shares.  fig2's Employee rule
    # is no symbol product, so rbe0-refine runs on S1.
    s = parse_schema(FIG2_TEXT)
    g, pre = generate_graph(GenConfig(s, 5000, seed=7))
    g_s1 = generate_graph(GenConfig(S1, 300, seed=7))[0]
    typings = [
        flood_extension(g, s, pre).typing,
        infer_types(g, s),
        structure_filtered_init(g, s),
        validate_multi(g, s, "refine").typing,
        validate_multi(g, s, "s-refine").typing,
        validate_multi(g_s1, S1, "rbe0-refine").typing,
    ]
    for typing in typings:
        assert len(typing) > 300
        assert len({id(v) for v in typing.values()}) == len(set(typing.values()))


def test_general_memo_keys_hold_masks_not_type_sets():
    s = parse_schema(NONDET_ILP_TEXT)
    validate_multi(random_abcd_graph(300, 3), s, "refine")
    memo = s._derived["refine:memo:general"]
    assert memo
    for t, shape in memo:
        assert t in s.gamma
        assert list(shape) == sorted(shape)
        assert all(isinstance(a, str) and type(types) is int for a, types in shape)



def _benchmark_inputs():
    """The benchmark's seeded input builders (``perfbench/inputs.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_cold_refine_of_the_nondet_benchmark_input_counts_its_solver_calls(
    monkeypatch,
):
    # The nondet-ilp input at seed 7: the solver calls and general memo
    # entries of one cold refine, each counted, not timed.
    case = _benchmark_inputs().nondet_input(7, 5_000)
    s = parse_schema(case.schema_text)
    calls = 0
    solve = sat_core.ilp_feasible

    def counted(*args, **options):
        nonlocal calls
        calls += 1
        return solve(*args, **options)

    monkeypatch.setattr(sat_core, "ilp_feasible", counted)
    report = validate_multi(parse_graph(case.graph_text), s, "refine")
    assert report.valid == case.expect.valid
    assert calls == 346
    assert len(s._derived["refine:memo:general"]) == 807


def count_view_builds(monkeypatch, untouched_pair_numbers=False) -> Counter:
    """Counts the builds of the graph's kept views by name: the successor
    rows, the inbound rows and the edge pairs.  With
    ``untouched_pair_numbers``, the per-edge pair numbers fail on any
    read, so that a run which visits no edge by pair shows it."""
    builds: Counter = Counter()
    index_positions = Graph._index_positions

    def rows_counted(graph):
        builds["rows"] += 1
        index_positions(graph)

    monkeypatch.setattr(Graph, "_index_positions", rows_counted)

    class Untouched:
        def visited(self, *args):
            raise AssertionError("an edge was visited by its pair number")

        __len__ = __iter__ = __getitem__ = visited

    def counted(name, build):
        def run(rows):
            builds[name] += 1
            view = build(rows)
            if name == "pairs" and untouched_pair_numbers:
                view = view._replace(numbers=Untouched())
            return view

        return run

    for name, builder in (("inbound", "_inbound_rows"), ("pairs", "_edge_pairs")):
        monkeypatch.setattr(
            graph_module, builder, counted(name, getattr(graph_module, builder))
        )
    return builds


def test_fig2_round_two_builds_no_inbound_rows_and_visits_no_edge(monkeypatch):
    # Round 1 by class takes types from every node of the fig2 benchmark
    # input, but no rule names a type its edge's target lost, so every
    # (label, target class) pair affects nothing.
    case = _benchmark_inputs().fig2_input(7, 5_000)
    g, s = parse_graph(case.graph_text), parse_schema(case.schema_text)
    builds = count_view_builds(monkeypatch, untouched_pair_numbers=True)
    for _ in ("cold", "warm"):
        report = validate_multi(g, s, "refine")
        assert report.valid and report.iterations == 2
        assert builds == {"rows": 1, "pairs": 1}
        assert g._inbound is None


def test_a_warm_refine_builds_no_view_of_the_graph_again(monkeypatch):
    # The nondet-ilp input at seed 7 takes round 2 by pair and the later
    # rounds backward, so its first refine builds both views; the counts
    # of the cold run are those of the parent driver.
    case = _benchmark_inputs().nondet_input(7, 5_000)
    g, s = parse_graph(case.graph_text), parse_schema(case.schema_text)
    builds = count_view_builds(monkeypatch)
    calls = 0
    solve = sat_core.ilp_feasible

    def counted(*args, **options):
        nonlocal calls
        calls += 1
        return solve(*args, **options)

    monkeypatch.setattr(sat_core, "ilp_feasible", counted)
    cold = validate_multi(g, s, "refine")
    assert (cold.iterations, cold.local_tests) == (9, 3632)
    assert calls == 346 and len(s._derived["refine:memo:general"]) == 807
    assert builds == {"rows": 1, "inbound": 1, "pairs": 1}
    warm = validate_multi(g, s, "refine")
    assert (warm.iterations, warm.local_tests) == (9, 3632)
    assert calls == 346 and len(s._derived["refine:memo:general"]) == 807
    assert builds == {"rows": 1, "inbound": 1, "pairs": 1}
    assert report_lines(warm) == report_lines(cold)


@pytest.mark.parametrize("algo", ["refine", "s-refine", "rbe0-refine"])
def test_the_chain_builds_its_inbound_rows_once_across_a_cold_and_a_warm_run(
    monkeypatch, algo
):
    # Round 1 takes the type of the tail only, so every round goes
    # backward and the pair numbers are never built.
    g = Graph([(f"v{i}", "a", f"v{i + 1}") for i in range(50)])
    builds = count_view_builds(monkeypatch)
    s = parse_schema("t -> a::t\n")
    for _ in ("cold", "warm"):
        report = validate_multi(g, s, algo)
        assert not report.valid and report.iterations == 51 + (algo != "s-refine")
        assert builds == {"rows": 1, "inbound": 1}


def test_a_flood_builds_only_the_rows_and_a_refine_after_it_none(monkeypatch):
    # A flood on a fresh graph builds the successor rows only; the refine
    # that follows finds the rows built, and a warm flood builds nothing.
    case = _benchmark_inputs().fig2_input(7, 500)
    g, s = parse_graph(case.graph_text), parse_schema(case.schema_text)
    builds = count_view_builds(monkeypatch)
    cold = flood_extension(g, s, case.pre)
    assert cold.valid and len(cold.typing) == len(g.nodes)
    assert builds == {"rows": 1}
    assert g._inbound is None and g._pairs is None
    assert list(cold.typing) == list(g.sorted_nodes())
    refined = validate_multi(g, parse_schema(case.schema_text), "refine")
    assert refined.valid and builds["rows"] == 1
    after_refine = builds.copy()
    warm = flood_extension(g, s, case.pre)
    assert builds == after_refine
    assert report_lines(warm) == report_lines(cold)
    assert warm.iterations == cold.iterations
    assert warm.edges_examined == cold.edges_examined


# Two failing successors of one pre-typed node: the flood reports the one
# its node's row lists first, by label and then by target name.
FAILING_SUCCESSORS = parse_schema("t -> a::u* , b::u*\nu -> c::u\n")


@pytest.mark.parametrize(
    "edges, first",
    [
        # By label: the a-target fails first, though its name sorts last.
        ([("x", "b", "y"), ("x", "a", "z")], "z"),
        # By target name under one label: m10 sorts before m2.
        ([("x", "a", "m2"), ("x", "a", "m10")], "m10"),
    ],
    ids=["label-a-before-b", "m10-before-m2"],
)
def test_flood_reports_the_first_failing_successor_in_row_order(edges, first):
    # w and v hold u on a c-cycle: the flood types w, x and then v before
    # the failure, and its typing lists them in node order.
    g = Graph(edges + [("w", "c", "v"), ("v", "c", "w")])
    pre = {"x": {"t"}, "w": {"u"}}
    report = flood_extension(g, FAILING_SUCCESSORS, pre)
    reason = "outbound neighborhood does not match the rule"
    assert report.failures == ((first, "u", reason),)
    assert report == reference_flood_multi(
        g, FAILING_SUCCESSORS, {n: frozenset(ts) for n, ts in pre.items()}
    )
    assert list(report.typing) == ["v", "w", "x"]
    order = iter(g.sorted_nodes())
    assert all(n in order for n in report.typing)


def reference_round_two(g, schema, lost_by_class, current):
    """The pairs to re-test after round 1 by class, by a scan of every
    edge: (n, t) where n still holds t, and t's rule uses the edge's label
    with a type the edge's target lost."""
    order = g.sorted_nodes()
    keys = list(g.successor_rows().keys)
    sets = schema.type_sets
    work = {}
    for i, n in enumerate(order):
        for a, m in g.out_lab_node(n):
            gone = sets[lost_by_class[keys.index(tuple(sorted(g.out_lab(m).items())))]]
            for t in sets[current[i]]:
                rule = schema.compiled[t]
                if not rule.universal and gone & set(rule.targets.get(a, ())):
                    work[i] = work.get(i, 0) | schema.bits[t]
    return work


@pytest.mark.parametrize("deterministic", [True, False])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_round_two_by_pair_matches_a_per_edge_scan(deterministic, data):
    schema = data.draw(
        st.sampled_from(
            [s for s in DRIVER_SCHEMAS if s.class_flags.deterministic == deterministic]
        )
    )
    labels = sorted(schema.sigma) or ["a", "b"]
    nodes = [f"y{i}" for i in range(data.draw(st.integers(1, 6)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(labels), st.sampled_from(nodes)
            ),
            max_size=14,
        )
    )
    g = Graph(edges, nodes)
    engine = _RefineEngine(g, schema, "refine")
    current, lost_by_class = engine._first_round_by_class(sum(schema.bits.values()))
    expected = reference_round_two(g, schema, lost_by_class, current)
    # Both directions, whichever the driver picks.
    assert engine._pair_frontier(lost_by_class, current) == expected
    per_node = {
        i: lost_by_class[c] for i, c in enumerate(g.successor_rows().classes)
        if lost_by_class[c]
    }
    assert engine._frontier(per_node, current) == expected
    chosen = engine._class_frontier(lost_by_class, current)
    assert chosen == (expected if any(lost_by_class) else None)

# Schemas wider than a machine word, so that masks hold bits 64 and up.
# WIDE is deterministic, single-occurrence and made of symbol products,
# so every refinement algorithm and multi-mode flooding run on it.  Most
# of its rules are nullable, so nodes keep many types, the high ones
# among them, and lose them through the rules with a mandatory a-edge.
# POWER7, the powerset of a 7-type schema, has 127 types and intersection
# rules, which only refine decides.
WIDE = parse_schema(
    "".join(
        f"w{i:02} -> c::w{(i + 65) % 80:02}* , a::w{(i + 3) % 80:02}\n"
        if i % 5 == 0
        else f"w{i:02} -> a::w{(i + 1) % 80:02}? , b::w{(i + 67) % 80:02}?\n"
        for i in range(80)
    )
)
POWER7 = powerset_schema(
    parse_schema(
        "p0 -> a::p1? , b::p2*\np1 -> a::p0 | b::p5\np2 -> b::p3?\n"
        "p3 -> a::p6*\np4 -> eps\np5 -> b::p4\np6 -> eps\n"
    )
)
# Small graphs on which WIDE's types above bit 63 are kept, lost and
# re-tested.
WIDE_GRAPHS = (
    [("y0", "a", "y1")],
    [("y0", "a", "y1"), ("y1", "a", "y2"), ("y2", "b", "y0")],
    [("y0", "c", "y1"), ("y0", "a", "y0"), ("y1", "a", "y2"), ("y1", "b", "y1")],
    [("y0", "a", "y1"), ("y0", "b", "y2"), ("y2", "a", "y2")],
)


def wide_graph(data, labels, max_nodes):
    nodes = [f"y{i}" for i in range(data.draw(st.integers(1, max_nodes)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(labels), st.sampled_from(nodes)
            ),
            max_size=2 * max_nodes,
        )
    )
    return Graph(edges, nodes), nodes


def assert_wide_flood_matches_the_reference(g, pre):
    expected = reference_flood_multi(
        g, WIDE, {n: frozenset(ts) for n, ts in pre.items() if ts}
    )
    assert flood_extension(g, WIDE, pre, mode="multi") == expected


@pytest.mark.parametrize("edges", WIDE_GRAPHS)
def test_masks_past_bit_63_on_fixed_graphs(edges):
    assert len(WIDE.gamma) == 80 and len(POWER7.gamma) == 127
    for schema in (WIDE, POWER7):
        assert max(schema.bits.values()).bit_length() == len(schema.gamma)
    assert WIDE.class_flags == type(WIDE.class_flags)(True, True, True)
    g = Graph(edges)
    typing = infer_types(g, WIDE)
    assert any(WIDE.bits[t] >> 64 for types in typing.values() for t in types)
    assert_algorithms_match_the_reference(g, WIDE)
    for t in sorted(WIDE.gamma)[60:]:
        assert_wide_flood_matches_the_reference(g, {"y0": {t}})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_refinement_and_flooding_on_a_schema_wider_than_a_word(data):
    g, nodes = wide_graph(data, ["a", "b", "c"], 4)
    assert structure_filtered_init(g, WIDE) == per_node_structure_filtered_init(
        g, WIDE
    )
    assert_algorithms_match_the_reference(g, WIDE)
    high = sorted(WIDE.gamma)[60:]
    pre = data.draw(
        st.dictionaries(
            st.sampled_from(nodes), st.sets(st.sampled_from(high), max_size=3),
            max_size=3,
        )
    )
    assert_wide_flood_matches_the_reference(g, pre)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_general_refinement_on_a_127_type_powerset(data):
    g, _ = wide_graph(data, ["a", "b"], 3)
    report = validate_multi(g, POWER7, "refine")
    assert (report.typing, report.iterations) == reference_refinement(
        g, POWER7, "refine"
    )


# Schemas for the report views: TOP and a universal type under another
# name, so some nodes hold only universal types, a rule no node can keep
# (empty sets), and a nondeterministic one, which floods reject.
REPORT_SCHEMAS = (
    CHAIN,
    TOP_SCHEMA,
    LOOP,
    NONDET,
    Schema({"t": UNIVERSAL, "u": parse_rbe("a::t , b::TOP?")}),
)


def reference_reach_failures(g, s, typing):
    """The nodes a successful flood leaves unreached, by name: neither
    typed nor a successor of a node holding a non-universal type."""
    universal = {t for t, rule in s.compiled.items() if rule.universal}
    reached = set(typing)
    for n, value in typing.items():
        if not types_of(value) <= universal:
            reached.update(m for _, m in g.out_lab_node(n))
    return tuple(
        (n, "-", "not reached from the pre-typing") for n in sorted(g.nodes - reached)
    )


def reference_reports(g, s, pre):
    """Per run, its report and the typing and failures that the name-based
    references give for it."""
    runs = []
    for algo in admissible_algorithms(s):
        typing, _ = reference_refinement(g, s, algo)
        failures = tuple(
            (n, "-", "no type survives refinement")
            for n in sorted(n for n, types in typing.items() if not types)
        )
        runs.append((validate_multi(g, s, algo), typing, failures))
    found = brute_force_multi(g, s)
    runs.append((validate_multi(g, s, "brute"), found or {}, report_failures(found, "m")))
    found = brute_force_single(g, s)
    runs.append(
        (validate_single(g, s, "brute"), found or {}, report_failures(found, "s"))
    )
    checked = {n: frozenset(ts) for n, ts in pre.items() if ts}
    floods = []
    if s.class_flags.deterministic:
        floods.append((reference_flood_multi(g, s, checked), validate_multi, "multi"))
    if s.class_flags.sorbe:
        floods.append((reference_flood_single(g, s, checked), validate_single, "single"))
    for expected, validate, mode in floods:
        typing, failures = dict(expected.typing), expected.failures
        runs.append((flood_extension(g, s, pre, mode), typing, failures))
        if not failures:
            failures = reference_reach_failures(g, s, typing)
        runs.append((validate(g, s, "flood", pre), typing, failures))
    return runs


def report_failures(found, mode):
    if found is not None:
        return ()
    return (("-", "-", f"no valid {mode}-typing exists"),)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_reports_on_positions_match_the_name_based_references(data):
    s = data.draw(st.sampled_from(REPORT_SCHEMAS))
    labels = sorted(s.sigma) + ["z"]
    nodes = [f"y{i}" for i in range(data.draw(st.integers(1, 4)))]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(labels), st.sampled_from(nodes)
            ),
            max_size=8,
        )
    )
    g = Graph(edges, nodes)
    types = st.sampled_from(sorted(s.gamma))
    # A fragment (one root), every node, or any pre-typing, which may fail.
    pre = data.draw(
        st.one_of(
            st.builds(lambda t: {nodes[0]: {t}}, types),
            st.fixed_dictionaries({n: st.sets(types, min_size=1, max_size=1) for n in nodes}),
            st.dictionaries(st.sampled_from(nodes), st.sets(types, max_size=2), max_size=3),
        )
    )
    for report, typing, failures in reference_reports(g, s, pre):
        remaining = reference_remaining(g, s, typing)
        expected = ValidationReport(
            valid=not failures, typing=typing, failures=failures,
            remaining_edges=remaining,
        )
        assert report.failures == failures
        assert dict(report.typing) == typing
        assert frozenset(report.remaining_edges) == remaining
        assert report_lines(report) == reference_report_lines(expected)
        assert_views_behave_as_their_values(g, s, report, typing, remaining)


def assert_views_behave_as_their_values(g, s, report, typing, remaining):
    view, edges = report.typing, report.remaining_edges
    assert len(view) == len(typing) and len(edges) == len(remaining)
    # Node order and sorted order, and the values in step with the keys.
    assert list(view) == sorted(typing) and list(edges) == sorted(remaining)
    assert list(view.values()) == [typing[n] for n in sorted(typing)]
    assert list(view.items()) == sorted(typing.items())
    for n in [*g.nodes, "ghost", "y 1", 7]:
        assert (n in view) == (n in typing)
        assert view.get(n) == typing.get(n)
    for edge in [*g.edges, ("ghost", "a", "y0"), ("y0", "a", "ghost"), ("y0",), 7]:
        assert (edge in edges) == (edge in remaining)
    # Equal to the dict and frozenset they stand for, either way round.
    assert view == typing and typing == view and not view != typing
    assert edges == remaining and remaining == edges and not edges != remaining
    assert view != {**typing, "ghost": frozenset()}
    assert edges != remaining | {("ghost", "a", "y0")}
    assert remaining_edges(g, s, report) == remaining
    # The CLI drops the typing this way unless asked for it.
    bare = replace(report, typing={})
    assert report_lines(bare) == [
        line for line in report_lines(report) if not line.startswith("TYPED\t")
    ]
