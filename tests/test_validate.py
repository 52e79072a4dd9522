import inspect
import itertools
import random
import sys
from collections import Counter, deque
from dataclasses import replace

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
)
from hypothesis import given, settings
from hypothesis import strategies as st

from shexval import schema as schema_module
from shexval import validate as validate_module
from shexval.genbench import GenConfig, generate_graph
from shexval.graph import Graph
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
    bag,
    bag_key,
    choice_groups,
    concat,
    enumerate_language,
    format_rbe,
    typed_symbol,
)
from shexval.sat import core as sat_core
from shexval.sat import inter1
from shexval.schema import (
    TOP,
    homomorphism_schema,
    intersect_schemas,
    parse_schema,
    powerset_schema,
    rule_member,
)
from shexval.validate import (
    STRATEGIES,
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
    m_typing_leq,
    out_lab_type_m,
    out_lab_type_s,
    parse_pretyping,
    refine_fixpoint,
    refine_step,
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
    def test_one_step_from_full_typing(self, g2, s1):
        full = {n: frozenset(s1.gamma) for n in g2.nodes}
        assert refine_step(g2, s1, full) == LAM2

    def test_result_contained_in_input(self, g0, s0):
        full = {n: frozenset(s0.gamma) for n in g0.nodes}
        out = refine_step(g0, s0, full)
        assert all(out[n] <= full[n] for n in g0.nodes)

    def test_fixpoint_is_stable(self, g2, s1):
        assert refine_step(g2, s1, LAM2) == LAM2

    def test_strategies_agree_on_one_step(self, g2, s1):
        full = {n: frozenset(s1.gamma) for n in g2.nodes}
        results = {
            strategy: refine_step(g2, s1, full, strategy)
            for strategy in ("general", "rbe0-flow", "det-membership")
        }
        assert results["general"] == results["rbe0-flow"] == results["det-membership"]

    def test_universal_type_always_survives(self):
        g = Graph([("x", "a", "y"), ("x", "extra", "z"), ("z", "b", "w0")])
        full = {n: frozenset(TOP_SCHEMA.gamma) for n in g.nodes}
        out = refine_step(g, TOP_SCHEMA, full)
        assert all(TOP in out[n] for n in g.nodes)
        assert out["z"] == frozenset({TOP})

    def test_class_mismatch_rejected(self, g0, s0):
        full = {n: frozenset(s0.gamma) for n in g0.nodes}
        with pytest.raises(ValueError):
            refine_step(g0, s0, full, "rbe0-flow")
        g = Graph([("x", "a", "x")])
        with pytest.raises(ValueError):
            refine_step(g, NONDET, {"x": frozenset(NONDET.gamma)}, "det-membership")

    def test_unknown_strategy(self, g0, s0):
        with pytest.raises(ValueError):
            refine_step(g0, s0, lift(LAM0), "magic")

    def test_structure_filtered_is_no_strategy(self, g0, s0):
        # A test that skips the label check is no strategy of its own: from
        # a typing that has not passed the check it gives wrong answers.
        assert "structure-filtered" not in STRATEGIES
        with pytest.raises(ValueError, match="unknown strategy"):
            refine_step(g0, s0, lift(LAM0), "structure-filtered")
        with pytest.raises(ValueError, match="unknown strategy"):
            refine_fixpoint(g0, s0, "structure-filtered")

    def test_partial_typing_rejected(self, g0, s0):
        with pytest.raises(ValueError):
            refine_step(g0, s0, {"n0": frozenset({"t0"})})


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
        assert refine_fixpoint(g2, s1) == LAM2

    def test_init_does_not_change_fixpoint(self, g0, g1, g2, s0, s1):
        for g, s in ((g0, s0), (g1, s1), (g2, s1)):
            assert (
                validate_multi(g, s, "refine").typing
                == validate_multi(g, s, "s-refine").typing
            )

    def test_strategies_share_the_fixpoint(self, g0, g1, g2, s1):
        for g in (g0, g1, g2):
            results = [
                refine_fixpoint(g, s1, strategy)
                for strategy in ("general", "rbe0-flow", "det-membership")
            ]
            results.append(validate_multi(g, s1, "s-refine").typing)
            assert all(r == results[0] for r in results)

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
        for strategy in STRATEGIES:
            assert refine_fixpoint(g, s, strategy) == expected
        for algo in ("refine", "s-refine", "rbe0-refine"):
            assert validate_multi(g, s, algo).typing == expected

    def test_unsatisfiable_node_keeps_empty_set(self):
        g = Graph([], nodes=["x"])
        assert refine_fixpoint(g, LOOP) == {"x": frozenset()}

    def test_unknown_init(self, g0, s0):
        with pytest.raises(ValueError):
            refine_fixpoint(g0, s0, "everything")


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
        assert remaining_edges(g2, report) == frozenset()

    def test_unreached_component(self):
        g = Graph([("x", "a", "y"), ("p", "a", "q")])
        report = flood_extension(g, CHAIN, {"x": {"t"}})
        assert remaining_edges(g, report) == frozenset({("p", "a", "q")})

    def test_matches_report_field(self, fig1, fig2_schema):
        report = validate_multi(fig1, fig2_schema)
        assert remaining_edges(fig1, report) == report.remaining_edges


def reference_remaining(g, typing):
    """Every edge of the graph whose source holds no type but TOP."""
    covered = {
        n
        for n, value in typing.items()
        if any(t != TOP for t in ({value} if isinstance(value, str) else value))
    }
    return frozenset(e for e in g.edges if e[0] not in covered)


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
    report = ValidationReport(valid=True, typing=typing)
    assert remaining_edges(g, report) == reference_remaining(g, typing)


class CountedEdges(frozenset):
    """A graph's edge set that counts the times it is iterated."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_reports_of_a_fully_covered_typing_never_iterate_the_edges(monkeypatch):
    s, g, pre, _ = fig2_graph_and_label_bags()
    monkeypatch.setattr(g, "edges", CountedEdges(g.edges))
    monkeypatch.setattr(CountedEdges, "iterations", 0)
    flooded = flood_extension(g, s, pre)
    # s-refine removes nothing here, so the engine needs no inbound index.
    refined = validate_multi(g, s, "s-refine")
    for report in (flooded, refined):
        assert report.valid
        assert report.typing.keys() == g.nodes
        assert report.remaining_edges == frozenset()
        assert remaining_edges(g, report) == frozenset()
    assert CountedEdges.iterations == 0


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
@given(
    g=GRAPH_STRATEGY,
    schema_index=st.integers(min_value=0, max_value=2),
    masks=st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    ),
)
def test_refine_step_is_monotone(g, schema_index, masks):
    schema = (CHAIN, NONDET, S1)[schema_index]
    gamma = sorted(schema.gamma)
    typing = {}
    for n, mask in zip(sorted(g.nodes), masks):
        typing[n] = frozenset(t for i, t in enumerate(gamma) if mask >> i & 1)
    out = refine_step(g, schema, typing)
    assert all(out[n] <= typing[n] for n in g.nodes)
    again = refine_step(g, schema, out)
    assert all(again[n] <= out[n] for n in g.nodes)


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


# Schemas for the driver equivalence test.  The two products have opaque
# predicate rules, which the driver re-tests on every successor change.
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
)


def admissible_strategies(schema):
    flags = schema.class_flags
    for strategy in STRATEGIES:
        if strategy == "rbe0-flow" and not flags.rbe0:
            continue
        if strategy == "det-membership" and not (flags.deterministic and flags.sorbe):
            continue
        yield strategy


def per_node_structure_filtered_init(g, schema):
    """The structure-filtered typing, decided node by node."""
    return {
        n: frozenset(
            t
            for t, rule in schema.compiled.items()
            if rule.projected is None or member(g.out_lab(n), rule.projected).verdict
        )
        for n in g.nodes
    }


def naive_refinement(g, schema, typing, strategy):
    """refine_step from the initial typing until nothing changes."""
    rounds = 0
    while True:
        rounds += 1
        following = refine_step(g, schema, typing, strategy)
        if following == typing:
            return typing, rounds
        typing = following


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
    full = {n: frozenset(schema.gamma) for n in g.nodes}
    for strategy in admissible_strategies(schema):
        assert _RefineEngine(g, schema, strategy).from_full() == naive_refinement(
            g, schema, full, strategy
        )
    flags = schema.class_flags
    if flags.deterministic and flags.sorbe:
        # The start of s-refine.
        report = validate_multi(g, schema, "s-refine")
        assert (report.typing, report.iterations) == naive_refinement(
            g, schema, per_node_structure_filtered_init(g, schema), "det-membership"
        )


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
        if t == TOP:
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
    return replace(report, remaining_edges=remaining_edges(g, report))


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

    monkeypatch.setattr(schema_module, "member", counted)
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
    # first time it needs the encoding and never again.  The joins of
    # intersect_schemas decide their parts by membership on those rules.
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
    rules = [rule.expr for part in parts for rule in part.compiled.values()]
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
