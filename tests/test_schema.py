import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIG2_TEXT, S0_TEXT, S1_TEXT
from shexval import membership
from shexval import schema as schema_module
from shexval.graph import Graph, WildcardDecl
from shexval.rbe import (
    ANY,
    EPSILON,
    ParseError,
    Rbe,
    Star,
    Symbol,
    alphabet,
    concat,
    split_symbol,
    sym,
    typed_symbol,
    walk,
)
from shexval.sat import is_unambiguous
from shexval.schema import (
    POWERSET_CAP,
    TOP,
    ClassFlags,
    UNIVERSAL,
    Schema,
    check_deterministic,
    classify,
    format_schema,
    homomorphism_schema,
    intersect_schemas,
    nondeterministic_labels,
    parse_schema,
    powerset_schema,
    rule_member,
)

S0 = parse_schema(S0_TEXT)
S1 = parse_schema(S1_TEXT)
FIG2 = parse_schema(FIG2_TEXT)


def bag(*symbols):
    return Counter(symbols)


class TestParse:
    def test_first_rule_ast(self):
        s = parse_schema("t0 -> a::t1 , b::t2\n")
        assert s.delta["t0"] == concat(sym("a::t1"), sym("b::t2"))
        assert s.gamma == {"t0", "t1", "t2"}

    def test_referenced_types_default_to_empty(self):
        s = parse_schema("t -> a::u\n")
        assert s.delta["u"] == EPSILON
        assert rule_member(s, bag(), "u")
        assert not rule_member(s, bag("a::u"), "u")

    def test_comments_and_blank_lines(self):
        s = parse_schema("# heading\n\nt -> a::u  # trailing note\n")
        assert s.gamma == {"t", "u"}

    def test_line_without_arrow(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_schema("t a::u\n")

    def test_duplicate_rule(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_schema("t -> a::u\nt -> b::u\n")

    def test_untyped_symbol(self):
        with pytest.raises(ParseError, match="label::type"):
            parse_schema("t -> a\n")
        with pytest.raises(ParseError, match="label::type"):
            parse_schema("t -> a::\n")

    def test_the_first_bad_symbol_is_named(self):
        # Symbols are checked left to right, as written.
        with pytest.raises(ParseError, match="'bad1'"):
            parse_schema("t -> bad1 , a::t , bad2")

    def test_bad_expression_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_schema("t -> a::u\nv -> (a::u\n")

    def test_invalid_type_names(self):
        with pytest.raises(ParseError, match="invalid type name"):
            parse_schema("eps -> a::u\n")
        with pytest.raises(ParseError, match="invalid type name"):
            parse_schema("t|u -> a::u\n")

    def test_top_rule_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_schema("TOP -> eps\n")

    def test_top_reference_materializes_universal(self):
        s = parse_schema("t -> a::TOP\n")
        assert TOP in s.gamma
        assert s.delta[TOP] is UNIVERSAL
        assert s.compiled[TOP].universal
        assert rule_member(s, bag("x::y", "z::w", "z::w"), TOP)


class TestConstructor:
    def test_top_key_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            Schema({TOP: EPSILON})

    def test_untyped_symbol_rejected(self):
        with pytest.raises(ValueError, match="label::type"):
            Schema({"t": sym("a")})

    def test_non_rule_value_rejected(self):
        with pytest.raises(TypeError):
            Schema({"t": "a::u"})

    def test_empty_type_name_rejected(self):
        with pytest.raises(ValueError, match="empty type name"):
            Schema({"": EPSILON})


WILDCARD_TEXT = """\
wildcard META = prefix "meta-"
wildcard IDS = { id, uuid }
wildcard REST = rest
t -> a::u , <META>::u* , <IDS>::u? , <REST>::TOP*
"""


class TestWildcards:
    def test_declaration_forms_and_resolution(self):
        s = parse_schema(WILDCARD_TEXT)
        assert s.wildcards == (
            WildcardDecl("META", prefix="meta-"),
            WildcardDecl("IDS", labels=frozenset(("id", "uuid"))),
            WildcardDecl("REST", rest=True),
        )
        assert "META::u" in {name for name in _rule_symbols(s, "t")}
        assert "REST::TOP" in {name for name in _rule_symbols(s, "t")}

    def test_family_adds_singletons_for_raw_labels(self):
        s = parse_schema(WILDCARD_TEXT)
        family = s.wildcard_family()
        assert family[0] == WildcardDecl("a", labels=frozenset(("a",)))
        assert family[1:] == s.wildcards

    def test_unknown_wildcard(self):
        with pytest.raises(ParseError, match="unknown wildcard"):
            parse_schema("t -> <W>::u\n")

    def test_raw_label_collides_with_wildcard_name(self):
        with pytest.raises(ParseError, match="collides"):
            parse_schema('wildcard W = prefix "x"\nt -> W::u\n')

    def test_prefix_covering_raw_label_rejected(self):
        with pytest.raises(ValueError):
            parse_schema('wildcard NA = prefix "na"\nt -> name::u , <NA>::u*\n')

    def test_duplicate_wildcard_names(self):
        with pytest.raises(ValueError):
            parse_schema("wildcard W = rest\nwildcard W = { a }\nt -> b::u\n")

    def test_malformed_declarations(self):
        with pytest.raises(ParseError):
            parse_schema("wildcard W = banana\n")
        with pytest.raises(ParseError):
            parse_schema("wildcard = rest\n")
        with pytest.raises(ParseError):
            parse_schema("wildcard W = prefix meta\n")
        with pytest.raises(ParseError):
            parse_schema("wildcard W = { }\n")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [S0_TEXT, S1_TEXT, FIG2_TEXT, WILDCARD_TEXT])
    def test_parse_format_parse(self, text):
        first = parse_schema(text)
        again = parse_schema(format_schema(first))
        assert again == first

    def test_empty_schema(self):
        assert format_schema(parse_schema("")) == ""

    def test_wildcard_references_reserialized(self):
        out = format_schema(parse_schema(WILDCARD_TEXT))
        assert "<META>::u*" in out
        assert "<REST>::TOP*" in out

    def test_universal_rule_under_another_name_not_serializable(self):
        with pytest.raises(ValueError, match="'t' is universal"):
            format_schema(Schema({"t": UNIVERSAL}))

    def test_universal_rule_recreated_not_serialized(self):
        s = parse_schema("t -> a::TOP\n")
        out = format_schema(s)
        assert out == "t -> a::TOP\n"
        assert TOP in parse_schema(out).gamma


class TestDeterminism:
    def test_bug_tracker_schema_deterministic(self):
        ok, succ = check_deterministic(FIG2)
        assert ok
        assert succ[("BugReport", "reportedBy")] == "User"
        assert succ[("BugReport", "reproducedBy")] == "Employee"
        assert succ[("Employee", "name")] == "Str"
        assert succ[("User", "email")] == "Str"

    def test_label_with_two_types(self):
        text = FIG2_TEXT.replace(
            "reportedBy::User",
            "(reportedBy::User | reportedBy::Employee)",
        )
        s = parse_schema(text)
        assert check_deterministic(s) == (False, None)
        assert nondeterministic_labels(s) == [("BugReport", "reportedBy")]

    def test_single_rule_examples(self):
        det = parse_schema("t -> a::t1 , b::t2* , a::t1 , c::t2\n")
        assert check_deterministic(det)[0]
        mixed = parse_schema("t -> a::t1 , b::t2* , a::t3 , c::t2\n")
        assert not check_deterministic(mixed)[0]
        assert nondeterministic_labels(mixed) == [("t", "a")]

    def test_universal_targets_count_as_types(self):
        s = parse_schema("t -> a::u , a::TOP\n")
        assert not check_deterministic(s)[0]

    def test_catch_all_wildcard_stays_deterministic(self):
        s = parse_schema('wildcard R = rest\nt -> a::u , <R>::TOP*\n')
        ok, succ = check_deterministic(s)
        assert ok
        assert succ[("t", "R")] == TOP

    def test_universal_rules_are_exempt_under_any_name(self):
        s = Schema({"t": UNIVERSAL, "u": concat(sym("a::t"), sym("b::u"))})
        assert check_deterministic(s) == (True, {("u", "a"): "t", ("u", "b"): "u"})
        assert classify(s) == ClassFlags(deterministic=True, sorbe=True, rbe0=True)


class TestClassify:
    def test_fixture_schemas(self):
        assert classify(S0) == ClassFlags(deterministic=True, sorbe=True, rbe0=False)
        assert classify(S1) == ClassFlags(deterministic=True, sorbe=True, rbe0=True)
        assert classify(FIG2) == ClassFlags(deterministic=True, sorbe=True, rbe0=False)

    def test_coloring_schema_is_starred_products(self, k3):
        flags = classify(homomorphism_schema(k3))
        assert flags == ClassFlags(deterministic=False, sorbe=True, rbe0=True)

    def test_class_flags_property(self):
        assert S1.class_flags == classify(S1)

    def test_deterministic_rules_are_unambiguous(self):
        for schema in (S0, S1, FIG2):
            assert check_deterministic(schema)[0]
            for t, rule in schema.delta.items():
                assert is_unambiguous(rule).status == "unambiguous", t


class TestRuleMember:
    def test_bug_report_neighborhoods(self):
        full = bag(
            "descr::Str",
            "reportedBy::User",
            "reportedOn::Date",
            "reproducedBy::Employee",
            "reproducedOn::Date",
            "related::BugReport",
        )
        assert rule_member(FIG2, full, "BugReport")
        no_repro = bag("descr::Str", "reportedBy::User", "reportedOn::Date")
        assert rule_member(FIG2, no_repro, "BugReport")
        half_group = bag(
            "descr::Str",
            "reportedBy::User",
            "reportedOn::Date",
            "reproducedBy::Employee",
        )
        assert not rule_member(FIG2, half_group, "BugReport")

    def test_person_neighborhoods(self):
        assert rule_member(FIG2, bag("name::Str"), "User")
        assert not rule_member(FIG2, bag("name::Str"), "Employee")
        both = bag("name::Str", "email::Str")
        assert rule_member(FIG2, both, "User")
        assert rule_member(FIG2, both, "Employee")

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            rule_member(FIG2, bag(), "Nope")


class TestUniversalLanguage:
    def test_always_true(self):
        s = Schema({"t": UNIVERSAL})
        assert rule_member(s, bag(), "t")
        assert rule_member(s, bag("a::t", "a::t"), "t")
        assert rule_member(s, bag("anything", "at", "all"), "t")


JOIN_A = parse_schema("t0 -> a::t1* , b::t2* , b::t3*\n")
JOIN_B = parse_schema("u0 -> a::u1* , b::u2* , b::u3*\n")
JOINED = intersect_schemas(JOIN_A, JOIN_B)


class TestIntersect:
    def test_types_are_the_type_product_and_rules_are_expressions(self):
        assert len(JOINED.gamma) == len(JOIN_A.gamma) * len(JOIN_B.gamma)
        assert all(isinstance(rule, Rbe) for rule in JOINED.delta.values())
        assert format_schema(JOINED).count("\n") == len(JOINED.gamma)

    def test_join_witness(self):
        w_j = bag("a::(t1,u1)", "b::(t2,u2)", "b::(t2,u3)", "b::(t3,u3)")
        assert rule_member(JOINED, w_j, "(t0,u0)")

    def test_projection_failure_rejects(self):
        # a is only usable with t1 on the left, so this first projection fails
        assert not rule_member(JOINED, bag("a::(t2,u1)"), "(t0,u0)")

    def test_symbol_outside_the_product_vocabulary(self):
        assert not rule_member(JOINED, bag("a::bogus"), "(t0,u0)")

    def test_empty_bag_needs_both_sides_nullable(self):
        assert rule_member(JOINED, bag(), "(t0,u0)")
        strict = intersect_schemas(
            parse_schema("t0 -> a::t1\n"), parse_schema("u0 -> a::u1?\n")
        )
        assert not rule_member(strict, bag(), "(t0,u0)")
        assert rule_member(strict, bag("a::(t1,u1)"), "(t0,u0)")

    def test_wildcard_schemas_rejected(self):
        wild = parse_schema('wildcard R = rest\nt -> <R>::TOP*\n')
        with pytest.raises(ValueError, match="wildcard-free"):
            intersect_schemas(wild, JOIN_B)

    @given(
        st.dictionaries(
            st.sampled_from(
                [
                    "a::(t1,u1)",
                    "a::(t2,u1)",
                    "b::(t2,u2)",
                    "b::(t2,u3)",
                    "b::(t3,u3)",
                    "b::(t1,u2)",
                ]
            ),
            st.integers(min_value=1, max_value=3),
            max_size=4,
        )
    )
    def test_membership_is_projection_conjunction(self, counts):
        w = Counter(counts)
        left: Counter[str] = Counter()
        right: Counter[str] = Counter()
        for symbol, count in w.items():
            label, pair = split_symbol(symbol)
            first, second = pair[1:-1].split(",")
            left[typed_symbol(label, first)] += count
            right[typed_symbol(label, second)] += count
        expected = rule_member(JOIN_A, left, "t0") and rule_member(JOIN_B, right, "u0")
        assert rule_member(JOINED, w, "(t0,u0)") == expected


def projections_satisfy(s1, s2, w, pair):
    """The join read off its definition: both aggregating projections of
    the bag over pair-typed symbols satisfy their component types."""
    left: Counter[str] = Counter()
    right: Counter[str] = Counter()
    for symbol, count in w.items():
        label, target = split_symbol(symbol)
        first, second = target[1:-1].split(",")
        left[typed_symbol(label, first)] += count
        right[typed_symbol(label, second)] += count
    t1, t2 = pair[1:-1].split(",")
    return rule_member(s1, left, t1) and rule_member(s2, right, t2)


WITH_TOP = parse_schema("t -> a::u* , b::TOP?\nu -> a::TOP\n")
WITHOUT_TOP = parse_schema("v -> a::v? , b::w\nw -> eps\n")
PRODUCT_CASES = {
    "intervals": (
        parse_schema("t -> a::u[2;5] , b::t?\nu -> eps\n"),
        parse_schema("v -> a::w[1;3] , a::v* , b::v?\nw -> b::v?\n"),
    ),
    "top-left": (WITH_TOP, WITHOUT_TOP),
    "top-right": (WITHOUT_TOP, WITH_TOP),
    "top-both": (WITH_TOP, WITH_TOP),
}
PRODUCTS = {name: intersect_schemas(*pair) for name, pair in PRODUCT_CASES.items()}


def vocabulary_bags(schema, max_count):
    """Bags over the schema's own symbols: every label with every type."""
    symbols = [
        typed_symbol(a, t) for a in sorted(schema.sigma) for t in sorted(schema.gamma)
    ]
    return st.dictionaries(
        st.sampled_from(symbols), st.integers(1, max_count), max_size=4
    ).map(Counter)


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
@given(data=st.data())
def test_product_membership_is_projection_conjunction(case, data):
    s1, s2 = PRODUCT_CASES[case]
    product = PRODUCTS[case]
    w = data.draw(vocabulary_bags(product, 3))
    pair = data.draw(st.sampled_from(sorted(product.gamma)))
    assert rule_member(product, w, pair) == projections_satisfy(s1, s2, w, pair)


def test_products_with_top_components():
    # A TOP component adds no conjunct: (TOP, v) is v's lifted rule alone
    # and (TOP, TOP) is universal, as TOP is in a plain schema.
    assert PRODUCTS["top-both"].compiled["(TOP,TOP)"].universal
    assert PRODUCTS["top-left"].delta["(TOP,w)"] == EPSILON
    assert not any(rule.universal for rule in PRODUCTS["top-left"].compiled.values())
    assert not rule_member(PRODUCTS["top-right"], bag("b::(w,u)"), "(w,TOP)")
    assert rule_member(PRODUCTS["top-both"], bag("zz::(t,u)"), "(TOP,TOP)")


@pytest.mark.parametrize("lo, hi", [(1, 1), (2, 5), (2, 40), (3, None)])
def test_interval_symbols_grow_linearly_in_their_bound(lo, hi):
    # (t, TOP)'s rule is the left lift of a::u[lo;hi] alone: a choice
    # among |Γ2| pair symbols, repeated up to hi times.
    s1 = parse_schema(f"t -> a::u[{lo};{'*' if hi is None else hi}]\n")
    s2 = parse_schema("v -> x::TOP\nw -> eps\n")
    image = intersect_schemas(s1, s2).delta["(t,TOP)"]
    nodes = list(walk(image))
    occurrences = sum(isinstance(node, Symbol) for node in nodes)
    k = len(s2.gamma)
    if hi is None:
        assert occurrences == (lo + 1) * k
        assert sum(isinstance(node, Star) for node in nodes) == 1
    else:
        assert occurrences <= hi * k


POWER_S1 = powerset_schema(S1)

S1_SYMBOLS = ["a::t0", "a::t1", "b::t2", "b::t3", "c::t1", "c::t3"]


def _lift_singleton(w):
    lifted: Counter[str] = Counter()
    for symbol, count in w.items():
        label, t = split_symbol(symbol)
        lifted[typed_symbol(label, "{" + t + "}")] += count
    return lifted


class TestPowerset:
    def test_types_are_nonempty_subsets_and_rules_are_expressions(self):
        assert len(POWER_S1.gamma) == 2 ** len(S1.gamma) - 1
        assert all(isinstance(rule, Rbe) for rule in POWER_S1.delta.values())
        assert format_schema(POWER_S1).count("\n") == len(POWER_S1.gamma)

    def test_pair_type_accepts_shared_neighborhood(self):
        # n1 of the chain graph: one b-loop typed {t1,t2} and one c-edge typed {t3}
        w = bag("b::{t1,t2}", "c::{t3}")
        assert rule_member(POWER_S1, w, "{t1,t2}")
        assert not rule_member(POWER_S1, bag("c::{t3}"), "{t1,t2}")

    def test_root_accepts_pair_target(self):
        assert rule_member(POWER_S1, bag("a::{t1,t2}"), "{t0}")

    def test_symbol_outside_the_carrier(self):
        assert not rule_member(POWER_S1, bag("a::t1"), "{t0}")

    def test_carrier_bound(self):
        with pytest.raises(ValueError, match="bound"):
            powerset_schema(S1, bound=2)

    def test_wildcard_schemas_rejected(self):
        wild = parse_schema('wildcard R = rest\nt -> <R>::TOP*\n')
        with pytest.raises(ValueError, match="wildcard-free"):
            powerset_schema(wild)

    def test_top_subsets(self):
        # {TOP} is universal; {TOP, t} is t's lifted rule alone.
        lifted = powerset_schema(WITH_TOP)
        assert lifted.compiled["{TOP}"].universal
        assert lifted.delta["{TOP,u}"] == lifted.delta["{u}"]
        assert rule_member(lifted, bag("zz::{t}"), "{TOP}")

    @given(
        st.dictionaries(
            st.sampled_from(S1_SYMBOLS), st.integers(min_value=1, max_value=2), max_size=3
        )
    )
    def test_singleton_subsets_match_base_rules(self, counts):
        w = Counter(counts)
        lifted = _lift_singleton(w)
        for t in sorted(S1.gamma):
            assert rule_member(POWER_S1, lifted, "{" + t + "}") == rule_member(S1, w, t)


class TestHomomorphism:
    def test_triangle_gives_coloring_rules(self, k3):
        s = homomorphism_schema(k3)
        assert s.gamma == {"c0", "c1", "c2"}
        assert s.delta["c0"] == concat(sym("a::c1", ANY), sym("a::c2", ANY))

    def test_isolated_node_gets_empty_rule(self):
        s = homomorphism_schema(Graph(nodes=["x"]))
        assert s.delta["x"] == EPSILON

    def test_node_with_many_out_edges(self):
        hub = Graph([("h", "a", f"m{i}") for i in range(1200)])
        s = homomorphism_schema(hub)
        assert len(s.delta["h"].parts) == 1200
        assert rule_member(s, bag("a::m0", "a::m1199"), "h")

    def test_neighborhood_membership(self, k3):
        s = homomorphism_schema(k3)
        assert rule_member(s, bag("a::c1", "a::c2", "a::c1"), "c0")
        assert not rule_member(s, bag("a::c0"), "c0")


def _rule_symbols(schema, t):
    return alphabet(schema.delta[t])


def some_flattening_satisfies(schema, w, t):
    """Whether each element of a bag over subset-typed symbols can pick a
    type out of its own subset so that the picked bag satisfies t: every
    flattening enumerated, one pick per occurrence."""
    per_symbol = []
    for symbol, count in sorted(w.items()):
        label, subset = split_symbol(symbol)
        types = sorted(subset[1:-1].split(","))
        per_symbol.append(
            [
                Counter(typed_symbol(label, pick) for pick in picks)
                for picks in itertools.combinations_with_replacement(types, count)
            ]
        )
    return any(
        rule_member(schema, sum(parts, Counter()), t)
        for parts in itertools.product(*per_symbol)
    )


POWERSET_CASES = {
    "s1": S1,
    "top": WITH_TOP,
    "nondet": parse_schema("t -> (a::t | a::u)* , b::u[1;2]\nu -> a::t? , b::TOP\n"),
}
POWERSETS = {name: powerset_schema(schema) for name, schema in POWERSET_CASES.items()}


@pytest.mark.parametrize("case", sorted(POWERSET_CASES))
@given(data=st.data())
def test_powerset_membership_is_some_flattening_per_member(case, data):
    base, lifted = POWERSET_CASES[case], POWERSETS[case]
    w = data.draw(vocabulary_bags(lifted, 2))
    subset = data.draw(st.sampled_from(sorted(lifted.gamma)))
    expected = all(
        some_flattening_satisfies(base, w, t) for t in subset[1:-1].split(",")
    )
    assert rule_member(lifted, w, subset) == expected


def ring(n):
    return parse_schema(
        "".join(f"t{i} -> a::t{(i + 1) % n}* , b::t{(i + 2) % n}?\n" for i in range(n))
    )


RING5 = ring(5)


def symbol_occurrences(schema):
    return sum(
        isinstance(node, Symbol)
        for t, rule in schema.delta.items()
        if not schema.compiled[t].universal
        for node in walk(rule)
    )


def test_the_powerset_cap_refuses_the_9_type_ring_before_building(monkeypatch):
    base = ring(9)

    def building(*args):
        raise AssertionError("the powerset was built")

    monkeypatch.setattr(schema_module, "_lifted", building)
    with pytest.raises(
        ValueError, match=f"would hold 1179648 symbol occurrences, over the cap of {POWERSET_CAP}"
    ):
        powerset_schema(base)
    # The 8-type ring, counted only, stays under the cap.
    assert schema_module._powerset_occurrences(ring(8)) == 262_144 <= POWERSET_CAP


@pytest.mark.parametrize(
    "base",
    [
        # The powerset cases of acceptance test a10.
        "t -> a::t , a::u?\nu -> eps\n",
        "x -> a::y?\ny -> a::x , a::x\n",
        "p -> a::q+\nq -> a::p | eps\nr -> a::r?\n",
        # Bounded and empty intervals, TOP and a 1-type base.
        "t -> (a::t | a::u)* , b::u[1;2]\nu -> a::t? , b::TOP\n",
        "t -> a::u[2;3] , b::u[0;0] , c::TOP\nu -> a::t*\n",
        "t -> a::t[1;4]\n",
        RING5,
    ],
    ids=lambda base: "ring5" if base is RING5 else None,
)
def test_the_powerset_count_is_the_built_schemas(base):
    if isinstance(base, str):
        base = parse_schema(base)
    lifted = powerset_schema(base)
    assert schema_module._powerset_occurrences(base) == symbol_occurrences(lifted)
    assert symbol_occurrences(lifted) <= POWERSET_CAP


@pytest.mark.parametrize(
    "build",
    [lambda: parse_schema(FIG2_TEXT), lambda: powerset_schema(RING5)],
    ids=["fig2", "powerset-ring5"],
)
def test_building_a_schema_compiles_each_expression_rule_once(monkeypatch, build):
    calls = []
    original = membership.compile_rule

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(membership, "compile_rule", counted)
    monkeypatch.setattr(schema_module, "compile_rule", counted)
    s = build()
    rules = [rule for rule in s.compiled.values() if not rule.universal]
    assert rules and len(calls) == len(rules)
