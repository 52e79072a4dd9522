import gc
import itertools
from collections import Counter
from unittest import mock
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexval.rbe import (
    EMPTY,
    EPSILON,
    Concat,
    Disj,
    Interval,
    Plus,
    Star,
    bag_key,
    bag_sum,
    concat,
    disj,
    enumerate_language,
    is_symbol_product,
    isect,
    parse_rbe,
    split_symbol,
    star,
    sym,
)
from shexval.sat import core as sat_core
from shexval.sat import (
    LinearSystem,
    RuleEncoding,
    encode_phi,
    ilp_feasible,
    inter1,
    inter1_groups,
    is_unambiguous,
    normal_form_isect,
    rbe_satisfiable,
)


def rbe(text):
    return parse_rbe(text)


def irbe(text):
    return parse_rbe(text, allow_isect=True)


def member_by_phi(e, counts):
    """Membership through the arithmetic encoding with the target pinned."""
    bag = Counter(counts)
    system = LinearSystem()
    xvars = encode_phi(e, system)
    if any(s not in xvars for s in bag):
        return False
    for s, x in xvars.items():
        system.eq({x: 1}, bag.get(s, 0))
    result = ilp_feasible(system, bound=sum(bag.values()) + 1)
    assert result.status in ("sat", "unsat")
    return result.status == "sat"


def choice_expr_from(groups):
    parts = [
        reduce(disj, [sym(s) for s in sorted(group)]) for group in groups
    ]
    return reduce(concat, parts) if parts else EPSILON


def product_expr_from(intervals, *, wrap_disj=False):
    parts = [sym(s, iv) for s, iv in sorted(intervals.items())]
    if wrap_disj:
        # Idempotent unions keep the language but block the interval
        # normalizer, forcing the arithmetic fallback.
        parts = [disj(p, p) for p in parts]
    return reduce(concat, parts) if parts else EPSILON


def intersects_by_enumeration(groups, intervals):
    for combo in itertools.product(*groups):
        bag = Counter(combo)
        if any(s not in intervals for s in bag):
            continue
        if all(bag.get(s, 0) in iv for s, iv in intervals.items()):
            return True
    return False


class TestEncodePhi:
    def test_single_symbol(self):
        assert member_by_phi(rbe("a"), {"a": 1})
        assert not member_by_phi(rbe("a"), {})
        assert not member_by_phi(rbe("a"), {"a": 2})

    def test_lockstep_star(self):
        e = rbe("(a, b)*")
        assert member_by_phi(e, {})
        assert member_by_phi(e, {"a": 1, "b": 1})
        assert member_by_phi(e, {"a": 2, "b": 2})
        assert not member_by_phi(e, {"a": 1, "b": 2})

    def test_star_accepts_empty(self):
        assert member_by_phi(rbe("a*"), {})

    def test_idle_star_branch_consumes_nothing(self):
        # Choosing the left branch sends zero iterations to b*, which must
        # then contribute zero copies of b.
        e = rbe("a | b*")
        assert member_by_phi(e, {"a": 1})
        assert member_by_phi(e, {"b": 2})
        assert member_by_phi(e, {})
        assert not member_by_phi(e, {"a": 1, "b": 1})

    def test_unbounded_symbol_with_zero_repetitions(self):
        e = rbe("a | b[2;*]")
        assert member_by_phi(e, {"b": 3})
        assert not member_by_phi(e, {"a": 1, "b": 3})
        assert not member_by_phi(e, {"b": 1})

    def test_empty_interval_symbol(self):
        e = rbe("a[1;0] | b")
        assert member_by_phi(e, {"b": 1})
        assert not member_by_phi(e, {"a": 1})

    def test_mixed_star_and_tail(self):
        e = rbe("((a, b)* | c), (d | a)*")
        assert member_by_phi(e, {"a": 2, "b": 1})
        assert not member_by_phi(e, {"a": 1, "b": 3})

    def test_intersection_of_products(self):
        e = irbe("(a, a+) & (a, a?, a?)")
        assert member_by_phi(e, {"a": 2})
        assert member_by_phi(e, {"a": 3})
        assert not member_by_phi(e, {"a": 1})
        assert not member_by_phi(e, {"a": 4})

    def test_intersection_under_star_rejected(self):
        system = LinearSystem()
        with pytest.raises(ValueError):
            encode_phi(irbe("(a & b)*"), system)
        system = LinearSystem()
        with pytest.raises(ValueError):
            encode_phi(irbe("(a & a)+"), system)

    def test_leaves_no_reference_cycle(self):
        # A cycle would hold the rule's alphabet table until a collection.
        e = irbe("((a, b)* | c+)+, (d | a)* , (a, a+) & (a, a?, a?)")
        gc.collect()
        gc.disable()
        try:
            encode_phi(e, LinearSystem())
            assert gc.collect() == 0
        finally:
            gc.enable()


def nested_plus(depth):
    """``((...(a)+...)+, a``, with ``depth`` nested ``+``: bags of two or more a."""
    return rbe("(" * depth + "a" + ")+" * depth + ", a")


def grows_linearly(sizes):
    """Whether counts at depths 3, 6 and 12 lie on one line."""
    return sizes[12] - sizes[6] == 2 * (sizes[6] - sizes[3])


def test_nested_plus_encodes_in_linear_size():
    unknowns, rows = {}, {}
    for depth in (3, 6, 12):
        e = nested_plus(depth)
        assert isinstance(e.parts[0], Plus)
        system = LinearSystem()
        encode_phi(e, system)
        unknowns[depth] = system.fresh
        rows[depth] = len(system.equations) + sum(
            len(block) for case in system.cases for block in case
        )
        assert [member_by_phi(e, {"a": c}) for c in range(4)] == [
            False,
            False,
            True,
            True,
        ]
    assert grows_linearly(unknowns) and grows_linearly(rows)


def test_nested_plus_enumerates_in_linear_time(monkeypatch):
    calls = []

    def counted(*bags):
        calls.append(bags)
        return bag_sum(*bags)

    monkeypatch.setattr("shexval.rbe.ops.bag_sum", counted)
    sums = {}
    for depth in (3, 6, 12):
        calls.clear()
        assert enumerate_language(nested_plus(depth), 3) == {
            (("a", 2),),
            (("a", 3),),
        }
        sums[depth] = len(calls)
    assert grows_linearly(sums)


class TestInter1:
    def test_shared_symbol_resolves_both_groups(self):
        assert inter1(rbe("(a | c), (b | c)"), rbe("a?, b*, c"))

    def test_single_group(self):
        assert inter1(rbe("a"), rbe("a"))
        assert not inter1(rbe("a"), rbe("b*"))

    def test_three_groups_against_starred_compound(self):
        e0 = rbe("(a | b | c), (b | d | a), (a | d)")
        e = rbe("((a, b)* | c), (d | a)*")
        assert inter1(e0, e)
        # The meeting point is two a's and one b.
        witness = bag_key(Counter({"a": 2, "b": 1}))
        assert witness in enumerate_language(e0, 3)
        assert witness in enumerate_language(e, 3)

    def test_empty_left_language_of_groups(self):
        assert inter1(EPSILON, rbe("a*"))
        assert not inter1(EPSILON, rbe("a"))

    def test_left_operand_must_be_choice_groups(self):
        with pytest.raises(ValueError):
            inter1(rbe("a*"), rbe("a"))
        with pytest.raises(ValueError):
            inter1(rbe("a[2;3]"), rbe("a"))

    def test_arithmetic_fallback_for_disjunctive_right(self):
        assert inter1(rbe("a | b"), rbe("b | c"))
        assert not inter1(rbe("a"), rbe("b | c"))

    def test_a_counted_group_is_searched_up_to_its_count(self):
        # Four picks from one group need a repetition count of four, past
        # the number of distinct groups plus one.
        assert RuleEncoding(rbe("(a?)*, b?")).meets({frozenset("a"): 4})
        assert not RuleEncoding(rbe("(a?)*, b")).meets({frozenset("a"): 4})

    def test_groups_form(self):
        assert inter1_groups([{"a", "c"}, {"b", "c"}], {"a": Interval(0, 1), "b": Interval(0, None), "c": Interval(1, 1)})
        assert not inter1_groups([{"a"}], {"a": Interval(2, 2)})


class TestNormalFormIsect:
    def test_overlapping_intervals(self):
        got = normal_form_isect(rbe("a, a+"), rbe("a, a?, a?"))
        assert got == {"a": Interval(2, 3)}

    def test_symbol_absent_on_one_side(self):
        assert normal_form_isect(rbe("a[1;2]"), rbe("b")) is None
        assert normal_form_isect(rbe("a?, b?"), rbe("b")) == {
            "a": Interval(0, 0),
            "b": Interval(1, 1),
        }

    def test_nested_intersections(self):
        got = normal_form_isect(irbe("a[1;4] & a[2;8]"), rbe("a[0;3]"))
        assert got == {"a": Interval(2, 3)}

    def test_off_fragment_rejected(self):
        # Note bare `a*` stays inside the fragment: it is the interval
        # symbol a[0;*], not a Star node.
        with pytest.raises(ValueError):
            normal_form_isect(rbe("a | b"), rbe("a"))
        with pytest.raises(ValueError):
            normal_form_isect(rbe("(a, b)*"), rbe("a"))


class TestRbeSatisfiable:
    def test_intersection_free_witness(self):
        result = rbe_satisfiable(rbe("a[2;5], (b | c)"))
        assert result.status == "sat"
        assert result.witness == Counter({"a": 2, "b": 1})

    def test_intersection_free_empty(self):
        assert rbe_satisfiable(rbe("b[1;0], a")).status == "unsat"
        assert rbe_satisfiable(rbe("a | b[1;0]")).status == "sat"

    def test_epsilon(self):
        result = rbe_satisfiable(rbe("eps"))
        assert result.status == "sat"
        assert result.witness == Counter()

    def test_product_intersection(self):
        result = rbe_satisfiable(irbe("(a, a+) & (a, a?, a?)"))
        assert result.status == "sat"
        assert result.witness == Counter({"a": 2})

    def test_product_intersection_empty(self):
        assert rbe_satisfiable(irbe("a[1;2] & b")).status == "unsat"
        assert rbe_satisfiable(irbe("a[2;2] & a[3;3]")).status == "unsat"

    def test_nested_product_class(self):
        result = rbe_satisfiable(irbe("(a & (a, a?)), b"))
        assert result.status == "sat"
        assert result.witness == Counter({"a": 1, "b": 1})

    def test_arithmetic_route_sat(self):
        e = irbe("((a | b+), c+) & ((a, b)*, c?, b)")
        result = rbe_satisfiable(e)
        assert result.status == "sat"
        size = sum(result.witness.values())
        key = bag_key(result.witness)
        assert key in enumerate_language(e.parts[0], size)
        assert key in enumerate_language(e.parts[1], size)
        # The minimal meeting point pairs one b with one c.
        meet = bag_key(Counter({"b": 1, "c": 1}))
        assert meet in enumerate_language(e.parts[0], 4)
        assert meet in enumerate_language(e.parts[1], 4)

    def test_arithmetic_route_unsat(self):
        assert rbe_satisfiable(irbe("(a, a) & (a | eps)")).status == "unsat"
        assert rbe_satisfiable(irbe("(a | b) & c*")).status == "unsat"

    def test_arithmetic_route_shared_choice(self):
        result = rbe_satisfiable(irbe("(a | b) & (b | c)"))
        assert result.status == "sat"
        assert result.witness == Counter({"b": 1})


class TestIsUnambiguous:
    def test_forced_double_typing(self):
        result = is_unambiguous(rbe("a::t1, (b::t2)*, a::t3, c::t2"))
        assert result.status == "ambiguous"
        first, _ = result.witness
        assert first["a::t1"] >= 1 and first["a::t3"] >= 1

    def test_disjoint_projections(self):
        result = is_unambiguous(rbe("(a::t1, b::t2) | (a::t3, c::t4)"))
        assert result.status == "unambiguous"
        assert result.witness is None

    def test_single_type_per_label(self):
        assert is_unambiguous(rbe("a::t1, (b::t2)?, (a::t1)*")).status == "unambiguous"

    def test_cross_member_swap(self):
        result = is_unambiguous(rbe("(a::t1, b::t2) | (a::t2, b::t1)"))
        assert result.status == "ambiguous"
        w1, w2 = result.witness
        assert _label_projection(w1) == _label_projection(w2)
        assert w1 != w2

    def test_untyped_symbol_clashes_with_typed(self):
        assert is_unambiguous(rbe("a, a::t1")).status == "ambiguous"

    def test_intersection_rejected(self):
        with pytest.raises(ValueError):
            is_unambiguous(irbe("(a::t1) & (a::t1)"))


def _label_projection(counts):
    projected = Counter()
    for s, cnt in counts.items():
        projected[split_symbol(s)[0]] += cnt
    return projected


intervals_st = st.builds(
    Interval, st.integers(0, 2), st.one_of(st.none(), st.integers(0, 3))
)
groups_st = st.lists(
    st.sets(st.sampled_from("abcd"), min_size=1, max_size=3), min_size=0, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(groups_st, st.dictionaries(st.sampled_from("abcd"), intervals_st, max_size=4))
def test_inter1_routes_agree_with_enumeration(groups, intervals):
    expected = intersects_by_enumeration(groups, intervals)
    e0 = choice_expr_from(groups)
    assert inter1(e0, product_expr_from(intervals)) == expected
    assert inter1(e0, product_expr_from(intervals, wrap_disj=True)) == expected


def plain_trees(symbols):
    bounds = st.sampled_from(
        [Interval(1, 1), Interval(0, 1), Interval(0, None), Interval(1, None), Interval(2, 3)]
    )
    leaves = st.one_of(st.just(EPSILON), st.builds(sym, st.sampled_from(symbols), bounds))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(disj, inner, inner),
            st.builds(concat, inner, inner),
            st.builds(star, inner),
            st.builds(Plus, inner),
        ),
        max_leaves=4,
    )


@settings(max_examples=150, deadline=None)
@given(plain_trees("abc"), st.dictionaries(st.sampled_from("abc"), st.integers(0, 2), max_size=3))
def test_phi_membership_matches_enumeration(e, counts):
    bag = Counter({s: c for s, c in counts.items() if c})
    expected = bag_key(bag) in enumerate_language(e, sum(bag.values()))
    assert member_by_phi(e, bag) == expected


@settings(max_examples=150, deadline=None)
@given(plain_trees("abc"), plain_trees("abc"))
def test_satisfiability_of_intersections_matches_enumeration(left, right):
    e = isect(left, right)
    result = rbe_satisfiable(e)
    assert result.status in ("sat", "unsat")
    shared = enumerate_language(left, 6) & enumerate_language(right, 6)
    if result.status == "unsat":
        assert not shared
    else:
        size = sum(result.witness.values())
        key = bag_key(result.witness)
        assert key in enumerate_language(left, size)
        assert key in enumerate_language(right, size)
    if shared:
        assert result.status == "sat"


def typed_trees():
    names = st.sampled_from(["a::t1", "a::t2", "b::t1", "b::t2", "a", "b"])
    bounds = st.sampled_from([Interval(1, 1), Interval(0, 1), Interval(0, None)])
    leaves = st.one_of(st.just(EPSILON), st.builds(sym, names, bounds))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(disj, inner, inner),
            st.builds(concat, inner, inner),
            st.builds(star, inner),
        ),
        max_leaves=4,
    )


def _mixes_some_label(key):
    seen = {}
    for s, _ in key:
        label, type_name = split_symbol(s)
        if label in seen and seen[label] != type_name:
            return True
        seen[label] = type_name
    return False


def _projection_of_key(key):
    projected = Counter()
    for s, cnt in key:
        projected[split_symbol(s)[0]] += cnt
    return bag_key(projected)


@settings(max_examples=150, deadline=None)
@given(typed_trees())
def test_ambiguity_verdicts_are_sound_and_catch_small_witnesses(e):
    members = enumerate_language(e, 4)
    mixed = any(_mixes_some_label(key) for key in members)
    by_projection = Counter(_projection_of_key(key) for key in members)
    collided = any(count > 1 for count in by_projection.values())

    result = is_unambiguous(e)
    if mixed or collided:
        assert result.status == "ambiguous"
    if result.status == "ambiguous":
        w1, w2 = result.witness
        assert member_by_phi(e, w1)
        assert member_by_phi(e, w2)
        assert _label_projection(w1) == _label_projection(w2)
        assert w1 != w2 or _mixes_some_label(bag_key(w1))


def reference_inter1_ilp(choice_expr, other, k):
    """The per-occurrence intersection system that decided non-product
    rules before :class:`RuleEncoding`: both expressions encoded, their
    counts linked, complete at k + 1 for k choice groups."""
    system = LinearSystem()
    left = encode_phi(choice_expr, system)
    right = encode_phi(other, system)
    for a in sorted(set(left) | set(right)):
        if a in left and a in right:
            system.eq({left[a]: 1, right[a]: -1}, 0)
        else:
            system.eq({left.get(a, right.get(a)): 1}, 0)
    result = ilp_feasible(system, bound=k + 1)
    assert result.status != "unknown"
    return result.status == "sat"


def non_product_rules():
    bounds = st.sampled_from(
        [Interval(1, 1), Interval(0, 1), Interval(0, None), Interval(1, None),
         Interval(2, 3), Interval(0, 0), EMPTY]
    )
    leaves = st.builds(sym, st.sampled_from("abc"), bounds)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: Disj(*ps)),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: Concat(*ps)),
            st.builds(Star, inner),
            st.builds(Plus, inner),
        ),
        max_leaves=5,
    ).filter(lambda e: not is_symbol_product(e))


# Groups over the rules' symbols and d, which no rule uses; the empty
# neighborhood and counts above one included.
choice_groups_st = st.dictionaries(
    st.frozensets(st.sampled_from("abcd"), min_size=1, max_size=3),
    st.integers(1, 3),
    max_size=4,
).map(Counter)


@settings(max_examples=300, deadline=None)
@given(non_product_rules(), st.lists(choice_groups_st, min_size=1, max_size=3))
def test_rule_encoding_meets_like_the_per_occurrence_system(rule, queries):
    # One encoding answers every query, so a query that changed the
    # compiled rows would show in the next one.
    encoding = RuleEncoding(rule)
    for groups in queries:
        choice_expr = choice_expr_from(list(groups.elements()))
        expected = reference_inter1_ilp(choice_expr, rule, sum(groups.values()))
        assert encoding.meets(groups) == expected
        assert inter1(choice_expr, rule) == expected


def pins_as_rows(system, pins):
    """The query ``system`` with each pin ``x = value`` written as an
    equation row on the same base, as queries were built before pins."""
    rowed = LinearSystem(system.base)
    rowed.fresh = system.fresh
    rowed.equations = [*system.equations, *(({x: 1}, value) for x, value in pins.items())]
    rowed.cases = system.cases
    return rowed


@settings(max_examples=300, deadline=None)
@given(non_product_rules(), st.lists(choice_groups_st, min_size=1, max_size=3))
def test_rule_encoding_pins_decide_as_equation_rows(rule, queries):
    # Each query meets sends to the solver is decided again with its pins
    # as rows; one encoding answers every query, so its kept fixpoint is
    # reused.
    encoding = RuleEncoding(rule)

    def both(system, *, pins, **options):
        pinned = ilp_feasible(system, pins=pins, **options)
        rowed = ilp_feasible(pins_as_rows(system, pins), **options)
        assert pinned.status == rowed.status
        if pinned.model is not None:
            assert {x: pinned.model[x] for x in pins} == pins
        return pinned

    with mock.patch.object(sat_core, "ilp_feasible", both):
        for groups in queries:
            encoding.meets(groups)


def test_a_query_of_singleton_groups_adds_no_row_to_the_compiled_base():
    encoding = RuleEncoding(rbe("(a::u | a::v)* , b::u , c::v?"))
    systems = []

    def kept(system, **options):
        systems.append((system, options["pins"]))
        return ilp_feasible(system, **options)

    with mock.patch.object(sat_core, "ilp_feasible", kept):
        singletons = Counter({frozenset({"a::u"}): 2, frozenset({"b::u"}): 1})
        assert encoding.meets(singletons)
        assert not encoding.meets(singletons + Counter({frozenset({"b::u"}): 1}))
        # A group of two rule symbols adds its rows, and the counts it
        # shares lose their pins.
        assert encoding.meets(Counter({frozenset({"a::u", "a::v"}): 2, frozenset({"b::u"}): 1}))
    (first, first_pins), (second, _), (shared, shared_pins) = systems
    for system in (first, second):
        assert system.base is encoding.rows
        assert system.equations == [] and system.cases == []
    counts = encoding.counts
    assert first_pins == {
        counts["a::u"]: 2, counts["a::v"]: 0, counts["b::u"]: 1, counts["c::v"]: 0
    }
    assert len(shared.equations) == 3 and shared.cases == []
    assert shared_pins == {counts["b::u"]: 1, counts["c::v"]: 0}
