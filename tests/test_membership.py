import itertools
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bag_key, enumerate_language
from shexval import membership as membership_module
from shexval.membership import (
    compile_rule,
    member,
    member_general,
    sorbe_interval,
    sorbe_member,
)
from shexval.rbe import (
    ANY,
    Concat,
    Disj,
    EPSILON,
    Epsilon,
    Interval,
    Plus,
    Star,
    Symbol,
    alphabet,
    concat,
    nullable,
    parse_rbe,
    sym,
)


def rbe(text):
    return parse_rbe(text)


def irbe(text):
    return parse_rbe(text, allow_isect=True)


class TestSorbeInterval:
    def test_concat_of_symbols(self):
        assert sorbe_interval(Counter("abb"), rbe("a, b[1;2]")) == Interval(1, 1)

    def test_empty_bag_under_star(self):
        assert sorbe_interval(Counter(), rbe("a*")) == ANY
        assert sorbe_interval(Counter(), rbe("(a, b)*")) == ANY

    def test_choice_counts_add(self):
        assert sorbe_interval(Counter("aaa"), rbe("a | b")) == Interval(3, 3)

    def test_unbounded_divisors(self):
        assert sorbe_interval(Counter("aaaa"), rbe("a[2;*]")) == Interval(1, 2)
        assert sorbe_interval(Counter(), rbe("a[2;*]")) == Interval(0, 0)

    def test_zero_lower_bound_leaves_top_open(self):
        assert sorbe_interval(Counter("aaaaa"), rbe("a[0;2]")) == Interval(3, None)

    def test_indivisible_count(self):
        assert sorbe_interval(Counter("a"), rbe("a[2;3]")).is_empty

    def test_touched_star(self):
        assert sorbe_interval(Counter("ab"), rbe("(a, b)*")) == Interval(1, None)
        assert sorbe_interval(Counter("aab"), rbe("(a, b)*")).is_empty

    def test_plus_over_rigid_body(self):
        e = Plus(Concat(Symbol("a"), Symbol("b")))
        assert sorbe_interval(Counter(), e) == Interval(0, 0)
        assert sorbe_interval(Counter("aabb"), e) == Interval(1, 2)
        assert sorbe_interval(Counter("aab"), e).is_empty

    def test_plus_over_nullable_body(self):
        # Padding with empty copies means any positive repetition count
        # works once the bag fits some number of body copies.
        e = Plus(Concat(Symbol("a", Interval(0, 1)), Symbol("b", Interval(0, 1))))
        assert sorbe_interval(Counter(), e) == ANY
        assert sorbe_interval(Counter("aab"), e) == Interval(1, None)

    def test_requires_single_occurrence(self):
        with pytest.raises(ValueError):
            sorbe_interval(Counter("a"), rbe("a, a"))
        with pytest.raises(ValueError):
            sorbe_interval(Counter("a"), irbe("a & a"))


class TestSorbeMember:
    def test_neighborhood_against_wrong_rule(self):
        w = Counter({"a::t1": 1, "b::t2": 1})
        assert not sorbe_member(w, rbe("b::t2, c::t3"))

    def test_optional_half_satisfied(self):
        w = Counter({"b::t2": 1, "c::t3": 1})
        assert sorbe_member(w, rbe("(b::t2)?, c::t3"))
        assert sorbe_member(Counter({"c::t3": 1}), rbe("(b::t2)?, c::t3"))

    def test_empty_bag_epsilon(self):
        assert sorbe_member(Counter(), rbe("eps"))

    def test_stray_symbols_rejected(self):
        assert sorbe_member(Counter("ab"), rbe("a, b, c?"))
        assert not sorbe_member(Counter("abz"), rbe("a, b, c?"))

    def test_zero_counts_are_not_stray(self):
        assert sorbe_member(Counter({"a": 1, "z": 0}), rbe("a"))


class TestMemberGeneral:
    def test_repeated_symbol_lockstep(self):
        e = rbe("((a, b)* | c), (d | a)*")
        assert member_general(Counter({"a": 2, "b": 1}), e)
        assert not member_general(Counter({"a": 1, "b": 3}), e)

    def test_empty_bag_is_nullability(self):
        for text in ("eps", "a?", "a, b", "(a, b)*", "a | b", "a+"):
            e = rbe(text)
            assert member_general(Counter(), e) == nullable(e)

    def test_intersection(self):
        e = irbe("(a, a+) & (a, a?, a?)")
        assert member_general(Counter("aa"), e)
        assert member_general(Counter("aaa"), e)
        assert not member_general(Counter("a"), e)
        assert not member_general(Counter("aaaa"), e)

    def test_stray_symbols_rejected(self):
        assert not member_general(Counter("az"), rbe("a, b?"))


class TestDispatch:
    def test_sorbe_route(self):
        got = member(Counter("ab"), rbe("a, b"))
        assert got.algorithm == "sorbe-interval"
        assert got.verdict
        assert got.interval == Interval(1, 1)

    def test_ilp_route(self):
        got = member(Counter("aa"), rbe("a, a"))
        assert got.algorithm == "ilp"
        assert got.verdict
        assert got.interval is None

    def test_sorbe_route_stray_symbol(self):
        got = member(Counter("az"), rbe("a, b?"))
        assert not got.verdict
        assert 1 in got.interval

    def test_callers_counter_is_left_unchanged(self):
        # The interval route reads the caller's Counter without copying it.
        for text in ("a, (b | c)*, d?", "a, a"):
            bag = Counter({"a": 1, "b": 2, "d": 0, "z": 1})
            member(bag, rbe(text))
            assert bag == Counter({"a": 1, "b": 2, "d": 0, "z": 1})
            assert list(bag) == ["a", "b", "d", "z"]


def _freshen(e, names):
    """Copy a tree, renaming symbol leaves left to right with fresh names."""
    match e:
        case Epsilon():
            return e
        case Symbol(_, bounds):
            return Symbol(next(names), bounds)
        case Disj(parts) | Concat(parts):
            return type(e)(*(_freshen(part, names) for part in parts))
        case Star(body):
            return Star(_freshen(body, names))
        case Plus(body):
            return Plus(_freshen(body, names))
    raise TypeError


_BOUNDS = [
    Interval(1, 1),
    Interval(0, 1),
    Interval(0, None),
    Interval(1, None),
    Interval(2, 3),
    Interval(0, 0),
]


def sorbe_trees():
    leaves = st.one_of(
        st.just(EPSILON),
        st.builds(sym, st.just("placeholder"), st.sampled_from(_BOUNDS)),
    )
    shapes = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Disj, inner, inner),
            st.builds(Concat, inner, inner),
            st.builds(Star, inner),
            st.builds(Plus, inner),
        ),
        max_leaves=6,
    )
    return shapes.map(lambda shape: _freshen(shape, iter("uvwxyz")))


bags_st = st.dictionaries(
    st.sampled_from("uvwxyz"), st.integers(0, 3), max_size=3
).map(lambda d: Counter({s: c for s, c in d.items() if c}))


@settings(max_examples=250, deadline=None)
@given(sorbe_trees(), bags_st)
def test_sorbe_member_matches_enumeration(e, bag):
    expected = bag_key(bag) in enumerate_language(e, sum(bag.values()))
    assert sorbe_member(bag, e) == expected


@settings(max_examples=150, deadline=None)
@given(sorbe_trees(), bags_st, st.integers(0, 4))
def test_tiling_interval_matches_unrolled_language(e, bag, i):
    restricted = Counter({s: c for s, c in bag.items() if s in alphabet(e)})
    unrolled = EPSILON if i == 0 else reduce(concat, itertools.repeat(e, i))
    expected = bag_key(restricted) in enumerate_language(
        unrolled, sum(restricted.values())
    )
    assert (i in sorbe_interval(bag, e)) == expected


@settings(max_examples=200, deadline=None)
@given(sorbe_trees(), bags_st)
def test_dispatch_verdict_agrees_with_general_path(e, bag):
    assert member(bag, e).verdict == member_general(bag, e)


def small_trees(symbols):
    bounds = st.sampled_from(_BOUNDS[:5])
    leaves = st.one_of(
        st.just(EPSILON), st.builds(sym, st.sampled_from(symbols), bounds)
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Disj, inner, inner),
            st.builds(Concat, inner, inner),
            st.builds(Star, inner),
        ),
        max_leaves=4,
    )


small_bags = st.dictionaries(
    st.sampled_from("abcd"), st.integers(0, 2), max_size=3
).map(lambda d: Counter({s: c for s, c in d.items() if c}))


@settings(max_examples=200, deadline=None)
@given(small_trees("abcd"), small_bags)
def test_member_general_matches_enumeration(e, bag):
    expected = bag_key(bag) in enumerate_language(e, sum(bag.values()))
    assert member_general(bag, e) == expected


@settings(max_examples=100, deadline=None)
@given(small_trees("ab"), small_trees("ab"), small_bags)
def test_member_general_on_intersections_matches_enumeration(left, right, bag):
    from shexval.rbe import isect

    e = isect(left, right)
    size = sum(bag.values())
    expected = bag_key(bag) in (
        enumerate_language(left, size) & enumerate_language(right, size)
    )
    assert member_general(bag, e) == expected


@pytest.mark.parametrize("op", [Concat, Disj])
def test_wide_flat_rules_compile_and_decide(op):
    e = op(*(Symbol(f"a{i}::t", Interval(0, 1)) for i in range(5000)))
    rule = compile_rule(e)
    assert rule.sorbe and rule.deterministic
    assert rule.product == (op is Concat)
    assert len(rule.targets) == 5000
    assert member(Counter(["a0::t", "a4999::t"]), rule).verdict == (op is Concat)
    assert member(Counter(["a4999::t"]), rule).verdict
    assert not member(Counter(["b::t"]), rule).verdict


def test_nested_repetitions_decide_without_walking_their_bodies(monkeypatch):
    # ((…(a0 , a1)*…) , a99)*: a walk of each repetition's body per call
    # made membership quadratic in the nesting.
    e = Star(Concat(sym("a0"), sym("a1")))
    for i in range(2, 100):
        e = Star(Concat(e, sym(f"a{i}")))
    rule = compile_rule(e, typed=False)
    calls = Counter()
    original = membership_module.alphabet

    def counted(*args):
        calls["alphabet"] += 1
        return original(*args)

    monkeypatch.setattr(membership_module, "alphabet", counted)
    assert member(Counter({f"a{i}": 2 for i in range(100)}), rule).verdict
    assert not member(Counter({"a0": 1}), rule).verdict
    assert calls["alphabet"] == 0
