import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shexval.membership import compile_rule
from shexval.rbe import (
    ANY,
    EMPTY,
    EPSILON,
    ONCE,
    OPT,
    SOME,
    Concat,
    Disj,
    EnumerationLimit,
    Interval,
    Isect,
    ParseError,
    Plus,
    Star,
    Symbol,
    alphabet,
    choice_groups,
    enumerate_language,
    fold,
    format_rbe,
    interval_add,
    interval_intersect,
    is_sorbe,
    is_symbol_product,
    normalize_product,
    nullable,
    opt,
    parse_rbe,
    plus,
    project_sigma,
    split_symbol,
    typed_symbol,
    walk,
)
from shexval.sat import rbe_satisfiable


def k(*pairs):
    """Shorthand for a canonical bag key."""
    return tuple(sorted(pairs))


class TestParse:
    def test_atoms(self):
        assert parse_rbe("eps") == EPSILON
        assert parse_rbe("a") == Symbol("a")
        assert parse_rbe("a::t1") == Symbol("a::t1")
        assert parse_rbe("<W>::t") == Symbol("<W>::t")

    def test_symbol_sugar(self):
        assert parse_rbe("a?") == Symbol("a", OPT)
        assert parse_rbe("a*") == Symbol("a", ANY)
        assert parse_rbe("a+") == Symbol("a", SOME)
        assert parse_rbe("a[2;3]") == Symbol("a", Interval(2, 3))
        assert parse_rbe("a[1;*]") == Symbol("a", SOME)
        assert parse_rbe("a[0;0]") == Symbol("a", Interval(0, 0))

    def test_operators_and_precedence(self):
        assert parse_rbe("a, b") == Concat(Symbol("a"), Symbol("b"))
        assert parse_rbe("a | b, c") == Disj(
            Symbol("a"), Concat(Symbol("b"), Symbol("c"))
        )
        assert parse_rbe("(a | b), c") == Concat(
            Disj(Symbol("a"), Symbol("b")), Symbol("c")
        )
        assert parse_rbe("a, b, c") == Concat(
            Concat(Symbol("a"), Symbol("b")), Symbol("c")
        )

    def test_compound_postfix(self):
        assert parse_rbe("(a | b)*") == Star(Disj(Symbol("a"), Symbol("b")))
        assert parse_rbe("(a, b)+") == Plus(Concat(Symbol("a"), Symbol("b")))
        assert parse_rbe("(a)?") == Disj(EPSILON, Symbol("a"))
        # one-or-more of a nullable body collapses to a star
        assert parse_rbe("(a?)+") == Star(Symbol("a", OPT))
        # a suffixed symbol is no longer eligible for interval sugar
        assert parse_rbe("a?*") == Star(Symbol("a", OPT))

    def test_isect_gated(self):
        assert parse_rbe("a & b", allow_isect=True) == Isect(Symbol("a"), Symbol("b"))
        with pytest.raises(ParseError):
            parse_rbe("a & b")

    def test_whitespace_insensitive(self):
        assert parse_rbe("a,b|c") == parse_rbe(" a , b | c ")

    @pytest.mark.parametrize(
        "bad",
        ["", "a |", "(a", "a)", "a[2]", "a[;3]", "(a, b)[1;2]", "a b", "eps[1;2]"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rbe(bad)


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "eps",
            "a",
            "a?",
            "a[2;3]",
            "a[2;*]",
            "a, b | c",
            "(a | b), c",
            "(a | b)*",
            "(a::t1, b::t2)+",
            "eps | a[0;0]",
        ],
    )
    def test_canonical_text_round_trips(self, text):
        assert format_rbe(parse_rbe(text)) == text

    def test_parse_format_parse(self):
        for text in ["a,b|(c?)*", "(a|eps),b+", "a[0;4],(b,c)?"]:
            tree = parse_rbe(text)
            assert parse_rbe(format_rbe(tree)) == tree


class TestAnalyses:
    def test_nullable(self):
        assert nullable(EPSILON)
        assert nullable(parse_rbe("a?"))
        assert nullable(parse_rbe("(a, b)*"))
        assert nullable(parse_rbe("a? , b*"))
        assert not nullable(parse_rbe("a"))
        assert not nullable(parse_rbe("a? , b"))
        assert not nullable(parse_rbe("(a, b)+"))
        assert nullable(parse_rbe("a* & b?", allow_isect=True))
        assert not nullable(parse_rbe("a+ & b*", allow_isect=True))

    def test_alphabet(self):
        assert alphabet(parse_rbe("a, (b::t | c)*")) == {"a", "b::t", "c"}
        assert alphabet(EPSILON) == frozenset()

    def test_is_sorbe(self):
        assert is_sorbe(parse_rbe("a, b?"))
        assert is_sorbe(parse_rbe("(a | b)*"))
        assert is_sorbe(parse_rbe("a, (b | c)+"))
        assert not is_sorbe(parse_rbe("a | a"))
        assert not is_sorbe(parse_rbe("a, (b | a)"))
        assert not is_sorbe(parse_rbe("a & b", allow_isect=True))

    def test_is_symbol_product(self):
        assert is_symbol_product(parse_rbe("a, b[2;3], c*"))
        assert is_symbol_product(EPSILON)
        assert not is_symbol_product(parse_rbe("(a | b), c"))
        assert not is_symbol_product(parse_rbe("(a, b)*"))

    def test_choice_groups(self):
        e = parse_rbe("(a | b | c), (b | d | a), (a | d)")
        assert choice_groups(e) == [
            frozenset("abc"),
            frozenset("abd"),
            frozenset("ad"),
        ]
        assert choice_groups(parse_rbe("a")) == [frozenset("a")]
        assert choice_groups(parse_rbe("a, b")) == [frozenset("a"), frozenset("b")]
        assert choice_groups(parse_rbe("a?")) is None
        assert choice_groups(parse_rbe("(a | b)*")) is None
        assert choice_groups(EPSILON) is None

    def test_project_sigma(self):
        projected = project_sigma(parse_rbe("a::t1, (b::t2 | a::t3)*"))
        assert projected == parse_rbe("a, (b | a)*")

    def test_typed_symbol_split(self):
        assert typed_symbol("a", "t1") == "a::t1"
        assert split_symbol("a::t1") == ("a", "t1")
        assert split_symbol("plain") == ("plain", None)
        assert split_symbol("has:colon::t") == ("has:colon", "t")


class TestEnumerate:
    def test_small_languages(self):
        assert enumerate_language(parse_rbe("a?, b*"), 2) == {
            k(),
            k(("a", 1)),
            k(("b", 1)),
            k(("a", 1), ("b", 1)),
            k(("b", 2)),
        }
        assert enumerate_language(parse_rbe("a | b"), 3) == {k(("a", 1)), k(("b", 1))}
        assert enumerate_language(parse_rbe("a[2;3]"), 5) == {
            k(("a", 2)),
            k(("a", 3)),
        }
        assert enumerate_language(parse_rbe("(a, b)+"), 4) == {
            k(("a", 1), ("b", 1)),
            k(("a", 2), ("b", 2)),
        }
        assert enumerate_language(parse_rbe("a* & (a, a)", allow_isect=True), 4) == {
            k(("a", 2))
        }

    def test_empty_and_eps(self):
        assert enumerate_language(Symbol("a", EMPTY), 5) == set()
        assert enumerate_language(EPSILON, 5) == {k()}
        assert enumerate_language(parse_rbe("(a?)*"), 3) == {
            k(),
            k(("a", 1)),
            k(("a", 2)),
            k(("a", 3)),
        }

    def test_limit(self):
        with pytest.raises(EnumerationLimit):
            enumerate_language(parse_rbe("a*"), 10, limit=5)

    @given(
        st.sampled_from(["a*", "(a | b)*", "a?, b?", "(a, b?)+", "a[1;2], b*"]),
        st.integers(0, 4),
    )
    def test_size_bound_and_monotonicity(self, text, max_size):
        e = parse_rbe(text)
        bags = enumerate_language(e, max_size)
        for key in bags:
            assert sum(c for _, c in key) <= max_size
            assert {s for s, _ in key} <= alphabet(e)
        assert bags <= enumerate_language(e, max_size + 1)


class TestNormalizeProduct:
    def test_merges_repeats(self):
        assert normalize_product(parse_rbe("a, a+")) == {"a": Interval(2, None)}
        assert normalize_product(parse_rbe("a, a?, a?")) == {"a": Interval(1, 3)}
        assert normalize_product(parse_rbe("b, a?, b[2;2]")) == {
            "b": Interval(3, 3),
            "a": OPT,
        }

    def test_eps_and_empty(self):
        assert normalize_product(EPSILON) == {}
        assert normalize_product(Symbol("a", EMPTY)) is None
        assert normalize_product(Concat(Symbol("a"), Symbol("b", EMPTY))) is None

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            normalize_product(parse_rbe("(a | b), c"))
        with pytest.raises(ValueError):
            normalize_product(parse_rbe("(a, b)*"))


symbols_st = st.sampled_from(["a", "b", "c", "d::t1", "e::t2"])
bounds_st = st.sampled_from(
    [ONCE, OPT, ANY, SOME, Interval(2, 3), Interval(0, 0), Interval(2, 2), EMPTY]
)
trees_st = st.recursive(
    st.one_of(st.just(EPSILON), st.builds(Symbol, symbols_st, bounds_st)),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=4).map(lambda parts: Disj(*parts)),
        st.lists(kids, min_size=2, max_size=4).map(lambda parts: Concat(*parts)),
        st.builds(Star, kids),
        st.builds(plus, kids),
        st.builds(opt, kids),
    ),
    max_leaves=8,
)


@given(trees_st)
def test_format_parse_round_trip(tree):
    assert parse_rbe(format_rbe(tree)) == tree


@given(trees_st)
def test_nullable_agrees_with_enumeration(tree):
    assert nullable(tree) == (k() in enumerate_language(tree, 2, limit=100_000))


class _NotProduct(Exception):
    pass


def reference_product_form(e):
    """Per-symbol intervals of eps, interval symbols, unordered
    concatenation and intersection, None for an empty language: the
    part-by-part recursion ``sat.core`` once held beside
    ``normalize_product``, kept as the reference."""
    if e == EPSILON:
        return {}
    if isinstance(e, Symbol):
        return None if e.bounds.is_empty else {e.name: e.bounds}
    if not isinstance(e, (Concat, Isect)):
        raise _NotProduct
    forms = [reference_product_form(part) for part in e.parts]
    if None in forms:
        return None
    merged = {}
    if isinstance(e, Concat):
        for form in forms:
            for a, iv in form.items():
                merged[a] = interval_add(merged[a], iv) if a in merged else iv
        return merged
    for a in sorted(set().union(*forms)):
        iv = functools.reduce(
            interval_intersect, [form.get(a, Interval(0, 0)) for form in forms]
        )
        if iv.is_empty:
            return None
        merged[a] = iv
    return merged


product_trees_st = st.recursive(
    st.one_of(st.just(EPSILON), st.builds(Symbol, symbols_st, bounds_st)),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=4).map(lambda parts: Concat(*parts)),
        st.lists(kids, min_size=2, max_size=4).map(lambda parts: Isect(*parts)),
    ),
    max_leaves=10,
)


@given(product_trees_st)
def test_normalize_product_matches_the_reference(tree):
    assert normalize_product(tree) == reference_product_form(tree)


@given(
    product_trees_st,
    product_trees_st,
    st.sampled_from([lambda e: Disj(e, Symbol("a")), Star, Plus]),
    st.sampled_from([Concat, Isect]),
)
def test_normalize_product_rejects_choice_and_repetition(tree, other, wrap, op):
    # Anywhere in the tree, even beside a part whose language is empty.
    for e in (wrap(tree), op(other, wrap(tree)), op(wrap(tree), other)):
        with pytest.raises(_NotProduct):
            reference_product_form(e)
        with pytest.raises(ValueError):
            normalize_product(e)


WIDE = 5000


@pytest.mark.parametrize("op", [Concat, Disj])
def test_wide_flat_nodes_need_no_deep_recursion(op):
    e = op(*(Symbol(f"a{i}::t", OPT) for i in range(WIDE)))
    assert len(e.parts) == WIDE
    assert alphabet(e) == {f"a{i}::t" for i in range(WIDE)}
    assert nullable(e)
    assert is_sorbe(e)
    assert project_sigma(e) == op(*(Symbol(f"a{i}", OPT) for i in range(WIDE)))
    assert parse_rbe(format_rbe(e)) == e
    if op is Concat:
        assert normalize_product(e) == {f"a{i}::t": OPT for i in range(WIDE)}
    else:
        with pytest.raises(ValueError):
            normalize_product(e)


def reference_parts(e):
    if isinstance(e, (Concat, Disj, Isect)):
        return e.parts
    return (e.body,) if isinstance(e, (Star, Plus)) else ()


def reference_postorder(e):
    """The nodes of ``e`` in the order a recursion over the parts, left to
    right, finishes them."""
    return [n for part in reference_parts(e) for n in reference_postorder(part)] + [e]


@given(st.one_of(trees_st, product_trees_st))
def test_fold_finishes_nodes_like_a_recursion(tree):
    finished = []

    def step(node, values):
        # Each part's value is the part itself, so the values must be the
        # node's parts in order.
        assert [id(v) for v in values] == [id(p) for p in reference_parts(node)]
        finished.append(node)
        return node

    assert fold(tree, step) is tree
    assert [id(n) for n in finished] == [id(n) for n in reference_postorder(tree)]


def test_fold_and_walk_reject_non_nodes():
    e = Concat(Symbol("a"), Star("b"))
    with pytest.raises(TypeError, match="not an expression node: 'b'"):
        fold(e, lambda node, values: None)
    with pytest.raises(TypeError, match="not an expression node: 'b'"):
        list(walk(e))


DEEP = 5000


def deep_star_tree():
    """``((...(a0::t)*, a1::t)*, ...)*``, ``DEEP`` nodes deep."""
    e = Symbol("a0::t")
    for i in range(1, DEEP // 2 + 1):
        e = Star(Concat(e, Symbol(f"a{i}::t")))
    return e


def deep_product_tree():
    """``a::t`` concatenated and intersected in turn, ``DEEP`` nodes deep;
    its language is one bag of ``DEEP // 2 + 1`` copies of ``a::t``."""
    e = Symbol("a::t")
    for i in range(DEEP):
        e = Concat(e, Symbol("a::t")) if i % 2 else Isect(e, Symbol("a::t", ANY))
    return e


def test_deep_trees_need_no_deep_recursion():
    star_tree, product_tree = deep_star_tree(), deep_product_tree()
    n = DEEP // 2
    for e in (star_tree, product_tree):
        compile_rule(e)
        assert len(list(walk(project_sigma(e)))) == len(list(walk(e)))
    text = format_rbe(star_tree)
    assert text.startswith("(" * n + "a0::t") and text.endswith(f", a{n}::t)*")
    assert format_rbe(product_tree).count("a::t") == DEEP + 1
    assert enumerate_language(star_tree, 0) == {k()}
    assert enumerate_language(product_tree, 0) == set()
    with pytest.raises(ValueError):
        normalize_product(star_tree)
    assert normalize_product(product_tree) == {"a::t": Interval(n + 1, n + 1)}
    assert rbe_satisfiable(star_tree).witness == {}
    assert rbe_satisfiable(product_tree).witness == {"a::t": n + 1}


def test_nested_operators_splice_into_one_node():
    a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
    assert Concat(Concat(a, b), c) == Concat(a, Concat(b, c)) == Concat(a, b, c)
    assert Disj(a, Disj(b, c)).parts == (a, b, c)
    assert Concat(Disj(a, b), c).parts == (Disj(a, b), c)
    with pytest.raises(ValueError):
        Concat(a)
