from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexval.graph import (
    Graph,
    WildcardDecl,
    check_wildcards_disjoint,
    format_graph,
    parse_graph,
    relabel_wildcards,
)
from shexval.rbe import ParseError


class TestNeighborhoods:
    def test_out_lab(self, g0, g2):
        assert g0.out_lab("n1") == Counter({"a": 1, "b": 1})
        assert g2.out_lab("n2") == Counter()
        assert g2.out_lab("n1") == Counter({"b": 1, "c": 1})

    def test_out_lab_node(self, g0, g1):
        assert g1.out_lab_node("n1") == {("b", "n2"), ("c", "n3")}
        assert g0.out_lab_node("n4") == {("c", "n1")}
        assert Graph(nodes=["x"]).out_lab_node("x") == frozenset()

    def test_unknown_node(self, g0):
        with pytest.raises(KeyError):
            g0.out_lab("missing")
        with pytest.raises(KeyError):
            g0.out_lab_node("missing")

    def test_parallel_labels_to_distinct_targets(self):
        g = Graph([("s", "a", "t1"), ("s", "a", "t2")])
        assert g.out_lab("s") == Counter({"a": 2})


def class_key(g, n):
    """The key of node n's label-bag class in the successor rows."""
    rows = g.successor_rows()
    return rows.keys[rows.classes[g.sorted_nodes().index(n)]]


def named_classes(g):
    """The label-bag classes of the successor rows as sets of node names,
    by key."""
    rows = g.successor_rows()
    classes = defaultdict(set)
    for n, c in zip(g.sorted_nodes(), rows.classes):
        classes[rows.keys[c]].add(n)
    return dict(classes)


class TestLabelClasses:
    def test_sinks_and_isolated_nodes_share_the_empty_key(self, g2):
        g = Graph(g2.edges, nodes=["lonely"])
        assert class_key(g, "n2") == class_key(g, "lonely") == ()
        assert named_classes(g)[()] == {"n2", "lonely"}

    def test_key_counts_parallel_labels(self):
        g = Graph([("s", "b", "t1"), ("s", "a", "t1"), ("s", "a", "t2")])
        assert class_key(g, "s") == (("a", 2), ("b", 1))

    def test_relabeled_graph_has_its_own_index(self):
        g = Graph([("s", "ex:x", "t"), ("s", "ex:y", "u"), ("r", "b", "t")])
        assert class_key(g, "s") == (("ex:x", 1), ("ex:y", 1))
        relabeled = relabel_wildcards(
            g, [WildcardDecl("EX", prefix="ex:"), WildcardDecl("R", rest=True)]
        )
        assert class_key(relabeled, "s") == (("EX", 2),)
        assert class_key(relabeled, "r") == (("R", 1),)
        assert class_key(g, "s") == (("ex:x", 1), ("ex:y", 1))


class TestNodeOrder:
    def test_parse_leaves_the_order_and_the_classes_unbuilt(self):
        g = parse_graph("q\ta\tp\nnode\tlonely\n")
        assert g._sorted is None
        assert g._rows is None

    def test_sorted_nodes_is_one_tuple_built_on_first_call(self):
        g = parse_graph("q\ta\tp\nr\tb\tq\nnode\tlonely\n")
        order = g.sorted_nodes()
        assert order == tuple(sorted(g.nodes)) == ("lonely", "p", "q", "r")
        assert g.sorted_nodes() is order


class TestGraphValue:
    def test_duplicate_edges_collapse(self):
        g = Graph([("a", "x", "b"), ("a", "x", "b")])
        assert len(g.edges) == 1

    def test_endpoints_become_nodes(self):
        g = Graph([("a", "x", "b")])
        assert g.nodes == {"a", "b"}

    def test_equality(self):
        assert Graph([("a", "x", "b")]) == Graph([("a", "x", "b")])
        assert Graph([("a", "x", "b")]) != Graph([("a", "x", "b")], nodes=["c"])


class TestParse:
    def test_minimal(self):
        g = parse_graph("n0\ta\tn1\n")
        assert g.edges == {("n0", "a", "n1")}
        assert g.nodes == {"n0", "n1"}

    def test_comments_blanks_and_isolated_nodes(self):
        g = parse_graph("# header\n\nn0\ta\tn1\nnode\tlonely\n")
        assert g.nodes == {"n0", "n1", "lonely"}
        assert len(g.edges) == 1

    def test_duplicate_lines_collapse(self):
        g = parse_graph("n0\ta\tn1\nn0\ta\tn1\n")
        assert len(g.edges) == 1

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("n0\ta\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("n0\ta\tn1\n# fine\nn0\ta\tn1\textra\n")

    def test_empty_field(self):
        with pytest.raises(ParseError, match="empty field"):
            parse_graph("n0\t\tn1\n")

    def test_subject_named_node_is_an_edge(self):
        g = parse_graph("node\ta\tn1\n")
        assert ("node", "a", "n1") in g.edges


class TestWildcards:
    def test_prefix_and_rest(self):
        decls = [
            WildcardDecl("W", prefix="ex:"),
            WildcardDecl("R", rest=True),
        ]
        g = Graph([("s", "ex:name", "t"), ("s", "other", "u")])
        relabeled = relabel_wildcards(g, decls)
        assert relabeled.edges == {("s", "W", "t"), ("s", "R", "u")}

    def test_explicit_set(self):
        decls = [WildcardDecl("AB", labels={"a", "b"})]
        g = Graph([("s", "a", "t"), ("s", "b", "u")])
        assert relabel_wildcards(g, decls).edges == {
            ("s", "AB", "t"),
            ("s", "AB", "u"),
        }

    def test_overlapping_prefixes_rejected(self):
        decls = [WildcardDecl("A", prefix="ex:"), WildcardDecl("B", prefix="ex:a")]
        with pytest.raises(ValueError, match="overlap"):
            check_wildcards_disjoint(decls)

    def test_shared_explicit_label_rejected(self):
        decls = [
            WildcardDecl("A", labels={"x", "y"}),
            WildcardDecl("B", labels={"y"}),
        ]
        with pytest.raises(ValueError, match="share"):
            check_wildcards_disjoint(decls)

    def test_explicit_label_matching_prefix_rejected(self):
        decls = [
            WildcardDecl("A", labels={"ex:name"}),
            WildcardDecl("B", prefix="ex:"),
        ]
        with pytest.raises(ValueError):
            check_wildcards_disjoint(decls)

    def test_two_rests_rejected(self):
        decls = [WildcardDecl("A", rest=True), WildcardDecl("B", rest=True)]
        with pytest.raises(ValueError, match="one rest"):
            check_wildcards_disjoint(decls)

    def test_unclaimed_label_keeps_its_name(self):
        g = Graph([("s", "foo", "t"), ("s", "a", "u")])
        relabeled = relabel_wildcards(g, [WildcardDecl("A", labels={"a"})])
        assert relabeled.edges == {("s", "foo", "t"), ("s", "A", "u")}

    def test_unclaimed_label_named_like_a_wildcard_is_rejected(self):
        g = Graph([("s", "A", "t")])
        with pytest.raises(ValueError, match="'A'"):
            relabel_wildcards(g, [WildcardDecl("A", labels={"a"})])

    def test_the_least_label_named_like_a_wildcard_is_reported(self):
        g = Graph([("s", "S", "t"), ("s", "P", "t"), ("s", "a", "u")])
        decls = [WildcardDecl("P", prefix="x"), WildcardDecl("S", labels={"a"})]
        with pytest.raises(ValueError, match="'P'"):
            relabel_wildcards(g, decls)

    def test_exactly_one_form_required(self):
        with pytest.raises(ValueError):
            WildcardDecl("A")
        with pytest.raises(ValueError):
            WildcardDecl("A", labels={"a"}, prefix="b")


edges_st = st.lists(
    st.tuples(
        st.sampled_from("pqrs"),
        st.sampled_from(["a", "b", "ex:x", "ex:y"]),
        st.sampled_from("pqrs"),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(edges_st, st.sets(st.sampled_from("pqrs"), max_size=2))
def test_out_lab_total_matches_neighborhood_size(edges, extra):
    g = Graph(edges, extra)
    for n in g.nodes:
        assert sum(g.out_lab(n).values()) == len(g.out_lab_node(n))


@settings(max_examples=200, deadline=None)
@given(edges_st, st.sets(st.sampled_from("pqrstu"), max_size=3))
def test_label_classes_partition_nodes_by_label_bag(edges, extra):
    g = Graph(edges, extra)
    classes = named_classes(g)
    members = [n for nodes in classes.values() for n in nodes]
    assert sorted(members) == sorted(g.nodes)
    for key, nodes in classes.items():
        for n in nodes:
            assert key == class_key(g, n) == tuple(sorted(g.out_lab(n).items()))


@settings(max_examples=200, deadline=None)
@given(edges_st, st.sets(st.sampled_from("pqrstu"), max_size=3))
def test_label_classes_list_their_nodes_in_node_order(edges, extra):
    g = Graph(edges, extra)
    order = g.sorted_nodes()
    rows = g.successor_rows()
    listed = defaultdict(list)
    for n, c in zip(order, rows.classes):
        listed[rows.keys[c]].append(n)
    for key, nodes in listed.items():
        assert nodes == sorted(nodes)
    sinks = [n for n in order if not g.out_lab_node(n)]
    assert listed.get((), []) == sinks
    assert list(listed) == list(rows.keys)


@settings(max_examples=200, deadline=None)
@given(edges_st, st.sets(st.sampled_from("pqrstu"), max_size=3))
def test_rows_number_the_label_bag_classes(edges, extra):
    g = Graph(edges, extra)
    order = g.sorted_nodes()
    assert order == tuple(sorted(g.nodes))
    rows = g.successor_rows()
    # The reference: the positions grouped by each node's label bag, read
    # off its successors by name.
    by_bag = defaultdict(list)
    for i, n in enumerate(order):
        by_bag[tuple(sorted(g.out_lab(n).items()))].append(i)
    members = defaultdict(list)
    for i, c in enumerate(rows.classes):
        members[c].append(i)
    assert sorted(members.values()) == sorted(by_bag.values())
    assert sorted(members) == list(range(len(rows.keys)))
    assert len(rows.sizes) == len(rows.firsts) == len(rows.keys)
    for c, positions in members.items():
        assert positions == by_bag[rows.keys[c]]
        for i in positions:
            row = rows.labels[rows.starts[i] : rows.starts[i + 1]]
            assert rows.keys[c] == tuple(sorted(Counter(row).items()))
        assert rows.sizes[c] == len(positions)
        assert rows.firsts[c] == min(positions)
    # Classes are numbered in the order of their first nodes.
    assert list(rows.firsts) == sorted(rows.firsts)
    assert g.sorted_nodes() is order and g.successor_rows() is rows


@settings(max_examples=200, deadline=None)
@given(edges_st, st.sets(st.sampled_from("pqrstu"), max_size=3))
def test_the_kept_views_match_the_successor_index(edges, extra):
    assert_rows_match_the_successor_index(Graph(edges, extra))


def test_the_kept_views_are_built_on_first_call_and_kept():
    # x's a-edges tell name order (s10 before s2) from length order, which
    # the generated graphs, whose nodes have one-character names, cannot.
    g = parse_graph(
        "q\ta\tp\nr\tb\tq\nr\ta\tq\nq\ta\tr\nnode\tlonely\n"
        "x\ta\ts2\nx\ta\ts10\n"
    )
    assert g._inbound is None and g._pairs is None
    rows = g.successor_rows()
    assert g.successor_rows() is rows
    assert rows.keys == ((), (("a", 2),), (("a", 1), ("b", 1)))
    # Positions: lonely 0, p 1, q 2, r 3, s10 4, s2 5, x 6.
    assert list(rows.targets[rows.starts[6]:rows.starts[7]]) == [4, 5]
    assert list(rows.classes) == [0, 0, 1, 2, 0, 0, 1]
    assert rows.firsts == (0, 2, 3) and rows.sizes == (4, 2, 1)
    inbound, pairs = g.inbound_rows(), g.edge_pairs()
    assert g.inbound_rows() is inbound and g.edge_pairs() is pairs
    # p has an in-edge from q, q two from r, r one from q, s10 and s2 one
    # each from x.
    assert list(inbound.starts) == [0, 0, 1, 3, 4, 5, 6, 6]
    assert list(inbound.sources) == [2, 3, 3, 2, 6, 6]
    assert inbound.labels[0] == inbound.labels[3] == "a"
    assert sorted(inbound.labels[1:3]) == ["a", "b"]
    # Classes: () for lonely, p, s10 and s2, {a: 2} for q and x,
    # {a: 1, b: 1} for r.
    assert pairs.pairs == (("a", 0), ("a", 1), ("a", 2), ("b", 1))
    assert_rows_match_the_successor_index(g)


@settings(max_examples=200, deadline=None)
@given(edges_st)
def test_parse_of_format_is_identity(edges):
    g = Graph(edges, nodes=["spare"])
    assert parse_graph(format_graph(g)) == g


@settings(max_examples=200, deadline=None)
@given(edges_st)
def test_identity_wildcard_family_is_identity(edges):
    g = Graph(edges)
    labels = {label for _, label, _ in g.edges}
    decls = [WildcardDecl(label, labels={label}) for label in labels]
    assert relabel_wildcards(g, decls) == g


@settings(max_examples=200, deadline=None)
@given(edges_st)
def test_relabel_preserves_nodes_and_parallel_free_edge_count(edges):
    g = Graph(edges)
    decls = [WildcardDecl("EX", prefix="ex:"), WildcardDecl("R", rest=True)]
    relabeled = relabel_wildcards(g, decls)
    assert relabeled.nodes == g.nodes
    # Parallel edges whose labels land in one wildcard merge under set
    # semantics; count preservation is only promised without such pairs.
    collapsible = len(g.edges) - len({(s, t) for s, _, t in g.edges})
    if not collapsible:
        assert len(relabeled.edges) == len(g.edges)
    else:
        assert len(relabeled.edges) <= len(g.edges)


def reference_parse_graph(text):
    """The triple format as read before the one-pass index: every line
    and field stripped, then the edge set, the nodes and the successor
    index each built in a pass of their own."""
    edges = []
    nodes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if any(not f for f in fields):
            raise ParseError(f"line {lineno}: empty field")
        if len(fields) == 3:
            edges.append(tuple(fields))
        elif len(fields) == 2 and fields[0] == "node":
            nodes.append(fields[1])
        else:
            raise ParseError(
                f"line {lineno}: expected subject<TAB>predicate<TAB>object "
                f"or node<TAB>id, got {len(fields)} field(s)"
            )
    edge_set = frozenset((str(s), str(label), str(t)) for s, label, t in edges)
    touched = {s for s, _, _ in edge_set} | {t for _, _, t in edge_set}
    succ = defaultdict(set)
    for s, label, t in edge_set:
        succ[s].add((label, t))
    return frozenset(map(str, nodes)) | touched, edge_set, succ


def _label_classes(nodes, succ):
    classes = defaultdict(set)
    for n in nodes:
        classes[tuple(sorted(Counter(a for a, _ in succ.get(n, ())).items()))].add(n)
    return dict(classes)


def field_st(cores):
    return st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", " ", "  ", "\xa0", "\x1f"]),
            st.sampled_from(cores),
            st.sampled_from(["", " ", "\xa0"]),
        ),
    )


some_field_st = field_st(["n0", "n1", "a", "b c", "node", "x#"])
any_field_st = field_st(["", "n0", "a", "node", "#c"])
line_st = st.one_of(
    st.lists(some_field_st, min_size=3, max_size=3).map("\t".join),
    st.lists(any_field_st, min_size=1, max_size=5).map("\t".join),
    st.lists(any_field_st, max_size=2).map(lambda f: "\t".join(["node", *f])),
    st.sampled_from(["", "   ", "# note", " #\ta\tb", "\xa0"]),
)


@st.composite
def triple_texts(draw):
    # A pool of lines, drawn from again so that lines repeat.
    pool = draw(st.lists(line_st, min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool), max_size=10))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=500, deadline=None)
@given(triple_texts())
def test_parse_matches_the_per_pass_reference(text):
    try:
        nodes, edges, succ = reference_parse_graph(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_graph(text)
        assert str(raised.value) == str(exc)
        return
    g = parse_graph(text)
    assert g.nodes == nodes
    assert g.edges == edges
    for n in nodes:
        assert g.out_lab_node(n) == succ.get(n, frozenset())
    assert named_classes(g) == _label_classes(nodes, succ)
    assert_rows_match_the_successor_index(g)


def assert_rows_match_the_successor_index(g):
    order = g.sorted_nodes()
    rows = g.successor_rows()
    keys = list(rows.keys)
    assert len(rows.starts) == len(order) + 1 == len(rows.classes) + 1
    assert rows.starts[0] == 0 and rows.starts[-1] == len(rows.labels) == len(rows.targets)
    for i, n in enumerate(order):
        edges = range(rows.starts[i], rows.starts[i + 1])
        row = {(rows.labels[k], order[rows.targets[k]]) for k in edges}
        assert len(row) == len(edges)
        assert row == g.out_lab_node(n)
        assert keys[rows.classes[i]] == tuple(sorted(g.out_lab(n).items()))
        # Each row lists its edges by label, then target position, which
        # is the order of its sorted (label, target name) pairs.
        in_order = [(rows.labels[k], rows.targets[k]) for k in edges]
        assert in_order == sorted(in_order)
        assert [(a, order[m]) for a, m in in_order] == sorted(g.out_lab_node(n))
    assert list(rows.firsts) == [list(rows.classes).index(c) for c in range(len(keys))]
    # Each class key is the counted labels of its first node's row.
    for c, i in enumerate(rows.firsts):
        first_row = rows.labels[rows.starts[i] : rows.starts[i + 1]]
        assert rows.keys[c] == tuple(sorted(Counter(first_row).items()))
    # The inbound rows: per node, its in-edges as (source, label) pairs,
    # ordered by source.
    inbound = g.inbound_rows()
    position = {n: i for i, n in enumerate(order)}
    into = {m: [] for m in order}
    for n in order:
        for a, m in g.out_lab_node(n):
            into[m].append((position[n], a))
    assert len(inbound.starts) == len(order) + 1
    assert inbound.starts[0] == 0
    assert inbound.starts[-1] == len(inbound.sources) == len(inbound.labels)
    assert len(inbound.labels) == len(g.edges)
    for i, m in enumerate(order):
        edges = range(inbound.starts[i], inbound.starts[i + 1])
        row = [(inbound.sources[j], inbound.labels[j]) for j in edges]
        assert sorted(row) == sorted(into[m])
        assert [n for n, _ in row] == sorted(n for n, _ in row)
    # The edge pairs: each out-edge's label and its target's class, the
    # distinct pairs sorted.
    numbers, pairs = g.edge_pairs()
    assert len(numbers) == len(rows.targets)
    assert list(pairs) == sorted(set(pairs))
    seen = set()
    for i, n in enumerate(order):
        edges = range(rows.starts[i], rows.starts[i + 1])
        row = sorted(pairs[numbers[k]] for k in edges)
        expected = sorted(
            (a, keys.index(tuple(sorted(g.out_lab(m).items()))))
            for a, m in g.out_lab_node(n)
        )
        assert row == expected
        seen.update(expected)
    assert seen == set(pairs)
