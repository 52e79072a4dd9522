from collections import Counter

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

    def test_out_edges_of_a_node_set(self, g1):
        assert g1.out_edges(["n1"]) == {("n1", "b", "n2"), ("n1", "c", "n3")}
        assert g1.out_edges(g1.nodes) == g1.edges
        # Sinks and names outside the graph contribute nothing.
        assert g1.out_edges(["n3", "missing"]) == frozenset()

    def test_unknown_node(self, g0):
        with pytest.raises(KeyError):
            g0.out_lab("missing")
        with pytest.raises(KeyError):
            g0.out_lab_node("missing")

    def test_parallel_labels_to_distinct_targets(self):
        g = Graph([("s", "a", "t1"), ("s", "a", "t2")])
        assert g.out_lab("s") == Counter({"a": 2})


class TestLabelClasses:
    def test_sinks_and_isolated_nodes_share_the_empty_key(self, g2):
        g = Graph(g2.edges, nodes=["lonely"])
        assert g.label_key("n2") == g.label_key("lonely") == ()
        assert set(g.label_classes()[()]) == {"n2", "lonely"}

    def test_key_counts_parallel_labels(self):
        g = Graph([("s", "b", "t1"), ("s", "a", "t1"), ("s", "a", "t2")])
        assert g.label_key("s") == (("a", 2), ("b", 1))

    def test_unknown_node(self, g0):
        with pytest.raises(KeyError):
            g0.label_key("missing")

    def test_relabeled_graph_has_its_own_index(self):
        g = Graph([("s", "ex:x", "t"), ("s", "ex:y", "u"), ("r", "b", "t")])
        assert g.label_key("s") == (("ex:x", 1), ("ex:y", 1))
        relabeled = relabel_wildcards(
            g, [WildcardDecl("EX", prefix="ex:"), WildcardDecl("R", rest=True)]
        )
        assert relabeled.label_key("s") == (("EX", 2),)
        assert relabeled.label_key("r") == (("R", 1),)
        assert g.label_key("s") == (("ex:x", 1), ("ex:y", 1))


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

    def test_unmatched_label(self):
        g = Graph([("s", "foo", "t")])
        with pytest.raises(ValueError, match="foo"):
            relabel_wildcards(g, [WildcardDecl("A", labels={"a"})])

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
    classes = g.label_classes()
    members = [n for nodes in classes.values() for n in nodes]
    assert sorted(members) == sorted(g.nodes)
    for key, nodes in classes.items():
        for n in nodes:
            assert key == g.label_key(n) == tuple(sorted(g.out_lab(n).items()))


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
