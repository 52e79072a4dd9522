import itertools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from shexval.graph import Graph
from shexval.rbe import ANY, EMPTY, ONCE, OPT, Interval
from shexval.sat import FlowNetwork, build_flow_network, circulation_exists, max_flow
from shexval.sat import core as sat_core
from shexval.schema import parse_schema
from shexval.validate import validate_multi


class TestMaxFlow:
    def test_single_path_bottleneck(self):
        capacity = {("s", "a"): 3, ("a", "t"): 2}
        assert max_flow(capacity, "s", "t") == 2

    def test_diamond(self):
        capacity = {("s", "a"): 1, ("s", "b"): 1, ("a", "t"): 1, ("b", "t"): 1}
        assert max_flow(capacity, "s", "t") == 2

    def test_rerouting_needed(self):
        # The greedy s-a-b-t path must be partially undone via the residual.
        capacity = {
            ("s", "a"): 1,
            ("s", "b"): 1,
            ("a", "b"): 1,
            ("a", "t"): 1,
            ("b", "t"): 1,
        }
        assert max_flow(capacity, "s", "t") == 2

    def test_disconnected(self):
        assert max_flow({("a", "b"): 5}, "s", "t") == 0

    def test_antiparallel_arcs(self):
        capacity = {("s", "a"): 2, ("a", "s"): 9, ("a", "t"): 1}
        assert max_flow(capacity, "s", "t") == 1


class TestFlowNetwork:
    def test_rejects_bad_bounds(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_arc("u", "v", 3, 2)
        with pytest.raises(ValueError):
            net.add_arc("u", "v", -1, 2)

    def test_records_arcs(self):
        net = FlowNetwork()
        net.add_arc("u", "v", 0, 2)
        net.add_arc("v", "w", 1, 1)
        assert net.arcs == [("u", "v", 0, 2), ("v", "w", 1, 1)]


class TestCirculation:
    def test_empty_network(self):
        assert circulation_exists(FlowNetwork())

    def test_cycle_with_lower_bounds(self):
        net = FlowNetwork()
        net.add_arc("a", "b", 1, 2)
        net.add_arc("b", "a", 1, 2)
        assert circulation_exists(net)

    def test_demand_into_capacity_starved_node(self):
        net = FlowNetwork()
        net.add_arc("a", "b", 2, 2)
        net.add_arc("b", "a", 0, 1)
        assert not circulation_exists(net)

    def test_dead_end_demand(self):
        net = FlowNetwork()
        net.add_arc("a", "b", 1, 1)
        assert not circulation_exists(net)


def one_symbol_per_group_bags(groups):
    for combo in itertools.product(*groups):
        yield Counter(combo)


def intersects_by_enumeration(groups, intervals):
    # Empty `groups` still yields the empty bag via the nullary product.
    for bag in one_symbol_per_group_bags(groups):
        if any(s not in intervals for s in bag):
            continue
        if all(bag.get(s, 0) in iv for s, iv in intervals.items()):
            return True
    return False


class TestChoiceGroupNetwork:
    def test_two_groups_with_shared_symbol(self):
        net = build_flow_network(
            [{"a", "c"}, {"b", "c"}],
            {"a": OPT, "b": ANY, "c": ONCE},
        )
        assert circulation_exists(net)

    def test_single_group_exact_match(self):
        assert circulation_exists(build_flow_network([{"a"}], {"a": ONCE}))

    def test_symbol_missing_from_intervals(self):
        assert not circulation_exists(build_flow_network([{"a"}], {"b": ANY}))

    def test_interval_floor_exceeds_supply(self):
        assert not circulation_exists(
            build_flow_network([{"a"}], {"a": Interval(2, 3)})
        )

    def test_empty_interval_kills_symbol(self):
        assert not circulation_exists(
            build_flow_network([{"a"}, {"b"}], {"a": EMPTY, "b": ONCE})
        )

    def test_empty_interval_on_unused_symbol(self):
        assert not circulation_exists(
            build_flow_network([{"a"}], {"a": ONCE, "b": EMPTY})
        )

    def test_no_groups(self):
        assert circulation_exists(build_flow_network([], {}))
        assert circulation_exists(build_flow_network([], {"a": OPT}))
        assert not circulation_exists(build_flow_network([], {"a": ONCE}))

    def test_mandatory_symbol_outside_groups(self):
        assert not circulation_exists(
            build_flow_network([{"a"}], {"a": ONCE, "b": Interval(1, 2)})
        )


intervals_st = st.builds(
    Interval, st.integers(0, 3), st.one_of(st.none(), st.integers(0, 4))
)
groups_st = st.lists(
    st.sets(st.sampled_from("abcd"), min_size=1, max_size=3), min_size=0, max_size=3
)


@settings(max_examples=300, deadline=None)
@given(
    groups_st,
    st.dictionaries(st.sampled_from("abcd"), intervals_st, max_size=4),
)
def test_circulation_matches_enumeration(groups, intervals):
    got = circulation_exists(build_flow_network(groups, intervals))
    assert got == intersects_by_enumeration(groups, intervals)


@settings(max_examples=150, deadline=None)
@given(
    groups_st,
    st.dictionaries(st.sampled_from("abcd"), intervals_st, max_size=4),
    st.randoms(),
)
def test_circulation_invariant_under_presentation(groups, intervals, rng):
    baseline = circulation_exists(build_flow_network(groups, intervals))

    shuffled = list(groups)
    rng.shuffle(shuffled)
    assert circulation_exists(build_flow_network(shuffled, intervals)) == baseline

    letters = list("abcd")
    rng.shuffle(letters)
    rename = dict(zip("abcd", letters))
    renamed_groups = [{rename[s] for s in group} for group in groups]
    renamed_intervals = {rename[s]: iv for s, iv in intervals.items()}
    assert (
        circulation_exists(build_flow_network(renamed_groups, renamed_intervals))
        == baseline
    )


def reference_build_flow_network(groups, intervals):
    """The per-group network: a source arc [1; 1] and a group node for
    every group, identical ones included."""
    groups = list(groups)
    k = len(groups)
    net = FlowNetwork()
    source = ("src",)
    target = ("snk",)
    seen = set()
    for i, group in enumerate(groups):
        gnode = ("grp", i)
        net.add_arc(source, gnode, 1, 1)
        for symbol in sorted(group):
            net.add_arc(gnode, ("sym", symbol), 0, 1)
            seen.add(symbol)
    for symbol in sorted(seen | set(intervals)):
        iv = intervals.get(symbol)
        if iv is None:
            continue
        if iv.is_empty:
            net.add_arc(("sym", symbol), target, k + 1, k + 1)
        elif iv.lo > (upper := k if iv.hi is None else min(iv.hi, k)):
            net.add_arc(("sym", symbol), target, iv.lo, iv.lo)
        else:
            net.add_arc(("sym", symbol), target, iv.lo, upper)
    net.add_arc(target, source, 0, k)
    return net


# Groups with repeats, the empty group included, over symbols some of
# which no interval names.
repeated_groups_st = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from("abcde"), max_size=3), st.integers(1, 5)
    ),
    max_size=4,
).map(lambda pairs: [group for group, c in pairs for _ in range(c)]).flatmap(
    st.permutations
)


@settings(max_examples=400, deadline=None)
@given(
    repeated_groups_st,
    st.dictionaries(
        st.sampled_from("abcd"), st.one_of(intervals_st, st.just(EMPTY)), max_size=4
    ),
)
def test_merged_groups_decide_like_the_per_group_network(groups, intervals):
    net = build_flow_network(groups, intervals)
    expected = circulation_exists(reference_build_flow_network(groups, intervals))
    assert circulation_exists(net) == expected
    # One group node per distinct group.
    sources = [arc for arc in net.arcs if arc[0] == ("src",)]
    assert len(sources) == len(set(groups))
    assert sum(lower for _, _, lower, _ in sources) == len(groups)


@pytest.mark.parametrize("algo", ["refine", "rbe0-refine"])
def test_hub_networks_do_not_grow_with_the_hub(monkeypatch, algo):
    # The edges of a hub share one label and type set, so they make one
    # group node with a count: a hub of 3,000 edges builds the networks
    # of a hub of 300, with other bounds on the same arcs.
    build = sat_core.build_flow_network

    def networks(n_edges):
        s = parse_schema("t -> a::u* , a::v?\nu -> eps\nv -> eps\n")
        built = []

        def recorded(groups, intervals):
            net = build(groups, intervals)
            built.append([(u, v) for u, v, _, _ in net.arcs])
            return net

        with monkeypatch.context() as patch:
            patch.setattr(sat_core, "build_flow_network", recorded)
            g = Graph([("h", "a", f"m{i}") for i in range(n_edges)])
            report = validate_multi(g, s, algo)
        assert report.valid
        assert report.typing["h"] == {"t"}
        assert all(report.typing[f"m{i}"] == {"t", "u", "v"} for i in range(n_edges))
        return built

    small = networks(300)
    assert small
    assert max(map(len, small)) < 10
    assert small == networks(1200) == networks(3000)
