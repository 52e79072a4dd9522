"""Feasible-circulation test for networks with per-arc lower bounds.

The standard reduction applies: subtract lower bounds, give every node a
supply/demand balance, and ask whether a super-source/super-sink max flow
saturates all the supply.  Max flow is Edmonds-Karp (BFS augmenting paths);
the networks built here are tiny, so no scaling tricks are needed.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from collections.abc import Hashable, Iterable

from ..rbe import Interval

__all__ = ["FlowNetwork", "build_flow_network", "circulation_exists", "max_flow"]

Node = Hashable


class FlowNetwork:
    """Directed network whose arcs carry [lower; upper] flow bounds."""

    def __init__(self) -> None:
        self.arcs: list[tuple[Node, Node, int, int]] = []

    def add_arc(self, u: Node, v: Node, lower: int, upper: int) -> None:
        if lower < 0 or upper < lower:
            raise ValueError(f"bad arc bounds [{lower};{upper}]")
        self.arcs.append((u, v, lower, upper))


def max_flow(capacity: dict[tuple[Node, Node], int], source: Node, sink: Node) -> int:
    """Edmonds-Karp max flow over aggregated arc capacities."""
    residual: dict[tuple[Node, Node], int] = defaultdict(int)
    for (u, v), c in capacity.items():
        residual[(u, v)] += c
        residual[(v, u)] += 0
    adjacency: dict[Node, list[Node]] = defaultdict(list)
    for u, v in list(residual):
        adjacency[u].append(v)
    total = 0
    while True:
        parent: dict[Node, Node] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            r = residual[(u, v)]
            bottleneck = r if bottleneck is None else min(bottleneck, r)
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u
        total += bottleneck


def circulation_exists(net: FlowNetwork) -> bool:
    """Whether some flow meets every arc's lower and upper bound."""
    capacity: dict[tuple[Node, Node], int] = defaultdict(int)
    balance: dict[Node, int] = defaultdict(int)
    for u, v, lower, upper in net.arcs:
        capacity[(u, v)] += upper - lower
        balance[v] += lower
        balance[u] -= lower
    source = ("super", "source")
    sink = ("super", "sink")
    required = 0
    for node, b in balance.items():
        if b > 0:
            capacity[(source, node)] += b
            required += b
        elif b < 0:
            capacity[(node, sink)] += -b
    return max_flow(dict(capacity), source, sink) == required


def build_flow_network(
    groups: Iterable[frozenset[str] | set[str]],
    intervals: dict[str, Interval],
) -> FlowNetwork:
    """Network whose circulations are the bags meeting both sides.

    ``groups`` lists symbol-choice groups (one symbol picked per group);
    ``intervals`` gives per-symbol multiplicity constraints.  Identical
    groups share one group node: c copies of a group get a source arc
    [c; c] and arcs [0; c] to their symbols, so the network grows with the
    distinct groups, not with their count.  Symbol-to-sink arcs enforce the
    intervals, with unbounded tops cut to the total group count (no bag can
    exceed it).  Symbols outside ``intervals`` get no outgoing arc and so
    can never be chosen.
    """
    counts = Counter(frozenset(group) for group in groups)
    k = sum(counts.values())
    net = FlowNetwork()
    source = ("src",)
    target = ("snk",)
    seen: set[str] = set()
    for i, (group, c) in enumerate(counts.items()):
        gnode = ("grp", i)
        net.add_arc(source, gnode, c, c)
        for symbol in sorted(group):
            net.add_arc(gnode, ("sym", symbol), 0, c)
            seen.add(symbol)
    for symbol in sorted(seen | set(intervals)):
        iv = intervals.get(symbol)
        if iv is None:
            continue
        if iv.is_empty:
            # No count satisfies an empty interval: demand more than the
            # groups can ever supply, making every circulation infeasible.
            net.add_arc(("sym", symbol), target, k + 1, k + 1)
        elif iv.lo > (upper := k if iv.hi is None else min(iv.hi, k)):
            net.add_arc(("sym", symbol), target, iv.lo, iv.lo)
        else:
            net.add_arc(("sym", symbol), target, iv.lo, upper)
    net.add_arc(target, source, 0, k)
    return net
