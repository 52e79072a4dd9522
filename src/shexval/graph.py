"""Edge-labeled directed graphs, wildcard relabeling, and the triple format.

Graphs are immutable and all queries are pure.  Edges follow set
semantics, so the multiplicity of a label in an outbound bag equals the
number of distinct targets it reaches.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from .rbe import Bag, ParseError

__all__ = [
    "Graph",
    "WildcardDecl",
    "check_wildcards_disjoint",
    "relabel_wildcards",
    "parse_graph",
    "format_graph",
]


class Graph:
    """A finite set of nodes and labeled edges between them.

    Two indexes answer the queries.  The successor index (node to its
    (label, target) pairs) is built at construction.  The label-bag index
    groups the nodes by outbound label bag; it is built on first use, so
    parsing a graph never pays for it.  Refinement decides the tests that
    see a node only through its label bag once per class of that index.
    """

    __slots__ = ("nodes", "edges", "_succ", "_classes", "_class_of")

    def __init__(self, edges=(), nodes=()):
        edge_set = frozenset(
            (str(s), str(label), str(t)) for s, label, t in edges
        )
        touched = {s for s, _, _ in edge_set} | {t for _, _, t in edge_set}
        self.nodes: frozenset[str] = frozenset(map(str, nodes)) | touched
        self.edges: frozenset[tuple[str, str, str]] = edge_set
        succ: dict[str, set[tuple[str, str]]] = defaultdict(set)
        for s, label, t in edge_set:
            succ[s].add((label, t))
        self._succ = {n: frozenset(pairs) for n, pairs in succ.items()}
        self._classes: dict[tuple, tuple[str, ...]] | None = None
        self._class_of: dict[str, tuple] = {}

    def out_lab(self, node: str) -> Bag:
        """The bag of outbound edge labels of a node."""
        return Counter(label for label, _ in self.out_lab_node(node))

    def out_lab_node(self, node: str) -> frozenset[tuple[str, str]]:
        """The outbound neighborhood: pairs of (label, target)."""
        if node not in self.nodes:
            raise KeyError(node)
        return self._succ.get(node, frozenset())

    def out_edges(self, nodes: Iterable[str]) -> frozenset[tuple[str, str, str]]:
        """The edges leaving any of ``nodes``; names that are not nodes of
        the graph have none."""
        succ = self._succ
        return frozenset([(n, a, m) for n in nodes if n in succ for a, m in succ[n]])

    def label_classes(self) -> dict[tuple[tuple[str, int], ...], tuple[str, ...]]:
        """The nodes grouped by outbound label bag.

        Each class is keyed by its bag's sorted (label, count) pairs; sinks
        and isolated nodes share the key ``()``.  The classes partition the
        nodes.  Callers must not modify the result.
        """
        if self._classes is None:
            self._index_label_bags()
        return self._classes

    def label_key(self, node: str) -> tuple[tuple[str, int], ...]:
        """The key of the node's label-bag class: its outbound label bag
        as sorted (label, count) pairs."""
        if self._classes is None:
            self._index_label_bags()
        return self._class_of[node]

    def _index_label_bags(self) -> None:
        members: dict[tuple, list[str]] = {}
        class_of: dict[str, tuple] = {}
        succ = self._succ
        for n in self.nodes:
            pairs = succ.get(n)
            key = tuple(sorted(Counter([a for a, _ in pairs]).items())) if pairs else ()
            nodes = members.get(key)
            if nodes is None:
                members[key] = [n]
            else:
                # Every node of a class holds the one key object of its
                # first node, so the index stores each key once.
                key = class_of[nodes[0]]
                nodes.append(n)
            class_of[n] = key
        self._classes = {key: tuple(nodes) for key, nodes in members.items()}
        self._class_of = class_of

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges)"


@dataclass(frozen=True)
class WildcardDecl:
    """A named label class: an explicit set, a prefix pattern, or the rest.

    Exactly one of the three forms must be used; `rest` matches every label
    no other declaration in the family claims.
    """

    name: str
    labels: frozenset[str] | None = None
    prefix: str | None = None
    rest: bool = False

    def __post_init__(self):
        forms = (self.labels is not None) + (self.prefix is not None) + self.rest
        if forms != 1:
            raise ValueError(
                f"wildcard {self.name!r} must use exactly one matcher form"
            )
        if self.labels is not None:
            object.__setattr__(self, "labels", frozenset(self.labels))

    def matches(self, label: str) -> bool:
        """Direct match only; `rest` declarations match via the family."""
        if self.labels is not None:
            return label in self.labels
        if self.prefix is not None:
            return label.startswith(self.prefix)
        return False


def check_wildcards_disjoint(decls) -> None:
    """Reject families whose declarations could claim a common label."""
    decls = list(decls)
    names = [d.name for d in decls]
    if len(set(names)) != len(names):
        raise ValueError("wildcard names must be distinct")
    if sum(d.rest for d in decls) > 1:
        raise ValueError("at most one rest wildcard is allowed")
    for i, first in enumerate(decls):
        for second in decls[i + 1 :]:
            _check_pair(first, second)


def _check_pair(first: WildcardDecl, second: WildcardDecl) -> None:
    if first.labels is not None and second.labels is not None:
        shared = first.labels & second.labels
        if shared:
            raise ValueError(
                f"wildcards {first.name!r} and {second.name!r} share "
                f"label {min(shared)!r}"
            )
    elif first.prefix is not None and second.prefix is not None:
        if first.prefix.startswith(second.prefix) or second.prefix.startswith(
            first.prefix
        ):
            raise ValueError(
                f"wildcard prefixes {first.prefix!r} and {second.prefix!r} overlap"
            )
    else:
        explicit, prefixed = (
            (first, second) if first.labels is not None else (second, first)
        )
        if explicit.labels is None or prefixed.prefix is None:
            return  # a rest declaration is disjoint by definition
        hits = {a for a in explicit.labels if a.startswith(prefixed.prefix)}
        if hits:
            raise ValueError(
                f"label {min(hits)!r} of wildcard {explicit.name!r} also "
                f"matches prefix {prefixed.prefix!r}"
            )


def relabel_wildcards(graph: Graph, decls) -> Graph:
    """Rewrite every edge label to the name of its unique matching wildcard."""
    decls = list(decls)
    check_wildcards_disjoint(decls)
    rest = next((d for d in decls if d.rest), None)
    renamed = []
    for s, label, t in graph.edges:
        decl = next((d for d in decls if d.matches(label)), rest)
        if decl is None:
            raise ValueError(f"edge label {label!r} matches no wildcard")
        renamed.append((s, decl.name, t))
    return Graph(renamed, graph.nodes)


def parse_graph(text: str) -> Graph:
    """Read the tab-separated triple format.

    Each line is `subject<TAB>predicate<TAB>object`, or `node<TAB><id>` for
    an isolated node; `#` starts a comment.
    """
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
    return Graph(edges, nodes)


def format_graph(graph: Graph) -> str:
    """Serialize a graph; parsing the result reproduces it exactly."""
    lines = ["\t".join(edge) for edge in sorted(graph.edges)]
    touched = {s for s, _, _ in graph.edges} | {t for _, _, t in graph.edges}
    lines.extend(f"node\t{n}" for n in sorted(graph.nodes - touched))
    return "\n".join(lines) + ("\n" if lines else "")
