"""Edge-labeled directed graphs, wildcard relabeling, and the triple format.

Graphs are immutable and all queries are pure.  Edges follow set
semantics, so the multiplicity of a label in an outbound bag equals the
number of distinct targets it reaches.
"""

from __future__ import annotations

from collections import Counter
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

    One index is built at construction, in one pass over the edges: the
    successor index, from each node to its (label, target) pairs.  The
    queries read it.  The edge set ``edges`` is derived from it on first
    read and kept; validation never reads it.  Two more views are built
    on first use and kept, so parsing a graph never pays for them: the
    sorted node order, in which every whole-graph typing is built, and the
    label-bag index, which groups the nodes by outbound label bag, each
    class in node order.  Refinement decides the tests that see a node
    only through its label bag once per class of that index.
    """

    __slots__ = ("nodes", "_succ", "_edges", "_sorted", "_classes")

    def __init__(self, edges=(), nodes=()):
        self._index(
            ((str(s), str(label), str(t)) for s, label, t in edges), map(str, nodes)
        )

    @classmethod
    def _from_strings(cls, triples, nodes) -> Graph:
        """The graph of (subject, label, object) triples of strings and
        further node names, taken as they are."""
        graph = cls.__new__(cls)
        graph._index(triples, nodes)
        return graph

    def _index(self, triples, nodes) -> None:
        # The one index builder.  Duplicate edges collapse in the per-node
        # sets; ``nodes`` is read only once ``triples`` is exhausted.
        succ: dict[str, set[tuple[str, str]]] = {}
        targets = set()
        for s, label, t in triples:
            pairs = succ.get(s)
            if pairs is None:
                succ[s] = {(label, t)}
            else:
                pairs.add((label, t))
            targets.add(t)
        self.nodes: frozenset[str] = frozenset(targets.union(succ, nodes))
        self._succ = {n: frozenset(pairs) for n, pairs in succ.items()}
        self._edges: frozenset[tuple[str, str, str]] | None = None
        self._sorted: tuple[str, ...] | None = None
        self._classes: dict[tuple, tuple[str, ...]] | None = None

    @property
    def edges(self) -> frozenset[tuple[str, str, str]]:
        """The (subject, label, object) triples, derived from the successor
        index on first read and kept."""
        if self._edges is None:
            self._edges = frozenset(
                [(n, label, m) for n, pairs in self._succ.items() for label, m in pairs]
            )
        return self._edges

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

    def sorted_nodes(self) -> tuple[str, ...]:
        """The nodes in sorted order, built on first call and kept."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.nodes))
        return self._sorted

    def label_classes(self) -> dict[tuple[tuple[str, int], ...], tuple[str, ...]]:
        """The nodes grouped by outbound label bag.

        Each class is keyed by its bag's sorted (label, count) pairs and
        lists its nodes in node order; sinks and isolated nodes share the
        key ``()``.  The classes partition the nodes.  Callers must not
        modify the result.
        """
        if self._classes is None:
            succ = self._succ
            members: dict[tuple[str, ...], list[str]] = {}
            for n in self.sorted_nodes():
                pairs = succ.get(n)
                labels = tuple(sorted([a for a, _ in pairs])) if pairs else ()
                members.setdefault(labels, []).append(n)
            self._classes = {_label_key(k): tuple(v) for k, v in members.items()}
        return self._classes

    def label_key(self, node: str) -> tuple[tuple[str, int], ...]:
        """The key of the node's label-bag class: its outbound label bag
        as sorted (label, count) pairs."""
        return _label_key(sorted([a for a, _ in self.out_lab_node(node)]))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self._succ == other._succ

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        n_edges = sum(map(len, self._succ.values()))
        return f"Graph({len(self.nodes)} nodes, {n_edges} edges)"


def _label_key(labels) -> tuple[tuple[str, int], ...]:
    # Counting sorted labels keeps them in order.
    return tuple(Counter(labels).items())


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
    """Rewrite every edge label to the name of its unique matching wildcard.

    A label that no declaration claims keeps its own name, as it would with
    no wildcards at all: closed rules reject it and the universal type
    accepts it.  Such a label must not equal a declaration's name, which
    would make it read as that wildcard; the error names the least such
    label.  Each distinct label is decided once.
    """
    decls = list(decls)
    check_wildcards_disjoint(decls)
    rest = next((d for d in decls if d.rest), None)
    names = {d.name for d in decls}
    succ = graph._succ
    renamed = {}
    for label in sorted({label for pairs in succ.values() for label, _ in pairs}):
        decl = next((d for d in decls if d.matches(label)), rest)
        if decl is not None:
            renamed[label] = decl.name
        elif label in names:
            raise ValueError(
                f"edge label {label!r} matches no wildcard but is the name of one"
            )
        else:
            renamed[label] = label
    return Graph._from_strings(
        ((n, renamed[label], m) for n, pairs in succ.items() for label, m in pairs),
        graph.nodes,
    )


def parse_graph(text: str) -> Graph:
    """Read the tab-separated triple format.

    Each line is `subject<TAB>predicate<TAB>object`, or `node<TAB><id>` for
    an isolated node; `#` starts a comment.
    """
    nodes: list[str] = []
    return Graph._from_strings(_triples(text, nodes), nodes)


def _triples(text: str, nodes: list[str]):
    # The edges of ``text`` in order; the ids of its node lines are
    # appended to ``nodes`` on the way.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = tuple(map(str.strip, raw.split("\t")))
        if len(fields) == 3 and "" not in fields and fields[0][0] != "#":
            # Three non-empty fields read the same once the line is
            # stripped, so only the other lines need the checks below.
            yield fields
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if any(not f for f in fields):
            raise ParseError(f"line {lineno}: empty field")
        if len(fields) == 3:
            yield tuple(fields)
        elif len(fields) == 2 and fields[0] == "node":
            nodes.append(fields[1])
        else:
            raise ParseError(
                f"line {lineno}: expected subject<TAB>predicate<TAB>object "
                f"or node<TAB>id, got {len(fields)} field(s)"
            )


def format_graph(graph: Graph) -> str:
    """Serialize a graph; parsing the result reproduces it exactly."""
    lines = ["\t".join(edge) for edge in sorted(graph.edges)]
    targets = {m for pairs in graph._succ.values() for _, m in pairs}
    isolated = graph.nodes.difference(graph._succ, targets)
    lines.extend(f"node\t{n}" for n in sorted(isolated))
    return "\n".join(lines) + ("\n" if lines else "")
