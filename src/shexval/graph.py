"""Edge-labeled directed graphs, wildcard relabeling, and the triple format.

Graphs are immutable and all queries are pure.  Edges follow set
semantics, so the multiplicity of a label in an outbound bag equals the
number of distinct targets it reaches.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import add, sub
from typing import NamedTuple

from .rbe import Bag, ParseError

__all__ = [
    "Graph",
    "Rows",
    "Inbound",
    "EdgePairs",
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
    read and kept; validation never reads it.  More views are built on
    first use and kept, so parsing a graph never pays for them: the
    sorted node order, in which every whole-graph typing is built, and,
    in one pass over it, the successor rows (:class:`Rows`), the
    out-edges by node position, each row sorted by label, then target.
    The rows are the graph's one label-bag index: they number each
    node's class and give each class its key, its size and its first
    node.  Two more views are read off the rows on first use and kept:
    the inbound rows (:class:`Inbound`), the in-edges by node position;
    and the edge pairs (:class:`EdgePairs`), which number each out-edge
    by its label and its target's label-bag class.  Every kept view is
    bounded by the nodes plus the edges, and the rows are arrays and
    lists of the shared label strings: no Python object per edge.
    Refinement and flooding decide the tests that see a node only through
    its label bag once per class, and read the rest off the rows.
    """

    __slots__ = (
        "nodes", "_succ", "_edges", "_sorted", "_rows", "_inbound", "_pairs"
    )

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
        self._rows: Rows | None = None
        self._inbound: Inbound | None = None
        self._pairs: EdgePairs | None = None

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

    def sorted_nodes(self) -> tuple[str, ...]:
        """The nodes in sorted order, built on first call and kept."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.nodes))
        return self._sorted

    def successor_rows(self) -> Rows:
        """The out-edges of the nodes by position in :meth:`sorted_nodes`,
        each row sorted by label, then target (see :class:`Rows`).  Built
        on first call, in one pass over the nodes, and kept.  Callers must
        not modify the result."""
        if self._rows is None:
            self._index_positions()
        return self._rows

    def inbound_rows(self) -> Inbound:
        """The in-edges of the nodes by position in :meth:`sorted_nodes`
        (see :class:`Inbound`).  Built on first call, from the successor
        rows, and kept.  Callers must not modify the result."""
        if self._inbound is None:
            self._inbound = _inbound_rows(self.successor_rows())
        return self._inbound

    def edge_pairs(self) -> EdgePairs:
        """The out-edges of the successor rows numbered by their (label,
        target label-bag class) pair (see :class:`EdgePairs`).  Built on
        first call, from the successor rows, and kept.  Callers must not
        modify the result."""
        if self._pairs is None:
            self._pairs = _edge_pairs(self.successor_rows())
        return self._pairs

    def _index_positions(self) -> None:
        # One pass over the nodes in order builds the rows.  Positions are
        # what make them compact: a whole-graph typing indexed by them is
        # a list, read without hashing a node name.  Positions follow the
        # names, so a row sorted by (label, target name) is sorted by
        # (label, target position), and its labels are its class's key.
        order = self.sorted_nodes()
        position = {n: i for i, n in enumerate(order)}
        succ = self._succ
        labels: list[str] = []
        targets = array("q")
        starts = array("q", [0])
        classes = array("q")
        firsts: list[int] = []
        ids: dict[tuple[str, ...], int] = {}
        for n in order:
            pairs = succ.get(n)
            if not pairs:
                key = ()
            elif len(pairs) == 1:
                ((a, m),) = pairs
                labels.append(a)
                targets.append(position[m])
                key = (a,)
            else:
                key, names = zip(*sorted(pairs))
                labels += key
                targets.extend(map(position.__getitem__, names))
            starts.append(len(labels))
            c = ids.get(key)
            if c is None:
                c = ids[key] = len(ids)
                firsts.append(len(classes))  # the position of n
            classes.append(c)
        # Counting sorted labels keeps them in order, and counting the
        # class numbers meets each class first at its first node, so in
        # class order.
        keys = tuple(tuple(Counter(key).items()) for key in ids)
        sizes = tuple(Counter(classes).values())
        self._rows = Rows(labels, targets, starts, classes, tuple(firsts), keys, sizes)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self._succ == other._succ

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        n_edges = sum(map(len, self._succ.values()))
        return f"Graph({len(self.nodes)} nodes, {n_edges} edges)"


class Rows(NamedTuple):
    """A graph's out-edges by node position, in compressed rows: the node
    at position i of :meth:`Graph.sorted_nodes` has the edges k in
    ``range(starts[i], starts[i + 1])``, edge k with label ``labels[k]``
    and target position ``targets[k]``.  A row lists its edges sorted by
    label, then target, which is the order of the sorted (label, target
    name) pairs.  The rows are the graph's index of its label-bag
    classes, numbered in the order of their first nodes: ``classes[i]``
    is the number of the node's class, ``firsts[c]`` is the position of
    class c's first node, ``keys[c]`` is its key, the sorted (label,
    count) pairs of its label bag, and ``sizes[c]`` its number of nodes.
    Sinks and isolated nodes share the key ``()``."""

    labels: list[str]
    targets: array
    starts: array
    classes: array
    firsts: tuple[int, ...]
    keys: tuple[tuple[tuple[str, int], ...], ...]
    sizes: tuple[int, ...]

    def sources(self) -> Iterator[int]:
        """The source position of each edge, in edge order."""
        starts = self.starts
        lengths = map(sub, islice(starts, 1, None), starts)
        return chain.from_iterable(map(repeat, range(len(self.classes)), lengths))


class Inbound(NamedTuple):
    """A graph's in-edges by node position, in compressed rows: the node
    at position i of :meth:`Graph.sorted_nodes` has the in-edges j in
    ``range(starts[i], starts[i + 1])``, in-edge j from source position
    ``sources[j]`` with label ``labels[j]``.  A row lists its in-edges in
    the order of the successor rows, so by source position."""

    starts: array
    sources: array
    labels: list[str]


class EdgePairs(NamedTuple):
    """The out-edges of a graph's successor rows grouped by their (label,
    target label-bag class) pair: ``pairs`` lists the distinct pairs,
    sorted, each class numbered as in ``Rows.classes``, and edge k of the
    rows has the pair ``pairs[numbers[k]]``."""

    numbers: array
    pairs: tuple[tuple[str, int], ...]


def _inbound_rows(rows: Rows) -> Inbound:
    # A counting sort of the edges by target: the starts from the counts,
    # then each edge, in edge order, into the next free slot of its row.
    # Plain loops beat C-level passes here, and one flat walk over the
    # edges beats a range per row: an edge costs two reads and four writes.
    targets, labels = rows.targets, rows.labels
    counts = [0] * len(rows.classes)
    for t in targets:
        counts[t] += 1
    free = list(accumulate(counts, initial=0))
    starts = array("q", free)
    sources = array("q", bytes(8 * len(targets)))
    sorted_labels: list[str] = [""] * len(targets)
    k = 0
    for i, end in enumerate(islice(rows.starts, 1, None)):
        while k < end:
            t = targets[k]
            j = free[t]
            free[t] = j + 1
            sources[j] = i
            sorted_labels[j] = labels[k]
            k += 1
    return Inbound(starts, sources, sorted_labels)


def _edge_pairs(rows: Rows) -> EdgePairs:
    # Each pair is coded as an int, label number times class count plus
    # class, so numbering the edges builds no tuple per edge; the codes
    # are streamed twice rather than listed.
    width = len(rows.firsts)
    names = sorted(set(rows.labels))
    base = {a: i * width for i, a in enumerate(names)}

    def codes():
        target_class = map(rows.classes.__getitem__, rows.targets)
        return map(add, map(base.__getitem__, rows.labels), target_class)

    distinct = sorted(set(codes()))
    number = {code: i for i, code in enumerate(distinct)}
    return EdgePairs(
        array("q", map(number.__getitem__, codes())),
        tuple((names[code // width], code % width) for code in distinct),
    )


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
