"""Validation of graphs against shape schemas.

Two semantics are implemented.  Under single-type semantics every node
carries exactly one type and its outbound neighborhood, with targets
replaced by their types, must belong to that type's bag language.  Under
multi-type semantics every node carries a non-empty set of types and, for
each of them, some flattening of the neighborhood (one type picked per
edge from the target's set) must belong to the language.

The workhorses are:

* refinement — start from a candidate m-typing and repeatedly delete
  locally unsatisfiable types; the fixpoint from the full typing is the
  unique maximal valid m-typing (when non-empty everywhere),
* flooding — extend a partial pre-typing along edges, computing the
  minimal valid extension instead of the maximal typing,
* brute force — enumerate assignments outright, as a reference oracle.

A round of refinement is synchronous: it tests every (node, type) pair
against the typing the round before left, and removes the pairs that
fail all at once.  The algorithm name and the schema's class pick the
local test: a shortcut for deterministic single-occurrence schemas, under
which a node's typed bag follows from its label bag, or a general
intersection-nonemptiness test that works for every schema (a circulation
on the compiled interval product for a symbol-product rule, the rule's
compiled arithmetic encoding for any other).  Both give the same fixpoint
where the shortcut applies.  ``refine`` and ``rbe0-refine`` start from the
full typing; ``s-refine`` starts from the structure-filtered typing, whose
label-bag verdicts are the ones the shortcut reads.

The refinement driver is frontier-driven, in the manner of maximal
simulation (Henzinger, Henzinger and Kopke, FOCS 1995) and arc
consistency (AC-3, Mackworth 1977).  Its first round tests every
(node, type) pair; later rounds re-test only the pairs (n, t) where n has
an a-edge into a node m that lost a type u in the round before and the
rule of t mentions ``a::u``, found forward or backward as in
direction-optimizing search (Beamer, Asanovic and Patterson, SC 2012;
see :class:`_RefineEngine`).  The local verdict of (n, t) depends on
each successor m only through the types of m that t's rule mentions
under the edge's label: a flattening that picks an unmentioned symbol
lies outside the rule's language.  Every rule but the universal one is
an expression, product and powerset rules included, so this holds for
every schema.  So a pair off the frontier keeps the verdict it had a
round earlier, and every round removes exactly the pairs the
synchronous round removes.  The general test rests on the same fact: it
decides (n, t) on the neighborhood projected onto the types t's rule
mentions under each label, so neighborhoods that differ only in
unmentioned types share one verdict, and a label whose types all go
unmentioned fails the pair.

Tests that see a node only through its outbound label bag are decided
once per label-bag class of the graph, as its successor rows number them
(:class:`~shexval.graph.Rows`), in the manner of partition refinement
(Paige and Tarjan, SIAM J. Comput. 1987): the types that admit a label
bag, cached on the schema per bag and read by both the
structure-filtered initial typing and the shortcut's label check, and
round 1 of refinement from the full typing, under which every successor
carries every type.  Flooding reads the same verdicts on
deterministic schemas, since a deterministic rule turns a label bag into
one typed bag.

Inside, a set of types is a bit mask over the schema's numbering of its
types (``Schema.bits``), in the manner of bit-vector simulation
algorithms (Ranzato and Tapparo, LICS 2007): the typings, the frontier,
the label-bag verdicts and the keys of the general memo hold ints, so
removing, testing and projecting types allocates no set.  Nodes are
positions in the graph's sorted order and edges are read off its
successor rows (:meth:`Graph.successor_rows`), so testing an edge hashes
no node name.  Refinement's typing is a list by position; the flood's
queued types are a dict by position, so its own work follows the nodes
it reaches.  A typing stays masks by position into its report, whose
typing and remaining edges are views over the masks, the sorted order
and the rows (:class:`ValidationReport`): names appear only where the
report is read, each mask as the one frozenset ``Schema.type_sets``
keeps for it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import ItemsView, Iterable, Mapping, Set, ValuesView
from dataclasses import dataclass
from operator import not_, sub

from .graph import Graph
from .membership import member
from .rbe import Bag, ParseError, Rbe, Symbol, concat, disj, typed_symbol
# perfbench/spans.py wraps the inter1 attribute of this module.
from .sat import inter1, inter1_groups  # noqa: F401
from .schema import TOP, Schema, rule_member

__all__ = [
    "ALGORITHMS",
    "BRUTE_CAP",
    "BruteCapExceeded",
    "ValidationReport",
    "out_lab_type_s",
    "out_lab_type_m",
    "flatten",
    "check_s_typing",
    "check_m_typing",
    "structure_filtered_init",
    "infer_types",
    "validate_multi",
    "validate_single",
    "flood_extension",
    "brute_force_single",
    "brute_force_multi",
    "remaining_edges",
    "format_pretyping",
    "parse_pretyping",
    "report_lines",
]

ALGORITHMS = ("refine", "s-refine", "rbe0-refine", "flood", "brute")

# Bound on the number of assignments the brute-force searches may visit.
BRUTE_CAP = 2_000_000


class BruteCapExceeded(ValueError):
    """The brute-force assignment space is too large to sweep."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation run.

    Every report of this module comes from one builder, ``_report``, which
    sets ``valid`` and ``remaining_edges`` from the other fields.
    ``typing`` maps nodes either to a single type, a ``str`` (single-type
    modes), or to a frozenset of types, one shared frozenset per distinct
    set; nodes never reached by flooding are absent, and refinement lists
    every node, nodes that can carry no type with the empty set.
    ``failures`` holds (node, type, reason) triples; ``valid`` holds
    exactly when it is empty.  ``remaining_edges`` are the (subject,
    label, object) out-edges of the nodes the typing leaves uncovered:
    absent from it, or holding only types with a universal rule.  Both are
    read-only views of validation's masks by node position over the
    graph's sorted order and successor rows: a ``Mapping`` that iterates
    in node order and a ``Set`` that iterates in sorted order, equal to
    the ``dict`` and ``frozenset`` a report built by hand may hold.
    ``iterations`` counts refinement rounds, including the last one,
    which removes nothing, or processed flooding obligations.
    ``local_tests`` counts the (node, type) local tests the refinement
    driver ran over all rounds, 0 for flooding and brute force; from the
    full typing, round 1 counts one test per type for one representative
    node of each label-bag class.  ``edges_examined`` counts outbound
    neighborhood scans during flooding, including repeats on backtracking.
    """

    valid: bool
    typing: Mapping[str, object]
    failures: tuple[tuple[str, str, str], ...] = ()
    remaining_edges: Set[tuple[str, str, str]] = frozenset()
    iterations: int = 0
    algorithm: str = ""
    edges_examined: int = 0
    local_tests: int = 0


def out_lab_type_s(g: Graph, typing: Mapping[str, str], n: str) -> Bag:
    """The outbound neighborhood of ``n`` with targets replaced by their
    assigned single type: the bag of ``label::type`` symbols."""
    return Counter(typed_symbol(a, typing[m]) for a, m in g.out_lab_node(n))


def out_lab_type_m(
    g: Graph, typing: Mapping[str, Iterable[str]], n: str
) -> Counter[tuple[str, frozenset[str]]]:
    """Like :func:`out_lab_type_s` but for set-valued typings: a bag of
    (label, type set) pairs."""
    return Counter((a, frozenset(typing[m])) for a, m in g.out_lab_node(n))


def flatten(neighborhood: Counter[tuple[str, frozenset[str]]]) -> Rbe:
    """The choice-group expression of a bag of labeled type sets.

    Every occurrence of (a, T) contributes one group ``(a::t1 | ... | a::tk)``
    over the types of T, so the language of the result is exactly the set of
    flattenings: bags obtained by picking one type per occurrence.  The empty
    bag yields the empty-product expression whose language is {empty bag}.
    """
    groups: list[Rbe] = []
    for (a, types), count in sorted(neighborhood.items(), key=_flatten_key):
        if not types:
            raise ValueError(f"empty type set under label {a!r}")
        group = disj(*(Symbol(typed_symbol(a, t)) for t in sorted(types)))
        groups.extend([group] * count)
    return concat(*groups)


def _flatten_key(item: tuple[tuple[str, frozenset[str]], int]) -> tuple:
    (a, types), _ = item
    return (a, sorted(types))


def check_s_typing(g: Graph, s: Schema, typing: Mapping[str, str]) -> bool:
    """Whether a total single-type assignment is valid: every node's typed
    neighborhood belongs to its type's language."""
    missing = g.nodes - typing.keys()
    if missing:
        raise ValueError(f"typing assigns no type to node {min(missing)!r}")
    return all(
        rule_member(s, out_lab_type_s(g, typing, n), typing[n]) for n in g.nodes
    )


def check_m_typing(g: Graph, s: Schema, typing: Mapping[str, Iterable[str]]) -> bool:
    """Whether a set-valued assignment is valid: total, nowhere empty, and
    each assigned type matched by some flattening of the neighborhood."""
    if g.nodes - typing.keys() or not all(typing[n] for n in g.nodes):
        return False
    return all(
        _some_flattening_member(s, out_lab_type_m(g, typing, n), t)
        for n in g.nodes
        for t in typing[n]
    )


def _some_flattening_member(
    s: Schema, neighborhood: Counter[tuple[str, frozenset[str]]], t: str
) -> bool:
    """Whether some flattening of the neighborhood satisfies ``t``'s rule.

    The flattenings pick one symbol per edge from a choice group.  A
    symbol-product rule takes the circulation on its compiled interval
    product, any other expression rule its encoding, which counts the edges
    sharing a label and type set as one group.
    """
    rule = s.compiled[t]
    if rule.universal:
        return True
    if any(not types for (_, types) in neighborhood):
        return False
    groups = {
        frozenset(typed_symbol(a, u) for u in types): count
        for (a, types), count in neighborhood.items()
    }
    if rule.product:
        return rule.intervals is not None and inter1_groups(
            list(Counter(groups).elements()), rule.intervals
        )
    return rule.encoding.meets(groups)


class _RefineEngine:
    """Refinement rounds of one algorithm against a fixed graph and schema.

    The algorithm and the schema's class pick the start and the local test
    once, at construction:

    * ``refine`` on a deterministic single-occurrence schema, and
      ``s-refine``, which needs one, use the deterministic test: the rule
      admits the node's label bag (:func:`_admitted`, one verdict per bag)
      and every successor still carries the one type the rule requires
      under the edge's label.  A node's label bag never changes, so after
      the label check only the successors are checked;
    * ``refine`` on any other schema asks whether some flattening of the
      neighborhood satisfies the rule.  The verdict is memoized per type
      under the raw neighborhood bag, tried first, and under its
      projection onto the types the rule mentions per label, which is
      what the solver decides; this collapses the many nodes of large
      graphs that the rule cannot tell apart into a handful of tests;
    * ``rbe0-refine`` needs a schema of symbol products and runs that
      flattening test per node, which there is the circulation.  It has
      no memo on purpose: with one it is about as fast as the
      deterministic test, so which of the two wins would be left to noise.

    ``s-refine`` starts from :func:`structure_filtered_init`, which has
    made the label check; ``refine`` and ``rbe0-refine`` start from the
    full typing.  Types with a universal rule always survive and are never
    tested.  The typing, the work of a round and the types a node loses
    are masks over the schema's numbering of its types (``Schema.bits``):
    losing types is ``mask & ~lost``, and a rule's targets under a label
    are a mask too, so the deterministic test, the projection and the
    frontier are each an ``&``.  Nodes are positions in the graph's sorted
    order: the typing is a list, which ``run`` returns as it is, and a
    node's edges are its row of the graph's successor rows.  Names come
    back only for the solver (under ``refine``, on a memo miss).  The
    verdict memos live on the schema, so engines over the same schema
    share them and repeat validations start warm.  The frontier goes
    forward, by (label, target class) pair, only in round 2 after round 1
    by class, when the losing classes hold a quarter of the nodes or more,
    and backward over the inbound rows in every other round; both views
    live on the graph, so no engine builds one.  ``local_tests`` counts
    the pairs tested; a class decided by one representative counts that
    representative's pairs.
    """

    def __init__(self, g: Graph, s: Schema, algo: str):
        flags = s.class_flags
        deterministic = flags.deterministic and flags.sorbe
        if algo == "s-refine" and not deterministic:
            raise ValueError(
                "s-refine needs a deterministic single-occurrence schema"
            )
        if algo == "rbe0-refine" and not flags.rbe0:
            raise ValueError("rbe0-refine needs a schema of symbol products")
        self.g = g
        self.s = s
        self.algo = algo
        self.deterministic = deterministic and algo != "rbe0-refine"
        self._memo: dict[tuple, bool] | None = None
        if algo == "refine" and not self.deterministic:
            self._memo = s._derived.setdefault("refine:memo:general", {})
        # Per bit of a type with a rule to test: its name, and per label
        # the mask of the types its rule uses the label with.
        testable = [
            (s.bits[t], t, rule) for t, rule in s.compiled.items() if not rule.universal
        ]
        self.names = {bit: t for bit, t, _ in testable}
        self.targets = {
            bit: {a: s.mask(us) for a, us in rule.targets.items()}
            for bit, _, rule in testable
        }
        self.testable = sum(self.names)
        self.rows = g.successor_rows()
        self.keys = self.rows.keys
        # The types an a-edge into a node that lost ``types`` can affect,
        # per (label, lost types), filled in on first need.
        self._affecting: dict[tuple[str, int], int] = {}
        self.local_tests = 0

    def run(self) -> tuple[list[int], int]:
        """The fixpoint below the algorithm's start, as masks by node
        position, and its number of rounds, counting the first and the
        last one, which removes nothing."""
        if self.algo == "s-refine":
            # The start is a view of the masks of the label-bag classes by
            # position; the engine takes its own copy of them.
            current = list(structure_filtered_init(self.g, self.s)._masks)
            lost = self._test(enumerate(current), current)
            for i, types in lost.items():
                current[i] &= ~types
            work = self._frontier(lost, current) if lost else None
        else:
            full = sum(self.s.bits.values())
            current, lost_by_class = self._first_round_by_class(full)
            work = self._class_frontier(lost_by_class, current)
        # ``work`` is None once a round has removed nothing.
        rounds = 1
        while work is not None:
            rounds += 1
            lost = self._test(work.items(), current)
            for n, types in lost.items():
                current[n] &= ~types
            work = self._frontier(lost, current) if lost else None
        return current, rounds

    def _frontier(self, lost: dict[int, int], current: list[int]) -> dict[int, int]:
        """The pairs to re-test once the nodes of ``lost`` have lost their
        types: each (n, t) where n still holds t and has an a-edge into
        such a node m, and t's rule mentions ``a::u`` for a type u that m
        lost.  They are found backward, over the inbound rows of the
        nodes that lost types, which the graph keeps; only the round after
        round 1 by class may go forward (see _class_frontier)."""
        starts, sources, labels = self.g.inbound_rows()
        affecting = self._affecting
        work: dict[int, int] = {}
        for m, types in lost.items():
            for j in range(starts[m], starts[m + 1]):
                a = labels[j]
                mentioned = affecting.get((a, types))
                if mentioned is None:
                    mentioned = affecting[(a, types)] = self._mentioning(a, types)
                if mentioned:
                    n = sources[j]
                    affected = mentioned & current[n]
                    if affected:
                        work[n] = work.get(n, 0) | affected
        return work

    def _class_frontier(
        self, lost_by_class: list[int], current: list[int]
    ) -> dict[int, int] | None:
        """The pairs to re-test after round 1 by class, in which every
        node of class c lost ``lost_by_class[c]``, or None when no class
        lost a type.  When the losing classes hold a quarter of the nodes
        or more, the edges are taken forward, by their (label, target
        class) pair (see _pair_frontier); a loss on fewer nodes goes
        backward from them (see _frontier).  This is the direction switch
        of frontier-based graph search (Beamer, Asanovic and Patterson,
        SC 2012), with the losing nodes counted by class."""
        if not any(lost_by_class):
            return None
        if 4 * sum(itertools.compress(self.rows.sizes, lost_by_class)) >= len(current):
            return self._pair_frontier(lost_by_class, current)
        per_node = map(lost_by_class.__getitem__, self.rows.classes)
        return self._frontier(
            {i: types for i, types in enumerate(per_node) if types}, current
        )

    def _pair_frontier(
        self, lost_by_class: list[int], current: list[int]
    ) -> dict[int, int]:
        """The frontier of :meth:`_frontier` after a loss by class, found
        forward by (label, target class) pair (:meth:`Graph.edge_pairs`):
        an edge's target lost the types of its class, so the types the
        loss can affect at the edge's source are decided once per pair.
        When no pair can affect a type, as when round 1 took from each
        target only types that no rule names under the edge's label, no
        edge is visited and no inbound row is built; otherwise one
        C-level pass over the pair numbers finds the edges to visit."""
        numbers, pairs = self.g.edge_pairs()
        affecting = self._affecting
        keys = [(a, lost_by_class[c]) for a, c in pairs]
        for key in set(keys).difference(affecting):
            affecting[key] = self._mentioning(*key)
        by_pair = list(map(affecting.__getitem__, keys))
        work: dict[int, int] = {}
        if any(by_pair):
            by_edge = list(map(by_pair.__getitem__, numbers))
            sources = itertools.compress(self.rows.sources(), by_edge)
            for n, mentioned in zip(sources, filter(None, by_edge)):
                affected = mentioned & current[n]
                if affected:
                    work[n] = work.get(n, 0) | affected
        return work

    def _first_round_by_class(self, full: int) -> tuple[list[int], list[int]]:
        """Round 1 from the ``full`` typing, under which every successor
        carries every type, so a node is seen only through its label bag:
        one local test per label-bag class, on its first node.  Returns
        the typing after the round and the types each class lost."""
        rows = self.rows
        typing = [full] * len(rows.classes)
        failed = self._test(((i, full) for i in rows.firsts), typing, True)
        lost_by_class = [failed.get(i, 0) for i in rows.firsts]
        survivors = [full & ~types for types in lost_by_class]
        return list(map(survivors.__getitem__, rows.classes)), lost_by_class

    def _test(
        self, work: Iterable[tuple[int, int]], typing: list[int], full: bool = False
    ) -> dict[int, int]:
        """The types of ``work`` ((node position, mask) pairs) that fail
        the local test under ``typing``, per position that loses some;
        ``full`` says that ``typing`` is the full one."""
        lost = {}
        tested = 0
        testable = self.testable
        deterministic = self.deterministic
        wants = self.targets
        labels, targets, starts, classes, _, _, _ = self.rows
        for i, types in work:
            types &= testable
            if not types:
                continue
            tested += types.bit_count()
            if not deterministic:
                failed = self._lost_general(i, types, typing)
            elif full:
                # Every successor carries every type, so the
                # deterministic test reduces to the label check.
                failed = types & ~_admitted(self.s, self.keys[classes[i]])
            else:
                # The rule uses each label with one target type, so once
                # the rule admits the label bag, a flattening exists
                # exactly when every successor still carries the required
                # type.  The loop is inline: it runs once per node.
                failed = 0
                begin, end = starts[i], starts[i + 1]
                while types and begin != end:
                    bit = types & -types
                    types ^= bit
                    want = wants[bit]
                    for k in range(begin, end):
                        if not typing[targets[k]] & want.get(labels[k], 0):
                            failed |= bit
                            break
            if failed:
                lost[i] = failed
        self.local_tests += tested
        return lost

    def _lost_general(self, i: int, types: int, typing: list[int]) -> int:
        rows = self.rows
        begin, end = rows.starts[i], rows.starts[i + 1]
        pairs = zip(rows.labels[begin:end], [typing[m] for m in rows.targets[begin:end]])
        lost = 0
        if self._memo is None:
            named = self._named_bag(Counter(pairs))
            while types:
                bit = types & -types
                types ^= bit
                if not _some_flattening_member(self.s, named, self.names[bit]):
                    lost |= bit
            return lost
        # The bag as the sorted tuple of its (label, mask) pairs, repeats
        # kept: a key built without counting.
        shape = tuple(sorted(pairs))
        while types:
            bit = types & -types
            types ^= bit
            key = (self.names[bit], shape)
            verdict = self._memo.get(key)
            if verdict is None:
                verdict = self._memo[key] = self._projected_verdict(bit, shape)
            if not verdict:
                lost |= bit
        return lost

    def _projected_verdict(self, bit: int, shape: tuple) -> bool:
        # The verdict of the bag cut down to the types t's rule mentions
        # under each label, in the same sorted form, so entries that become
        # equal count together (see the module docstring).  A projected bag
        # is its own projection, so it shares the memo with the raw bags.
        t, targets = self.names[bit], self.targets[bit]
        projected = []
        for a, types in shape:
            kept = types & targets.get(a, 0)
            if not kept:
                return False
            projected.append((a, kept))
        key = (t, tuple(sorted(projected)))
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._memo[key] = _some_flattening_member(
                self.s, self._named_bag(Counter(projected)), t
            )
        return verdict

    def _named_bag(self, bag: Counter) -> dict[tuple[str, frozenset[str]], int]:
        """A bag of (label, mask) pairs as (label, type set) pairs."""
        sets = self.s.type_sets
        return {(a, sets[types]): count for (a, types), count in bag.items()}

    def _mentioning(self, a: str, types: int) -> int:
        """The tested types whose rule mentions ``a::u`` for some u in
        ``types``: the verdicts an a-successor losing ``types`` can change."""
        return sum(
            bit for bit, targets in self.targets.items() if targets.get(a, 0) & types
        )


def _admitted(s: Schema, bag: tuple[tuple[str, int], ...]) -> int:
    """The mask of the types whose own rule admits the label bag given as
    sorted (label, count) pairs: the universal ones, the deterministic ones
    whose one typed bag spelled from it is a member, and the others that
    some flattening with every type under every label satisfies.  A rule
    that uses no symbol with some label of the bag admits none.  Cached on
    the schema per bag, for refinement and flooding."""
    cache: dict[tuple, int] = s._derived.setdefault("refine:init", {})
    types = cache.get(bag)
    if types is None:
        full = {(a, s.gamma): count for a, count in bag}
        types = cache[bag] = sum(
            s.bits[t]
            for t, rule in s.compiled.items()
            if rule.universal
            or (
                all(a in rule.targets for a, _ in bag)
                and (
                    member(
                        {typed_symbol(a, rule.targets[a][0]): c for a, c in bag}, rule
                    ).verdict
                    if rule.deterministic
                    else _some_flattening_member(s, full, t)
                )
            )
        )
    return types


def structure_filtered_init(g: Graph, s: Schema) -> Mapping[str, frozenset[str]]:
    """Initial typing keeping only the types whose rule admits the node's
    outbound label bag.

    Types dropped here could never survive a refinement round, so starting
    from this typing reaches the same fixpoint as starting from the full
    one.  The type set is computed once per label-bag class of the
    graph's successor rows (:func:`_admitted`), and every node of the
    class gets that one set.  The typing is a view by name of the masks
    by position (see :class:`ValidationReport`), in the graph's node
    order.
    """
    rows = g.successor_rows()
    by_class = [_admitted(s, key) for key in rows.keys]
    masks = list(map(by_class.__getitem__, rows.classes))
    return _Typing(g.sorted_nodes(), masks, s.type_sets, sparse=False)


def infer_types(g: Graph, s: Schema) -> dict[str, frozenset[str]]:
    """The refinement fixpoint from the full typing: per node, in the
    graph's node order, every type it can carry in some valid m-typing.
    Empty sets mark nodes that can carry none; they are returned rather
    than raised.

    The frontier driver takes the same rounds as synchronous refinement,
    at most |nodes|·|types| + 1, but each round costs only the pairs it
    can change (see :class:`_RefineEngine`).
    """
    current, _ = _RefineEngine(g, s, "refine").run()
    return dict(zip(g.sorted_nodes(), map(s.type_sets.__getitem__, current)))


def _types_of(value) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset((value,))
    return frozenset(value)


def _position(order: tuple[str, ...], n) -> int | None:
    """The position of ``n`` in the sorted ``order``, or None."""
    i = bisect_left(order, n) if isinstance(n, str) else len(order)
    return i if i < len(order) and order[i] == n else None


class _Typing(Mapping):
    """A typing by name, a view of a list of masks by node position:
    ``values`` gives a mask's public value, and a ``sparse`` typing
    leaves out the positions whose mask is 0.  The view iterates in node
    order; a lookup by name bisects the order."""

    def __init__(self, order: tuple[str, ...], masks: list[int], values, sparse: bool):
        self._order, self._masks, self._values = order, masks, values
        self._sparse = sparse

    def _values_in_order(self):
        masks = filter(None, self._masks) if self._sparse else self._masks
        return map(self._values.__getitem__, masks)

    def _pairs(self):
        return zip(self, self._values_in_order())

    def __getitem__(self, n):
        i = _position(self._order, n)
        if i is None or (self._sparse and not self._masks[i]):
            raise KeyError(n)
        return self._values[self._masks[i]]

    def __iter__(self):
        order = self._order
        return itertools.compress(order, self._masks) if self._sparse else iter(order)

    def __len__(self):
        masks = self._masks
        return len(masks) - masks.count(0) if self._sparse else len(masks)

    def items(self):
        return _TypingItems(self)

    def values(self):
        return _TypingValues(self)

    def __repr__(self):
        return repr(dict(self._pairs()))


class _TypingItems(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


class _TypingValues(ValuesView):
    def __iter__(self):
        return self._mapping._values_in_order()


class _Remaining(Set):
    """The out-edges of the nodes whose mask holds no type of ``testable``,
    read off the graph's successor rows on each pass.  The runs of such
    positions are found on first use; a run owns one stretch of the rows,
    so the edges come in sorted order."""

    def __init__(self, g: Graph, masks: list[int], testable: int):
        self._g, self._masks, self._testable, self._found = g, masks, testable, None

    @property
    def _runs(self) -> list[tuple[int, int]]:
        if self._found is None:
            self._found = _uncovered(self._masks, self._testable)
        return self._found

    @classmethod
    def _from_iterable(cls, edges):
        return frozenset(edges)

    def _edges(self, begin: int, end: int):
        order = self._g.sorted_nodes()
        labels, targets, starts = self._g.successor_rows()[:3]
        first, last = starts[begin], starts[end]
        lengths = map(sub, starts[begin + 1 : end + 1], starts[begin:end])
        sources = map(itertools.repeat, order[begin:end], lengths)
        return zip(
            itertools.chain.from_iterable(sources),
            labels[first:last],
            map(order.__getitem__, targets[first:last]),
        )

    def __iter__(self):
        return itertools.chain.from_iterable(itertools.starmap(self._edges, self._runs))

    def __len__(self):
        starts = self._g.successor_rows().starts
        return sum(starts[end] - starts[begin] for begin, end in self._runs)

    def __contains__(self, edge):
        if type(edge) is not tuple or not edge:
            return False
        i = _position(self._g.sorted_nodes(), edge[0])
        if i is None or not any(begin <= i < end for begin, end in self._runs):
            return False
        return edge in set(self._edges(i, i + 1))

    def __repr__(self):
        return repr(frozenset(self))


def _uncovered(masks: list[int], testable: int) -> list[tuple[int, int]]:
    """The runs [begin, end) of the positions whose mask holds no type of
    ``testable``, in order."""
    # Few masks are distinct, so each is tested once.
    covers = {mask: mask & testable != 0 for mask in set(masks)}
    if all(covers.values()):
        return []
    flags = bytes(map(covers.__getitem__, masks)) + b"\1"  # the last run stops
    runs, end = [], 0
    while (begin := flags.find(0, end)) != -1:
        end = flags.find(1, begin)
        runs.append((begin, end))
    return runs


def _testable(s: Schema) -> int:
    """The mask of the types that cover a node: those whose rule is not
    universal, and a type ``s`` does not know (see :func:`_by_position`)."""
    return sum(
        s.bits[t] for t, rule in s.compiled.items() if not rule.universal
    ) | 1 << len(s.bits)


def _by_position(g: Graph, s: Schema, typing: Mapping[str, object]) -> list[int]:
    """A typing by name as masks by node position, 0 where it names no
    type, without the names that are not nodes of ``g``; a type ``s`` does
    not know takes the bit past its types."""
    order, bits, unknown = g.sorted_nodes(), s.bits, 1 << len(s.bits)
    masks = [0] * len(order)
    for n, value in typing.items():
        i = _position(order, n)
        if i is not None:
            masks[i] = sum({bits.get(t, unknown) for t in _types_of(value)})
    return masks


def remaining_edges(g: Graph, s: Schema, report: ValidationReport) -> Set:
    """Edges whose source node received no type but universal ones of
    ``s`` — the part of the graph the typing says nothing about.  Any
    typing by name will do; a type ``s`` does not know covers its node."""
    return _Remaining(g, _by_position(g, s, report.typing), _testable(s))


def _report(
    g: Graph,
    s: Schema,
    masks: list[int],
    values: Mapping[int, object],
    algorithm: str,
    failures: tuple[tuple[str, str, str], ...] = (),
    sparse: bool = True,
    **counts: int,
) -> ValidationReport:
    """The one constructor of reports: valid exactly when nothing failed.
    The typing and the remaining edges are views of ``masks``, the typing
    as a list by node position of ``g`` (see :class:`_Typing`)."""
    return ValidationReport(
        valid=not failures,
        typing=_Typing(g.sorted_nodes(), masks, values, sparse),
        failures=failures,
        remaining_edges=_Remaining(g, masks, _testable(s)),
        algorithm=algorithm,
        **counts,
    )


def validate_multi(
    g: Graph,
    s: Schema,
    algo: str = "refine",
    pre: Mapping[str, Iterable[str]] | None = None,
) -> ValidationReport:
    """Multi-type validation: is there a valid m-typing assigning at least
    one type to every node?

    The refine family reports the maximal m-typing.  ``flood`` requires a
    pre-typing (or a schema with the universal type) and is valid only
    when the flood succeeds and reaches every node.  ``brute`` defers to
    the enumeration search, capped at ``BRUTE_CAP`` assignments.
    """
    if algo in ("refine", "s-refine", "rbe0-refine"):
        engine = _RefineEngine(g, s, algo)
        current, rounds = engine.run()
        failures = tuple(
            (n, "-", "no type survives refinement")
            for n in itertools.compress(g.sorted_nodes(), map(not_, current))
        )
        return _report(
            g, s, current, s.type_sets, algo, failures, sparse=False,
            iterations=rounds, local_tests=engine.local_tests,
        )
    if algo == "flood":
        if pre is None:
            if TOP not in s.gamma:
                raise ValueError(
                    "flooding needs a pre-typing or a universal type in the schema"
                )
            pre = {}
        return _flood(g, s, pre, "multi", "flood", reach_all=True)
    if algo == "brute":
        found = brute_force_multi(g, s)
        failures = () if found is not None else (("-", "-", "no valid m-typing exists"),)
        masks = _by_position(g, s, found or {})
        return _report(g, s, masks, s.type_sets, "brute", failures)
    raise ValueError(f"unknown algorithm {algo!r}")


def validate_single(
    g: Graph,
    s: Schema,
    algo: str,
    pre: Mapping[str, Iterable[str]] | None = None,
) -> ValidationReport:
    """Single-type validation: is there a valid s-typing of every node?

    ``flood`` requires a pre-typing and is valid only when the flood
    succeeds and reaches every node.  ``brute`` defers to the enumeration
    search, capped at ``BRUTE_CAP`` assignments.
    """
    if algo == "flood":
        if pre is None:
            raise ValueError("single-mode flooding needs --pretyping")
        return _flood(g, s, pre, "single", "flood-single", reach_all=True)
    if algo == "brute":
        found = brute_force_single(g, s)
        failures = () if found is not None else (("-", "-", "no valid s-typing exists"),)
        names = {bit: t for t, bit in s.bits.items()}
        masks = _by_position(g, s, found or {})
        return _report(g, s, masks, names, "brute-single", failures)
    raise ValueError(f"algorithm {algo} supports only --mode multi")


def _check_pre_typing(
    g: Graph, s: Schema, pre: Mapping[str, Iterable[str]]
) -> dict[str, frozenset[str]]:
    out: dict[str, frozenset[str]] = {}
    for n in pre:
        if n not in g.nodes:
            raise ValueError(f"pre-typing names unknown node {n!r}")
        types = frozenset(pre[n])
        stray = types - set(s.gamma)
        if stray:
            raise ValueError(f"pre-typing names unknown type {min(stray)!r}")
        if types:
            out[n] = types
    return out


def flood_extension(
    g: Graph,
    s: Schema,
    pre: Mapping[str, Iterable[str]],
    mode: str = "multi",
) -> ValidationReport:
    """Extend a partial node-to-types requirement along edges.

    In multi mode (deterministic schemas) the minimal valid extension is
    unique: each processed (node, type) pair forces one type per outgoing
    edge, and the extension fails exactly when some forced membership
    fails.  In single mode (any single-occurrence schema) labels may be
    used with several target types, so the search backtracks over the
    per-edge choices; success yields one valid single-type assignment of
    the reached nodes.
    """
    return _flood(g, s, pre, mode, f"flood-{mode}")


def _flood(
    g: Graph,
    s: Schema,
    pre: Mapping[str, Iterable[str]],
    mode: str,
    algorithm: str,
    reach_all: bool = False,
) -> ValidationReport:
    """The flooding report; with ``reach_all``, a flood that succeeds but
    leaves nodes unreached fails at each of them.  A node the flood sent
    to ``TOP`` is reached, though it stays out of the typing."""
    pre_map = _check_pre_typing(g, s, pre)
    if mode == "multi":
        if not s.class_flags.deterministic:
            raise ValueError("multi-mode flooding needs a deterministic schema")
        flood, values = _flood_multi, s.type_sets
    elif mode == "single":
        if not s.class_flags.sorbe:
            raise ValueError(
                "single-mode flooding needs a single-occurrence schema"
            )
        flood, values = _flood_single, {bit: t for t, bit in s.bits.items()}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Each flood returns its typing as masks by node position, its
    # failures, the obligations it processed and the edges it examined.
    masks, failures, processed, examined = flood(g, s, pre_map)
    if reach_all and not failures:
        # A successful flood checked every edge of a node holding a
        # non-universal type, and an untyped successor of such a node was
        # sent to TOP, which accepts it.
        order = g.sorted_nodes()
        _, targets, starts = g.successor_rows()[:3]
        testable = _testable(s)
        unreached = bytearray(b"\1") * len(order)
        for i in itertools.compress(range(len(order)), masks):
            unreached[i] = 0
            if masks[i] & testable:
                for m in targets[starts[i] : starts[i + 1]]:
                    unreached[m] = 0
        failures = tuple(
            (n, "-", "not reached from the pre-typing")
            for n in itertools.compress(order, unreached)
        )
    return _report(
        g, s, masks, values, algorithm, failures,
        iterations=processed, edges_examined=examined,
    )


def _flood_multi(g: Graph, s: Schema, pre: Mapping[str, frozenset[str]]) -> tuple:
    # The flood runs on node positions, off the graph's successor rows.
    # ``seen`` holds the types queued at a node, as masks in a dict by
    # position, so that the flood's own work follows the nodes it reaches,
    # not the graph.  Each (node, type) is queued once, so the types
    # processed at a node are those queued there less those still waiting,
    # and the typing is listed off ``seen`` once, by position.  A row
    # lists its edges by (label, target position), which is the order of
    # the sorted neighborhood, since positions follow the names.
    bits = s.bits
    order = g.sorted_nodes()
    labels, targets, starts, classes, _, keys, _ = g.successor_rows()
    seen: dict[int, int] = {}
    seen_get = seen.get
    queue: deque[tuple[int, str]] = deque()
    for n in sorted(pre):
        i = bisect_left(order, n)
        seen[i] = s.mask(pre[n])
        queue.extend((i, t) for t in sorted(pre[n]))
    # A deterministic rule sends each label to one type, so the typed bag
    # of a node, and with it the verdict, follows from its label bag: the
    # schema's label-bag verdicts (:func:`_admitted`) decide, once per
    # label-bag class of the rows.  Per type to test: its bit and, per
    # label of its rule, the type the label is sent to with that type's
    # bit, 0 for TOP, which accepts any node and is not queued.
    admitted: list[int | None] = [None] * len(keys)
    steps = {}
    for t, rule in s.compiled.items():
        if not rule.universal:
            sent_to = {a: us[0] for a, us in rule.targets.items()}
            steps[t] = bits[t], {
                a: (u, 0 if u == TOP else bits[u]) for a, u in sent_to.items()
            }
    examined = 0
    processed = 0
    failure = ()
    while queue:
        i, t = queue.popleft()
        processed += 1
        step = steps.get(t)
        if step is not None:
            bit, sends = step
            begin, end = starts[i], starts[i + 1]
            examined += end - begin
            c = classes[i]
            types = admitted[c]
            if types is None:
                types = admitted[c] = _admitted(s, keys[c])
            if not types & bit:
                reason = _rejection(s.compiled[t].targets, labels[begin:end])
                failure = ((order[i], t, reason),)
                # The typing holds what was processed: neither this type
                # nor those still waiting.
                queue.append((i, t))
                for j, u in queue:
                    seen[j] &= ~bits[u]
                break
            for k in range(begin, end):
                u, u_bit = sends[labels[k]]
                if u_bit:
                    m = targets[k]
                    held = seen_get(m, 0)
                    if not held & u_bit:
                        seen[m] = held | u_bit
                        queue.append((m, u))
    typing = [0] * len(order)
    for i, types in seen.items():
        typing[i] = types
    return typing, failure, processed, examined


def _rejection(targets: Mapping[str, tuple[str, ...]], labels: Iterable[str]) -> str:
    """Why a rule rejects a neighborhood whose labels come in sorted
    order: the first label it does not use, else the bag as a whole."""
    for a in labels:
        if a not in targets:
            return f"the rule uses no symbol with label {a}"
    return "outbound neighborhood does not match the rule"


def _flood_single(g: Graph, s: Schema, pre: Mapping[str, frozenset[str]]) -> tuple:
    # A chronological backtracking search over the agenda of obligations,
    # with an explicit stack so that long chains cannot exhaust the
    # interpreter's.  frames[i] says how agenda item i was settled: None
    # when its node already had the type, the node when it took the
    # universal type, or the choice point (node, type, neighborhood,
    # remaining picks, agenda length before the pick's obligations).  Each
    # edge picks among the types the rule uses its label with;
    # deterministic rules make the search straight-line.  Universal rules
    # take a node whatever its edges.
    agenda = [(n, t) for n in sorted(pre) for t in sorted(pre[n])]
    typing: dict[str, str] = {}
    frames: list = []
    failure = None  # the typing at the first failure, and that failure
    point = None  # the choice point whose next pick is due
    examined = 0
    processed = 0
    while True:
        if point is None:
            if len(frames) == len(agenda):
                return _by_position(g, s, typing), (), processed, examined
            n, t = agenda[len(frames)]
            processed += 1
            if n in typing:
                if typing[n] == t:
                    frames.append(None)
                    continue
                reason = f"node already typed {typing[n]}"
            elif s.compiled[t].universal:
                typing[n] = t
                frames.append(n)
                continue
            else:
                neighborhood = sorted(g.out_lab_node(n))
                examined += len(neighborhood)
                targets = s.compiled[t].targets
                if all(a in targets for a, _ in neighborhood):
                    typing[n] = t
                    picks = itertools.product(*[targets[a] for a, _ in neighborhood])
                    point = (n, t, neighborhood, picks, len(agenda))
                else:
                    reason = _rejection(targets, (a for a, _ in neighborhood))
        if point is not None:
            n, t, neighborhood, picks, base = point
            del agenda[base:]
            pick = _matching_pick(s, t, neighborhood, picks)
            if pick is not None:
                agenda.extend(
                    (m, u) for (_, m), u in zip(neighborhood, pick) if u != TOP
                )
                frames.append(point)
                point = None
                continue
            # Out of picks.  Only a point's first try can be the first
            # failure, and then no pick matched the rule.
            del typing[n]
            reason = _rejection(
                s.compiled[t].targets, (a for a, _ in neighborhood)
            )
        if failure is None:
            failure = _by_position(g, s, typing), ((n, t, reason),)
        # Undo back to the innermost choice point and resume it.
        point = None
        while frames and point is None:
            frame = frames.pop()
            if isinstance(frame, tuple):
                point = frame
            elif frame is not None:
                del typing[frame]
        if point is None:
            return *failure, processed, examined


def _matching_pick(s: Schema, t: str, neighborhood, picks) -> tuple | None:
    """The next of ``picks``, one type per edge of the sorted neighborhood,
    under which the typed bag matches ``t``'s rule, or None.

    A deterministic schema offers one pick, whose typed bag follows from
    the label bag, so the schema's label-bag verdicts (:func:`_admitted`)
    decide it, as in multi-mode flooding.
    """
    if s.class_flags.deterministic:
        pick = next(picks, None)
        labels = tuple(Counter(a for a, _ in neighborhood).items())
        return pick if pick is not None and _admitted(s, labels) & s.bits[t] else None
    for pick in picks:
        w = Counter(typed_symbol(a, u) for (a, _), u in zip(neighborhood, pick))
        if rule_member(s, w, t):
            return pick
    return None


def brute_force_single(
    g: Graph, s: Schema, cap: int = BRUTE_CAP
) -> dict[str, str] | None:
    """First valid single-type assignment in lexicographic order, if any.

    Raises when the assignment space exceeds ``cap``.
    """
    nodes = g.sorted_nodes()
    types = sorted(s.gamma)
    space = len(types) ** len(nodes)
    if space > cap:
        raise BruteCapExceeded(f"{space} assignments exceed the cap of {cap}")
    memo: dict[tuple[str, tuple], bool] = {}
    for combo in itertools.product(types, repeat=len(nodes)):
        typing = dict(zip(nodes, combo))
        for n in nodes:
            w = out_lab_type_s(g, typing, n)
            key = (typing[n], tuple(sorted(w.items())))
            if key not in memo:
                memo[key] = rule_member(s, w, typing[n])
            if not memo[key]:
                break
        else:
            return typing
    return None


def brute_force_multi(
    g: Graph, s: Schema, cap: int = BRUTE_CAP
) -> dict[str, frozenset[str]] | None:
    """First valid set-valued assignment over non-empty type sets, if any.

    Validity of each candidate is decided per (node, type) through the
    flattening intersection test.  Raises when the assignment space
    exceeds ``cap``.
    """
    nodes = g.sorted_nodes()
    subsets = [
        frozenset(combo)
        for size in range(1, len(s.gamma) + 1)
        for combo in itertools.combinations(sorted(s.gamma), size)
    ]
    space = len(subsets) ** len(nodes)
    if space > cap:
        raise BruteCapExceeded(f"{space} assignments exceed the cap of {cap}")
    memo: dict[tuple[str, frozenset], bool] = {}
    for combo in itertools.product(subsets, repeat=len(nodes)):
        typing = dict(zip(nodes, combo))
        ok = True
        for n in nodes:
            neighborhood = out_lab_type_m(g, typing, n)
            shape = frozenset(neighborhood.items())
            for t in typing[n]:
                key = (t, shape)
                if key not in memo:
                    memo[key] = _some_flattening_member(s, neighborhood, t)
                if not memo[key]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return typing
    return None


def parse_pretyping(text: str) -> dict[str, set[str]]:
    """Read pre-typing lines of the form ``node<TAB>type``; repeated nodes
    accumulate types.  ``#`` starts a comment."""
    out: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 2 or not all(fields):
            raise ParseError(f"line {lineno}: expected node<TAB>type")
        node, type_name = fields
        out.setdefault(node, set()).add(type_name)
    return out


def format_pretyping(pre: Mapping[str, Iterable[str]]) -> str:
    """Serialize a pre-typing; ``parse_pretyping`` reads the result back."""
    lines = [
        f"{node}\t{t}"
        for node in sorted(pre)
        for t in sorted(_types_of(pre[node]))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def report_lines(report: ValidationReport) -> list[str]:
    """Machine-readable report: one TYPED line per (node, type) pair, one
    FAILED line per recorded failure, one REMAINING line per untyped edge.
    Fields are tab-separated because node names may contain spaces.

    Nodes come in sorted order, each node's types too, and the remaining
    edges in sorted order.  The reports of this module iterate in that
    order, so each sort is one pass and the values are read in turn, and
    each distinct type set is sorted once."""
    lines = []
    typing = report.typing
    given = list(typing)
    nodes = sorted(given)
    values = typing.values() if given == nodes else map(typing.__getitem__, nodes)
    ordered: dict[object, list[str]] = {}
    for n, types in zip(nodes, values):
        try:
            names = ordered[types]
        except KeyError:
            names = ordered[types] = sorted(_types_of(types))
        except TypeError:  # a set or a list
            names = sorted(_types_of(types))
        for t in names:
            lines.append(f"TYPED\t{n}\t{t}")
    for n, t, reason in report.failures:
        lines.append(f"FAILED\t{n}\t{t}\t{reason}")
    for sbj, prd, obj in sorted(report.remaining_edges):
        lines.append(f"REMAINING\t{sbj}\t{prd}\t{obj}")
    return lines
