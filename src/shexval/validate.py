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

Refinement supports interchangeable per-node tests: a general
intersection-nonemptiness test that works for every schema (a circulation
on the compiled interval product for a symbol-product rule, the rule's
compiled arithmetic encoding for any other), the same test without a memo
for schemas of symbol products, and a shortcut for deterministic
single-occurrence schemas, under which a node's typed bag follows from its
label bag.  All of them compute the same fixpoint on
schemas where their preconditions hold.  ``refine`` and ``rbe0-refine``
start from the full typing; ``s-refine`` starts from the structure-filtered
typing, whose label-bag verdicts are the ones the shortcut reads.

The refinement driver is frontier-driven, in the manner of maximal
simulation (Henzinger, Henzinger and Kopke, FOCS 1995) and arc
consistency (AC-3, Mackworth 1977).  Its first round tests every
(node, type) pair; later rounds re-test only the pairs (n, t) where n has
an a-edge into a node m that lost a type u in the round before and the
rule of t mentions ``a::u``.  The local verdict of (n, t) depends on each
successor m only through the types of m that t's rule mentions under the
edge's label: a flattening that picks an unmentioned symbol lies outside
the rule's language.  Rules given as opaque predicates count as
mentioning every symbol.  So a pair off the frontier keeps the verdict it
had a round earlier, and every round removes exactly the pairs the
synchronous round of :func:`refine_step` removes.

Tests that see a node only through its outbound label bag are decided
once per label-bag class of the graph (:meth:`Graph.label_classes`), in
the manner of partition refinement (Paige and Tarjan, SIAM J. Comput.
1987): the types that admit a label bag, cached on the schema per bag and
read by both the structure-filtered initial typing and the shortcut's
label check, and round 1 of refinement from the full typing, under which
every successor carries every type.
Multi-mode flooding checks each (type, label bag) once per call, since a
deterministic rule turns a label bag into one typed bag.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter

from .graph import Graph
from .membership import member
from .rbe import Bag, ParseError, Rbe, Symbol, concat, disj, typed_symbol
# perfbench/spans.py wraps the inter1 attribute of this module.
from .sat import inter1, inter1_groups  # noqa: F401
from .schema import TOP, Schema, flattenings, rule_member

__all__ = [
    "ALGORITHMS",
    "BRUTE_CAP",
    "BruteCapExceeded",
    "STRATEGIES",
    "ValidationReport",
    "out_lab_type_s",
    "out_lab_type_m",
    "flatten",
    "check_s_typing",
    "check_m_typing",
    "m_typing_leq",
    "refine_step",
    "structure_filtered_init",
    "refine_fixpoint",
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

STRATEGIES = ("general", "rbe0-flow", "det-membership")
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
    ``typing`` maps nodes either to a single type (single-type modes) or
    to a frozenset of types; nodes never reached by flooding are absent.
    ``failures`` holds (node, type, reason) triples; ``valid`` holds
    exactly when it is empty.  ``remaining_edges`` are the out-edges of
    the nodes the typing leaves uncovered: absent from it, or holding no
    type other than the universal one.  ``iterations`` counts refinement
    rounds, including the last one, which removes nothing, or processed
    flooding obligations.  Refinement rounds are those of the synchronous
    definition (:func:`refine_step` until nothing changes), even though
    the driver re-tests only a frontier of pairs in each round.
    ``local_tests`` counts the (node, type) local tests the refinement
    driver ran over all rounds; from the full typing, round 1 counts one
    test per type for one representative node of each label-bag class.
    It is 0 for flooding and brute force.
    ``edges_examined`` counts outbound neighborhood scans during flooding,
    including repeats on backtracking.
    """

    valid: bool
    typing: Mapping[str, object]
    failures: tuple[tuple[str, str, str], ...] = ()
    remaining_edges: frozenset[tuple[str, str, str]] = frozenset()
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


def _neighborhood_key(neighborhood: Counter) -> tuple:
    return tuple(
        sorted((a, tuple(sorted(types)), c) for (a, types), c in neighborhood.items())
    )


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


def m_typing_leq(first: Mapping[str, Iterable[str]], second: Mapping[str, Iterable[str]]) -> bool:
    """Pointwise containment of set-valued typings (absent nodes are empty)."""
    return all(set(ts) <= set(second.get(n, ())) for n, ts in first.items())


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
    if rule.predicate is not None:
        # Opaque languages admit no intersection test; try the flattenings
        # one by one.
        items = sorted(neighborhood.items(), key=_flatten_key)
        return any(
            rule.predicate(w)
            for w in flattenings((a, types, count) for (a, types), count in items)
        )
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
    """Refinement rounds against a fixed graph and schema.

    The strategy picks the local test once, at construction:

    * ``general`` asks whether some flattening of the neighborhood
      satisfies the rule, memoized by neighborhood shape, which collapses
      the many identically-shaped nodes of large graphs into a handful of
      tests;
    * ``rbe0-flow`` runs that test per node, which on its schemas of
      symbol products is the circulation.  It has no memo on purpose:
      with one it is about as fast as the deterministic shortcut, so
      which of the two wins would be left to noise;
    * ``det-membership`` checks that the rule admits the node's label bag
      (:func:`_admitted`, one verdict per bag) and that every successor
      still carries the one type the rule requires under the edge's
      label.  A node's label bag never changes, so once every pair has
      passed the label check, later tests check successors only.

    Types with a universal rule always survive and are never tested.
    Every test reads the rules as the schema compiled them (label maps,
    label projections, interval products).  The verdict memos live on the
    schema, so engines over the same schema share them and repeat
    validations start warm.

    :meth:`step` is one synchronous round over every pair.
    :meth:`from_full` and :meth:`from_filtered` are the frontier driver
    from its two starts.  From the full typing, round 1 is :meth:`step`
    decided once per label-bag class.  From the structure-filtered typing,
    whose types have all passed the label check, round 1 checks the
    successors of every pair.  Each later round re-tests only the pairs
    (n, t) with an a-edge from n into a node m that lost a type u in the
    round before, where t's rule mentions ``a::u``.
    A pair off that frontier keeps its previous verdict, because the test
    sees a successor only through the types the rule mentions under the
    edge's label, so the driver yields the typing of repeated :meth:`step`
    after every round.  ``local_tests`` counts the pairs tested; a class
    decided by one representative counts that representative's pairs.
    """

    def __init__(self, g: Graph, s: Schema, strategy: str):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.g = g
        self.s = s
        self.rules = s.compiled
        flags = s.class_flags
        # The local tests are kept as plain functions and called with the
        # engine: a bound method kept on the engine would be a reference
        # cycle, holding the engine, its graph and schema until a collection.
        if strategy == "general":
            self._retest = _RefineEngine._lost_general
            # Memoized by neighborhood shape; the memo depends only on the
            # schema, so engines over the same schema share it.
            self._memo: dict[tuple, bool] = s._derived.setdefault(
                "refine:memo:general", {}
            )
        elif strategy == "rbe0-flow":
            if not flags.rbe0:
                raise ValueError(
                    "the rbe0-flow strategy needs a schema of symbol products"
                )
            self._retest = _RefineEngine._lost_flow
        else:
            if not (flags.deterministic and flags.sorbe):
                raise ValueError(
                    f"the {strategy} strategy needs a deterministic "
                    "single-occurrence schema"
                )
            self._retest = _RefineEngine._lost_successors
        # The test of pairs that may not have passed the label check; the
        # rounds after the first re-test with _retest.
        self._lost = (
            _RefineEngine._lost_labeled
            if strategy == "det-membership"
            else self._retest
        )
        self.testable = frozenset(
            t for t, rule in self.rules.items() if not rule.universal
        )
        self.local_tests = 0

    def step(self, typing: Mapping[str, frozenset[str]]) -> dict[str, frozenset[str]]:
        """All pairs re-tested against the previous round's typing."""
        lost = self._test(typing, typing, self._lost)
        return {
            n: _without(typing[n], lost[n]) if n in lost else typing[n]
            for n in self.g.nodes
        }

    def from_full(self) -> tuple[dict[str, frozenset[str]], int]:
        """The fixpoint below the full typing and its number of rounds.

        Every node starts with every type, so round 1 sees a node only
        through its label bag: it tests one node per label-bag class and
        gives its verdicts to the whole class.
        """
        full = frozenset(self.s.gamma)
        current = dict.fromkeys(self.g.nodes, full)
        return current, self._settle(current, self._first_round_by_class(current))

    def from_filtered(self) -> tuple[dict[str, frozenset[str]], int]:
        """The fixpoint below :func:`structure_filtered_init` and its number
        of rounds; round 1 skips the label check the filter has made."""
        current = structure_filtered_init(self.g, self.s)
        lost = self._test(current, current, self._retest)
        for n, types in lost.items():
            current[n] = _without(current[n], types)
        return current, self._settle(current, lost)

    def _settle(self, current: dict[str, frozenset[str]], lost) -> int:
        """Refine ``current`` in place after a first round that removed
        ``lost``; returns the number of rounds, counting the first and the
        last one, which removes nothing."""
        rounds = 1
        preds: dict[str, list[tuple[str, str]]] | None = None
        while lost:
            if preds is None:
                preds = _predecessors(self.g)
                mentions, everywhere = self._mention_index()
            # The types an a-edge into a node that lost ``types`` can
            # affect, per (label, lost types); round 1 by class gives many
            # nodes the same lost types.
            affecting: dict[tuple, frozenset[str]] = {}
            work: dict[str, set[str]] = {}
            for m, types in lost.items():
                types = tuple(types)
                for n, a in preds.get(m, ()):
                    mentioned = affecting.get((a, types))
                    if mentioned is None:
                        mentioned = affecting[(a, types)] = everywhere.union(
                            *(mentions.get((a, u), everywhere) for u in types)
                        )
                    if mentioned:
                        affected = mentioned & current[n]
                        if affected:
                            work.setdefault(n, set()).update(affected)
            rounds += 1
            lost = self._test(work, current, self._retest)
            for n, types in lost.items():
                current[n] = _without(current[n], types)
        return rounds

    def _first_round_by_class(
        self, current: dict[str, frozenset[str]]
    ) -> dict[str, list[str]]:
        """Round 1 from the full typing, one local test per label-bag class;
        updates ``current`` and returns the types each node lost."""
        classes = self.g.label_classes().values()
        failed = self._test(
            {nodes[0]: current[nodes[0]] for nodes in classes}, current, self._lost
        )
        lost = {}
        for nodes in classes:
            types = failed.get(nodes[0])
            if types:
                survivors = _without(current[nodes[0]], types)
                for n in nodes:
                    current[n] = survivors
                    lost[n] = types
        return lost

    def _test(
        self,
        work: Mapping[str, Iterable[str]],
        typing: Mapping[str, frozenset[str]],
        local_test,
    ) -> dict[str, list[str]]:
        """The types of ``work`` (node to types) that fail ``local_test``
        under ``typing``."""
        lost = {}
        for n, types in work.items():
            types = self.testable.intersection(types)
            if types:
                self.local_tests += len(types)
                failed = local_test(self, n, types, typing)
                if failed:
                    lost[n] = failed
        return lost

    def _lost_general(self, n, types, typing) -> list[str]:
        neighborhood = out_lab_type_m(self.g, typing, n)
        shape = _neighborhood_key(neighborhood)
        lost = []
        for t in types:
            key = (t, shape)
            verdict = self._memo.get(key)
            if verdict is None:
                verdict = _some_flattening_member(self.s, neighborhood, t)
                self._memo[key] = verdict
            if not verdict:
                lost.append(t)
        return lost

    def _lost_flow(self, n, types, typing) -> list[str]:
        neighborhood = out_lab_type_m(self.g, typing, n)
        return [
            t for t in types if not _some_flattening_member(self.s, neighborhood, t)
        ]

    def _lost_successors(self, n, types, typing) -> list[str]:
        # The rule uses each label with one target type, so once the label
        # bag fits the projected rule, a flattening exists exactly when every
        # successor still carries the required type.
        edges = self.g.out_lab_node(n)
        lost = []
        for t in types:
            targets = self.rules[t].targets
            for a, m in edges:
                required = targets.get(a)
                if required is None or required[0] not in typing[m]:
                    lost.append(t)
                    break
        return lost

    def _lost_labeled(self, n, types, typing) -> list[str]:
        # The label check, then the successors of the types that pass it.
        admitted = _admitted(self.s, self.g.label_key(n))
        lost = [t for t in types if t not in admitted]
        return lost + self._lost_successors(n, admitted.intersection(types), typing)

    def _mention_index(
        self,
    ) -> tuple[dict[tuple[str, str], frozenset[str]], frozenset[str]]:
        """Which types' local verdicts a successor's type can affect.

        Maps (label, type) to the types whose rule mentions ``label::type``;
        the second value holds the types with an opaque, non-universal rule,
        which count as mentioning every symbol and belong to every entry.
        """
        everywhere = frozenset(
            t
            for t, rule in self.rules.items()
            if rule.predicate is not None and not rule.universal
        )
        index: dict[tuple[str, str], set[str]] = {}
        for t, rule in self.rules.items():
            for a, targets in rule.targets.items():
                for u in targets:
                    index.setdefault((a, u), set()).add(t)
        mentions = {key: frozenset(types) | everywhere for key, types in index.items()}
        return mentions, everywhere


def _without(types: frozenset[str], lost: list[str]) -> frozenset[str]:
    # Built afresh rather than by difference(), which copies the hash table
    # of the full type set into every result.
    return frozenset(t for t in types if t not in lost)


def _predecessors(g: Graph) -> dict[str, list[tuple[str, str]]]:
    """Per node, the (source, label) pairs of its inbound edges."""
    preds: dict[str, list[tuple[str, str]]] = {}
    for n, a, m in g.edges:
        preds.setdefault(m, []).append((n, a))
    return preds


def _as_m_typing(g: Graph, typing: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    missing = g.nodes - typing.keys()
    if missing:
        raise ValueError(f"typing assigns no set to node {min(missing)!r}")
    return {n: frozenset(typing[n]) for n in g.nodes}


def refine_step(
    g: Graph,
    s: Schema,
    typing: Mapping[str, Iterable[str]],
    strategy: str = "general",
) -> dict[str, frozenset[str]]:
    """One refinement round: delete every locally unsatisfiable type.

    A type survives at a node when some flattening of the node's
    neighborhood under the *current* typing belongs to its language; the
    universal type always survives.  The result is pointwise contained in
    the input.
    """
    return _RefineEngine(g, s, strategy).step(_as_m_typing(g, typing))


def _admitted(s: Schema, bag: tuple[tuple[str, int], ...]) -> frozenset[str]:
    """The types whose rule admits the label bag given as sorted (label,
    count) pairs: the universal type, predicate rules, and the expression
    rules whose label projection holds the bag.  Cached on the schema per
    bag; a rule that uses no symbol with some label of the bag is dropped
    without a membership test."""
    cache: dict[tuple, frozenset[str]] = s._derived.setdefault("refine:init", {})
    types = cache.get(bag)
    if types is None:
        w = Counter(dict(bag))
        rules = s.compiled
        types = cache[bag] = frozenset(
            t
            for t in s.gamma
            if rules[t].projected is None
            or (
                all(a in rules[t].targets for a in w)
                and member(w, rules[t].projected).verdict
            )
        )
    return types


def structure_filtered_init(g: Graph, s: Schema) -> dict[str, frozenset[str]]:
    """Initial typing keeping only types whose label-projected rule admits
    the node's outbound label bag.

    Types dropped here could never survive a refinement round, so starting
    from this typing reaches the same fixpoint as starting from the full
    one.  The type set is computed once per label-bag class of the graph
    (:func:`_admitted`), and every node of the class gets that one set.
    """
    out: dict[str, frozenset[str]] = {}
    for key, nodes in g.label_classes().items():
        out.update(dict.fromkeys(nodes, _admitted(s, key)))
    return out


def refine_fixpoint(
    g: Graph, s: Schema, strategy: str = "general"
) -> dict[str, frozenset[str]]:
    """Refine the full typing until nothing changes: the greatest fixpoint
    of :func:`refine_step`.

    The frontier driver re-tests, after the first round, only the pairs
    whose successors lost a type their rule mentions (see the module
    docstring), so it takes the same rounds, at most |nodes|·|types| + 1,
    as iterating :func:`refine_step`, but each round costs only the pairs
    it can change.
    """
    typing, _ = _RefineEngine(g, s, strategy).from_full()
    return typing


def infer_types(g: Graph, s: Schema) -> dict[str, frozenset[str]]:
    """The refinement fixpoint from the full typing: per node, every type
    it can carry in some valid m-typing.  Empty sets mark nodes that can
    carry none; they are returned rather than raised."""
    return refine_fixpoint(g, s, _auto_strategy(s))


def _auto_strategy(s: Schema) -> str:
    flags = s.class_flags
    if flags.deterministic and flags.sorbe:
        return "det-membership"
    return "general"


_TOP_ONLY = frozenset((TOP,))


def _types_of(value) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset((value,))
    return frozenset(value)


def _remaining(g: Graph, typing: Mapping[str, object]) -> frozenset:
    # The out-edges of the uncovered nodes only, so a typing that covers
    # every node touches no edge.  ``TOP in types`` cheaply passes over
    # most typed nodes; the set test decides.
    uncovered = g.nodes.difference(typing).union(
        n
        for n, types in typing.items()
        if not types or (TOP in types and _types_of(types) <= _TOP_ONLY)
    )
    return g.out_edges(uncovered)


def remaining_edges(g: Graph, report: ValidationReport) -> frozenset:
    """Edges whose source node received no type other than the universal
    one — the part of the graph the typing says nothing about."""
    return _remaining(g, report.typing)


def _report(
    g: Graph,
    typing: Mapping[str, object],
    algorithm: str,
    failures: tuple[tuple[str, str, str], ...] = (),
    **counts: int,
) -> ValidationReport:
    """The one constructor of reports: valid exactly when nothing failed,
    with the remaining edges of ``typing`` on ``g``."""
    return ValidationReport(
        valid=not failures,
        typing=typing,
        failures=failures,
        remaining_edges=_remaining(g, typing),
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
        if algo == "s-refine":
            engine = _RefineEngine(g, s, "det-membership")
            typing, rounds = engine.from_filtered()
        else:
            strategy = "rbe0-flow" if algo == "rbe0-refine" else _auto_strategy(s)
            engine = _RefineEngine(g, s, strategy)
            typing, rounds = engine.from_full()
        failures = tuple(
            (n, "-", "no type survives refinement")
            for n in sorted(n for n, types in typing.items() if not types)
        )
        return _report(
            g, typing, algo, failures,
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
        return _report(g, found or {}, "brute", failures)
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
        return _report(g, found or {}, "brute-single", failures)
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
    leaves nodes untyped fails at each of them."""
    pre_map = _check_pre_typing(g, s, pre)
    if mode == "multi":
        if not s.class_flags.deterministic:
            raise ValueError("multi-mode flooding needs a deterministic schema")
        flood = _flood_multi
    elif mode == "single":
        if not s.class_flags.sorbe:
            raise ValueError(
                "single-mode flooding needs a single-occurrence schema"
            )
        flood = _flood_single
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Each flood returns its typing, its failures, the obligations it
    # processed and the edges it examined.
    typing, failures, processed, examined = flood(g, s, pre_map)
    if reach_all and not failures:
        failures = tuple(
            (n, "-", "not reached from the pre-typing")
            for n in sorted(g.nodes - typing.keys())
        )
    return _report(
        g, typing, algorithm, failures, iterations=processed, edges_examined=examined
    )


def _freeze(typing: Mapping[str, set[str]]) -> dict[str, frozenset[str]]:
    return {n: frozenset(ts) for n, ts in typing.items()}


_label = itemgetter(0)


def _flood_multi(g: Graph, s: Schema, pre: Mapping[str, frozenset[str]]) -> tuple:
    typing: dict[str, set[str]] = {}
    queue: deque[tuple[str, str]] = deque()
    seen: set[tuple[str, str]] = set()
    for n in sorted(pre):
        for t in sorted(pre[n]):
            queue.append((n, t))
            seen.add((n, t))
    # A deterministic rule sends each label to one type, so the typed bag
    # of a node, and with it the verdict, follows from its label bag: each
    # (type, label bag) is checked once per call.  The labels of the sorted
    # neighborhood spell the bag, so the graph's label-bag index, which
    # costs a pass over every node, is not needed here.
    reasons: dict[tuple, str | None] = {}
    examined = 0
    processed = 0
    while queue:
        n, t = queue.popleft()
        processed += 1
        if t == TOP:
            typing.setdefault(n, set()).add(t)
            continue
        neighborhood = sorted(g.out_lab_node(n))
        examined += len(neighborhood)
        targets = s.compiled[t].targets
        key = (t, tuple(map(_label, neighborhood)))
        if key in reasons:
            reason = reasons[key]
        else:
            reason = reasons[key] = _flood_failure(s, t, targets, neighborhood)
        if reason is not None:
            return _freeze(typing), ((n, t, reason),), processed, examined
        typing.setdefault(n, set()).add(t)
        for a, m in neighborhood:
            u = targets[a][0]
            if u != TOP and (m, u) not in seen:
                seen.add((m, u))
                queue.append((m, u))
    return _freeze(typing), (), processed, examined


def _flood_failure(
    s: Schema,
    t: str,
    targets: Mapping[str, tuple[str, ...]],
    neighborhood: list[tuple[str, str]],
) -> str | None:
    """Why a node with this sorted neighborhood cannot carry the
    deterministic type ``t``, or None when it can."""
    w: Counter[str] = Counter()
    for a, _ in neighborhood:
        if a not in targets:
            return f"the rule uses no symbol with label {a}"
        w[typed_symbol(a, targets[a][0])] += 1
    if not rule_member(s, w, t):
        return "outbound neighborhood does not match the rule"
    return None


def _flood_single(g: Graph, s: Schema, pre: Mapping[str, frozenset[str]]) -> tuple:
    agenda: list[tuple[str, str]] = [
        (n, t) for n in sorted(pre) for t in sorted(pre[n])
    ]
    examined = 0
    processed = 0
    first_failure: list[tuple[str, str, str]] = []
    failure_typing: dict[str, str] = {}

    def fail(n: str, t: str, reason: str, lam: dict[str, str]) -> None:
        if not first_failure:
            first_failure.append((n, t, reason))
            failure_typing.update(lam)

    # A depth-first search over the agenda with an explicit stack, so long
    # chains of obligations cannot exhaust the interpreter's.  trail[i]
    # says how agenda item i was settled: None when its node already had
    # the type, the node when it took the universal type, or the choice
    # point [node, type, neighborhood, remaining picks, agenda length
    # before the pick's obligations, whether some pick matched the rule].
    lam: dict[str, str] | None = {}
    trail: list = []
    point: list | None = None  # the choice point whose next pick is due
    while True:
        if point is None:
            i = len(trail)
            if i == len(agenda):
                break
            n, t = agenda[i]
            processed += 1
            if n in lam:
                if lam[n] == t:
                    trail.append(None)
                    continue
                fail(n, t, f"node already typed {lam[n]}", lam)
            elif t == TOP:
                lam[n] = t
                trail.append(n)
                continue
            else:
                neighborhood = sorted(g.out_lab_node(n))
                examined += len(neighborhood)
                # Each edge picks among the types the rule uses its label
                # with; deterministic rules make the search straight-line.
                targets = s.compiled[t].targets
                per_edge = [targets.get(a) for a, _ in neighborhood]
                unused = [
                    a
                    for (a, _), options in zip(neighborhood, per_edge)
                    if options is None
                ]
                if unused:
                    fail(n, t, f"the rule uses no symbol with label {unused[0]}", lam)
                else:
                    lam[n] = t
                    point = [
                        n, t, neighborhood, itertools.product(*per_edge),
                        len(agenda), False,
                    ]
        if point is not None:
            n, t, neighborhood, picks, base, _ = point
            del agenda[base:]
            for pick in picks:
                w = Counter(
                    typed_symbol(a, u) for (a, _), u in zip(neighborhood, pick)
                )
                if rule_member(s, w, t):
                    point[5] = True
                    agenda.extend(
                        (m, u) for (_, m), u in zip(neighborhood, pick) if u != TOP
                    )
                    trail.append(point)
                    point = None
                    break
            else:
                del lam[n]
                if point[5]:
                    fail(n, t, "no consistent typing of the successors", lam)
                else:
                    fail(n, t, "outbound neighborhood does not match the rule", lam)
            if point is None:
                continue
        # Settling failed: undo back to the innermost choice point.
        point = None
        while trail and point is None:
            entry = trail.pop()
            if isinstance(entry, list):
                point = entry
            elif entry is not None:
                del lam[entry]
        if point is None:
            lam = None
            break

    if lam is None:
        return failure_typing, tuple(first_failure), processed, examined
    return lam, (), processed, examined


def brute_force_single(
    g: Graph, s: Schema, cap: int = BRUTE_CAP
) -> dict[str, str] | None:
    """First valid single-type assignment in lexicographic order, if any.

    Raises when the assignment space exceeds ``cap``.
    """
    nodes = sorted(g.nodes)
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
    nodes = sorted(g.nodes)
    subsets = [
        frozenset(combo)
        for size in range(1, len(s.gamma) + 1)
        for combo in itertools.combinations(sorted(s.gamma), size)
    ]
    space = len(subsets) ** len(nodes)
    if space > cap:
        raise BruteCapExceeded(f"{space} assignments exceed the cap of {cap}")
    memo: dict[tuple[str, tuple], bool] = {}
    for combo in itertools.product(subsets, repeat=len(nodes)):
        typing = dict(zip(nodes, combo))
        ok = True
        for n in nodes:
            neighborhood = out_lab_type_m(g, typing, n)
            key_base = _neighborhood_key(neighborhood)
            for t in typing[n]:
                key = (t, key_base)
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
    Fields are tab-separated because node names may contain spaces."""
    lines = []
    for n in sorted(report.typing):
        for t in sorted(_types_of(report.typing[n])):
            lines.append(f"TYPED\t{n}\t{t}")
    for n, t, reason in report.failures:
        lines.append(f"FAILED\t{n}\t{t}\t{reason}")
    for sbj, prd, obj in sorted(report.remaining_edges):
        lines.append(f"REMAINING\t{sbj}\t{prd}\t{obj}")
    return lines
