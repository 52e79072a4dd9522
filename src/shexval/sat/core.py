"""Satisfiability, intersection nonemptiness, and ambiguity analysis.

The workhorse is an arithmetic encoding of bag membership: an expression
holding a bag is described by one count unknown per alphabet symbol plus a
repetition unknown per subexpression, linked by linear equations.  A bag
belongs to the language exactly when the system has a solution with the
top-level repetition count pinned to one.  Expressions built from interval
symbols, unordered concatenation, and intersection alone skip the solver:
their languages collapse to one interval per symbol, computed by
:func:`~shexval.rbe.normalize_product`, the one analysis of that fragment.
A choice-group language meets such a product exactly when a circulation
exists (:func:`inter1_groups`).

Any other rule is encoded once, like the linear-size Parikh-image formulas
of Verma, Seidl and Schwentick (CADE 2005), into a :class:`RuleEncoding`
compiled for the solver; each query pins the counts it fixes and adds rows
only for its choice groups of two or more rule symbols.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from ..rbe import (
    Concat,
    Disj,
    Epsilon,
    Interval,
    Isect,
    Plus,
    Rbe,
    Star,
    Symbol,
    alphabet,
    choice_groups,
    fold,
    normalize_product,
    split_symbol,
    walk,
)
from .flow import build_flow_network, circulation_exists
from .ilp import CompiledSystem, IlpResult, LinearSystem, SolverCapped, ilp_feasible

__all__ = [
    "encode_phi",
    "RuleEncoding",
    "inter1",
    "inter1_groups",
    "SatResult",
    "rbe_satisfiable",
    "normal_form_isect",
    "AmbiguityResult",
    "is_unambiguous",
]


def encode_phi(e: Rbe, system: LinearSystem) -> dict[str, str]:
    """Append membership constraints for ``e`` and return its count unknowns.

    The returned map sends each alphabet symbol to the unknown holding its
    multiplicity in the candidate bag; the top-level repetition count is
    fixed at one.  Callers pin the count unknowns for membership queries or
    leave them free for satisfiability.

    Intersection nodes are rejected under Star or Plus: with a repetition
    count above one the two operands could split the bag differently, so the
    conjunction of their constraints would overapproximate the language.
    """
    alphabets = _alphabets(e)
    xvars = {a: system.fresh_var("x") for a in sorted(alphabets[id(e)])}
    root = system.fresh_var("n")
    system.eq({root: 1}, 1)
    _phi(e, xvars, root, system, alphabets, under_repeat=False)
    return xvars


def _alphabets(e: Rbe) -> dict[int, frozenset[str]]:
    """The alphabet of every subexpression, keyed by node identity, from
    one fold; the encoding splits counts by them at every n-ary node."""
    table: dict[int, frozenset[str]] = {}

    def step(node: Rbe, parts: list[frozenset[str]]) -> frozenset[str]:
        names = (
            frozenset((node.name,))
            if isinstance(node, Symbol)
            else frozenset().union(*parts)
        )
        table[id(node)] = names
        return names

    fold(e, step)
    return table


def _phi(
    e: Rbe,
    xvars: dict[str, str],
    n: str,
    system: LinearSystem,
    alphabets: dict[int, frozenset[str]],
    under_repeat: bool,
) -> None:
    match e:
        case Epsilon():
            return
        case Symbol(name, bounds):
            x = xvars[name]
            if bounds.is_empty:
                # Empty language: only zero copies, consuming nothing.
                system.eq({n: 1}, 0)
                system.eq({x: 1}, 0)
                return
            if bounds.lo > 0:
                system.ge({x: 1, n: -bounds.lo}, 0)
            if bounds.hi is not None:
                system.le({x: 1, n: -bounds.hi}, 0)
            else:
                # Nothing bounds x from above, so zero copies must be forced
                # to consume nothing explicitly.
                system.case(
                    [system.make_eq({n: 1}, 0), system.make_eq({x: 1}, 0)],
                    [system.make_ge({n: 1}, 1)],
                )
            return
        case Disj(parts):
            counts = [system.fresh_var("n") for _ in parts]
            system.eq({**dict.fromkeys(counts, 1), n: -1}, 0)
            split = _split(xvars, [alphabets[id(part)] for part in parts], system)
            for part, px, pn in zip(parts, split, counts):
                _phi(part, px, pn, system, alphabets, under_repeat)
            return
        case Concat(parts):
            split = _split(xvars, [alphabets[id(part)] for part in parts], system)
            for part, px in zip(parts, split):
                _phi(part, px, n, system, alphabets, under_repeat)
            return
        case Star(body) | Plus(body):
            zero = [system.make_eq({n: 1}, 0)]
            zero.extend(system.make_eq({x: 1}, 0) for x in xvars.values())
            system.case(zero, [system.make_ge({n: 1}, 1)])
            inner = system.fresh_var("n")
            if isinstance(e, Plus):
                # n non-empty runs of the body are k >= n bags of it.
                system.ge({inner: 1, n: -1}, 0)
            _phi(body, xvars, inner, system, alphabets, under_repeat=True)
            return
        case Isect(parts):
            if under_repeat:
                raise ValueError(
                    "intersection under a repetition operator is not supported"
                )
            names = [alphabets[id(part)] for part in parts]
            for a, x in xvars.items():
                if not all(a in part_names for part_names in names):
                    system.eq({x: 1}, 0)
            for part, part_names in zip(parts, names):
                px = {a: xvars[a] for a in part_names}
                _phi(part, px, n, system, alphabets, under_repeat)
            return
    raise TypeError(f"not an expression node: {e!r}")


def _split(
    xvars: dict[str, str], alphas: list[frozenset[str]], system: LinearSystem
) -> list[dict[str, str]]:
    """Divide the parent's counts between the children by alphabet.

    A symbol held by one child passes its unknown through; a symbol held by
    k > 1 children gets k fresh unknowns that sum to the parent's.
    """
    holders: dict[str, list[int]] = {}
    for i, names in enumerate(alphas):
        for a in names:
            holders.setdefault(a, []).append(i)
    split: list[dict[str, str]] = [{} for _ in alphas]
    for a, x in xvars.items():
        owners = holders.get(a, ())
        if len(owners) == 1:
            split[owners[0]][a] = x
        elif owners:
            shares = [system.fresh_var("x") for _ in owners]
            system.eq({**dict.fromkeys(shares, 1), x: -1}, 0)
            for i, share in zip(owners, shares):
                split[i][a] = share
    return split


class RuleEncoding:
    """A rule's encoding, compiled for the solver once: ``counts`` maps each
    symbol to its count unknown, and ``rows`` is the compiled base of every
    query.  A query pins the counts it fixes and adds rows only for its
    choice groups of two or more rule symbols."""

    def __init__(self, e: Rbe):
        system = LinearSystem()
        self.counts = encode_phi(e, system)
        self.rows = CompiledSystem(system)

    def meets(self, groups: Mapping[frozenset[str], int]) -> bool:
        """Whether some bag picking one symbol from each group, a group of
        count c picked c times, belongs to the rule's language.

        A group's count goes to its one rule symbol, or is split among two
        or more through fresh unknowns; a group without a rule symbol fails
        at once.  A count unknown that no split shares is pinned at its
        total; a shared one gets an equation.  The search is complete at the
        number of picks plus one.
        """
        counts = self.counts
        system = LinearSystem(self.rows)
        pins = dict.fromkeys(counts.values(), 0)
        shares: dict[str, dict[str, int]] = {}
        k = 0
        for group, c in groups.items():
            inside = sorted(group.intersection(counts))
            if not inside:
                return False
            k += c
            if len(inside) == 1:
                pins[counts[inside[0]]] += c
                continue
            ys = [system.fresh_var("y") for _ in inside]
            system.eq(dict.fromkeys(ys, 1), c)
            for a, y in zip(inside, ys):
                shares.setdefault(a, {})[y] = -1
        for a, x in counts.items():
            if a in shares:
                system.eq({x: 1, **shares[a]}, pins.pop(x))
        result = ilp_feasible(system, bound=k + 1, pins=pins)
        if result.status == "unknown":
            raise SolverCapped(f"intersection test capped at bound {k + 1}")
        return result.status == "sat"


def inter1_groups(
    groups: list[frozenset[str] | set[str]], intervals: dict[str, Interval]
) -> bool:
    """Nonemptiness of {bags picking one symbol per group} ∩ {per-symbol intervals}."""
    return circulation_exists(build_flow_network(groups, intervals))


def inter1(choice_expr: Rbe, other: Rbe) -> bool:
    """Decide whether a choice-group language meets another language.

    ``choice_expr`` must be an unordered concatenation of single-occurrence
    disjunction groups.  When ``other`` reduces to per-symbol intervals the
    question becomes a circulation problem; otherwise it goes to
    :meth:`RuleEncoding.meets`.
    """
    if isinstance(choice_expr, Epsilon):
        groups: list[frozenset[str]] = []
    else:
        decomposed = choice_groups(choice_expr)
        if decomposed is None:
            raise ValueError("left operand is not a concatenation of choice groups")
        groups = decomposed
    try:
        intervals = normalize_product(other)
    except ValueError:
        return RuleEncoding(other).meets(Counter(groups))
    if intervals is None:
        return False
    return inter1_groups(groups, intervals)


@dataclass
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    witness: Counter[str] | None


def normal_form_isect(e1: Rbe, e2: Rbe) -> dict[str, Interval] | None:
    """Per-symbol intervals of the intersection of two interval-product
    languages; None when the intersection is empty.

    A symbol missing on one side is constrained to zero occurrences there.
    """
    try:
        return normalize_product(Isect(e1, e2))
    except ValueError:
        raise ValueError(
            "operands are not built from interval symbols, unordered "
            "concatenation, and intersection"
        ) from None


def _structurally_nonempty(e: Rbe) -> Counter[str] | None:
    """A smallest member of an intersection-free expression, or None."""
    return fold(e, _smallest)


def _smallest(node: Rbe, parts: list[Counter[str] | None]) -> Counter[str] | None:
    match node:
        case Epsilon() | Star():
            return Counter()
        case Symbol(name, bounds):
            if bounds.is_empty:
                return None
            return Counter({name: bounds.lo}) if bounds.lo else Counter()
        case Disj():
            return next((w for w in parts if w is not None), None)
        case Concat():
            if None in parts:
                return None
            total: Counter[str] = Counter()
            for w in parts:
                total.update(w)
            return total
        case Plus():
            return parts[0]
    raise ValueError("intersection has no structural witness")


def _has_isect(e: Rbe) -> bool:
    return any(isinstance(node, Isect) for node in walk(e))


def rbe_satisfiable(e: Rbe) -> SatResult:
    """Decide language nonemptiness, producing a witness bag when satisfiable.

    Intersection-free expressions and interval-product expressions (with
    intersection) are decided structurally; the rest goes through the
    arithmetic encoding, whose search stops at
    :func:`~shexval.sat.ilp.solver_cap`.
    """
    if not _has_isect(e):
        witness = _structurally_nonempty(e)
        if witness is None:
            return SatResult("unsat", None)
        return SatResult("sat", witness)
    try:
        merged = normalize_product(e)
    except ValueError:
        pass
    else:
        if merged is None:
            return SatResult("unsat", None)
        return SatResult(
            "sat", Counter({a: iv.lo for a, iv in merged.items() if iv.lo})
        )
    system = LinearSystem()
    xvars = encode_phi(e, system)
    result = ilp_feasible(system)
    return SatResult(result.status, _decode(result, xvars))


def _decode(result: IlpResult, xvars: dict[str, str]) -> Counter[str] | None:
    if result.model is None:
        return None
    return Counter(
        {a: result.model[v] for a, v in xvars.items() if result.model.get(v)}
    )


@dataclass
class AmbiguityResult:
    status: str  # "unambiguous" | "ambiguous"
    witness: tuple[Counter[str], Counter[str]] | None


def is_unambiguous(e: Rbe) -> AmbiguityResult:
    """Whether no member bag uses one label with two types and no two members
    with equal label projections swap types on a shared label.

    Expressions using every label with a single type are unambiguous
    outright.  Otherwise each clashing (label, type, type) pair is probed
    with two systems: one member containing both typed symbols, or two
    members with equal label projections where one counts the label under
    the first type exactly as the other counts it under the second, at
    least once.  Raises SolverCapped when a probe is inconclusive.
    """
    if _has_isect(e):
        raise ValueError("ambiguity analysis requires an intersection-free expression")
    by_label: dict[str, set[str | None]] = {}
    for symbol in sorted(alphabet(e)):
        label, type_name = split_symbol(symbol)
        by_label.setdefault(label, set()).add(type_name)
    pairs = [
        (label, t1, t2)
        for label, types in sorted(by_label.items())
        if len(types) > 1
        for t1 in sorted(types, key=str)
        for t2 in sorted(types, key=str)
        if str(t1) < str(t2)
    ]
    if not pairs:
        return AmbiguityResult("unambiguous", None)

    saw_unknown = False
    for label, t1, t2 in pairs:
        s1 = _rejoin(label, t1)
        s2 = _rejoin(label, t2)
        # One member using the label with both types.
        system = LinearSystem()
        xvars = encode_phi(e, system)
        system.ge({xvars[s1]: 1}, 1)
        system.ge({xvars[s2]: 1}, 1)
        result = ilp_feasible(system)
        if result.status == "sat":
            w = _decode(result, xvars)
            return AmbiguityResult("ambiguous", (w, w))
        saw_unknown = saw_unknown or result.status == "unknown"
        # Two members, equal label projections, the clashing label counted
        # equally often under the two types, at least once.
        system = LinearSystem()
        xvars = encode_phi(e, system)
        yvars = encode_phi(e, system)
        for lab, types in by_label.items():
            coeffs: dict[str, int] = {}
            for t in types:
                coeffs[xvars[_rejoin(lab, t)]] = 1
                coeffs[yvars[_rejoin(lab, t)]] = -1
            system.eq(coeffs, 0)
        system.eq({xvars[s1]: 1, yvars[s2]: -1}, 0)
        system.ge({xvars[s1]: 1}, 1)
        result = ilp_feasible(system)
        if result.status == "sat":
            return AmbiguityResult(
                "ambiguous", (_decode(result, xvars), _decode(result, yvars))
            )
        saw_unknown = saw_unknown or result.status == "unknown"
    if saw_unknown:
        raise SolverCapped("ambiguity probes exhausted the search cap")
    return AmbiguityResult("unambiguous", None)


def _rejoin(label: str, type_name: str | None) -> str:
    return label if type_name is None else f"{label}::{type_name}"
