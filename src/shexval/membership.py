"""Bag membership: the single-occurrence interval algorithm and a general
linear-system fallback.

For single-occurrence expressions the decision is polynomial: a bottom-up
pass computes, for each subexpression, the interval of repetition counts
under which the relevant slice of the bag could have been produced.  The
bag belongs to the language exactly when that interval admits one
repetition and no stray symbols remain.

A rule is analysed once into a :class:`CompiledRule`, which holds every
static fact the membership test and the validation algorithms read.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from .rbe import (
    ANY,
    Bag,
    Concat,
    Disj,
    EMPTY,
    Epsilon,
    Interval,
    Plus,
    Rbe,
    SOME,
    Star,
    Symbol,
    alphabet,
    interval_add,
    interval_intersect,
    is_sorbe,
    is_symbol_product,
    normalize_product,
    split_symbol,
)
# perfbench/spans.py wraps the ilp_feasible attribute of this module.
from .sat import RuleEncoding, SolverCapped, ilp_feasible  # noqa: F401

__all__ = [
    "CompiledRule",
    "compile_rule",
    "MembershipWitness",
    "sorbe_interval",
    "sorbe_member",
    "member_general",
    "member",
]


@dataclass(frozen=True, eq=False)
class CompiledRule:
    """The static facts about one rule, analysed once.

    ``targets`` maps each label to the sorted types the rule uses it with;
    the rule is deterministic when every label has one type.  ``intervals``
    is the interval product of a symbol-product rule, or None when the rule
    is no symbol product or its language is empty.  ``universal`` marks the
    universal rule, which has no expression and admits every bag.
    ``encoding`` is built on first use.
    """

    expr: Rbe | None = None
    universal: bool = False
    alphabet: frozenset[str] = frozenset()
    targets: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    sorbe: bool = False
    product: bool = False
    intervals: dict[str, Interval] | None = None

    @functools.cached_property
    def encoding(self) -> RuleEncoding:
        return RuleEncoding(self.expr)

    @property
    def deterministic(self) -> bool:
        return all(len(types) == 1 for types in self.targets.values())


def compile_rule(e: Rbe, *, typed: bool = True) -> CompiledRule:
    """Analyse an expression; ``typed`` rules have ``label::type`` symbols,
    whose label map is computed too."""
    names = alphabet(e)
    targets: dict[str, list[str]] = {}
    if typed:
        for symbol in sorted(names):
            label, target = split_symbol(symbol)
            targets.setdefault(label, []).append(target)
    product = is_symbol_product(e)
    return CompiledRule(
        expr=e,
        alphabet=names,
        targets={label: tuple(types) for label, types in targets.items()},
        sorbe=is_sorbe(e),
        product=product,
        intervals=normalize_product(e) if product else None,
    )


def _compiled(e: Rbe | CompiledRule) -> CompiledRule:
    return e if isinstance(e, CompiledRule) else compile_rule(e, typed=False)


@dataclass
class MembershipWitness:
    verdict: bool
    interval: Interval | None
    algorithm: str  # "sorbe-interval" | "ilp"


def sorbe_interval(w: Bag, e: Rbe | CompiledRule) -> Interval:
    """Repetition counts i such that the bag, restricted to the alphabet of
    ``e``, splits into i member bags of ``e``."""
    return _tile(Counter(w), _sorbe(e).expr)


def _sorbe(e: Rbe | CompiledRule) -> CompiledRule:
    rule = _compiled(e)
    if not rule.sorbe:
        raise ValueError("expression is not single-occurrence")
    return rule


def _tile(w: Counter[str], e: Rbe) -> Interval:
    match e:
        case Epsilon():
            return ANY
        case Symbol(name, bounds):
            return _symbol_tiling(w[name], bounds)
        case Disj(parts):
            return functools.reduce(interval_add, [_tile(w, part) for part in parts])
        case Concat(parts):
            return functools.reduce(
                interval_intersect, [_tile(w, part) for part in parts]
            )
        case Star(body) | Plus(body):
            inner = _tile(w, body)
            if 0 in inner:
                # Only a bag holding none of the body's symbols tiles with
                # zero repetitions: the star skips it, and the plus repeats
                # a nullable body or fails on any other.
                return ANY if isinstance(e, Star) else inner
            if inner.is_empty:
                return EMPTY
            return SOME if isinstance(e, Star) else Interval(1, inner.hi)
    raise TypeError(f"not an expression node: {e!r}")


def _symbol_tiling(count: int, bounds: Interval) -> Interval:
    # Splitting `count` copies into i runs of length lo..hi requires
    # i*lo <= count <= i*hi; divisors 0 and infinity follow the natural
    # limit reading (count/inf is 0 or 1, positive/0 is unattainable).
    if bounds.hi is None:
        lo = 0 if count == 0 else 1
    elif bounds.hi == 0:
        if count:
            return EMPTY
        lo = 0
    else:
        lo = -(-count // bounds.hi)
    hi = None if bounds.lo == 0 else count // bounds.lo
    return Interval(lo, hi)


def sorbe_member(w: Bag, e: Rbe | CompiledRule) -> bool:
    """Membership for single-occurrence expressions, in polynomial time."""
    return _interval_member(w, _sorbe(e)).verdict


def _interval_member(w: Bag, rule: CompiledRule) -> MembershipWitness:
    # The interval pass only reads the bag, so a caller's Counter is used
    # as it is.
    bag = w if isinstance(w, Counter) else Counter(w)
    interval = _tile(bag, rule.expr)
    names = rule.alphabet
    verdict = 1 in interval and not any(
        count and s not in names for s, count in bag.items()
    )
    return MembershipWitness(verdict, interval, "sorbe-interval")


def member_general(w: Bag, e: Rbe | CompiledRule) -> bool:
    """Exact membership via the arithmetic encoding, with one singleton
    choice group per bag symbol; a compiled rule's encoding is reused."""
    encoding = e.encoding if isinstance(e, CompiledRule) else RuleEncoding(e)
    groups = {frozenset((s,)): count for s, count in Counter(w).items() if count}
    try:
        return encoding.meets(groups)
    except SolverCapped:
        raise SolverCapped(
            "membership search was cut off below its completeness bound"
        ) from None


def member(w: Bag, e: Rbe | CompiledRule) -> MembershipWitness:
    """Decide membership, preferring the interval algorithm when it applies.

    A compiled rule is read as analysed; a bare expression is analysed on
    every call.
    """
    rule = _compiled(e)
    if rule.sorbe:
        return _interval_member(w, rule)
    return MembershipWitness(member_general(w, rule), None, "ilp")
