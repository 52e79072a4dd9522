"""The enumeration oracle: the bags of a language up to a size, listed
outright, against which the membership, intersection and satisfiability
tests are checked, and the canonical hashable form of a bag it lists."""

import functools
from collections import Counter
from collections.abc import Iterable

from shexval.rbe import Concat, Disj, Epsilon, Plus, Rbe, Star, Symbol, fold

# Canonical hashable form: sorted (symbol, count) pairs with count > 0.
BagKey = tuple[tuple[str, int], ...]


class EnumerationLimit(Exception):
    """Raised when language enumeration exceeds its bag budget."""


def bag(symbols: Iterable[str] = ()) -> Counter:
    """Build a bag from an iterable of symbol occurrences."""
    return Counter(symbols)


def bag_key(b: Counter) -> BagKey:
    """Canonical hashable form of a bag; zero and negative counts are dropped."""
    return tuple(sorted((s, c) for s, c in b.items() if c > 0))


def bag_from_key(key: BagKey) -> Counter:
    return Counter(dict(key))


def bag_sum(a: Counter, b: Counter) -> Counter:
    """Multiset union with added multiplicities."""
    out = Counter(a)
    out.update(b)
    return out


def enumerate_language(e: Rbe, max_size: int, limit: int = 1_000_000) -> set[BagKey]:
    """All bags of the language with at most ``max_size`` total occurrences.

    Raises EnumerationLimit when any intermediate result holds more than
    ``limit`` bags.
    """

    def guard(bags: set[BagKey]) -> set[BagKey]:
        if len(bags) > limit:
            raise EnumerationLimit(f"more than {limit} bags of size <= {max_size}")
        return bags

    def sums(xs: set[BagKey], ys: set[BagKey]) -> set[BagKey]:
        out: set[BagKey] = set()
        for kx in xs:
            sx = sum(c for _, c in kx)
            bx = bag_from_key(kx)
            for ky in ys:
                if sx + sum(c for _, c in ky) <= max_size:
                    out.add(bag_key(bag_sum(bx, bag_from_key(ky))))
        return guard(out)

    def closure(base: set[BagKey]) -> set[BagKey]:
        acc: set[BagKey] = {()}
        frontier: set[BagKey] = {()}
        while frontier:
            frontier = sums(frontier, base) - acc
            acc = guard(acc | frontier)
        return acc

    def step(node: Rbe, parts: list[set[BagKey]]) -> set[BagKey]:
        match node:
            case Epsilon():
                return {()}
            case Symbol(name, bounds):
                if bounds.is_empty:
                    return set()
                hi = max_size if bounds.hi is None else min(bounds.hi, max_size)
                return guard(
                    {((name, c),) if c else () for c in range(bounds.lo, hi + 1)}
                )
            case Disj():
                return guard(set().union(*parts))
            case Concat():
                return functools.reduce(sums, parts)
            case Star():
                return closure(parts[0])
            case Plus():
                return sums(parts[0], closure(parts[0]))
        # Isect
        return set.intersection(*parts)

    return fold(e, step)
