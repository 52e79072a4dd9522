"""Structural analyses and bounded language operations for bag expressions."""

from __future__ import annotations

import functools

from .ast import (
    Concat,
    Disj,
    Epsilon,
    Isect,
    Plus,
    Rbe,
    Star,
    Symbol,
    fold,
    map_symbols,
    split_symbol,
    walk,
)
from .intervals import ONCE, Interval, interval_add, interval_intersect

__all__ = [
    "nullable",
    "alphabet",
    "is_sorbe",
    "is_symbol_product",
    "choice_groups",
    "project_sigma",
    "normalize_product",
]


def nullable(e: Rbe) -> bool:
    """Whether the empty bag belongs to the language."""
    return fold(e, _nullable)


def _nullable(node: Rbe, parts: list[bool]) -> bool:
    match node:
        case Epsilon() | Star():
            return True
        case Symbol(_, bounds):
            return 0 in bounds
        case Disj():
            return any(parts)
    # Concat and Isect need every part, Plus its body.
    return all(parts)


def alphabet(e: Rbe) -> frozenset[str]:
    """All symbol names occurring in the expression."""
    return frozenset(node.name for node in walk(e) if isinstance(node, Symbol))


def is_sorbe(e: Rbe) -> bool:
    """Single-occurrence check: no symbol appears twice, no intersection nodes."""
    nodes = list(walk(e))
    names = [node.name for node in nodes if isinstance(node, Symbol)]
    return len(names) == len(set(names)) and not any(
        isinstance(node, Isect) for node in nodes
    )


def is_symbol_product(e: Rbe) -> bool:
    """Whether e is built from eps, symbols, and unordered concatenation only."""
    return all(isinstance(node, (Epsilon, Symbol, Concat)) for node in walk(e))


def choice_groups(e: Rbe) -> list[frozenset[str]] | None:
    """Decompose a concatenation of symbol-choice groups.

    When e has the shape ``(a1|...|an), (b1|...|bm), ...`` with every symbol
    required exactly once, returns the symbol set of each group; every member
    bag then picks exactly one symbol per group.  Returns None for any other
    shape.
    """
    groups: list[frozenset[str]] = []
    for part in e.parts if isinstance(e, Concat) else (e,):
        choices = part.parts if isinstance(part, Disj) else (part,)
        if not all(isinstance(c, Symbol) and c.bounds == ONCE for c in choices):
            return None
        groups.append(frozenset(c.name for c in choices))
    return groups


def project_sigma(e: Rbe) -> Rbe:
    """Erase the type part of every ``label::type`` symbol, keeping intervals."""
    return map_symbols(e, lambda s: Symbol(split_symbol(s.name)[0], s.bounds))


_ZERO = Interval(0, 0)


def normalize_product(e: Rbe) -> dict[str, Interval] | None:
    """The interval product of ``e``, one interval per symbol: the one
    analysis of symbol products (RBE0) and their intersections.

    Concatenated parts' intervals add; intersected parts' intervals
    intersect, a symbol missing from a part counting as [0;0] there.
    Returns None for an empty language; raises ValueError for any shape
    but eps, interval symbols, concatenation and intersection.
    """
    return fold(e, _product)


def _product(
    node: Rbe, forms: list[dict[str, Interval] | None]
) -> dict[str, Interval] | None:
    match node:
        case Epsilon():
            return {}
        case Symbol(name, bounds):
            return None if bounds.is_empty else {name: bounds}
        case Concat() | Isect():
            if None in forms:
                return None
            merged: dict[str, Interval] = {}
            if isinstance(node, Concat):
                for form in forms:
                    for a, iv in form.items():
                        merged[a] = interval_add(merged[a], iv) if a in merged else iv
                return merged
            for a in sorted(set().union(*forms)):
                iv = functools.reduce(
                    interval_intersect, [form.get(a, _ZERO) for form in forms]
                )
                if iv.is_empty:
                    return None
                merged[a] = iv
            return merged
    raise ValueError("not an interval product")
