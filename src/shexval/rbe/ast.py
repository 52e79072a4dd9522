"""Syntax trees for regular bag expressions.

A regular bag expression denotes a set of finite multisets ("bags") of
symbols.  Concatenation is unordered: the bag of ``E1, E2`` is the multiset
sum of a bag of ``E1`` and a bag of ``E2``, so ``a,b`` and ``b,a`` denote the
same language.  Symbols carry multiplicity intervals; ``a`` alone means
exactly one occurrence.

Concatenation, choice and intersection are associative, so each node of
these operators holds a flat tuple of two or more parts: a rule of many
symbols is one wide node, not a deep chain.  :func:`walk` visits every
node, :func:`fold` evaluates a tree bottom-up from its parts' values, and
:func:`map_symbols` (a fold) rebuilds a tree with its symbols replaced.
The analyses are written over them, so none recurses on Python's stack
and each visits every node once.

Symbols are opaque strings.  A symbol of the form ``label::type`` pairs an
edge label with the shape type required of the edge's target; helpers below
split and join that form.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TypeVar

from .intervals import ONCE, Interval

_T = TypeVar("_T")

__all__ = [
    "Rbe",
    "Epsilon",
    "Symbol",
    "Disj",
    "Concat",
    "Star",
    "Plus",
    "Isect",
    "EPSILON",
    "sym",
    "disj",
    "concat",
    "star",
    "plus",
    "opt",
    "isect",
    "walk",
    "fold",
    "map_symbols",
    "typed_symbol",
    "split_symbol",
]


class Rbe:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Epsilon(Rbe):
    """Only the empty bag."""


@dataclass(frozen=True)
class Symbol(Rbe):
    """A single symbol with a multiplicity interval; ``a^[2;3]`` is Symbol("a", [2;3])."""

    name: str
    bounds: Interval = ONCE


@dataclass(frozen=True, init=False)
class _Nary(Rbe):
    """An associative operator over its ``parts``, built as ``Concat(a, b, c)``.

    ``parts`` holds two or more operands.  A part of the node's own class
    is spliced in, so ``Concat(Concat(a, b), c) == Concat(a, b, c)`` and a
    rule's depth is the nesting of its parentheses, not its length.
    """

    parts: tuple[Rbe, ...]

    def __init__(self, *parts: Rbe) -> None:
        cls = type(self)
        flat: list[Rbe] = []
        for part in parts:
            if type(part) is cls:
                flat.extend(part.parts)
            else:
                flat.append(part)
        if len(flat) < 2:
            raise ValueError(f"{cls.__name__} needs at least two parts")
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True, init=False)
class Disj(_Nary):
    """Union of the parts' languages."""


@dataclass(frozen=True, init=False)
class Concat(_Nary):
    """Multiset sums of one bag from each part (unordered concatenation)."""


@dataclass(frozen=True)
class Star(Rbe):
    """Multiset sums of any number of bags of the body, including none."""

    body: Rbe


@dataclass(frozen=True)
class Plus(Rbe):
    """Multiset sums of one or more bags of the body."""

    body: Rbe


@dataclass(frozen=True, init=False)
class Isect(_Nary):
    """Bags belonging to every part's language.

    Not part of the content-model grammar; used to pose satisfiability
    questions about language intersections.
    """


EPSILON = Epsilon()


def sym(name: str, bounds: Interval = ONCE) -> Symbol:
    return Symbol(name, bounds)


def disj(first: Rbe, *rest: Rbe) -> Rbe:
    """The union of one or more expressions; one is returned as it is."""
    return Disj(first, *rest) if rest else first


def concat(*parts: Rbe) -> Rbe:
    """The unordered concatenation of any number of expressions: ``EPSILON``
    for none, the part itself for one."""
    if len(parts) > 1:
        return Concat(*parts)
    return parts[0] if parts else EPSILON


def star(body: Rbe) -> Star:
    return Star(body)


def plus(body: Rbe) -> Rbe:
    """One-or-more repetition.

    When the body accepts the empty bag the language equals the body's star,
    and downstream interval reasoning assumes repeated parts are non-empty,
    so that case is rewritten to Star here.
    """
    from .ops import nullable

    if nullable(body):
        return Star(body)
    return Plus(body)


def opt(body: Rbe) -> Rbe:
    """Zero-or-one: sugar for ``eps | body``."""
    return Disj(EPSILON, body)


def isect(first: Rbe, *rest: Rbe) -> Rbe:
    """The intersection of one or more expressions; one is returned as it is."""
    return Isect(first, *rest) if rest else first


def _parts(node: Rbe) -> tuple[Rbe, ...]:
    """The operands of a node: its parts, its body, or none for a leaf."""
    if isinstance(node, _Nary):
        return node.parts
    if isinstance(node, (Star, Plus)):
        return (node.body,)
    if isinstance(node, (Epsilon, Symbol)):
        return ()
    raise TypeError(f"not an expression node: {node!r}")


def walk(e: Rbe) -> Iterator[Rbe]:
    """Every node of ``e`` in preorder, parts left to right, without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_parts(node)))


def fold(e: Rbe, step: Callable[[Rbe, list[_T]], _T]) -> _T:
    """``e`` evaluated bottom-up without recursion: ``step(node, values)``
    gets each node with its parts' values (its body's for Star and Plus),
    in the order a recursion over the parts, left to right, finishes them."""
    # Preorder with the parts taken right to left, reversed, finishes every
    # part before its node and the left parts first.
    order: list[tuple[Rbe, int]] = []
    stack = [e]
    while stack:
        node = stack.pop()
        parts = _parts(node)
        order.append((node, len(parts)))
        stack.extend(parts)
    values: list[_T] = []
    for node, count in reversed(order):
        start = len(values) - count
        values[start:] = [step(node, values[start:])]
    return values[0]


def map_symbols(e: Rbe, f: Callable[[Symbol], Rbe]) -> Rbe:
    """``e`` rebuilt with every symbol ``s`` replaced by ``f(s)``, the
    symbols taken left to right."""

    def step(node: Rbe, parts: list[Rbe]) -> Rbe:
        match node:
            case Symbol():
                return f(node)
            case Epsilon():
                return node
        return type(node)(*parts)

    return fold(e, step)


def typed_symbol(label: str, type_name: str) -> str:
    return f"{label}::{type_name}"


def split_symbol(name: str) -> tuple[str, str | None]:
    """Split ``label::type`` into its parts; a plain label yields (label, None)."""
    label, sep, type_name = name.partition("::")
    if not sep:
        return name, None
    return label, type_name
