"""Textual syntax for bag expressions.

Binding strength, loosest first: ``&`` (language intersection, opt-in),
``|`` (choice), ``,`` (unordered concatenation), postfix ``?`` ``*`` ``+``
and ``[lo;hi]``.  ``eps`` denotes the empty bag.  Any other run of
non-reserved, non-whitespace characters is a symbol; ``label::type`` pairs
an edge label with the shape type required of its target.

Postfix marks directly on a bare symbol abbreviate multiplicity intervals
(``a?`` is ``a[0;1]``, ``a*`` is ``a[0;*]``, ``a+`` is ``a[1;*]``).  On
parenthesized or already-suffixed operands they build choice or repetition
nodes instead, and explicit ``[lo;hi]`` is rejected there: an interval on a
compound body does not describe a language this grammar can express.
"""

from __future__ import annotations

from .ast import (
    EPSILON,
    Concat,
    Disj,
    Epsilon,
    Isect,
    Plus,
    Rbe,
    Star,
    Symbol,
    concat,
    disj,
    fold,
    isect,
    opt,
    plus,
)
from .intervals import ANY, ONCE, OPT, SOME, Interval

__all__ = ["ParseError", "parse_rbe", "format_rbe"]

RESERVED = set("()|,?*+[];&")


class ParseError(ValueError):
    """Malformed textual input."""


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise ParseError(f"expected {ch!r} at position {self.pos} in {self.text!r}")

    def symbol_token(self) -> str:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace() or c in RESERVED:
                break
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected a symbol at position {start} in {self.text!r}")
        return self.text[start : self.pos]

    def number(self) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected a number at position {start} in {self.text!r}")
        return int(self.text[start : self.pos])


def parse_rbe(text: str, *, allow_isect: bool = False) -> Rbe:
    """Parse an expression; ``&`` is only accepted when ``allow_isect`` is set."""
    cur = _Cursor(text)
    e = _isect(cur, allow_isect)
    cur.skip_space()
    if cur.pos != len(cur.text):
        raise ParseError(f"trailing input at position {cur.pos} in {text!r}")
    return e


def _isect(cur: _Cursor, allow: bool) -> Rbe:
    parts = [_disj(cur, allow)]
    while cur.take("&"):
        if not allow:
            raise ParseError("'&' is only allowed in satisfiability queries")
        parts.append(_disj(cur, allow))
    return isect(*parts)


def _disj(cur: _Cursor, allow: bool) -> Rbe:
    parts = [_concat(cur, allow)]
    while cur.take("|"):
        parts.append(_concat(cur, allow))
    return disj(*parts)


def _concat(cur: _Cursor, allow: bool) -> Rbe:
    parts = [_postfix(cur, allow)]
    while cur.take(","):
        parts.append(_postfix(cur, allow))
    return concat(*parts)


_SUGAR = {"?": OPT, "*": ANY, "+": SOME}


def _postfix(cur: _Cursor, allow: bool) -> Rbe:
    e, bare_symbol = _atom(cur, allow)
    while True:
        c = cur.peek()
        if c and c in "?*+":
            cur.take(c)
            if bare_symbol:
                e = Symbol(e.name, _SUGAR[c])
            elif c == "?":
                e = opt(e)
            elif c == "*":
                e = Star(e)
            else:
                e = plus(e)
            bare_symbol = False
        elif c == "[":
            if not bare_symbol:
                raise ParseError("explicit intervals are only allowed on symbols")
            cur.take("[")
            lo = cur.number()
            cur.expect(";")
            hi = None if cur.take("*") else cur.number()
            cur.expect("]")
            e = Symbol(e.name, Interval(lo, hi))
            bare_symbol = False
        else:
            return e


def _atom(cur: _Cursor, allow: bool) -> tuple[Rbe, bool]:
    if cur.take("("):
        e = _isect(cur, allow)
        cur.expect(")")
        return e, False
    tok = cur.symbol_token()
    if tok == "eps":
        return EPSILON, False
    return Symbol(tok), True


# How loosely each node binds, loosest first; the parts of an n-ary node
# are written with its separator.
_ISECT, _DISJ, _CONCAT, _ATOM = range(4)
_OPERATORS = {Isect: (" & ", _ISECT), Disj: (" | ", _DISJ), Concat: (", ", _CONCAT)}


def format_rbe(e: Rbe) -> str:
    """Render an expression in the textual syntax.

    Bare-symbol intervals use the ``?``/``*``/``+`` sugar where possible, and
    repetition bodies are always parenthesized, so parsing the result yields
    the same tree.
    """
    return fold(e, _fmt)[0]


def _fmt(e: Rbe, parts: list[tuple[str, int]]) -> tuple[str, int]:
    """The text of ``e`` and how loosely it binds, from its parts' texts."""
    match e:
        case Epsilon():
            return "eps", _ATOM
        case Symbol(name, bounds):
            return name + _bounds_suffix(bounds), _ATOM
        case Star():
            return f"({parts[0][0]})*", _ATOM
        case Plus():
            return f"({parts[0][0]})+", _ATOM
    sep, own = _OPERATORS[type(e)]
    # A part never has its parent's class, so only looser parts need
    # parentheses.
    return sep.join(s if level > own else f"({s})" for s, level in parts), own


def _bounds_suffix(bounds: Interval) -> str:
    if bounds == ONCE:
        return ""
    if bounds == OPT:
        return "?"
    if bounds == ANY:
        return "*"
    if bounds == SOME:
        return "+"
    return f"[{bounds.lo};{'*' if bounds.hi is None else bounds.hi}]"
