"""Shape schemas: typed content models, concrete syntax, and schema algebra.

A schema maps type names to content models: bag expressions over
``label::type`` symbols describing a node's outgoing edges and the types
required of their targets.  Types referenced without a rule of their own
default to the empty content model.  The name ``TOP`` is reserved for the
universal type, whose language contains every bag; it belongs to a schema
exactly when some rule references it.

Schemas may declare wildcards, named label classes matched by prefix, by
explicit set, or as the rest of the vocabulary.  Rules reference them as
``<NAME>::type``; before validation a graph is relabeled through
``Schema.wildcard_family()`` so its edge labels line up with the rules.

The algebra constructions (intersection, powerset, homomorphism) build
schemas whose rules are expressions too, so they are analysed, validated
and written out like any other schema.  Only ``TOP`` and the product and
powerset types made of ``TOP`` alone hold the universal rule.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .graph import Graph, WildcardDecl, check_wildcards_disjoint
from .membership import CompiledRule, compile_rule, member
from .rbe import (
    ANY,
    EPSILON,
    Bag,
    ParseError,
    Rbe,
    Symbol,
    concat,
    disj,
    format_rbe,
    isect,
    map_symbols,
    opt,
    parse_rbe,
    split_symbol,
    star,
    typed_symbol,
    walk,
)
from .rbe.parse import RESERVED

__all__ = [
    "TOP",
    "UNIVERSAL",
    "ClassFlags",
    "Schema",
    "rule_member",
    "check_deterministic",
    "nondeterministic_labels",
    "classify",
    "parse_schema",
    "format_schema",
    "intersect_schemas",
    "powerset_schema",
    "POWERSET_CAP",
    "homomorphism_schema",
]

TOP = "TOP"

# Bound on the symbol occurrences the rules of a powerset schema may hold.
POWERSET_CAP = 300_000

# The universal rule: every bag, over any labels.  No expression over a
# finite alphabet denotes it, so it is given as an analysed rule with no
# expression, which every consumer tells by its ``universal`` flag.
UNIVERSAL = CompiledRule(universal=True)


@dataclass(frozen=True)
class ClassFlags:
    deterministic: bool
    sorbe: bool
    rbe0: bool


class Schema:
    """An immutable map from type names to content models.

    ``rules`` gives the declared rules: expressions, or ``UNIVERSAL``.
    Every type referenced inside a rule joins the type set;
    referenced-but-undeclared types get the empty content model, except
    ``TOP`` which gets the universal one.  Declaring a rule for ``TOP``
    itself is an error.

    ``compiled`` holds each type's rule analysed once, at construction
    (see :class:`~shexval.membership.CompiledRule`), and ``class_flags``
    the schema's syntactic class.  ``_derived`` holds only verdict memos,
    so that workloads validating many graphs against one schema fill them
    once; entries are namespaced by the module that owns them.

    The types are numbered once, in sorted order: ``bits`` gives type t
    the bit ``1 << i``, so a set of types is an int, its mask.
    ``type_sets`` maps a mask back to its type names, one frozenset per
    mask, made on first use and shared by every typing built from masks.
    """

    __slots__ = (
        "delta", "compiled", "class_flags", "gamma", "sigma", "wildcards", "bits",
        "type_sets", "_derived",
    )

    def __init__(self, rules, wildcards=()):
        if TOP in rules:
            raise ValueError(f"the type name {TOP!r} is reserved for the universal type")
        delta: dict[str, Rbe | CompiledRule] = {}
        compiled: dict[str, CompiledRule] = {}
        labels: set[str] = set()
        referenced: set[str] = set()
        for name, rule in rules.items():
            if not name:
                raise ValueError("empty type name")
            if not (isinstance(rule, Rbe) or rule is UNIVERSAL):
                raise TypeError(f"rule for {name!r} must be an expression or UNIVERSAL")
            delta[name] = rule
            compiled[name] = _compile(rule)
            for symbol in compiled[name].alphabet:
                label, target = split_symbol(symbol)
                if target is None or not label or not target:
                    raise ValueError(
                        f"rule for {name!r} uses symbol {symbol!r}; expected label::type"
                    )
                labels.add(label)
                referenced.add(target)
        for target in sorted(referenced - set(delta)):
            delta[target] = UNIVERSAL if target == TOP else EPSILON
            compiled[target] = _compile(delta[target])
        self.delta = delta
        self.compiled = compiled
        self.gamma: frozenset[str] = frozenset(delta)
        self.bits: dict[str, int] = {t: 1 << i for i, t in enumerate(sorted(delta))}
        self.type_sets = _TypeSets(self.bits)
        self.sigma: frozenset[str] = frozenset(labels)
        self.wildcards: tuple[WildcardDecl, ...] = tuple(wildcards)
        self.class_flags = classify(self)
        self._derived: dict[str, object] = {}
        if self.wildcards:
            check_wildcards_disjoint(self.wildcard_family())

    def wildcard_family(self) -> tuple[WildcardDecl, ...]:
        """Declared wildcards plus singleton classes for directly used labels.

        Feeding this family to relabel_wildcards maps a graph's labels onto
        the schema's vocabulary; directly used labels map to themselves.
        """
        names = {decl.name for decl in self.wildcards}
        singles = tuple(
            WildcardDecl(label, labels=frozenset((label,)))
            for label in sorted(self.sigma - names)
        )
        return singles + self.wildcards

    def mask(self, types: Iterable[str]) -> int:
        """The mask of a set of type names."""
        mask = 0
        for t in types:
            mask |= self.bits[t]
        return mask

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self.delta == other.delta and self.wildcards == other.wildcards

    def __repr__(self):
        return f"Schema({len(self.gamma)} types, {len(self.wildcards)} wildcards)"


class _TypeSets(dict):
    """Masks to the frozensets of their type names, each made once."""

    __slots__ = ("bits",)

    def __init__(self, bits: dict[str, int]):
        super().__init__()
        self.bits = bits

    def __missing__(self, mask: int) -> frozenset[str]:
        names = self[mask] = frozenset(t for t, bit in self.bits.items() if mask & bit)
        return names


def _compile(rule: Rbe | CompiledRule) -> CompiledRule:
    return rule if rule is UNIVERSAL else compile_rule(rule)


def rule_member(schema: Schema, w: Bag, t: str) -> bool:
    """Whether bag w satisfies type t's content model."""
    rule = schema.compiled[t]
    return rule.universal or member(w, rule).verdict


def _checked_rules(schema: Schema) -> list[tuple[str, CompiledRule]]:
    # Universal rules are exempt from every syntactic test.
    return [(t, rule) for t, rule in schema.compiled.items() if not rule.universal]


def check_deterministic(schema: Schema) -> tuple[bool, dict[tuple[str, str], str] | None]:
    """Whether every rule uses each label with at most one type.

    On success also returns the successor map from (type, label) to the
    unique target type.  Universal rules are exempt.
    """
    if not schema.class_flags.deterministic:
        return False, None
    return True, {
        (t, label): types[0]
        for t, rule in _checked_rules(schema)
        for label, types in rule.targets.items()
    }


def nondeterministic_labels(schema: Schema) -> list[tuple[str, str]]:
    """(type, label) pairs whose label is used with several types."""
    return sorted(
        (t, label)
        for t, rule in _checked_rules(schema)
        for label, types in rule.targets.items()
        if len(types) > 1
    )


def classify(schema: Schema) -> ClassFlags:
    """Syntactic class flags; universal rules are exempt."""
    rules = [rule for _, rule in _checked_rules(schema)]
    return ClassFlags(
        deterministic=all(rule.deterministic for rule in rules),
        sorbe=all(rule.sorbe for rule in rules),
        rbe0=all(rule.product for rule in rules),
    )


def parse_schema(text: str) -> Schema:
    """Read the schema syntax: wildcard declarations and ``type -> expression`` rules.

    One declaration or rule per line; ``#`` starts a comment.  Expression
    symbols must be ``label::type``; ``<NAME>::type`` references the
    declared wildcard NAME and resolves to the label NAME.
    """
    decls: list[WildcardDecl] = []
    rule_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "wildcard" or line.startswith("wildcard "):
            decls.append(_parse_wildcard(lineno, line))
            continue
        head, sep, body = line.partition("->")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'type -> expression'")
        rule_lines.append((lineno, head.strip(), body.strip()))

    names = {decl.name for decl in decls}
    rules: dict[str, Rbe] = {}
    for lineno, head, body in rule_lines:
        _check_type_name(lineno, head)
        if head == TOP:
            raise ParseError(f"line {lineno}: {TOP} is reserved and cannot be redefined")
        if head in rules:
            raise ParseError(f"line {lineno}: duplicate rule for {head!r}")
        try:
            expr = parse_rbe(body)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        rules[head] = _resolve(lineno, expr, names)
    return Schema(rules, wildcards=decls)


def _check_type_name(lineno: int, name: str) -> None:
    bad = name == "eps" or "::" in name or any(c in RESERVED or c.isspace() for c in name)
    if not name or bad:
        raise ParseError(f"line {lineno}: invalid type name {name!r}")


def _parse_wildcard(lineno: int, line: str) -> WildcardDecl:
    rest = line[len("wildcard") :].strip()
    name, sep, form = rest.partition("=")
    name = name.strip()
    form = form.strip()
    if not sep or not name or not form:
        raise ParseError(f"line {lineno}: expected 'wildcard NAME = form'")
    if "::" in name or name.startswith("<") or any(c in RESERVED or c.isspace() for c in name):
        raise ParseError(f"line {lineno}: invalid wildcard name {name!r}")
    try:
        if form == "rest":
            return WildcardDecl(name, rest=True)
        if form.startswith("prefix"):
            quoted = form[len("prefix") :].strip()
            if len(quoted) < 2 or quoted[0] != '"' or quoted[-1] != '"':
                raise ParseError(f'line {lineno}: expected prefix "..."')
            return WildcardDecl(name, prefix=quoted[1:-1])
        if form.startswith("{") and form.endswith("}"):
            labels = [part.strip() for part in form[1:-1].split(",")]
            if any(not part for part in labels):
                raise ParseError(f"line {lineno}: empty label in wildcard set")
            return WildcardDecl(name, labels=frozenset(labels))
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"line {lineno}: {exc}") from None
    raise ParseError(f"line {lineno}: unrecognized wildcard form {form!r}")


def _resolve(lineno: int, e: Rbe, wildcard_names: set[str]) -> Rbe:
    """Validate rule symbols and rewrite wildcard references to plain labels."""

    def fix(node: Symbol) -> Symbol:
        label, target = split_symbol(node.name)
        if target is None or not label or not target:
            raise ParseError(f"line {lineno}: expected label::type, got {node.name!r}")
        if label.startswith("<") and label.endswith(">"):
            wname = label[1:-1]
            if wname not in wildcard_names:
                raise ParseError(f"line {lineno}: unknown wildcard {wname!r}")
            return Symbol(typed_symbol(wname, target), node.bounds)
        if label in wildcard_names:
            raise ParseError(
                f"line {lineno}: label {label!r} collides with a wildcard"
                f" name; write <{label}> to reference the wildcard"
            )
        return node

    return map_symbols(e, fix)


def format_schema(schema: Schema) -> str:
    """Render a schema in the rule syntax, which parse_schema reads back
    except for product and powerset schemas: their type names hold reserved
    characters and their rules use ``&``.

    The universal type is omitted (references recreate it); a universal
    rule under any other name has no text and raises ValueError.
    """
    names = {decl.name for decl in schema.wildcards}
    lines = [_format_wildcard(decl) for decl in schema.wildcards]
    for t, rule in schema.delta.items():
        if rule is UNIVERSAL:
            if t != TOP:
                raise ValueError(f"rule for {t!r} is universal; only {TOP} can hold it")
            continue
        lines.append(f"{t} -> {format_rbe(_unresolve(rule, names))}")
    return "\n".join(lines) + "\n" if lines else ""


def _format_wildcard(decl: WildcardDecl) -> str:
    if decl.rest:
        return f"wildcard {decl.name} = rest"
    if decl.prefix is not None:
        return f'wildcard {decl.name} = prefix "{decl.prefix}"'
    return f"wildcard {decl.name} = {{ {', '.join(sorted(decl.labels))} }}"


def _unresolve(e: Rbe, wildcard_names: set[str]) -> Rbe:
    if not wildcard_names:
        return e

    def fix(node: Symbol) -> Symbol:
        label, target = split_symbol(node.name)
        if label in wildcard_names:
            return Symbol(typed_symbol(f"<{label}>", target), node.bounds)
        return node

    return map_symbols(e, fix)


def _require_plain(schema: Schema, operation: str) -> None:
    if schema.wildcards:
        raise ValueError(f"{operation} requires wildcard-free schemas; relabel first")


def _pair_name(t1: str, t2: str) -> str:
    return f"({t1},{t2})"


def _subset_name(types) -> str:
    return "{" + ",".join(sorted(types)) + "}"


def _lifted(schema: Schema, t: str, images: Callable[[str], list[str]]) -> Rbe | None:
    """t's rule with each symbol ``a::u[lo;hi]`` replaced by lo to hi
    picks, each one of the symbols ``a::v`` for v in ``images(u)``; None
    for a universal rule.

    A pick among k > 1 symbols is their choice, written lo times and then
    hi - lo times as optional, or once starred when hi is unbounded.  So
    the image of one symbol holds at most hi * k symbols (lo + 1 times k
    when unbounded): the lifted rule grows linearly with interval bounds.
    """
    if schema.compiled[t].universal:
        return None

    def lift(node: Symbol) -> Rbe:
        label, target = split_symbol(node.name)
        names = [typed_symbol(label, v) for v in images(target)]
        bounds = node.bounds
        if len(names) == 1 or bounds.is_empty:
            return Symbol(names[0], bounds)
        choice = disj(*(Symbol(name) for name in names))
        if bounds.hi is None:
            tail = [star(choice)]
        else:
            tail = [opt(choice)] * (bounds.hi - bounds.lo)
        return concat(*[choice] * bounds.lo, *tail)

    return map_symbols(schema.delta[t], lift)


def _meet(parts: Iterable[Rbe | None]) -> Rbe | CompiledRule:
    """The intersection of the lifted rules; universal ones add no
    conjunct, and with none left the meet is universal."""
    kept = [part for part in parts if part is not None]
    return isect(*kept) if kept else UNIVERSAL


def intersect_schemas(s1: Schema, s2: Schema) -> Schema:
    """Product schema whose types are pairs and whose rules are joins.

    A bag over ``label::pair`` symbols satisfies the pair (t1, t2) when its
    aggregating projections, replacing every pair type by its first or
    second component and merging counts, satisfy t1 in s1 and t2 in s2.
    The rule says so as an expression, ``σ1(e1) & σ2(e2)``: σ1 lifts t1's
    rule by letting ``a::u`` pick any ``a::(u,v)`` with v in s2, and σ2
    lifts t2's rule the same way (see :func:`_lifted` for intervals).
    """
    _require_plain(s1, "intersect_schemas")
    _require_plain(s2, "intersect_schemas")
    gamma1, gamma2 = sorted(s1.gamma), sorted(s2.gamma)
    left = {
        t1: _lifted(s1, t1, lambda u: [_pair_name(u, v) for v in gamma2])
        for t1 in gamma1
    }
    right = {
        t2: _lifted(s2, t2, lambda v: [_pair_name(u, v) for u in gamma1])
        for t2 in gamma2
    }
    return Schema(
        {
            _pair_name(t1, t2): _meet((left[t1], right[t2]))
            for t1 in gamma1
            for t2 in gamma2
        }
    )


def powerset_schema(schema: Schema, *, bound: int = 10) -> Schema:
    """Schema over non-empty type subsets matching multi-type neighborhoods.

    A bag over ``label::subset`` symbols satisfies subset T when for every
    t in T each bag element can pick one type out of its own subset so that
    the picked projection satisfies t.  The rule says so as an expression,
    the intersection over t in T of σ(t's rule), where σ lets ``a::u`` pick
    any ``a::S`` with u in S (see :func:`_lifted` for intervals).  The
    subsets double per type, and so does each symbol's choice, so the type
    count is capped at ``bound`` and the symbol occurrences of the rules,
    counted before building, at ``POWERSET_CAP``.
    """
    _require_plain(schema, "powerset_schema")
    if len(schema.gamma) > bound:
        raise ValueError(f"{len(schema.gamma)} types exceed the powerset bound of {bound}")
    occurrences = _powerset_occurrences(schema)
    if occurrences > POWERSET_CAP:
        raise ValueError(
            f"the powerset would hold {occurrences} symbol occurrences,"
            f" over the cap of {POWERSET_CAP}"
        )
    members = sorted(schema.gamma)
    subsets = [
        combo
        for size in range(1, len(members) + 1)
        for combo in itertools.combinations(members, size)
    ]
    containing = {
        u: [_subset_name(combo) for combo in subsets if u in combo] for u in members
    }
    lifted = {t: _lifted(schema, t, containing.__getitem__) for t in members}
    return Schema(
        {_subset_name(combo): _meet(lifted[t] for t in combo) for combo in subsets}
    )


def _powerset_occurrences(schema: Schema) -> int:
    """The symbol occurrences of the powerset's rules.  Each of the n
    types is in 2^(n-1) subsets, whose rules each hold its lifted rule,
    and each symbol of that rule lifts to picks among the 2^(n-1) subsets
    that hold its type (see :func:`_lifted`)."""
    half = 2 ** (len(schema.gamma) - 1)
    lifted = 0
    for t, rule in schema.delta.items():
        if schema.compiled[t].universal:
            continue
        for node in walk(rule):
            if isinstance(node, Symbol):
                bounds = node.bounds
                if half == 1 or bounds.is_empty:
                    lifted += 1
                else:
                    lifted += half * (bounds.lo + 1 if bounds.hi is None else bounds.hi)
    return half * lifted


def homomorphism_schema(h: Graph) -> Schema:
    """One type per node of h; a node's rule stars each of its outgoing edges.

    Graphs valid against the result under single-type semantics are exactly
    the graphs with a homomorphism into h.
    """
    rules = {
        node: concat(
            *(
                Symbol(typed_symbol(label, target), ANY)
                for label, target in sorted(h.out_lab_node(node))
            )
        )
        for node in sorted(h.nodes)
    }
    return Schema(rules)
