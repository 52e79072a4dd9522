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
schemas whose rules may be membership predicates rather than expressions;
they validate like any other schema but cannot be serialized.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass

from .graph import Graph, WildcardDecl, check_wildcards_disjoint
from .membership import CompiledRule, compile_rule, member
from .rbe import (
    ANY,
    EPSILON,
    Bag,
    Concat,
    Disj,
    Epsilon,
    Isect,
    ParseError,
    Plus,
    Rbe,
    Star,
    Symbol,
    format_rbe,
    parse_rbe,
    split_symbol,
    typed_symbol,
)
from .rbe.parse import RESERVED

__all__ = [
    "TOP",
    "UNIVERSAL",
    "SemanticLanguage",
    "ClassFlags",
    "Schema",
    "universal_language_member",
    "rule_member",
    "check_deterministic",
    "nondeterministic_labels",
    "classify",
    "flattenings",
    "parse_schema",
    "format_schema",
    "intersect_schemas",
    "powerset_schema",
    "homomorphism_schema",
]

TOP = "TOP"


def universal_language_member(w: Bag) -> bool:
    """The universal type's content model: every bag belongs."""
    return True


@dataclass(frozen=True)
class SemanticLanguage:
    """A content model given by a membership predicate instead of an expression.

    ``carrier`` names the component types the predicate was assembled from,
    for introspection; it does not affect membership.
    """

    member: Callable[[Bag], bool]
    description: str = ""
    carrier: tuple[str, ...] = ()


UNIVERSAL = SemanticLanguage(universal_language_member, "every bag")


@dataclass(frozen=True)
class ClassFlags:
    deterministic: bool
    sorbe: bool
    rbe0: bool


class Schema:
    """An immutable map from type names to content models.

    ``rules`` gives the declared rules.  Every type referenced inside an
    expression rule joins the type set; referenced-but-undeclared types get
    the empty content model, except ``TOP`` which gets the universal one.
    Declaring a rule for ``TOP`` itself is an error.

    ``compiled`` holds each type's rule analysed once, at construction
    (see :class:`~shexval.membership.CompiledRule`), and ``class_flags``
    the schema's syntactic class.  ``_derived`` holds only verdict memos,
    so that workloads validating many graphs against one schema fill them
    once; entries are namespaced by the module that owns them.
    """

    __slots__ = (
        "delta", "compiled", "class_flags", "gamma", "sigma", "wildcards", "_derived"
    )

    def __init__(self, rules, wildcards=()):
        if TOP in rules:
            raise ValueError(f"the type name {TOP!r} is reserved for the universal type")
        delta: dict[str, Rbe | SemanticLanguage] = {}
        compiled: dict[str, CompiledRule] = {}
        labels: set[str] = set()
        referenced: set[str] = set()
        for name, rule in rules.items():
            if not name:
                raise ValueError("empty type name")
            if not isinstance(rule, (Rbe, SemanticLanguage)):
                raise TypeError(
                    f"rule for {name!r} must be an expression or a SemanticLanguage"
                )
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

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self.delta == other.delta and self.wildcards == other.wildcards

    def __repr__(self):
        return f"Schema({len(self.gamma)} types, {len(self.wildcards)} wildcards)"


def _compile(rule: Rbe | SemanticLanguage) -> CompiledRule:
    if isinstance(rule, SemanticLanguage):
        return CompiledRule(
            predicate=rule.member,
            universal=rule.member is universal_language_member,
        )
    return compile_rule(rule)


def rule_member(schema: Schema, w: Bag, t: str) -> bool:
    """Whether bag w satisfies type t's content model."""
    rule = schema.compiled[t]
    if rule.predicate is not None:
        return rule.predicate(w)
    return member(w, rule).verdict


def _checked_rules(schema: Schema) -> list[tuple[str, CompiledRule]]:
    # The universal type is exempt from every syntactic test.
    return [(t, rule) for t, rule in schema.compiled.items() if t != TOP]


def check_deterministic(schema: Schema) -> tuple[bool, dict[tuple[str, str], str] | None]:
    """Whether every rule uses each label with at most one type.

    On success also returns the successor map from (type, label) to the
    unique target type.  Predicate rules cannot be certified and fail the
    check, except the universal type, which is exempt.
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
    """Syntactic class flags; the universal type is exempt, predicate rules fail all three."""
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

    def fix(node: Rbe) -> Rbe:
        match node:
            case Epsilon():
                return node
            case Symbol(name, bounds):
                label, target = split_symbol(name)
                if target is None or not label or not target:
                    raise ParseError(
                        f"line {lineno}: expected label::type, got {name!r}"
                    )
                if label.startswith("<") and label.endswith(">"):
                    wname = label[1:-1]
                    if wname not in wildcard_names:
                        raise ParseError(f"line {lineno}: unknown wildcard {wname!r}")
                    return Symbol(typed_symbol(wname, target), bounds)
                if label in wildcard_names:
                    raise ParseError(
                        f"line {lineno}: label {label!r} collides with a wildcard"
                        f" name; write <{label}> to reference the wildcard"
                    )
                return node
            case Disj(left, right):
                return Disj(fix(left), fix(right))
            case Concat(left, right):
                return Concat(fix(left), fix(right))
            case Star(body):
                return Star(fix(body))
            case Plus(body):
                return Plus(fix(body))
        raise TypeError(f"not an expression node: {node!r}")

    return fix(e)


def format_schema(schema: Schema) -> str:
    """Render a schema in the rule syntax; inverse of parse_schema on its rules.

    The universal type is omitted (references recreate it); predicate rules
    cannot be rendered and raise ValueError.
    """
    names = {decl.name for decl in schema.wildcards}
    lines = [_format_wildcard(decl) for decl in schema.wildcards]
    for t, rule in schema.delta.items():
        if t == TOP:
            continue
        if isinstance(rule, SemanticLanguage):
            raise ValueError(f"rule for {t!r} is a membership predicate; not serializable")
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

    def fix(node: Rbe) -> Rbe:
        match node:
            case Epsilon():
                return node
            case Symbol(name, bounds):
                label, target = split_symbol(name)
                if label in wildcard_names:
                    return Symbol(typed_symbol(f"<{label}>", target), bounds)
                return node
            case Disj(left, right):
                return Disj(fix(left), fix(right))
            case Concat(left, right):
                return Concat(fix(left), fix(right))
            case Star(body):
                return Star(fix(body))
            case Plus(body):
                return Plus(fix(body))
            case Isect(left, right):
                return Isect(fix(left), fix(right))
        raise TypeError(f"not an expression node: {node!r}")

    return fix(e)


def _require_plain(schema: Schema, operation: str) -> None:
    if schema.wildcards:
        raise ValueError(f"{operation} requires wildcard-free schemas; relabel first")


def _pair_name(t1: str, t2: str) -> str:
    return f"({t1},{t2})"


def _subset_name(types) -> str:
    return "{" + ",".join(sorted(types)) + "}"


def _project(
    w: Bag, pairs: Mapping[str, tuple[str, str]]
) -> tuple[Bag, Bag] | None:
    """Both aggregating projections of a bag over pair-typed symbols.

    Returns None when some symbol's type is not a known pair, in which case
    the bag is outside the product vocabulary.
    """
    left: Counter[str] = Counter()
    right: Counter[str] = Counter()
    for symbol, count in w.items():
        label, target = split_symbol(symbol)
        if target is None or target not in pairs:
            return None
        t1, t2 = pairs[target]
        left[typed_symbol(label, t1)] += count
        right[typed_symbol(label, t2)] += count
    return left, right


def intersect_schemas(s1: Schema, s2: Schema) -> Schema:
    """Product schema whose types are pairs and whose rules are joins.

    A bag over ``label::pair`` symbols satisfies the pair (t1, t2) when its
    aggregating projections, replacing every pair type by its first or
    second component and merging counts, satisfy t1 in s1 and t2 in s2.
    """
    _require_plain(s1, "intersect_schemas")
    _require_plain(s2, "intersect_schemas")
    pairs = {
        _pair_name(t1, t2): (t1, t2)
        for t1 in sorted(s1.gamma)
        for t2 in sorted(s2.gamma)
    }
    rules: dict[str, SemanticLanguage] = {}
    for name, (t1, t2) in pairs.items():

        def join_member(w: Bag, t1: str = t1, t2: str = t2) -> bool:
            projected = _project(w, pairs)
            if projected is None:
                return False
            left, right = projected
            return rule_member(s1, left, t1) and rule_member(s2, right, t2)

        rules[name] = SemanticLanguage(
            join_member, description=f"join of {t1} and {t2}", carrier=(t1, t2)
        )
    return Schema(rules)


def powerset_schema(schema: Schema, *, bound: int = 10) -> Schema:
    """Schema over non-empty type subsets matching multi-type neighborhoods.

    A bag over ``label::subset`` symbols satisfies subset T when for every
    t in T each bag element can pick one type out of its own subset so that
    the picked projection satisfies t.  The carrier doubles per type, so
    the type count is capped at ``bound``.
    """
    _require_plain(schema, "powerset_schema")
    if len(schema.gamma) > bound:
        raise ValueError(f"{len(schema.gamma)} types exceed the powerset bound of {bound}")
    members = sorted(schema.gamma)
    subsets: dict[str, frozenset[str]] = {}
    for size in range(1, len(members) + 1):
        for combo in itertools.combinations(members, size):
            subsets[_subset_name(combo)] = frozenset(combo)
    rules: dict[str, SemanticLanguage] = {}
    for name, types in subsets.items():

        def subset_member(w: Bag, types: frozenset[str] = types) -> bool:
            return all(_coordinate_member(schema, w, subsets, t) for t in sorted(types))

        rules[name] = SemanticLanguage(
            subset_member, description=f"all of {name}", carrier=tuple(sorted(types))
        )
    return Schema(rules)


def _coordinate_member(
    schema: Schema, w: Bag, subsets: Mapping[str, frozenset[str]], t: str
) -> bool:
    """Can each element pick a type from its subset so the picks satisfy t?"""
    items = []
    for symbol, count in sorted(w.items()):
        label, target = split_symbol(symbol)
        if target is None or target not in subsets:
            return False
        items.append((label, subsets[target], count))
    return any(rule_member(schema, picked, t) for picked in flattenings(items))


def flattenings(items: Iterable[tuple[str, Iterable[str], int]]) -> Iterator[Bag]:
    """Every bag that picks one type per occurrence of (label, types, count).

    Occurrences of one item are interchangeable, so unordered picks suffice.
    """
    per_item = [
        [
            Counter(typed_symbol(label, pick) for pick in picks)
            for picks in itertools.combinations_with_replacement(sorted(types), count)
        ]
        for label, types, count in items
    ]
    for assignment in itertools.product(*per_item):
        total: Counter[str] = Counter()
        for part in assignment:
            total.update(part)
        yield total


def homomorphism_schema(h: Graph) -> Schema:
    """One type per node of h; a node's rule stars each of its outgoing edges.

    Graphs valid against the result under single-type semantics are exactly
    the graphs with a homomorphism into h.
    """
    rules: dict[str, Rbe] = {}
    for node in sorted(h.nodes):
        rule: Rbe = EPSILON
        for label, target in sorted(h.out_lab_node(node)):
            part = Symbol(typed_symbol(label, target), ANY)
            rule = part if isinstance(rule, Epsilon) else Concat(rule, part)
        rules[node] = rule
    return Schema(rules)
