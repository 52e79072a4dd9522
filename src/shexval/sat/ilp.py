"""Integer feasibility solver for small systems of linear equations.

Unknowns range over the non-negative integers.  Systems are conjunctions of
equations plus optional case splits (pick one alternative block per split).
Inequalities are expressed through internal slack unknowns, one per
inequality, named with a ``_`` prefix.

One branch-and-propagate search decides a system.  Each search node first
propagates bounds, then settles the case splits against the propagated
domains: a block holding an equation the domains rule out is dropped, a
split with no block left fails the node, and a split with one block left
commits that block without branching.  The search branches on a split only
while two or more of its blocks are live, and branches on values once every
split is committed.

Propagation uses exact arithmetic with an explicit "unbounded" marker, so
any infeasibility it derives holds unconditionally.  It works from a
worklist: each equation's terms and gcd test are prepared once, watch lists
map every unknown to its equations, and only equations whose unknowns
changed are visited again.  A system compiled once (:class:`CompiledSystem`)
can be the base of many queries.  A query fixes some unknowns outright
(``pins``, a domain ``lo = hi``, not an equation row) and adds rows only
for what it does not fix.  The base propagates its own rows once and keeps
that fixpoint; each query's search copies the base's rows instead of
preparing them again, starts from the fixpoint and propagates only the
rows its pins and its own equations touch.

Bounds can creep upward without end (x - y = 0 and x - y = 1 raise each
other's lower bound forever), so one propagation makes at most
``_VISITS_PER_EQUATION`` visits per equation of the system; stopping there
keeps every bound sound and only loses pruning.

Branching on an unknown whose domain is still unbounded requires clamping
it; when the caller has supplied a completeness bound (a value B such that a
solution exists only if one exists with every non-slack unknown at most B)
and B fits under the cap, the clamp loses nothing.  Otherwise the clamp is
artificial and an exhausted search yields "unknown" rather than "unsat".
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from math import gcd

__all__ = [
    "Eq",
    "LinearSystem",
    "CompiledSystem",
    "IlpResult",
    "SolverCapped",
    "ilp_feasible",
    "solver_cap",
    "DEFAULT_CAP",
]

# (coefficients, right-hand side): sum of coeff*var equals rhs.
Eq = tuple[dict[str, int], int]

DEFAULT_CAP = 1_000_000
_VISITS_PER_EQUATION = 100


class SolverCapped(Exception):
    """An exact answer was required but the search hit its cap."""


def solver_cap() -> int:
    """Branching cap for unbounded unknowns; SHEX_ILP_CAP overrides the default."""
    raw = os.environ.get("SHEX_ILP_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CAP
    return value if value > 0 else DEFAULT_CAP


class LinearSystem:
    """A conjunction of equations plus case splits over alternative blocks.

    A system built on a compiled ``base`` adds its rows to the base's: its
    equations may name the base's unknowns, and its fresh unknowns are
    numbered after them.
    """

    def __init__(self, base: CompiledSystem | None = None) -> None:
        self.base = base
        self.equations: list[Eq] = []
        self.cases: list[list[list[Eq]]] = []
        self.fresh = base.fresh if base else 0  # number of the next fresh unknown

    def fresh_var(self, prefix: str = "_s") -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh - 1}"

    def make_eq(self, coeffs: dict[str, int], rhs: int) -> Eq:
        return ({v: c for v, c in coeffs.items() if c}, rhs)

    def make_le(self, coeffs: dict[str, int], rhs: int) -> Eq:
        c = {v: c for v, c in coeffs.items() if c}
        c[self.fresh_var()] = 1
        return (c, rhs)

    def make_ge(self, coeffs: dict[str, int], rhs: int) -> Eq:
        c = {v: c for v, c in coeffs.items() if c}
        c[self.fresh_var()] = -1
        return (c, rhs)

    def eq(self, coeffs: dict[str, int], rhs: int) -> None:
        self.equations.append(self.make_eq(coeffs, rhs))

    def le(self, coeffs: dict[str, int], rhs: int) -> None:
        self.equations.append(self.make_le(coeffs, rhs))

    def ge(self, coeffs: dict[str, int], rhs: int) -> None:
        self.equations.append(self.make_ge(coeffs, rhs))

    def case(self, *alternatives: list[Eq]) -> None:
        """Add a split: exactly one alternative block of equations must hold."""
        self.cases.append([list(block) for block in alternatives])


@dataclass
class IlpResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict[str, int] | None
    capped: bool


class _Budget(Exception):
    pass


def _row_range(terms, lo, hi) -> tuple[int, int, int, int]:
    """The range of a row's left-hand side under the domains: the sum of the
    bounded low ends, how many low ends are unbounded, and the same for the
    high ends."""
    lo_sum = hi_sum = 0
    lo_open = hi_open = 0
    for v, c in terms:
        h = hi[v]
        if c > 0:
            lo_sum += c * lo[v]
            if h is None:
                hi_open += 1
            else:
                hi_sum += c * h
        else:
            hi_sum += c * lo[v]
            if h is None:
                lo_open += 1
            else:
                lo_sum += c * h
    return lo_sum, lo_open, hi_sum, hi_open


class CompiledSystem:
    """A system in the solver's form.

    Unknowns are numbered; ``slack`` marks the internal ones and ``watch``
    lists the rows of each.  Every equation is a row of ``(unknown,
    coefficient)`` terms that passed its gcd test, with its split in
    ``owner`` (-1 for a base equation) and its block in ``block``.
    ``cases`` holds each block's rows, None for a block with an equation no
    assignment satisfies; ``refuted`` marks such a base equation.  A system
    built on a base starts from copies of the base's lists, and a base
    watch list is copied when a new row writes it; its own rows are those
    from ``first`` on.  ``fixpoint`` keeps the domains the base equations
    propagate to, for the searches of the systems built on this one.
    """

    def __init__(self, system: LinearSystem):
        base = system.base
        self.base = base
        self.first = len(base.terms) if base else 0
        self.names: list[str] = list(base.names) if base else []
        self.index: dict[str, int] = dict(base.index) if base else {}
        self.slack: list[bool] = list(base.slack) if base else []
        self.terms: list[tuple[tuple[int, int], ...]] = list(base.terms) if base else []
        self.rhs: list[int] = list(base.rhs) if base else []
        self.owner: list[int] = list(base.owner) if base else []
        self.block: list[int] = list(base.block) if base else []
        self.watch: list[list[int]] = list(base.watch) if base else []
        self.cases: list[list[tuple[int, ...] | None]] = list(base.cases) if base else []
        self.refuted = base.refuted if base else False
        self._shared = len(self.watch)  # watch lists still the base's
        self.fresh = system.fresh
        for coeffs, rhs in system.equations:
            if self._row(coeffs, rhs, -1, -1) is None:
                self.refuted = True
        for case, alternatives in enumerate(system.cases, len(self.cases)):
            blocks: list[tuple[int, ...] | None] = []
            for b, block in enumerate(alternatives):
                rows = [self._row(coeffs, rhs, case, b) for coeffs, rhs in block]
                if None in rows:
                    blocks.append(None)
                else:
                    blocks.append(tuple(r for r in rows if r >= 0))
            self.cases.append(blocks)
        self.visit_cap = _VISITS_PER_EQUATION * max(1, len(self.terms))
        self._fixpoint: tuple | None = None

    def fixpoint(self) -> tuple[list[int], list[int | None]] | None:
        """The domains that propagating the base equations leaves from
        [0, unbounded), computed on first use and kept; None when the base
        equations have no solution.  Propagation stops at the visit cap
        here as anywhere, which keeps the domains sound."""
        if self._fixpoint is None:
            n = len(self.names)
            lo, hi = [0] * n, [None] * n
            seeds = [r for r, case in enumerate(self.owner) if case < 0]
            feasible = not self.refuted and self._propagate(
                lo, hi, [-1] * len(self.cases), seeds
            )
            self._fixpoint = (lo, hi) if feasible else ()
        return self._fixpoint or None

    def _row(self, coeffs: dict[str, int], rhs: int, case: int, block: int):
        """Add a row; None when no assignment satisfies it, -1 when every
        assignment does (no terms, zero right-hand side)."""
        index, names, watch = self.index, self.names, self.watch
        r = len(self.terms)
        terms = []
        g = 0
        for name, c in coeffs.items():
            if not c:
                continue
            v = index.get(name)
            if v is None:
                v = index[name] = len(names)
                names.append(name)
                self.slack.append(name.startswith("_"))
                watch.append([])
            terms.append((v, c))
            if g != 1:
                g = gcd(g, c)
        if not terms:
            return -1 if rhs == 0 else None
        if rhs % g:
            return None
        for v, _ in terms:
            if v < self._shared:
                watch[v] = [*watch[v], r]
            else:
                watch[v].append(r)
        self.terms.append(tuple(terms))
        self.rhs.append(rhs)
        self.owner.append(case)
        self.block.append(block)
        return r

    def _propagate(self, lo, hi, chosen, seeds) -> bool:
        """Narrow the domains in place from the active rows of ``seeds``;
        False when one becomes empty."""
        terms_of, rhs_of, watch = self.terms, self.rhs, self.watch
        owner, block = self.owner, self.block
        queue = deque(r for r in seeds if owner[r] < 0 or chosen[owner[r]] == block[r])
        queued = set(queue)
        visits = self.visit_cap
        while queue:
            visits -= 1
            if visits < 0:
                return True
            r = queue.popleft()
            queued.discard(r)
            terms, rhs = terms_of[r], rhs_of[r]
            # The row's range, as in _row_range, inline: this loop is the
            # solver's hottest.
            lo_sum = hi_sum = lo_open = hi_open = 0
            for v, c in terms:
                h = hi[v]
                if c > 0:
                    lo_sum += c * lo[v]
                    if h is None:
                        hi_open += 1
                    else:
                        hi_sum += c * h
                else:
                    hi_sum += c * lo[v]
                    if h is None:
                        lo_open += 1
                    else:
                        lo_sum += c * h
            if (not lo_open and lo_sum > rhs) or (not hi_open and hi_sum < rhs):
                return False
            if lo_open > 1 and hi_open > 1:
                continue
            for v, c in terms:
                dlo, dhi = lo[v], hi[v]
                # The other terms' range, None where an end is unbounded;
                # c*v must land in [rhs - rest_hi, rhs - rest_lo].
                nlo, nhi = dlo, dhi
                if c > 0:
                    if dhi is None:
                        rest_hi = hi_sum if hi_open == 1 else None
                    else:
                        rest_hi = None if hi_open else hi_sum - c * dhi
                    rest_lo = None if lo_open else lo_sum - c * dlo
                    if rest_hi is not None:
                        bound = -((rest_hi - rhs) // c)
                        if bound > nlo:
                            nlo = bound
                    if rest_lo is not None:
                        bound = (rhs - rest_lo) // c
                        if nhi is None or bound < nhi:
                            nhi = bound
                else:
                    if dhi is None:
                        rest_lo = lo_sum if lo_open == 1 else None
                    else:
                        rest_lo = None if lo_open else lo_sum - c * dhi
                    rest_hi = None if hi_open else hi_sum - c * dlo
                    if rest_lo is not None:
                        bound = -((rhs - rest_lo) // -c)
                        if bound > nlo:
                            nlo = bound
                    if rest_hi is not None:
                        bound = (rest_hi - rhs) // -c
                        if nhi is None or bound < nhi:
                            nhi = bound
                if nlo == dlo and nhi == dhi:
                    continue
                if nhi is not None and nlo > nhi:
                    return False
                lo[v], hi[v] = nlo, nhi
                for other in watch[v]:
                    if other not in queued:
                        case = owner[other]
                        if case < 0 or chosen[case] == block[other]:
                            queue.append(other)
                            queued.add(other)
        return True


class _Search(CompiledSystem):
    """One search over a whole system.

    A node's domains are two lists, ``lo`` and ``hi``, with None in ``hi``
    for an unbounded end.  A row is active at a node when it is a base
    equation or its block is the one committed for its split; ``chosen``
    holds the committed block of each split, -1 while the split is open.
    """

    def __init__(
        self,
        system: LinearSystem,
        clamp: int,
        slack_clamp: int,
        artificial: bool,
        budget: int,
    ):
        super().__init__(system)
        self.clamp = clamp
        self.slack_clamp = slack_clamp
        self.artificial = artificial
        self.budget = budget
        self.capped = False
        # Active unknowns and rows per commitment.
        self.listed: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}

    def run(self, pins: Mapping[str, int]) -> dict[str, int] | None:
        """A model of the system with each pinned unknown at its pin, or
        None.  The root starts from the base's fixpoint, so it propagates
        only the system's own rows and the rows of the unknowns the pins
        narrow; a pin outside the fixpoint's domain fails before any
        search node."""
        pinned = []
        for name, value in pins.items():
            v = self.index.get(name)
            if v is None:
                raise ValueError(f"pin on {name!r}, an unknown the system does not name")
            pinned.append((v, value))
        if self.refuted:
            return None
        n = len(self.names)
        lo, hi = [0] * n, [None] * n
        if self.base is not None:
            start = self.base.fixpoint()
            if start is None:
                return None
            base_lo, base_hi = start
            lo[: len(base_lo)] = base_lo
            hi[: len(base_hi)] = base_hi
        owner = self.owner
        seeds = dict.fromkeys(r for r in range(self.first, len(owner)) if owner[r] < 0)
        for v, value in pinned:
            if value < lo[v] or (hi[v] is not None and value > hi[v]):
                return None
            if lo[v] != value or hi[v] != value:
                lo[v] = hi[v] = value
                seeds.update(dict.fromkeys(self.watch[v]))
        root = (lo, hi, [-1] * len(self.cases), list(seeds))
        # Depth first, from an explicit stack of child iterators, one per
        # open node, so deep searches cannot exhaust the interpreter's stack.
        stack = [iter((root,))]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            outcome = self._node(*node)
            if isinstance(outcome, dict):
                model = {self.names[v]: x for v, x in outcome.items()}
                model.update(pins)
                return model
            if outcome is not None:
                stack.append(outcome)
        return None

    def _node(self, lo, hi, chosen, seeds):
        """Propagate from ``seeds`` (the rows whose unknowns just changed or
        that were just committed) and settle the splits.  Returns None when
        the node fails, its model when every unknown is fixed, else an
        iterator over its children, built lazily in branching order."""
        self.budget -= 1
        if self.budget <= 0:
            raise _Budget
        if not self._propagate(lo, hi, chosen, seeds):
            return None
        split = self._settle(lo, hi, chosen)
        if split is False:
            return None
        if split is not None:
            return self._case_branches(lo, hi, chosen, *split)
        # Value branching commits no split, so the nodes below one
        # commitment share its active unknowns and rows: scan the rows once
        # per commitment, not once per node.
        key = tuple(chosen)
        listed = self.listed.get(key)
        if listed is None:
            listed = self.listed[key] = self._unknowns(chosen)
        unknowns, active = listed
        var = self._pick(lo, hi, unknowns)
        if var is None:
            model = {v: lo[v] for v in unknowns}
            terms_of, rhs_of = self.terms, self.rhs
            for r in active:
                if sum(c * model[v] for v, c in terms_of[r]) != rhs_of[r]:
                    return None
            return model
        high = hi[var]
        if high is None:
            if self.slack[var]:
                # Slack unknowns sit outside the caller's completeness promise.
                self.capped = True
                high = self.slack_clamp
            else:
                if self.artificial:
                    self.capped = True
                high = self.clamp
        return self._value_branches(lo, hi, chosen, var, high)

    def _case_branches(self, lo, hi, chosen, case, live):
        for b in live:
            branch = list(chosen)
            branch[case] = b
            yield list(lo), list(hi), branch, self.cases[case][b]

    def _value_branches(self, lo, hi, chosen, var, high):
        # Every split is committed, so the children share ``chosen``.
        for value in range(lo[var], high + 1):
            child_lo, child_hi = list(lo), list(hi)
            child_lo[var] = child_hi[var] = value
            yield child_lo, child_hi, chosen, self.watch[var]

    def _settle(self, lo, hi, chosen):
        """Drop the blocks the domains rule out and commit every split left
        with one block.  Returns False when a split has no block left or a
        commitment fails, else the first split with two or more live blocks
        and those blocks, or None when every split is committed."""
        while True:
            split = None
            committed = False
            for case, blocks in enumerate(self.cases):
                if chosen[case] >= 0:
                    continue
                live = [
                    b
                    for b, rows in enumerate(blocks)
                    if rows is not None and self._admits(lo, hi, rows)
                ]
                if not live:
                    return False
                if len(live) == 1:
                    chosen[case] = live[0]
                    if not self._propagate(lo, hi, chosen, blocks[live[0]]):
                        return False
                    committed = True
                elif split is None:
                    split = (case, live)
            if not committed:
                return split

    def _admits(self, lo, hi, rows) -> bool:
        """Whether every row's range under the domains contains its rhs."""
        for r in rows:
            lo_sum, lo_open, hi_sum, hi_open = _row_range(self.terms[r], lo, hi)
            rhs = self.rhs[r]
            if (not lo_open and lo_sum > rhs) or (not hi_open and hi_sum < rhs):
                return False
        return True

    def _unknowns(self, chosen: list[int]) -> tuple[list[int], list[int]]:
        """The active rows, and their unknowns in order of first
        appearance: base rows first, then the committed blocks in split
        order."""
        seen: dict[int, None] = {}
        active = []
        owner, block = self.owner, self.block
        for r, terms in enumerate(self.terms):
            case = owner[r]
            if case < 0 or chosen[case] == block[r]:
                active.append(r)
                for v, _ in terms:
                    seen.setdefault(v)
        return list(seen), active

    def _pick(self, lo, hi, unknowns) -> int | None:
        # Non-slack unknowns first: slack domains resolve by propagation once
        # the unknowns they track are fixed.  Ties go to the first unknown.
        best = None
        best_key = None
        for v in unknowns:
            h = hi[v]
            if h is not None and lo[v] == h:
                continue
            key = (self.slack[v], float("inf") if h is None else h - lo[v])
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best


def ilp_feasible(
    system: LinearSystem,
    *,
    bound: int | None = None,
    cap: int | None = None,
    budget: int = 200_000,
    pins: Mapping[str, int] | None = None,
) -> IlpResult:
    """Decide feasibility of the system over non-negative integer unknowns.

    ``bound`` is the caller's completeness bound: a promise that feasibility
    implies a solution with every non-slack unknown at most ``bound``.  With
    it (and bound <= cap) every verdict is exact; without it an exhausted
    capped search reports "unknown".

    ``pins`` fixes unknowns the system names at given values, as the
    equations ``x = value`` would, but as domains: they add no row.  A pin
    on an unknown no equation names raises ValueError.

    Case splits are branched inside the one search, and only on a split
    that propagation leaves with two or more live blocks.  ``budget`` bounds
    the search nodes of the whole call, case and value branches together;
    running out reports "unknown".  Every propagation makes at most 100
    equation visits per equation of the system (``_VISITS_PER_EQUATION``).
    """
    effective_cap = solver_cap() if cap is None else cap
    complete = bound is not None and bound <= effective_cap
    clamp = bound if complete else effective_cap
    search = _Search(system, clamp, effective_cap, not complete, budget)
    try:
        model = search.run(pins or {})
    except _Budget:
        return IlpResult("unknown", None, True)
    if model is not None:
        public = {v: x for v, x in model.items() if not v.startswith("_")}
        return IlpResult("sat", public, search.capped)
    return IlpResult("unknown" if search.capped else "unsat", None, search.capped)
