from collections import Counter
from functools import reduce
from itertools import product
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from shexval.graph import Graph
from shexval.membership import member_general
from shexval.rbe import concat, parse_rbe, star, sym
from shexval.sat import DEFAULT_CAP, LinearSystem, encode_phi, ilp_feasible, solver_cap
from shexval.sat.ilp import _Search
from shexval.schema import parse_schema
from shexval.validate import flatten, validate_multi


def feasible(*equations, cases=(), bound=None, cap=None):
    system = LinearSystem()
    for coeffs, rhs in equations:
        system.eq(coeffs, rhs)
    for alternatives in cases:
        system.case(*[[system.make_eq(c, r) for c, r in block] for block in alternatives])
    return ilp_feasible(system, bound=bound, cap=cap)


class TestBasics:
    def test_pinned_and_split(self):
        result = feasible(({"x": 1}, 1), ({"x": 1, "y": 1}, 1))
        assert result.status == "sat"
        assert result.model == {"x": 1, "y": 0}

    def test_conflicting_pins(self):
        result = feasible(({"x": 1, "y": 1}, 1), ({"x": 1}, 2))
        assert result.status == "unsat"
        assert not result.capped

    def test_negative_rhs_unreachable(self):
        assert feasible(({"x": 1, "y": 2}, -1)).status == "unsat"

    def test_gcd_rules_out(self):
        assert feasible(({"x": 2, "y": 4}, 7)).status == "unsat"

    def test_elimination_finds_integer_point(self):
        result = feasible(({"x": 1, "y": 1}, 5), ({"x": 1, "y": -1}, 1))
        assert result.status == "sat"
        assert result.model == {"x": 3, "y": 2}

    def test_parity_conflict(self):
        assert feasible(({"x": 1, "y": 1}, 5), ({"x": 1, "y": -1}, 2)).status == "unsat"

    def test_zero_coefficients_dropped(self):
        system = LinearSystem()
        system.eq({"x": 0, "y": 1}, 3)
        assert system.equations == [({"y": 1}, 3)]

    def test_inequalities(self):
        system = LinearSystem()
        system.ge({"x": 1}, 2)
        system.le({"x": 1}, 3)
        system.eq({"x": 1, "y": 1}, 3)
        result = ilp_feasible(system)
        assert result.status == "sat"
        assert result.model["x"] in (2, 3)
        assert result.model["x"] + result.model["y"] == 3

    def test_slack_variables_stay_private(self):
        system = LinearSystem()
        system.le({"x": 1}, 5)
        system.ge({"x": 1}, 5)
        result = ilp_feasible(system)
        assert result.status == "sat"
        assert result.model == {"x": 5}


class TestCases:
    def test_case_picks_viable_branch(self):
        result = feasible(
            ({"x": 1, "y": 1}, 2),
            cases=[[[({"x": 1}, 0)], [({"x": 1}, 2)]]],
        )
        assert result.status == "sat"
        assert result.model["x"] in (0, 2)

    def test_all_branches_dead(self):
        result = feasible(
            ({"x": 1}, 1),
            cases=[[[({"x": 1}, 0)], [({"x": 1}, 2)]]],
        )
        assert result.status == "unsat"


class TestCapDiscipline:
    def test_unbounded_unsat_is_unknown(self):
        # x - y is both 0 and 1; no finite bound ever arises, so the clamp
        # at the cap leaves the verdict open.
        result = feasible(({"x": 1, "y": -1}, 0), ({"x": 1, "y": -1}, 1), cap=5)
        assert result.status == "unknown"
        assert result.capped

    def test_completeness_bound_turns_unknown_into_unsat(self):
        result = feasible(({"x": 1, "y": -1}, 0), ({"x": 1, "y": -1}, 1), bound=3)
        assert result.status == "unsat"
        assert not result.capped

    def test_unbounded_sat_still_found(self):
        result = feasible(({"x": 1, "y": -1}, 1), cap=5)
        assert result.status == "sat"
        assert result.model["x"] == result.model["y"] + 1

    def test_budget_exhaustion_reports_unknown(self):
        # 3z = x+y-1 and 3w = x+y-2 cannot both divide; every branch dies
        # individually but there are hundreds of them.
        system = LinearSystem()
        system.le({"x": 1}, 200)
        system.le({"y": 1}, 200)
        system.eq({"x": 1, "y": 1, "z": -3}, 1)
        system.eq({"x": 1, "y": 1, "w": -3}, 2)
        result = ilp_feasible(system, budget=50)
        assert result.status == "unknown"
        assert result.capped


class TestSolverCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SHEX_ILP_CAP", raising=False)
        assert solver_cap() == DEFAULT_CAP

    def test_override(self, monkeypatch):
        monkeypatch.setenv("SHEX_ILP_CAP", "99")
        assert solver_cap() == 99

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("SHEX_ILP_CAP", "lots")
        assert solver_cap() == DEFAULT_CAP
        monkeypatch.setenv("SHEX_ILP_CAP", "-3")
        assert solver_cap() == DEFAULT_CAP


@st.composite
def solved_systems(draw):
    """A random equation system together with a solution it must admit."""
    names = draw(st.lists(st.sampled_from("uvwxyz"), min_size=1, max_size=4, unique=True))
    assignment = {name: draw(st.integers(0, 4)) for name in names}
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {name: draw(st.integers(-3, 3)) for name in names}
        rhs = sum(c * assignment[name] for name, c in coeffs.items())
        equations.append((coeffs, rhs))
    return equations, assignment


@settings(max_examples=150, deadline=None)
@given(solved_systems())
def test_known_solution_is_found_and_model_checks(case):
    equations, assignment = case
    result = feasible(*equations, bound=4)
    assert result.status == "sat"
    # Variables with all-zero coefficients never enter the system and are
    # absent from the model; they contribute nothing either way.
    for coeffs, rhs in equations:
        assert sum(c * result.model.get(name, 0) for name, c in coeffs.items()) == rhs


@settings(max_examples=100, deadline=None)
@given(solved_systems(), st.integers(1, 20))
def test_perturbed_rhs_never_misreports(case, offset):
    # Shifting one equation may or may not keep the system satisfiable, but
    # a sat verdict must always come with a checking model.
    equations, _ = case
    coeffs, rhs = equations[0]
    perturbed = [(coeffs, rhs + offset)] + equations[1:]
    result = feasible(*perturbed, bound=24)
    assert result.status in ("sat", "unsat")
    if result.status == "sat":
        for c, r in perturbed:
            assert sum(cv * result.model.get(name, 0) for name, cv in c.items()) == r


# The eager solver the search replaced, kept as the reference: one full
# search per selection of a block from every case split, each re-sweeping
# every equation until nothing changes (at most 100 sweeps).


class _EagerBudget(Exception):
    pass


class _EagerSearch:
    def __init__(self, equations, clamp, slack_clamp, artificial, budget):
        self.equations = equations
        self.clamp = clamp
        self.slack_clamp = slack_clamp
        self.artificial = artificial
        self.budget = budget
        self.capped = False
        order = {}
        for coeffs, _ in equations:
            for v in coeffs:
                order.setdefault(v)
        self.variables = list(order)

    def solve(self, domains):
        self.budget -= 1
        if self.budget <= 0:
            raise _EagerBudget
        domains = self.propagate(domains)
        if domains is None:
            return None
        open_vars = [v for v in self.variables if not self.fixed(domains[v])]
        if not open_vars:
            model = {v: domains[v][0] for v in self.variables}
            if all(
                sum(c * model[v] for v, c in coeffs.items()) == rhs
                for coeffs, rhs in self.equations
            ):
                return model
            return None

        def width(v):
            lo, hi = domains[v]
            return (v.startswith("_"), float("inf") if hi is None else hi - lo)

        var = min(open_vars, key=width)
        lo, hi = domains[var]
        if hi is None:
            if var.startswith("_"):
                self.capped = True
                hi = self.slack_clamp
            else:
                if self.artificial:
                    self.capped = True
                hi = self.clamp
        for value in range(lo, hi + 1):
            child = dict(domains)
            child[var] = (value, value)
            model = self.solve(child)
            if model is not None:
                return model
        return None

    @staticmethod
    def fixed(dom):
        return dom[1] is not None and dom[0] == dom[1]

    def propagate(self, domains):
        for _ in range(100):
            changed = False
            for coeffs, rhs in self.equations:
                if not coeffs:
                    if rhs != 0:
                        return None
                    continue
                g = 0
                for c in coeffs.values():
                    g = gcd(g, c)
                if rhs % g:
                    return None
                terms = []
                lo_sum = hi_sum = 0
                lo_open = hi_open = 0
                for v, c in coeffs.items():
                    dlo, dhi = domains[v]
                    if c > 0:
                        tlo = c * dlo
                        thi = None if dhi is None else c * dhi
                    else:
                        tlo = None if dhi is None else c * dhi
                        thi = c * dlo
                    terms.append((v, c, tlo, thi))
                    if tlo is None:
                        lo_open += 1
                    else:
                        lo_sum += tlo
                    if thi is None:
                        hi_open += 1
                    else:
                        hi_sum += thi
                for v, c, tlo, thi in terms:
                    rest_lo = None if lo_open - (tlo is None) else lo_sum - (tlo or 0)
                    rest_hi = None if hi_open - (thi is None) else hi_sum - (thi or 0)
                    rlo = None if rest_hi is None else rhs - rest_hi
                    rhi = None if rest_lo is None else rhs - rest_lo
                    dlo, dhi = domains[v]
                    if c > 0:
                        if rlo is not None:
                            dlo = max(dlo, -((-rlo) // c))
                        if rhi is not None:
                            bound = rhi // c
                            dhi = bound if dhi is None else min(dhi, bound)
                    else:
                        if rhi is not None:
                            dlo = max(dlo, -(rhi // -c))
                        if rlo is not None:
                            bound = (-rlo) // (-c)
                            dhi = bound if dhi is None else min(dhi, bound)
                    if dhi is not None and dlo > dhi:
                        return None
                    if (dlo, dhi) != domains[v]:
                        domains[v] = (dlo, dhi)
                        changed = True
            if not changed:
                break
        return domains


def eager_feasible(system, *, bound=None, cap=None, budget=200_000):
    effective_cap = solver_cap() if cap is None else cap
    complete = bound is not None and bound <= effective_cap
    clamp = bound if complete else effective_cap
    any_capped = False
    for selection in product(*system.cases) if system.cases else [()]:
        equations = list(system.equations)
        for block in selection:
            equations.extend(block)
        search = _EagerSearch(equations, clamp, effective_cap, not complete, budget)
        try:
            model = search.solve({v: (0, None) for v in search.variables})
        except _EagerBudget:
            return "unknown"
        if model is not None:
            return "sat"
        any_capped = any_capped or search.capped
    return "unknown" if any_capped else "unsat"


def holds(equation, model):
    """Whether a model of public unknowns satisfies an equation, reading a
    slack term as the inequality it stands for."""
    coeffs, rhs = equation
    total = sum(c * model.get(v, 0) for v, c in coeffs.items() if not v.startswith("_"))
    slack = [c for v, c in coeffs.items() if v.startswith("_")]
    if not slack:
        return total == rhs
    return total <= rhs if slack[0] > 0 else total >= rhs


@st.composite
def split_systems(draw):
    """A small system with 0-4 case splits of 1-3 blocks each."""
    system = LinearSystem()
    names = "wxyz"

    def equation():
        unknowns = draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
        )
        coeffs = {v: draw(st.integers(-2, 2)) for v in unknowns}
        rhs = draw(st.integers(-1, 5))
        kind = draw(st.sampled_from(("eq", "eq", "le", "ge")))
        return getattr(system, f"make_{kind}")(coeffs, rhs)

    for _ in range(draw(st.integers(0, 3))):
        system.equations.append(equation())
    for _ in range(draw(st.integers(0, 4))):
        system.case(*[
            [equation() for _ in range(draw(st.integers(1, 2)))]
            for _ in range(draw(st.integers(1, 3)))
        ])
    return system


@settings(max_examples=500, deadline=None)
@given(split_systems(), st.integers(0, 3))
def test_case_branching_matches_the_eager_solver(system, bound):
    result = ilp_feasible(system, bound=bound)
    assert result.status == eager_feasible(system, bound=bound)
    if result.status == "sat":
        assert all(holds(e, result.model) for e in system.equations)
        for alternatives in system.cases:
            assert any(
                all(holds(e, result.model) for e in block) for block in alternatives
            )


def test_stars_branch_only_where_propagation_leaves_a_split_open(monkeypatch):
    # Twelve stars give 4,096 selections of case blocks; the eager solver
    # searched every one of them.  Pinning the bag settles every split.
    e = reduce(concat, [star(concat(sym(f"a{i}"), sym(f"b{i}"))) for i in range(12)])
    nodes = 0
    node = _Search._node

    def counted(self, *args):
        nonlocal nodes
        nodes += 1
        return node(self, *args)

    monkeypatch.setattr(_Search, "_node", counted)
    member = Counter({f"{s}{i}": 2 for i in range(12) for s in "ab"})
    assert member_general(member, e)
    assert nodes <= 100
    nodes = 0
    assert not member_general(member + Counter({"a5": 1}), e)
    assert nodes <= 100


def test_active_unknowns_are_listed_once_per_commitment(monkeypatch):
    # The intersection system of a hub of 400 a-edges, one choice group per
    # edge, and a nondeterministic rule that is no symbol product: one
    # search with hundreds of value-branching nodes below a few
    # commitments of the case splits.
    system = LinearSystem()
    left = encode_phi(flatten(Counter({("a", frozenset("uv")): 400})), system)
    right = encode_phi(parse_rbe("(a::u | a::v)* , a::u"), system)
    for a in sorted(set(left) | set(right)):
        if a in left and a in right:
            system.eq({left[a]: 1, right[a]: -1}, 0)
        else:
            system.eq({left.get(a, right.get(a)): 1}, 0)
    scans, nodes = [], []
    scan, node = _Search._unknowns, _Search._node

    def counted_scan(self, chosen):
        scans.append((self, tuple(chosen)))
        return scan(self, chosen)

    def counted_node(self, *args):
        nodes.append(self)
        return node(self, *args)

    monkeypatch.setattr(_Search, "_unknowns", counted_scan)
    monkeypatch.setattr(_Search, "_node", counted_node)
    assert ilp_feasible(system, bound=401).status == "sat"
    assert len(scans) == len(set(scans))
    assert len(nodes) > 300 > 10 * len(scans)


def test_hub_searches_do_not_grow_with_the_hub(monkeypatch):
    # The edges of a hub share one label and type set, so they make one
    # choice group with a count: the searches of a hub of 3,000 edges are
    # those of a hub of 300.
    node = _Search._node

    def nodes(n_edges):
        s = parse_schema("t -> (a::u | a::v)* , a::u\nu -> eps\nv -> eps\n")
        calls = 0

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return node(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(_Search, "_node", counted)
            g = Graph([("h", "a", f"m{i}") for i in range(n_edges)])
            report = validate_multi(g, s, "refine")
        assert report.typing["h"] == {"t"}
        return calls

    small = nodes(300)
    assert 0 < small == nodes(1200) == nodes(3000)
