"""Bag-language satisfiability: linear-system solver, circulations, probes."""

from .core import (
    AmbiguityResult,
    RuleEncoding,
    SatResult,
    encode_phi,
    inter1,
    inter1_groups,
    is_unambiguous,
    normal_form_isect,
    rbe_satisfiable,
)
from .flow import FlowNetwork, build_flow_network, circulation_exists, max_flow
from .ilp import (
    DEFAULT_CAP,
    IlpResult,
    LinearSystem,
    SolverCapped,
    ilp_feasible,
    solver_cap,
)

__all__ = [
    "AmbiguityResult",
    "RuleEncoding",
    "SatResult",
    "encode_phi",
    "inter1",
    "inter1_groups",
    "is_unambiguous",
    "normal_form_isect",
    "rbe_satisfiable",
    "FlowNetwork",
    "build_flow_network",
    "circulation_exists",
    "max_flow",
    "DEFAULT_CAP",
    "IlpResult",
    "LinearSystem",
    "SolverCapped",
    "ilp_feasible",
    "solver_cap",
]
