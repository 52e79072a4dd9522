"""Bag-language satisfiability: linear-system solver, circulations, probes.

The package exports every public name of its modules.
"""

from . import core, flow, ilp
from .core import *  # noqa: F403
from .flow import *  # noqa: F403
from .ilp import *  # noqa: F403

__all__ = [*core.__all__, *flow.__all__, *ilp.__all__]
