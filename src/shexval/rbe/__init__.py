"""Regular bag expressions: intervals, syntax trees, textual syntax, core analyses.

The package exports every public name of its modules.
"""

from . import ast, bags, intervals, ops, parse
from .ast import *  # noqa: F403
from .bags import *  # noqa: F403
from .intervals import *  # noqa: F403
from .ops import *  # noqa: F403
from .parse import *  # noqa: F403

__all__ = [
    *intervals.__all__,
    *bags.__all__,
    *ast.__all__,
    *ops.__all__,
    *parse.__all__,
]
