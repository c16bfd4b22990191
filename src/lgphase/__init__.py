"""Affine Landau-Ginzburg phases of gauged linear sigma models.

Exact, dependency-free analysis of integer charge matrices: the Herbst
criterion and phase enumeration, orbifold group and canonical action data,
moment polyhedra with an independent simplicial-cone cross-check, and a
seeded generator of models that carry a phase by construction.
"""

from . import cones, errors, generate, linalg, orbifold, phases, report
from .cones import *  # noqa: F403
from .errors import *  # noqa: F403
from .generate import *  # noqa: F403
from .linalg import *  # noqa: F403
from .orbifold import *  # noqa: F403
from .phases import *  # noqa: F403
from .report import *  # noqa: F403

__version__ = "0.1.0"

# each module's ``__all__`` is its one export list; ``cli`` exports nothing here
__all__ = ["__version__"]
for _module in (cones, errors, generate, linalg, orbifold, phases, report):
    __all__ += _module.__all__
del _module
