"""Projectively invariant Hardy-space machinery on piecewise-smooth domains.

The package evaluates Cauchy-type reproducing kernels written on the
point-hyperplane incidence variety, their smooth-face and corner
specializations on piecewise-smooth boundaries, the edge normal-form
invariants that weight the corner contribution, and the boundary measure
(face density plus weighted edge arc) whose norm is projectively invariant.
"""

from .domain import *  # noqa: F401,F403
from .hermpoly import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .normalforms import *  # noqa: F401,F403
from .projective import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403

__version__ = "0.1.0"
