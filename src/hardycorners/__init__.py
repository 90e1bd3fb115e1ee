"""Projectively invariant Hardy-space machinery on piecewise-smooth domains.

The package evaluates Cauchy-type reproducing kernels written on the
point-hyperplane incidence variety, their smooth-face and corner
specializations on piecewise-smooth boundaries, the edge normal-form
invariants that weight the corner contribution, and the boundary measure
(face density plus weighted edge arc) whose norm is projectively invariant.

Importing the package loads :mod:`.domain`, :mod:`.hermpoly`,
:mod:`.kernels`, :mod:`.measures`, :mod:`.projective` and
:mod:`.quadrature`.  The edge normal forms (:mod:`.normalforms`) weight only
the boundary measure, so they load on first use: when a measure is first
built, or when one of their names is read from the package (PEP 562).  A
process that only reproduces never loads them.
"""

from .domain import *  # noqa: F401,F403
from .hermpoly import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .projective import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from . import domain, hermpoly, kernels, measures, projective, quadrature

__version__ = "0.1.0"

# normalforms.__all__, written out: reading any other name from the package
# (``from hardycorners import cli`` asks for ``cli`` first) imports nothing.
_NORMALFORMS = (
    "NormalForm",
    "NormalizedEdge",
    "EdgeInvariant",
    "model_edge_polys",
    "model_edge_domain",
    "edge_frame",
    "extract_normal_form",
    "apply_coordinate_change",
    "change_matrix",
    "normalize_coeffs",
    "edge_profile",
    "edge_profile_ratio",
    "legendre_argmax",
    "legendre_transform",
    "kappa",
    "eta",
)

__all__ = [
    *domain.__all__,
    *hermpoly.__all__,
    *kernels.__all__,
    *measures.__all__,
    *projective.__all__,
    *quadrature.__all__,
    *_NORMALFORMS,
]


def __getattr__(name):
    if name in _NORMALFORMS:
        from . import normalforms

        return getattr(normalforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NORMALFORMS})
