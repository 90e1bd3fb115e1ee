"""Projectively invariant Hardy-space machinery on piecewise-smooth domains.

The package evaluates Cauchy-type reproducing kernels written on the
point-hyperplane incidence variety, their smooth-face and corner
specializations on piecewise-smooth boundaries, the edge normal-form
invariants that weight the corner contribution, and the boundary measure
(face density plus weighted edge arc) whose norm is projectively invariant.

Importing the package loads :mod:`.domain`, :mod:`.hermpoly`,
:mod:`.kernels`, :mod:`.measures`, :mod:`.projective` and
:mod:`.quadrature`: what :func:`reproduce` and :func:`hardy_norm` run.  Two
modules load on first use, when one of their names is read from the
package (PEP 562) or when they are imported:

* :mod:`.incidence`, the incidence density and the identities that connect
  it to the face and corner kernels, which no integrator runs;
* :mod:`.normalforms`, the edge normal forms, which weight only the boundary
  measure, so the first measure build loads them too.  A process that only
  reproduces never loads them.

The command-line program is :mod:`.commands`, and :mod:`.cli` holds what
it shares with library callers: the built-in spec catalog and the parsers
of its arguments.  Neither is loaded with the package.
"""

from .domain import *  # noqa: F401,F403
from .hermpoly import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .projective import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from . import domain, hermpoly, kernels, measures, projective, quadrature

__version__ = "0.1.0"

# The names of each module loaded on first use (its __all__, written out),
# mapped to the module: reading any other name from the package (``from
# hardycorners import cli`` asks for ``cli`` first) imports nothing.
_LAZY = {
    **dict.fromkeys(
        (
            "omega_cfl",
            "omega_cfl_affine_form",
            "cramer_residual",
            "simplex_integral",
            "pushforward_corner_check",
        ),
        "incidence",
    ),
    **dict.fromkeys(
        (
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
        ),
        "normalforms",
    ),
}

__all__ = [
    *domain.__all__,
    *hermpoly.__all__,
    *kernels.__all__,
    *measures.__all__,
    *projective.__all__,
    *quadrature.__all__,
    *_LAZY,
]


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner == "incidence":
        from . import incidence as module
    elif owner == "normalforms":
        from . import normalforms as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
