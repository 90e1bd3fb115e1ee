"""Numerical integration engines: periodic trapezoid, Gauss tensor, simplex.

Three deterministic engines cover every integral in the package:

* :func:`integrate_periodic` — tensor trapezoid rule on ``[0, 2*pi)^d``,
  spectrally accurate for analytic periodic integrands (tori of edges,
  angular directions of boundary charts);
* :func:`integrate_patch` — tensor Gauss-Legendre on a rectangle (radial
  and polar directions of boundary charts);
* :func:`integrate_simplex` — a collapsed-coordinate (Duffy-type) tensor
  rule on the standard simplex slice ``{w >= 0, sum w = 1}`` parameterized
  by its first ``n - 1`` coordinates.

There is no adaptive subdivision: every caller states a fixed resolution,
and each result carries a self-consistency error estimate obtained by
comparing against the same rule at half resolution.  Summation order is
fixed (one contraction over the lexicographic tensor grid of
:func:`tensor_grid`, which the boundary charts share), so reports are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadResult",
    "integrate_periodic",
    "integrate_patch",
    "integrate_simplex",
    "gauss_rule",
    "trapezoid_rule",
    "tensor_grid",
]


@dataclass(frozen=True)
class QuadResult:
    """Value of a quadrature together with a refinement-based error estimate."""

    value: complex
    error_estimate: float
    nodes_used: int


def trapezoid_rule(n):
    """Periodic trapezoid nodes 2*pi*k/n and equal weights 2*pi/n on [0, 2*pi)."""
    return 2.0 * np.pi * np.arange(n) / n, np.full(n, 2.0 * np.pi / n)


def tensor_grid(axes):
    """Tensor product of (nodes, weights) axes in lexicographic node order.

    Returns the parameter rows ``(N, dim)`` and the product weights ``(N,)``.
    """
    params = np.stack(
        [g.ravel() for g in np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=-1
    )
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.multiply.outer(weights, w)
    return params, weights.ravel()


def _rule_sum(f, nodes, weights):
    """Weighted sum of f over the rows of ``nodes``; one fixed reduction keeps it bit-reproducible."""
    return complex(np.sum(weights * np.array([f(x) for x in nodes], dtype=complex)))


def _tensor_sum(f, axes):
    """Weighted sum of f (called with one argument per axis) over a tensor grid."""
    return _rule_sum(lambda p: f(*p), *tensor_grid(axes))


def _periodic_value(f, n, dim):
    return _tensor_sum(f, [trapezoid_rule(n)] * dim)


def integrate_periodic(f, n, dim=1):
    """Tensor trapezoid rule for a smooth periodic integrand on [0, 2*pi)^dim.

    Parameters
    ----------
    f : callable
        Takes ``dim`` angle arguments, returns a complex value.
    n : int
        Nodes per axis (must be even and >= 4 so the half-resolution
        comparison reuses the even-index subgrid).
    dim : int
        1, 2, or 3.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if n < 4 or n % 2:
        raise ValueError("n must be an even integer >= 4")
    value = _periodic_value(f, n, dim)
    coarse = _periodic_value(f, n // 2, dim)
    return QuadResult(value, abs(value - coarse), n ** dim)


def gauss_rule(a, b, order):
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def _patch_value(f, rect, order):
    return _tensor_sum(f, [gauss_rule(a, b, order) for a, b in rect])


def integrate_patch(f, rect, order):
    """Tensor Gauss-Legendre rule over a rectangle.

    Parameters
    ----------
    f : callable of len(rect) scalars
    rect : sequence of (a, b) interval pairs, 1 to 3 of them
    order : int
        Gauss order per axis (>= 2).
    """
    rect = [(float(a), float(b)) for a, b in rect]
    if not 1 <= len(rect) <= 3:
        raise ValueError("rect must have 1 to 3 axes")
    if order < 2:
        raise ValueError("order must be >= 2")
    value = _patch_value(f, rect, order)
    coarse = _patch_value(f, rect, max(2, order // 2))
    return QuadResult(value, abs(value - coarse), order ** len(rect))


def _simplex_rule(n, order):
    """Barycentric nodes ``(N, n)`` and weights ``(N,)`` of the collapsed Gauss rule.

    For n = 3 the triangle {w1, w2 >= 0, w1 + w2 <= 1} is Duffy-collapsed:
    w1 = u (1 - v), w2 = u v, w3 = 1 - u, with Jacobian u.
    """
    axis = gauss_rule(0.0, 1.0, order)
    if n == 2:
        u, weights = axis
        return np.stack([u, 1.0 - u], axis=-1), weights
    params, weights = tensor_grid([axis, axis])
    u, v = params.T
    return np.stack([u * (1.0 - v), u * v, 1.0 - u], axis=-1), weights * u


def _simplex_value(f, n, order):
    return _rule_sum(f, *_simplex_rule(n, order))


def integrate_simplex(f, n, order):
    """Integrate over the standard simplex slice {w >= 0, sum(w) = 1}.

    The slice is parameterized by its first ``n - 1`` coordinates (the last
    coordinate is ``1 - sum`` of the others), and the integral is taken
    against the positive parameter measure ``dw_1 ... dw_{n-1}``.  Any
    orientation sign belongs to the caller (the kernel layer), not here.

    Parameters
    ----------
    f : callable
        Receives the full barycentric vector ``w`` of length ``n``.
    n : int
        2 or 3.
    order : int
        Gauss order per collapsed axis.
    """
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if order < 2:
        raise ValueError("order must be >= 2")
    value = _simplex_value(f, n, order)
    coarse = _simplex_value(f, n, max(2, order // 2))
    nodes = order if n == 2 else order ** 2
    return QuadResult(value, abs(value - coarse), nodes)
