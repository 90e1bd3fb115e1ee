"""Deterministic quadrature rules: periodic trapezoid, Gauss-Legendre, simplex.

Every integral in the package is a contraction of an array-valued integrand
with the weights of a fixed rule, so this module only builds rules:

* :func:`trapezoid_rule` — equal-weight nodes on ``[0, 2*pi)``, spectrally
  accurate for analytic periodic integrands (tori of edges, angular
  directions of boundary charts);
* :func:`gauss_rule` — Gauss-Legendre nodes on an interval (radial and polar
  directions of boundary charts);
* :func:`tensor_grid` — the lexicographic tensor product of such axes, which
  the boundary charts share as their quadrature grids;
* :func:`simplex_rule` — a collapsed-coordinate (Duffy-type) Gauss rule on
  the standard simplex slice ``{w >= 0, sum w = 1}``.

There is no adaptive subdivision: every caller states a fixed resolution.
Node order is fixed, so a weighted sum over a rule is bit-reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["gauss_rule", "simplex_rule", "tensor_grid", "trapezoid_rule"]


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


@lru_cache(maxsize=64)
def _legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_rule(a, b, order):
    """Gauss-Legendre nodes and weights on the interval [a, b] (fresh arrays)."""
    x, w = _legendre(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def simplex_rule(n, order):
    """Barycentric nodes ``(N, n)`` and weights ``(N,)`` on the simplex slice.

    The slice ``{w >= 0, sum(w) = 1}`` is parameterized by its first
    ``n - 1`` coordinates, and the weights integrate against the positive
    parameter measure ``dw_1 ... dw_{n-1}`` (total 1 for n = 2, 1/2 for
    n = 3).  For n = 3 the triangle is Duffy-collapsed: w1 = u (1 - v),
    w2 = u v, w3 = 1 - u, with Jacobian u; ``order`` is the Gauss order per
    collapsed axis.
    """
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if order < 2:
        raise ValueError("order must be >= 2")
    axis = gauss_rule(0.0, 1.0, order)
    if n == 2:
        u, weights = axis
        return np.stack([u, 1.0 - u], axis=-1), weights
    params, weights = tensor_grid([axis, axis])
    u, v = params.T
    return np.stack([u * (1.0 - v), u * v, 1.0 - u], axis=-1), weights * u
