"""Deterministic quadrature rules: periodic trapezoid, Gauss-Legendre, simplex.

Every integral in the package is a contraction of an array-valued integrand
with the weights of a fixed rule, so this module only builds rules:

* :func:`trapezoid_rule` — equal-weight nodes on ``[0, 2*pi)``, spectrally
  accurate for analytic periodic integrands (tori of edges, angular
  directions of boundary charts);
* :func:`gauss_rule` — Gauss-Legendre nodes on an interval (radial and polar
  directions of boundary charts), computed by Newton's method on the Legendre
  recurrence, so that neither ``numpy.polynomial`` nor a LAPACK eigensolver
  is ever loaded;
* :func:`tensor_grid` — the lexicographic tensor product of such axes, which
  the boundary charts share as their quadrature grids;
* :func:`simplex_rule` — a collapsed-coordinate (Duffy-type) Gauss rule on
  the standard simplex slice ``{w >= 0, sum w = 1}``.

There is no adaptive subdivision: every caller states a fixed resolution.
Node order is fixed, so a weighted sum over a rule is bit-reproducible.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

__all__ = ["gauss_rule", "simplex_rule", "tensor_grid", "trapezoid_rule"]


def trapezoid_rule(n):
    """Periodic trapezoid nodes 2*pi*k/n and equal weights 2*pi/n on [0, 2*pi)."""
    return 2.0 * np.pi * np.arange(n) / n, np.full(n, 2.0 * np.pi / n)


def tensor_grid(axes, start=0, stop=None):
    """Tensor product of (nodes, weights) axes in lexicographic node order.

    Returns the parameter rows ``(N, dim)`` and the product weights ``(N,)``,
    or only the rows ``start`` to ``stop`` of them, with the same numbers: a
    row's weight is the product of its axes' weights, taken in axis order.
    """
    shape = tuple(len(w) for _, w in axes)
    total = math.prod(shape)
    stop = total if stop is None else min(stop, total)
    index = np.unravel_index(np.arange(start, stop), shape)
    params = np.stack([x[i] for (x, _), i in zip(axes, index)], axis=-1)
    weights = axes[0][1][index[0]]
    for (_, w), i in zip(axes[1:], index[1:]):
        weights = weights * w[i]
    return params, weights


def _legendre_p(n, x):
    """``P_n(x)`` and ``P_n'(x)`` from the three-term recurrence (``|x| < 1``)."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


_NEWTON_CAP = 20


@lru_cache(maxsize=64)
def _legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only.

    The nodes start at Tricomi's estimates ``(1 - (n-1)/(8 n^3)) cos(pi (4k-1)/(4n+2))``
    and are refined by Newton's method on ``P_n`` from the three-term
    recurrence (Hale & Townsend 2013) until the largest step stops
    shrinking: at most 6 steps at every order from 1 to 600, and at 1000,
    2000 and 5000.  A stop when no node moves would never come at 178 of
    the orders 1 to 200, whose nodes cycle at the last ulp.  An order that
    has not settled after ``_NEWTON_CAP`` steps raises ``RuntimeError``.
    The weights are ``2 / ((1 - x^2) P_n'(x)^2)``.  Both are then symmetrized
    about 0 and the weights scaled to sum to 2.  No linear algebra is done,
    so a process that only integrates pages in no LAPACK eigensolver.  As
    for numpy's ``leggauss``, an order that is not an integer raises
    ``TypeError`` and one below 1 ``ValueError``.
    """
    n = operator.index(order)
    if n < 1:
        raise ValueError(f"order must be a positive integer, not {n}")
    k = np.arange(n, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    last = np.inf
    for _ in range(_NEWTON_CAP):
        p, dp = _legendre_p(n, x)
        step = p / dp
        x -= step
        size = np.max(np.abs(step))
        if size >= last:
            break
        last = size
    else:
        raise RuntimeError(
            f"Gauss-Legendre nodes of order {n} did not settle in {_NEWTON_CAP} Newton steps"
        )
    dp = _legendre_p(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / w.sum()
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
