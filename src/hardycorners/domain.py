"""Piecewise-smooth domains: boundary charts, edges, tangent cycles, checks.

A domain is assembled from labeled real-polynomial defining functions, a
list of smooth boundary faces (each a 3-real-dimensional piece of one
hypersurface), and a list of edges (here: the 2-real-dimensional manifolds
where exactly two hypersurfaces meet transversely over the complex field).
Faces and edges carry explicit parameter charts from a small built-in
catalog.  A catalog chart gives only its axes and its geometry.  Its
``axes`` say how each parameter is integrated: ``None`` for a periodic
angle (the trapezoid rule on ``[0, 2*pi)``), or a length ``L`` for an
interval ``[0, L]`` (Gauss-Legendre), and :meth:`Chart.grid` builds the
quadrature grid from them.  Its geometry is base points and solve
directions, along which ``k`` real moduli (1 on a face, 2 on an edge) put a
point on its ``k`` defining functions.  One vectorized Newton solve
(:meth:`Chart.project`) finds the moduli of the rows it is given to 1e-12,
and one implicit differentiation with the same Jacobian completes the
tangents, so downstream quadrature sees the locus to full precision.  A
chart's grid is projected in blocks of at most ``_BLOCK`` rows
(:meth:`Chart._blocks`), which every node set, build and check reads; each
step is row by row, so the numbers are those of one projection of the
grid, and a chart that fails raises what that projection raises.  One
rule decides whether that Jacobian is regular: ``|det J| / prod |rows of
J| > 1e-14``.  The result is a :class:`NodeSet` of arrays, with each node's
orientation sign from the frame its rank check builds; a node that does not
converge, or whose tangents are singular (edge member gradients that are not
transverse, a face's rho flat along its solve direction), raises
:class:`ProjectionError`.

The tangent machinery at an edge point:

* each member hypersurface contributes its complex-tangent hyperplane (the
  *strong* tangents, enumerated in member order);
* the segment of hyperplanes spanned barycentrically between them (the
  *weak* tangents) fills in the dual cycle that gives edges their weight in
  the reproducing formula.

A domain is the intersection of its hypersurfaces' negative sides, the
pseudoconvex configuration of the paper.  :func:`validate_domain` checks
every chart node against that rule, and :func:`check_strict_convexity`
reports the avoidance margin of weak-tangent lines.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .hermpoly import gradient_hyperplane, parse_poly, transform_poly
from .kernels import StrongTangentSet, _frame_dets
from .projective import (
    HomVec,
    ProjMap,
    _dot2,
    _Frozen,
    det2,
    homogenize,
    matmul,
    normalize_map,
    solve2,
)
from .quadrature import gauss_rule, tensor_grid, trapezoid_rule

__all__ = [
    "Chart",
    "TorusChart",
    "SpherePolarChart",
    "GraphPatchChart",
    "TransformedChart",
    "NodeSet",
    "ProjectionError",
    "Face",
    "Edge",
    "PwsDomain",
    "make_chart",
    "strong_tangents",
    "weak_tangent",
    "check_strict_convexity",
    "transform_domain",
    "validate_domain",
    "canonical_spec",
    "domain_from_spec",
]

_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 80
# Grid rows per block of a chart's projection (Chart._blocks), chosen by measurement
# (CHANGES.md).  Each block costs a fixed Python overhead: at 2,048 rows a face grid at
# resolution 24 (6,912 rows) ends in a 768-row block, and its cold build took 14% longer
# than in one block, against 6% at 2,304, which splits it in three.  Larger blocks hold
# larger temporaries: a 64 x 64 edge grid in one block is what set flat_corner_taus'
# peak RSS.
_BLOCK = 2304
_ONLOCUS_TOL = 1e-10
_MEMBER_TOL = 1e-8


_UNCONVERGED = "Newton projection did not converge"
# Why a chart fails whose tangents and conormals do not span R^4 (see kernels._frame_dets).
_RANK_DEFICIENT = "tangents are singular (the frame of conormals and tangents is rank-deficient)"


class ProjectionError(RuntimeError):
    """A chart's projection failed at some nodes.

    ``kind`` names the chart type, ``unconverged`` counts the failed nodes
    and ``total`` the nodes projected: for a chart's node set, its whole grid,
    however many blocks it was projected in, as a failed block has the whole
    grid projected once (:meth:`Chart._blocks`).  By default the failure is a
    Newton solve whose residual never fell below the tolerance (a NaN residual
    counts too); ``reason`` names any other failure, such as edge tangents
    left undefined by member gradients that are not transverse.
    """

    def __init__(self, kind, unconverged, total, reason=_UNCONVERGED):
        self.kind = kind
        self.unconverged = int(unconverged)
        self.total = int(total)
        self.reason = reason
        super().__init__(
            f"{kind} chart {reason} at {self.unconverged} of {self.total} nodes"
        )


class NodeSet(_Frozen):
    """A chart's quadrature nodes projected onto its locus, as arrays.

    ``params`` is ``(N, dim)``, ``weights`` ``(N,)``, ``points`` the affine
    points ``(N, 2)`` and ``tangents`` the chart tangent vectors
    ``(N, dim, 2)``: row ``n`` holds d(point)/d(param_a) at node ``n`` for
    each parameter ``a``.  ``orientation`` ``(N,)`` is +1.0 or -1.0, the
    piece's boundary orientation at each node (see :meth:`Chart.project`).
    ``len`` counts the nodes.  Immutable, and compared by identity.
    """

    __slots__ = ("params", "weights", "points", "tangents", "orientation")

    def __len__(self):
        return len(self.weights)


def _grad(rho, z):
    return rho.grad(z[..., 0], z[..., 1])


def _along(base, s, dirs):
    """``base + sum_m s_m dirs_m``: rows ``(N, 2)``, moduli ``(N, k)``, directions ``(N, k, 2)``."""
    z = base + s[:, 0, None] * dirs[:, 0]
    for m in range(1, s.shape[1]):
        z += s[:, m, None] * dirs[:, m]
    return z


def _jacobian(grads, dirs):
    """``J[:, l, m] = 2 Re(g_l . dir_m)``, d rho_l / d s_m, from the Wirtinger gradients."""
    return 2.0 * np.real(np.stack([_dot2(g[:, None], dirs) for g in grads], axis=-2))


def _det(rows):
    """Determinants of k x k matrices ``(..., k, k)``, k = 1 or 2."""
    return rows[..., 0, 0] if rows.shape[-1] == 1 else det2(rows)


def _transversality(rows):
    """``|det| / prod |rows|`` of k x k matrices ``(..., k, k)``, k = 1 or 2.

    It is 0 for dependent or zero rows.
    """
    det = np.abs(_det(rows))
    scale = det if rows.shape[-1] == 1 else np.prod(np.linalg.norm(rows, axis=-1), axis=-1)
    with np.errstate(invalid="ignore"):  # inf / inf: a row that is not finite is singular
        return det / np.maximum(scale, 1e-300)


def _solve(jac, rhs):
    """Solve ``jac x = rhs`` for Jacobians ``(N, k, k)`` and right-hand sides ``(N, k, c)``.

    Returns ``x`` and the regular rows, where ``_transversality(jac) > 1e-14``
    (the one regularity rule); a singular row's ``x`` is zero.
    """
    regular = _transversality(jac) > 1e-14
    det = np.where(regular, _det(jac), 1.0)
    x = rhs / det[:, None, None] if jac.shape[-1] == 1 else solve2(jac, rhs, det)
    return np.where(regular[:, None, None], x, 0.0), regular


def _newton(kind, rhos, base, dirs, start):
    """The moduli ``s`` ``(N, k)`` with ``rho_l(base + sum_m s_m dirs_m) = 0``, from ``start``.

    A converged row is never updated again, so every row follows exactly the
    iteration it would follow on its own; a singular row takes no step, so it
    stays unconverged.  ``x`` holds the moduli of the unconverged ``rows``
    (it is ``s`` itself until a row converges), and every step works on
    those rows only.
    """
    s = x = np.array(np.broadcast_to(start, dirs.shape[:2]), dtype=float)
    rows = np.arange(len(s))
    for _ in range(_NEWTON_MAXITER):
        z = _along(base, x, dirs)
        vals = np.stack([rho(z[:, 0], z[:, 1]) for rho in rhos], axis=-1)
        todo = ~(np.max(np.abs(vals), axis=-1) < _NEWTON_TOL)
        if not todo.all():
            s[rows[~todo]] = x[~todo]
            # take() with indices: several times faster than a boolean mask on these shapes
            keep = np.flatnonzero(todo)
            rows, x, base, dirs, z, vals = (a.take(keep, 0) for a in (rows, x, base, dirs, z, vals))
            if not rows.size:
                return s
        jac = _jacobian([_grad(rho, z) for rho in rhos], dirs)
        x -= _solve(jac, vals[..., None])[0][..., 0]
    raise ProjectionError(kind, rows.size, len(s))


def _check_tangents(kind, regular, reason):
    """Raise :class:`ProjectionError` for ``reason`` unless the tangents are regular everywhere."""
    if not np.all(regular):
        raise ProjectionError(kind, np.sum(~regular), len(regular), reason)


def _check_count(value, least, name):
    """``value`` itself; ``ValueError`` unless it is an integer (numpy's too) >= ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _check_resolution(resolution):
    """``resolution`` itself; ``ValueError`` unless it is an integer of at least 4."""
    return _check_count(resolution, 4, "resolution")


def _real(field, value):
    """A numeric field as a float; ``ValueError`` naming the field if it is not one."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be a real number, not {value!r}") from None


def _finite(field, value):
    """A spec number as a float, or a list of them as a list of floats.

    ``ValueError`` names the field unless each is a finite real number.
    """
    if isinstance(value, list):
        return [_finite(field, v) for v in value]
    x = _real(field, value)
    if not math.isfinite(x):
        raise ValueError(f"{field} must be finite, not {value!r}")
    return x


class Chart:
    """Base class: a parameterization of a face (3 params) or edge (2 params).

    A catalog chart declares its ``axes``, one entry per parameter: ``None``
    for a periodic axis on ``[0, 2*pi)``, or the length ``L`` of an interval
    ``[0, L]``.  It also sets its defining functions ``rhos``, the start
    ``r0`` of its moduli and ``_singular``, why its tangents can be
    singular, and defines its geometry (:meth:`_geometry`); every other
    method is built on :meth:`grid` and :meth:`project`.  ``dim`` is
    ``len(axes)``.

    The single-point calls :meth:`point` and :meth:`tangents` (one row of
    :meth:`project`) and :meth:`quad_nodes` (the :meth:`grid` as a list) are
    written once, here, for every chart; a parameter count other than
    ``dim`` raises ``TypeError``.  No library path calls them.
    """

    kind = "abstract"
    axes = ()

    @property
    def dim(self):
        return len(self.axes)

    def grid(self, resolution):
        """Deterministic grid on the ``axes``: params ``(N, dim)`` and weights ``(N,)``.

        Each periodic axis carries ``resolution`` trapezoid nodes (one rule,
        shared by every periodic axis), and an axis of length ``L`` carries
        ``max(4, resolution // 2)`` Gauss-Legendre nodes on ``[0, L]``.  A
        resolution that is not an integer of at least 4 raises ``ValueError``.
        """
        return tensor_grid(self._rules(resolution))

    def _rules(self, resolution):
        """The ``(nodes, weights)`` rule of each axis at a resolution (see :meth:`grid`)."""
        periodic = trapezoid_rule(_check_resolution(resolution))
        order = max(4, resolution // 2)
        return [periodic if L is None else gauss_rule(0.0, L, order) for L in self.axes]

    def _size(self, resolution):
        """The number of rows of :meth:`grid` at a resolution, without building it."""
        return math.prod(len(w) for _, w in self._rules(resolution))

    def _geometry(self, params):
        """Base points ``(N, 2)``, solve directions ``(N, k, 2)`` and the ``s``-fixed tangents.

        A chart point is ``base + sum_m s_m dirs_m`` for ``k = len(rhos)``
        real moduli ``s``; the third value maps ``s`` ``(N, k)`` to the
        tangents ``(N, dim, 2)`` taken with ``s`` fixed.
        """
        raise NotImplementedError

    def project(self, params):
        """Points ``(N, 2)``, tangents ``(N, dim, 2)`` and signs ``(N,)`` at rows ``(N, dim)``.

        One Newton solve (:func:`_newton`) puts the points on the locus; the
        tangents ``dz`` taken with ``s`` fixed are completed by solving ``J ds
        = -2 Re(g . dz)`` with the Newton Jacobian ``J``.  The orientation is
        the sign, +1.0 or -1.0, of the frame determinant that the rank check
        computes (:func:`~hardycorners.kernels._frame_dets`), with the outward
        conormals in the piece's boundary order: a face's one conormal, an
        edge's in reversed member order.  So it is
        :func:`~hardycorners.kernels.orientation_sign_face` or
        :func:`~hardycorners.kernels.orientation_sign_edge` of the node, the
        sign the reproducing formula and the boundary measure integrate with.
        """
        base, dirs, fixed_tangents = self._geometry(params)
        s = _newton(self.kind, self.rhos, base, dirs, self.r0)
        z = _along(base, s, dirs)
        grads = [_grad(rho, z) for rho in self.rhos]
        tangents = fixed_tangents(s)
        dims = range(self.dim)
        rhs = np.stack([-2.0 * np.real(_dot2(g, tangents[:, a])) for g in grads for a in dims], -1)
        ds, regular = _solve(_jacobian(grads, dirs), rhs.reshape(len(z), len(grads), self.dim))
        _check_tangents(self.kind, regular, f"tangents are singular ({self._singular})")
        for a in dims:
            tangents[:, a] = _along(tangents[:, a], ds[:, :, a], dirs)
        det, regular = _frame_dets(grads[::-1], tangents)
        _check_tangents(self.kind, regular, _RANK_DEFICIENT)
        return z, tangents, np.where(det > 0, 1.0, -1.0)

    def _blocks(self, resolution, build=None):
        """Each block of at most ``_BLOCK`` rows of :meth:`grid`, in order, projected and built.

        A block is its :class:`NodeSet`, or what ``build`` makes of it.  Every
        step of :meth:`project` is row by row, so the blocks hold the numbers of
        one projection of the whole grid.  A block that fails, in
        :meth:`project` (:class:`ProjectionError`) or in ``build``
        (``ValueError``), ends the chart: the whole grid is projected once,
        which raises its :class:`ProjectionError` if it has one, and otherwise
        the block's own error is raised again.  So a chart fails as one
        projection of its grid, then its build, would.
        """
        rules = self._rules(resolution)
        for start in range(0, self._size(resolution), _BLOCK):
            params, weights = tensor_grid(rules, start, start + _BLOCK)
            try:
                block = NodeSet(params, weights, *self.project(params))
                if build is not None:
                    block = build(block)
            except (ProjectionError, ValueError):
                self.project(self.grid(resolution)[0])
                raise
            yield block
            del block  # before the next block is projected

    def nodes(self, resolution):
        """The :class:`NodeSet` of this chart at a resolution: its :meth:`_blocks`, joined."""
        blocks = list(self._blocks(resolution))
        fields = NodeSet.__slots__
        return NodeSet(*(np.concatenate([getattr(b, f) for b in blocks]) for f in fields))

    def _at(self, params):
        """The point ``(2,)`` and the list of ``dim`` tangents at one parameter tuple."""
        if len(params) != self.dim:
            raise TypeError(f"a {self.kind} chart takes {self.dim} parameters, got {len(params)}")
        points, tangents, _ = self.project(np.array([params], dtype=float))
        return points[0], list(tangents[0])

    def point(self, *params):
        """The chart point ``(2,)`` at one parameter tuple (one row of :meth:`project`)."""
        return self._at(params)[0]

    def tangents(self, *params):
        """The ``dim`` tangent vectors ``(2,)`` at one parameter tuple, as a list."""
        return self._at(params)[1]

    def quad_nodes(self, resolution):
        """Deterministic node list [(params, weight), ...] at a resolution."""
        params, weights = self.grid(resolution)
        return [(tuple(p), w) for p, w in zip(params, weights)]


class TorusChart(Chart):
    """Edge chart: z_l = r_l(theta, phi) * exp(i * angle_l) on {rho1 = rho2 = 0}.

    The two radii are Newton-refined from the supplied starting values at
    every parameter pair, so chart points satisfy both defining equations to
    1e-12 and the tangent vectors follow by implicit differentiation.
    """

    kind = "torus2"
    axes = (None, None)
    _singular = "member gradients are not transverse"

    def __init__(self, rhos, r0=(1.0, 1.0)):
        if len(rhos) != 2:
            raise ValueError("torus2 chart needs exactly two defining functions")
        if np.shape(r0) != (2,):
            raise ValueError(f"torus2 chart r0 must be two radii, not {r0!r}")
        self.rhos = tuple(rhos)
        self.r0 = tuple(_real("torus2 chart r0", x) for x in r0)

    def _geometry(self, params):
        e = np.exp(1j * params)
        dirs = np.zeros((len(e), 2, 2), dtype=complex)
        dirs[:, 0, 0], dirs[:, 1, 1] = e[:, 0], e[:, 1]
        return np.zeros_like(e), dirs, lambda r: 1j * r[..., None] * dirs

    # bench/tracer.py wraps these through vars(cls), so the class keeps them under its own name.
    point, tangents, quad_nodes = Chart.point, Chart.tangents, Chart.quad_nodes


class SpherePolarChart(Chart):
    """Face chart for a sphere-like hypersurface, radially Newton-projected.

    Parameters (theta, alpha, beta) map to the direction
    (cos(theta) e^{i alpha}, sin(theta) e^{i beta}) scaled to the locus.
    """

    kind = "sphere_polar"
    axes = (np.pi / 2.0, None, None)
    _singular = "rho has zero derivative along the solve direction"

    def __init__(self, rho, r0=1.0):
        self.rhos = (rho,)
        self.r0 = _real("sphere_polar chart r0", r0)

    def _geometry(self, params):
        theta, alpha, beta = params.T
        ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
        c, sn = np.cos(theta), np.sin(theta)
        u = np.stack([c * ea, sn * eb], axis=-1)
        unit = np.zeros((len(u), 3, 2), dtype=complex)  # the tangents at modulus 1
        unit[:, 0, 0], unit[:, 0, 1] = -sn * ea, c * eb
        unit[:, 1, 0], unit[:, 2, 1] = 1j * c * ea, 1j * sn * eb
        return np.zeros_like(u), u[:, None], lambda s: s[..., None] * unit

    # bench/tracer.py wraps these through vars(cls), so the class keeps them under its own name.
    point, tangents, quad_nodes = Chart.point, Chart.tangents, Chart.quad_nodes


class GraphPatchChart(Chart):
    """Face chart: one coordinate's modulus solved over a polar disk in the other.

    With ``solve = "z1"``: z2 = disk_radius * r * e^{i phi} ranges over a
    disk, and z1 = m(r, phi, psi) * e^{i psi} with the modulus m Newton-solved
    on the face's defining locus.
    """

    kind = "graph_patch"
    axes = (1.0, None, None)
    _singular = SpherePolarChart._singular

    def __init__(self, rho, solve="z1", disk_radius=1.0, r0=1.0):
        if solve not in ("z1", "z2"):
            raise ValueError(f"graph_patch chart solve must be 'z1' or 'z2', not {solve!r}")
        self.rhos = (rho,)
        self.solve = solve
        self.disk_radius = _real("graph_patch chart disk_radius", disk_radius)
        self.r0 = _real("graph_patch chart r0", r0)

    def _geometry(self, params):
        r, phi, psi = params.T
        si = 0 if self.solve == "z1" else 1
        ephi, epsi = np.exp(1j * phi), np.exp(1j * psi)
        base = np.zeros((len(r), 2), dtype=complex)
        base[:, 1 - si] = self.disk_radius * r * ephi
        dirs = np.zeros((len(r), 1, 2), dtype=complex)
        dirs[:, 0, si] = epsi

        def fixed_tangents(m):
            tangents = np.zeros((len(r), 3, 2), dtype=complex)
            tangents[:, 0, 1 - si] = self.disk_radius * ephi
            tangents[:, 1, 1 - si] = 1j * self.disk_radius * r * ephi
            tangents[:, 2, si] = 1j * m[:, 0] * epsi
            return tangents

        return base, dirs, fixed_tangents

    # bench/tracer.py wraps these through vars(cls), so the class keeps them under its own name.
    point, tangents, quad_nodes = Chart.point, Chart.tangents, Chart.quad_nodes


class TransformedChart(Chart):
    """A chart composed with a projective map, with exact pushed tangents.

    It has its base chart's ``axes``, so its grid and :meth:`quad_nodes` are the base chart's.
    """

    kind = "transformed"

    def __init__(self, base, tmap):
        self.base = base
        self.tmap = tmap
        self.axes = base.axes

    def project(self, params):
        """The base chart's projection pushed by the map; its orientations carry over.

        A biholomorphic map preserves orientation, and
        :func:`~hardycorners.hermpoly.transform_poly` scales each defining
        function by ``|den|**(2n) > 0``, so the outward side is the same.
        """
        points, tangents, orientation = self.base.project(params)
        image, jac = self.tmap._affine_and_jacobian(points)
        jac = jac[:, None]
        pushed = jac[..., 0] * tangents[..., None, 0] + jac[..., 1] * tangents[..., None, 1]
        return np.stack(image, axis=-1), pushed, orientation

    # bench/tracer.py wraps these through vars(cls), so the class keeps them under its own name.
    point, tangents = Chart.point, Chart.tangents


class Face(NamedTuple):
    """A smooth boundary piece: one hypersurface index plus its chart.

    A named tuple; the chart compares by identity.
    """

    hypersurface: int
    chart: Chart


class Edge(NamedTuple):
    """Where exactly the member hypersurfaces meet, with its chart (k = 2 here).

    A named tuple; the chart compares by identity.
    """

    members: tuple
    chart: Chart


class PwsDomain:
    """A piecewise-smooth domain with explicit boundary decomposition.

    A point is inside iff every defining function is negative there: the
    domain is the intersection of the hypersurfaces' negative sides, the
    pseudoconvex configuration.

    ``interior_points`` defaults to a new empty list.

    A domain and its charts are treated as immutable once built:
    :mod:`hardycorners.measures` caches the node sets of ``reproduce`` and
    ``hardy_norm`` in ``_cache`` for the domain's lifetime (its module
    docstring describes the layout).
    :func:`transform_domain` builds a new domain, with a cache of its own.
    Domains compare by identity.
    """

    __slots__ = ("hypersurfaces", "faces", "edges", "interior_points", "_cache")

    def __init__(self, hypersurfaces, faces, edges, interior_points=None):
        labels = [lab for lab, _ in hypersurfaces]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"duplicate hypersurface label {label!r}")
        self.hypersurfaces = hypersurfaces
        self.faces = faces
        self.edges = edges
        self.interior_points = [] if interior_points is None else interior_points
        self._cache = {}

    def rho(self, i):
        return self.hypersurfaces[i][1]

    def label(self, i):
        return self.hypersurfaces[i][0]

    def rho_values(self, zhat):
        """Every defining function at a point (or at arrays of points, on axis 1 on)."""
        return np.array([rho(zhat[0], zhat[1]) for _, rho in self.hypersurfaces])

    def contains(self, zhat):
        return bool(np.all(self.rho_values(zhat) < 0))

    def active_members(self, zhat):
        """Hypersurfaces with ``|rho| <= 1e-8`` at a point or at all rows of an ``(N, 2)`` array."""
        vals = self.rho_values(np.asarray(zhat).T)
        return [i for i, v in enumerate(vals) if np.all(np.abs(v) <= _MEMBER_TOL)]

    def edge_at(self, zhat):
        """The declared edge whose members are the :meth:`active_members` (``|rho| <= 1e-8``)."""
        active = set(self.active_members(zhat))
        for e in self.edges:
            if set(e.members) == active:
                return e
        raise ValueError(
            f"no declared edge matches the active hypersurfaces {sorted(active)} at {zhat}"
        )


def make_chart(spec, rhos):
    """Build a catalog chart from its spec dict on a piece's resolved polynomials.

    ``rhos`` holds a face's one polynomial (a ``sphere_polar`` or
    ``graph_patch`` chart) or an edge's two members' in member order (a
    ``torus2`` chart).  The chart's numbers (``r0``, and a graph patch's
    ``disk_radius``) must be finite reals.  A spec that is not a dict, whose
    type is not a chart of that kind of piece, or whose numbers are not
    finite reals raises ``ValueError`` naming the field.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"chart must be an object with a 'type' field, not {spec!r}")
    ctype = spec.get("type")

    def number(name, default):
        return _finite(f"{ctype} chart {name}", spec.get(name, default))

    if ctype == "torus2" and len(rhos) == 2:
        return TorusChart(rhos, r0=number("r0", [1.0, 1.0]))
    if ctype == "sphere_polar" and len(rhos) == 1:
        return SpherePolarChart(*rhos, r0=number("r0", 1.0))
    if ctype == "graph_patch" and len(rhos) == 1:
        numbers = {name: number(name, 1.0) for name in ("disk_radius", "r0")}
        return GraphPatchChart(*rhos, solve=spec.get("solve", "z1"), **numbers)
    piece, catalog = ("face", "sphere_polar, graph_patch") if len(rhos) == 1 else ("edge", "torus2")
    raise ValueError(f"{piece} chart type {ctype!r} is not one of {catalog}")


def _field(obj, key, piece, kind=object):
    """``obj[key]``; ``ValueError`` naming the field and the piece unless it is a ``kind``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{piece} has no {key!r} field")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{piece} {key} must be a {kind.__name__}, not {obj[key]!r}")
    return obj[key]


def domain_from_spec(spec):
    """Assemble a :class:`PwsDomain` from a domain-spec dictionary.

    Each hypersurface needs a string ``label`` and a ``rho``, each face a
    ``hypersurface`` and a ``chart``, each edge two distinct ``members`` and a
    ``chart`` (see :func:`make_chart`); labels are unique, pieces name
    declared labels, and each interior point is four finite reals.  An
    optional ``membership`` field must be ``"intersection"``.  Anything
    else raises ``ValueError`` naming the field and the piece (a ``rho``
    that :func:`~hardycorners.hermpoly.parse_poly` rejects, as
    ``hypersurface 0 rho: <the parser's message>``).
    """
    hyper = []
    for hi, h in enumerate(_field(spec, "hypersurfaces", "the spec", list)):
        piece = f"hypersurface {hi}"
        label, rho = _field(h, "label", piece, str), _field(h, "rho", piece, str)
        try:
            hyper.append((label, parse_poly(rho)))
        except ValueError as exc:
            raise ValueError(f"{piece} rho: {exc}") from None
    membership = spec.get("membership", "intersection")
    if membership != "intersection":
        raise ValueError(
            f"membership must be 'intersection', not {membership!r}: "
            "only intersection domains are integrated"
        )
    # Built first, so that its own checks run before any piece's label is resolved.
    d = PwsDomain(hyper, [], [])
    labels = [label for label, _ in hyper]
    spec = {"faces": [], "edges": [], "interior_points": [], **spec}

    def declared(label, piece):
        if label not in labels:
            raise ValueError(f"{piece} names hypersurface {label!r}, which is not declared")
        return labels.index(label)

    for fi, f in enumerate(_field(spec, "faces", "the spec", list)):
        i = declared(_field(f, "hypersurface", f"face {fi}"), f"face {fi}")
        d.faces.append(Face(i, make_chart(_field(f, "chart", f"face {fi}"), [d.rho(i)])))

    for ei, e in enumerate(_field(spec, "edges", "the spec", list)):
        labs = _field(e, "members", f"edge {ei}", list)
        if len(labs) != 2 or labs[0] == labs[1]:
            raise ValueError(f"edge {ei} members must be two distinct hypersurfaces, not {labs!r}")
        members = tuple(declared(lab, f"edge {ei}") for lab in labs)
        rhos = [d.rho(m) for m in members]
        d.edges.append(Edge(members, make_chart(_field(e, "chart", f"edge {ei}"), rhos)))

    for pi, p in enumerate(_field(spec, "interior_points", "the spec", list)):
        if np.shape(p) != (4,):
            raise ValueError(f"interior point {p!r} must be four reals re1, im1, re2, im2")
        x = _finite(f"interior point {pi}", list(p))
        d.interior_points.append(np.array([complex(x[0], x[1]), complex(x[2], x[3])]))
    return d


def canonical_spec(spec):
    """Canonical byte-stable JSON serialization of a domain-spec dictionary."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def strong_tangents(d, e, zhat):
    """The member hypersurfaces' tangent hyperplanes at an edge point, in member order.

    For an ``(N, 2)`` array of edge points the basepoint and the planes of the
    returned set are ``(N, 3)`` arrays of homogeneous coordinates.  A point
    where some member has ``|rho| > 1e-8`` raises ``ValueError``.
    """
    zhat = np.asarray(zhat, dtype=complex)
    for m in e.members:
        if np.any(np.abs(d.rho(m)(zhat[..., 0], zhat[..., 1])) > _MEMBER_TOL):
            raise ValueError(
                f"point is not on hypersurface {d.label(m)!r} within {_MEMBER_TOL}"
            )
    planes = tuple(gradient_hyperplane(d.rho(m), zhat) for m in e.members)
    basepoint = HomVec.from_affine(zhat) if zhat.ndim == 1 else homogenize(zhat)
    return StrongTangentSet(basepoint=basepoint, planes=planes)


def _member_planes(d, members, points):
    """The members' tangent hyperplanes at ``(N, 2)`` points, as ``(N, len(members), 3)`` rows."""
    return np.stack([gradient_hyperplane(d.rho(m), points) for m in members], axis=-2)


def weak_tangent(d, e, zhat, t):
    """Barycentric combination of the members' tangent hyperplanes at an edge point.

    ``t`` lives on the standard simplex (finite, non-negative, sums to 1);
    the vertices reproduce the strong tangents, and every value is incident
    to the basepoint up to rounding.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (len(e.members),):
        raise ValueError(f"t must have {len(e.members)} barycentric coordinates")
    if not np.all(np.isfinite(t)) or np.any(t < -1e-12) or abs(float(np.sum(t)) - 1.0) > 1e-10:
        raise ValueError("t must be finite non-negative barycentric coordinates summing to 1")
    planes = _member_planes(d, e.members, np.asarray(zhat, dtype=complex)[None])[0]
    return HomVec(tuple(t @ planes), role="hyperplane")


def check_strict_convexity(d, zhat, t_grid=11, ambient_grid=16, local_radius=None):
    """Avoidance margins of the weak-tangent lines through boundary points.

    For each sampled barycentric weight ``t`` the complex line carried by the
    weak tangent is sampled on a punctured polar grid; the margin of a line is
    ``min over line samples of max over member rho values``.  Positive margin
    means the line leaves the closed domain immediately (strictness); zero
    margin detects contact of higher order, as on flat faces or cone models.
    A face point is the single weight ``t = (1,)``.  All lines are sampled at
    once: the weak tangents are one product of the weights with the members'
    tangent hyperplanes, and each member is evaluated once on every sample.

    ``zhat`` is one point ``(2,)`` or an ``(N, 2)`` array of points on one
    face or edge.  For one point, ``per_t`` pairs each weight with its margin
    and ``min_margin``/``strict`` are scalars; for an array, each margin in
    ``per_t`` is an ``(N,)`` array and ``min_margin``/``strict`` are ``(N,)``.
    Each grid is checked as a resolution is: a ``t_grid`` that is not an
    integer (numpy integers count) of at least 2 at an edge point (a face
    point does not read it), an ``ambient_grid`` that is not an integer of at
    least 1, or a ``local_radius`` that is not positive and finite raises
    ``ValueError``.
    """
    radius = 0.5 if local_radius is None else float(local_radius)
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"local_radius must be positive and finite, got {local_radius!r}")
    _check_count(ambient_grid, 1, "ambient_grid")
    zhat = np.asarray(zhat, dtype=complex)
    members = d.active_members(zhat)
    if not members:
        raise ValueError("point is not on the boundary")
    if len(members) >= 2:
        members = list(d.edge_at(zhat).members)
        _check_count(t_grid, 2, "t_grid at an edge point")

    if len(members) == 1:
        t = np.ones((1, 1))
    else:
        s = np.arange(t_grid) / (t_grid - 1.0)
        t = np.stack([s, 1.0 - s], axis=-1)
    points = zhat.reshape(-1, 2)
    w = matmul(t, _member_planes(d, members, points))
    # Direction of each line: the kernel (w2, -w1) of the affine part, normalized.
    direction = np.stack([w[..., 2], -w[..., 1]], axis=-1)
    norm = np.linalg.norm(direction, axis=-1)
    valid = norm >= 1e-14
    direction /= np.where(valid, norm, 1.0)[..., None]

    # Punctured polar grid of line parameters: radii radius*i/n, angles 2 pi j/n.
    rr = radius * np.arange(1, ambient_grid + 1) / ambient_grid
    line = rr[:, None] * np.exp(2j * np.pi * np.arange(ambient_grid) / ambient_grid)
    p = points[:, None, None, None] + line[..., None] * direction[:, :, None, None]
    vals = np.max([d.rho(m)(p[..., 0], p[..., 1]) for m in members], axis=0)
    margins = np.where(valid, np.min(vals, axis=(2, 3)), np.nan)
    # fmin skips the NaN margins of degenerate lines; all-NaN stays NaN
    min_margin = np.fmin.reduce(margins, axis=-1)
    strict = min_margin > 1e-10
    if zhat.ndim == 1:
        margins, min_margin, strict = margins[0].tolist(), float(min_margin[0]), bool(strict[0])
    else:
        margins = list(margins.T)
    return {
        "members": [d.label(m) for m in members],
        "per_t": list(zip(map(tuple, t), margins)),
        "min_margin": min_margin,
        "strict": strict,
    }


def transform_domain(d, t):
    """Apply a projective map to a whole domain.

    Every defining function is transformed at one common bihomogenization
    degree (the max over the family), so that tangent data built from several
    gradients at once — in particular the weak-tangent cycle at a fixed
    barycentric parameter — transforms coherently by the dual map.
    """
    if not isinstance(t, ProjMap):
        t = normalize_map(t)
    degree = 0
    for _, rho in d.hypersurfaces:
        dh, da = rho.max_degrees()
        degree = max(degree, dh, da)
    new_hyper = [
        (label, transform_poly(rho, t, degree=degree)) for label, rho in d.hypersurfaces
    ]
    new_faces = [
        Face(f.hypersurface, TransformedChart(f.chart, t) if f.chart else None)
        for f in d.faces
    ]
    new_edges = [
        Edge(e.members, TransformedChart(e.chart, t) if e.chart else None)
        for e in d.edges
    ]
    new_pts = [np.array(t.affine(p)) for p in d.interior_points]
    return PwsDomain(
        hypersurfaces=new_hyper,
        faces=new_faces,
        edges=new_edges,
        interior_points=new_pts,
    )


def _check_charts(d):
    """``ValueError`` naming the first face, then edge, of ``d`` that has no chart."""
    for kind, pieces in (("face", d.faces), ("edge", d.edges)):
        for k, piece in enumerate(pieces):
            if piece.chart is None:
                raise ValueError(f"{kind} {k} has no chart")


def validate_domain(d, resolution=12):
    """Structural validation on every node of every chart at ``resolution``.

    One loop over the boundary pieces, faces then edges, checks each node of
    the chart's node set at ``resolution``, the nodes the integrals use, one
    block at a time (:meth:`Chart._blocks`): every member is on the locus
    within ``1e-10`` and every other hypersurface is negative (a NaN value
    fails); on an edge the member gradients are also transverse.  Each check
    names a piece at most once.  Then every interior point must be inside:
    every ``rho`` negative (NaN fails).

    Returns a report dict with ``passed`` and a list of human-readable
    ``failures`` naming the offending hypersurface or piece.

    Raises
    ------
    ValueError
        If ``resolution`` is not an integer of at least 4, or a piece has no
        chart (checked before any projection).
    ProjectionError
        If a chart's projection fails: its Newton solve does not converge, or
        its tangents are singular (not transverse, or rank-deficient with the conormals).
    """
    _check_resolution(resolution)
    _check_charts(d)
    failures = []
    pieces = [(f"face {k}", (f.hypersurface,), f.chart) for k, f in enumerate(d.faces)]
    pieces += [(f"edge {k}", e.members, e.chart) for k, e in enumerate(d.edges)]
    for piece, members, chart in pieces:
        found = {}  # each failure once, keyed by hypersurface; transversality last
        for ns in chart._blocks(resolution):
            z = ns.points
            for i, vals in enumerate(d.rho_values(z.T)):
                if i in members and np.any(np.abs(vals) > _ONLOCUS_TOL):
                    found[i] = f"{piece} chart leaves {d.label(i)!r} (|rho| > {_ONLOCUS_TOL})"
                elif i not in members and not np.all(vals < 0):
                    found[i] = f"{piece} chart reaches the wrong side of {d.label(i)!r}"
            if len(members) == 2:
                grads = np.stack([_grad(d.rho(m), z) for m in members], axis=-2)
                if np.any(_transversality(grads) < 1e-8):
                    found[len(d.hypersurfaces)] = f"{piece} member gradients are not transverse"
        failures += [found[k] for k in sorted(found)]

    for p in d.interior_points:
        for label, rho in d.hypersurfaces:
            if not rho(p[0], p[1]) < 0:
                failures.append(
                    f"interior point {p} is on the wrong side of {label!r}"
                    " (orientation: rho must be negative inside)"
                )

    return {"passed": not failures, "failures": failures}
