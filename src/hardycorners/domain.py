"""Piecewise-smooth domains: boundary charts, edges, tangent cycles, checks.

A domain is assembled from labeled real-polynomial defining functions, a
list of smooth boundary faces (each a 3-real-dimensional piece of one
hypersurface), and a list of edges (here: the 2-real-dimensional manifolds
where exactly two hypersurfaces meet transversely over the complex field).
Faces and edges carry explicit parameter charts from a small built-in
catalog; a Newton projection refines every chart point onto its defining
locus to 1e-12, and chart tangent vectors come from exact implicit
differentiation, so downstream quadrature sees the locus to full precision.
A chart projects its whole quadrature grid in one vectorized Newton solve
and returns the result as a :class:`NodeSet` of arrays; a node that does not
converge, or whose tangents are singular (edge member gradients that are not
transverse, a face's rho flat along its solve direction), raises
:class:`ProjectionError`.

The tangent machinery at an edge point:

* each member hypersurface contributes its complex-tangent hyperplane (the
  *strong* tangents, enumerated in member order);
* the segment of hyperplanes spanned barycentrically between them (the
  *weak* tangents) fills in the dual cycle that gives edges their weight in
  the reproducing formula.

Two sampling checks probe the geometry: :func:`check_local_intersection`
verifies that near an edge the domain looks like the intersection of its
members' half-spaces (this is what fails for the non-pseudoconvex
union-of-half-spaces configuration), and :func:`check_strict_convexity`
reports the avoidance margin of weak-tangent lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .hermpoly import gradient_hyperplane, parse_poly, transform_poly
from .kernels import StrongTangentSet, _frame_dets
from .projective import HomVec, ProjMap, _dot2, det2, homogenize, normalize_map, solve2
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
    "check_local_intersection",
    "check_strict_convexity",
    "transform_domain",
    "validate_domain",
    "canonical_spec",
    "domain_from_spec",
]

_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 80
_ONLOCUS_TOL = 1e-10
_MEMBER_TOL = 1e-8


class ProjectionError(RuntimeError):
    """A chart's projection failed at some nodes.

    ``kind`` names the chart type and ``unconverged`` counts the failed
    nodes.  By default the failure is a Newton solve whose residual never
    fell below the tolerance (a NaN residual counts too); ``reason`` names
    any other failure, such as edge tangents left undefined by member
    gradients that are not transverse.
    """

    def __init__(self, kind, unconverged, total, reason="Newton projection did not converge"):
        self.kind = kind
        self.unconverged = int(unconverged)
        self.total = int(total)
        super().__init__(
            f"{kind} chart {reason} at {self.unconverged} of {self.total} nodes"
        )


@dataclass(frozen=True)
class NodeSet:
    """A chart's quadrature nodes projected onto its locus, as arrays.

    ``params`` is ``(N, dim)``, ``weights`` ``(N,)``, ``points`` the affine
    points ``(N, 2)`` and ``tangents`` the chart tangent vectors
    ``(N, dim, 2)``: row ``n`` holds d(point)/d(param_a) at node ``n`` for
    each parameter ``a``.
    """

    params: np.ndarray
    weights: np.ndarray
    points: np.ndarray
    tangents: np.ndarray

    def __len__(self):
        return len(self.weights)


def _directional(g, direction):
    """Real directional derivative 2 Re(g . v) from the Wirtinger gradient g."""
    return 2.0 * np.real(_dot2(g, direction))


def _grad(rho, z):
    return rho.grad(z[..., 0], z[..., 1])


def _newton(kind, x, step):
    """Newton-refine the rows of ``x`` until each row's residual is below tolerance.

    ``step(rows, x_rows)`` returns the residuals ``(n, m)`` and the Newton
    corrections (shaped like ``x_rows``) at the given rows.  A converged row
    is never updated again, so every row follows exactly the iteration it
    would follow on its own.
    """
    x = np.array(x, dtype=float)
    rows = np.arange(len(x))
    for _ in range(_NEWTON_MAXITER):
        vals, delta = step(rows, x[rows])
        todo = ~(np.max(np.abs(vals), axis=-1) < _NEWTON_TOL)
        rows = rows[todo]
        if not rows.size:
            return x
        x[rows] -= delta[todo]
    raise ProjectionError(kind, rows.size, len(x))


# Why a chart fails whose tangents and conormals do not span R^4 (see kernels._frame_dets).
_RANK_DEFICIENT = "the frame of conormals and tangents is rank-deficient"


def _check_tangents(kind, regular, reason):
    """Raise :class:`ProjectionError` unless the tangents are regular at every node."""
    if not np.all(regular):
        reason = f"tangents are singular ({reason})"
        raise ProjectionError(kind, np.sum(~regular), len(regular), reason)


def _real(kind, name, value):
    """A chart's numeric field as a float; ``ValueError`` naming the field if it is not one."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} chart {name} must be a real number, not {value!r}") from None


class Chart:
    """Base class: a parameterization of a face (3 params) or edge (2 params).

    Subclasses set ``dim`` and ``radial`` and define the vectorized
    projection of parameter rows onto the locus (:meth:`project`); every
    other method is built on :meth:`grid` and :meth:`project`.  ``radial`` is
    the length of a face chart's first (radial or polar) parameter interval,
    and ``None`` on a chart whose axes are all periodic.
    """

    kind = "abstract"
    dim = 0
    radial = None

    def grid(self, resolution):
        """Deterministic quadrature grid: params ``(N, dim)`` and weights ``(N,)``.

        Each periodic axis carries ``resolution`` trapezoid nodes; a face
        chart's first axis carries ``max(4, resolution // 2)`` Gauss-Legendre
        nodes on ``[0, radial]``.  A resolution that is not an integer of at
        least 4 raises ``ValueError``.
        """
        if not isinstance(resolution, (int, np.integer)) or resolution < 4:
            raise ValueError(f"resolution must be an integer >= 4, got {resolution!r}")
        rules = [trapezoid_rule(resolution)] * self.dim
        if self.radial is not None:
            rules[0] = gauss_rule(0.0, self.radial, max(4, resolution // 2))
        return tensor_grid(rules)

    def project(self, params):
        """Points ``(N, 2)`` and tangents ``(N, dim, 2)`` at parameter rows ``(N, dim)``."""
        raise NotImplementedError

    def nodes(self, resolution):
        """The :class:`NodeSet` of this chart at a resolution (one Newton solve)."""
        params, weights = self.grid(resolution)
        points, tangents = self.project(params)
        return NodeSet(params, weights, points, tangents)

    def _at(self, *params):
        points, tangents = self.project(np.array([params], dtype=float))
        return points[0], list(tangents[0])

    def _node_list(self, resolution):
        params, weights = self.grid(resolution)
        return [(tuple(p), w) for p, w in zip(params, weights)]


class TorusChart(Chart):
    """Edge chart: z_l = r_l(theta, phi) * exp(i * angle_l) on {rho1 = rho2 = 0}.

    The two radii are Newton-refined from the supplied starting values at
    every parameter pair, so chart points satisfy both defining equations to
    1e-12 and the tangent vectors follow by implicit differentiation.
    """

    kind = "torus2"
    dim = 2

    def __init__(self, rhos, r0=(1.0, 1.0)):
        if len(rhos) != 2:
            raise ValueError("torus2 chart needs exactly two defining functions")
        if np.shape(r0) != (2,):
            raise ValueError(f"torus2 chart r0 must be two radii, not {r0!r}")
        self.rhos = tuple(rhos)
        self.r0 = tuple(_real(self.kind, "r0", x) for x in r0)

    @staticmethod
    def _jacobian(grads, e):
        """d rho_l / d r_m at points z = r * e, with its determinant and regular rows.

        Returns the ``(N, 2, 2)`` Jacobians, their ``det2`` and the mask of
        nodes whose Jacobian's :func:`_transversality` clears 1e-14.
        """
        jac = np.stack([2.0 * np.real(g * e) for g in grads], axis=-2)
        return jac, det2(jac), _transversality(jac) > 1e-14

    def _grads(self, z):
        return [_grad(rho, z) for rho in self.rhos]

    def project(self, params):
        e = np.exp(1j * params)

        def step(rows, r):
            er = e[rows]
            z = r * er
            vals = np.stack([rho(z[:, 0], z[:, 1]) for rho in self.rhos], axis=-1)
            jac, det, regular = self._jacobian(self._grads(z), er)
            # a singular row takes no step, so it stays unconverged
            delta = solve2(jac, vals[..., None], np.where(regular, det, 1.0))[..., 0]
            return vals, np.where(regular[:, None], delta, 0.0)

        r = _newton(self.kind, np.broadcast_to(self.r0, e.shape), step)
        z = r * e
        grads = self._grads(z)
        jac, det, regular = self._jacobian(grads, e)
        _check_tangents(self.kind, regular, "member gradients are not transverse")
        tangents = np.zeros((len(z), 2, 2), dtype=complex)
        for axis in (0, 1):
            dz = tangents[:, axis]
            dz[:, axis] = 1j * r[:, axis] * e[:, axis]
            rhs = np.stack([-2.0 * np.real(_dot2(g, dz)) for g in grads], axis=-1)
            dz += solve2(jac, rhs[..., None], det)[..., 0] * e
        _check_tangents(self.kind, _frame_dets(grads, tangents)[1], _RANK_DEFICIENT)
        return z, tangents

    def point(self, theta, phi):
        return self._at(theta, phi)[0]

    def tangents(self, theta, phi):
        return self._at(theta, phi)[1]

    def quad_nodes(self, resolution):
        """Deterministic node list [(params, weight), ...] at a resolution."""
        return self._node_list(resolution)


def _regular(dn):
    """Rows whose derivative along the solve direction is nonzero and finite."""
    return np.isfinite(dn) & (dn != 0)


def _radial_newton(kind, rho, base, direction, s0):
    """Solve rho(base + s * direction) = 0 for s per row, from the start value s0."""

    def step(rows, s):
        u = direction[rows]
        z = base[rows] + s[:, None] * u
        val = rho(z[:, 0], z[:, 1])
        dn = _directional(_grad(rho, z), u)
        regular = _regular(dn)
        # a singular row takes no step, so it stays unconverged
        return val[:, None], np.where(regular, val / np.where(regular, dn, 1.0), 0.0)

    return _newton(kind, np.full(len(direction), s0), step)


def _implicit_tangents(kind, rho, z, explicit, direction):
    """Complete explicit tangents (N, dim, 2) in place to tangents of {rho = 0}.

    ``explicit[:, a]`` is d(point)/d(param_a) with the solved modulus held
    fixed; the modulus moves along ``direction`` by implicit differentiation.
    """
    g = _grad(rho, z)
    dn = _directional(g, direction)
    _check_tangents(kind, _regular(dn), "rho has zero derivative along the solve direction")
    for a in range(explicit.shape[1]):
        dz = explicit[:, a]
        dz += (-_directional(g, dz) / dn)[:, None] * direction
    _check_tangents(kind, _frame_dets([g], explicit)[1], _RANK_DEFICIENT)
    return explicit


class SpherePolarChart(Chart):
    """Face chart for a sphere-like hypersurface, radially Newton-projected.

    Parameters (theta, alpha, beta) map to the direction
    (cos(theta) e^{i alpha}, sin(theta) e^{i beta}) scaled to the locus.
    """

    kind = "sphere_polar"
    dim = 3
    radial = np.pi / 2.0

    def __init__(self, rho, r0=1.0):
        self.rho = rho
        self.r0 = _real(self.kind, "r0", r0)

    def project(self, params):
        theta, alpha, beta = params.T
        ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
        c, sn = np.cos(theta), np.sin(theta)
        u = np.stack([c * ea, sn * eb], axis=-1)
        s = _radial_newton(self.kind, self.rho, np.zeros_like(u), u, self.r0)
        z = s[:, None] * u
        tangents = np.zeros((len(z), 3, 2), dtype=complex)
        tangents[:, 0, 0] = s * (-sn * ea)
        tangents[:, 0, 1] = s * (c * eb)
        tangents[:, 1, 0] = s * (1j * c * ea)
        tangents[:, 2, 1] = s * (1j * sn * eb)
        return z, _implicit_tangents(self.kind, self.rho, z, tangents, u)

    def point(self, theta, alpha, beta):
        return self._at(theta, alpha, beta)[0]

    def tangents(self, theta, alpha, beta):
        return self._at(theta, alpha, beta)[1]

    def quad_nodes(self, resolution):
        """Deterministic node list [(params, weight), ...] at a resolution."""
        return self._node_list(resolution)


class GraphPatchChart(Chart):
    """Face chart: one coordinate's modulus solved over a polar disk in the other.

    With ``solve = "z1"``: z2 = disk_radius * r * e^{i phi} ranges over a
    disk, and z1 = m(r, phi, psi) * e^{i psi} with the modulus m Newton-solved
    on the face's defining locus.
    """

    kind = "graph_patch"
    dim = 3
    radial = 1.0

    def __init__(self, rho, solve="z1", disk_radius=1.0, r0=1.0):
        if solve not in ("z1", "z2"):
            raise ValueError("solve must be 'z1' or 'z2'")
        self.rho = rho
        self.solve = solve
        self.disk_radius = _real(self.kind, "disk_radius", disk_radius)
        self.r0 = _real(self.kind, "r0", r0)

    def project(self, params):
        r, phi, psi = params.T
        si = 0 if self.solve == "z1" else 1
        ephi, epsi = np.exp(1j * phi), np.exp(1j * psi)
        base = np.zeros((len(r), 2), dtype=complex)
        base[:, 1 - si] = self.disk_radius * r * ephi
        eradial = np.zeros_like(base)
        eradial[:, si] = epsi
        m = _radial_newton(self.kind, self.rho, base, eradial, self.r0)
        z = base
        z[:, si] = m * epsi
        tangents = np.zeros((len(r), 3, 2), dtype=complex)
        tangents[:, 0, 1 - si] = self.disk_radius * ephi
        tangents[:, 1, 1 - si] = 1j * self.disk_radius * r * ephi
        tangents[:, 2, si] = 1j * m * epsi
        return z, _implicit_tangents(self.kind, self.rho, z, tangents, eradial)

    def point(self, r, phi, psi):
        return self._at(r, phi, psi)[0]

    def tangents(self, r, phi, psi):
        return self._at(r, phi, psi)[1]

    def quad_nodes(self, resolution):
        """Deterministic node list [(params, weight), ...] at a resolution."""
        return self._node_list(resolution)


class TransformedChart(Chart):
    """A chart composed with a projective map, with exact pushed tangents."""

    kind = "transformed"

    def __init__(self, base, tmap):
        self.base = base
        self.tmap = tmap
        self.dim = base.dim
        self.radial = base.radial

    def project(self, params):
        points, tangents = self.base.project(params)
        image, jac = self.tmap._affine_and_jacobian(points)
        jac = jac[:, None]
        pushed = jac[..., 0] * tangents[..., None, 0] + jac[..., 1] * tangents[..., None, 1]
        return np.stack(image, axis=-1), pushed

    def point(self, *params):
        return self._at(*params)[0]

    def tangents(self, *params):
        return self._at(*params)[1]

    def quad_nodes(self, resolution):
        return self.base.quad_nodes(resolution)


@dataclass
class Face:
    """A smooth boundary piece: one hypersurface index plus its chart."""

    hypersurface: int
    chart: Chart


@dataclass
class Edge:
    """Where exactly the member hypersurfaces meet, with its chart (k = 2 here)."""

    members: tuple
    chart: Chart


@dataclass
class PwsDomain:
    """A piecewise-smooth domain with explicit boundary decomposition.

    ``membership`` is ``"intersection"`` (inside iff every defining function
    is negative — the pseudoconvex configuration) or ``"union"`` (inside iff
    some defining function is negative — used for the non-pseudoconvex
    counterexample fixture).

    A domain and its charts are treated as immutable once built:
    :mod:`hardycorners.measures` caches the node sets of ``reproduce`` and
    ``hardy_norm`` in ``_cache`` for the domain's lifetime (its module
    docstring describes the layout).
    :func:`transform_domain` builds a new domain, with a cache of its own.
    """

    hypersurfaces: list
    faces: list
    edges: list
    interior_points: list = field(default_factory=list)
    membership: str = "intersection"
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.membership not in ("intersection", "union"):
            raise ValueError("membership must be 'intersection' or 'union'")
        labels = [lab for lab, _ in self.hypersurfaces]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"duplicate hypersurface label {label!r}")

    def rho(self, i):
        return self.hypersurfaces[i][1]

    def label(self, i):
        return self.hypersurfaces[i][0]

    def rho_values(self, zhat):
        """Every defining function at a point (or at arrays of points, on axis 1 on)."""
        return np.array([rho(zhat[0], zhat[1]) for _, rho in self.hypersurfaces])

    def contains(self, zhat):
        return bool(_membership_from_values(self, self.rho_values(zhat)))

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


def make_chart(spec, rhos_by_label, face_label=None, member_labels=None):
    """Build a catalog chart from its spec dict.

    ``rhos_by_label`` maps hypersurface labels to polynomials; face charts
    bind the face's own polynomial (``face_label``), edge charts bind both
    members' (``member_labels``).  A spec that is not a dict, or whose type
    is not a chart of that kind of piece, raises ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"chart must be an object with a 'type' field, not {spec!r}")
    ctype = spec.get("type")
    if ctype == "torus2" and member_labels is not None:
        rhos = [rhos_by_label[lab] for lab in member_labels]
        return TorusChart(rhos, r0=spec.get("r0", (1.0, 1.0)))
    if ctype == "sphere_polar" and face_label is not None:
        return SpherePolarChart(rhos_by_label[face_label], r0=spec.get("r0", 1.0))
    if ctype == "graph_patch" and face_label is not None:
        return GraphPatchChart(
            rhos_by_label[face_label],
            solve=spec.get("solve", "z1"),
            disk_radius=spec.get("disk_radius", 1.0),
            r0=spec.get("r0", 1.0),
        )
    piece, catalog = ("edge", "torus2") if face_label is None else ("face", "sphere_polar, graph_patch")
    raise ValueError(f"{piece} chart type {ctype!r} is not one of {catalog}")


def domain_from_spec(spec):
    """Assemble a :class:`PwsDomain` from a domain-spec dictionary."""
    hyper = [(h["label"], parse_poly(h["rho"])) for h in spec["hypersurfaces"]]
    # Built first, so that its own checks run before any piece's label is resolved.
    d = PwsDomain(hyper, [], [], membership=spec.get("membership", "intersection"))
    index = {label: i for i, (label, _) in enumerate(hyper)}
    rhos_by_label = dict(hyper)

    def declared(label, piece):
        if label not in index:
            raise ValueError(f"{piece} names hypersurface {label!r}, which is not declared")
        return index[label]

    for fi, f in enumerate(spec.get("faces", [])):
        lab = f["hypersurface"]
        i = declared(lab, f"face {fi}")
        d.faces.append(Face(i, make_chart(f["chart"], rhos_by_label, face_label=lab)))

    for ei, e in enumerate(spec.get("edges", [])):
        labs = list(e["members"])
        members = tuple(declared(lab, f"edge {ei}") for lab in labs)
        d.edges.append(Edge(members, make_chart(e["chart"], rhos_by_label, member_labels=labs)))

    for p in spec.get("interior_points", []):
        if np.shape(p) != (4,):
            raise ValueError(f"interior point {p!r} must be four reals re1, im1, re2, im2")
        d.interior_points.append(np.array([complex(p[0], p[1]), complex(p[2], p[3])]))
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


def _transversality(rows):
    """``|det| / (|r1| |r2|)`` of 2x2 matrices ``(..., 2, 2)``: 0 for dependent or zero rows."""
    norms = np.linalg.norm(rows, axis=-1)
    return np.abs(det2(rows)) / np.maximum(norms[..., 0] * norms[..., 1], 1e-300)


def weak_tangent(d, e, zhat, t):
    """Barycentric combination of the members' tangent hyperplanes at an edge point.

    ``t`` lives on the standard simplex (non-negative, sums to 1); the
    vertices reproduce the strong tangents, and every value is incident to
    the basepoint up to rounding.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (len(e.members),):
        raise ValueError(f"t must have {len(e.members)} barycentric coordinates")
    if np.any(t < -1e-12) or abs(float(np.sum(t)) - 1.0) > 1e-10:
        raise ValueError("t must be non-negative barycentric coordinates summing to 1")
    planes = _member_planes(d, e.members, np.asarray(zhat, dtype=complex)[None])[0]
    return HomVec(tuple(t @ planes), role="hyperplane")


def _ball_samples(rng, center, radius, n):
    pts = rng.standard_normal((n, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    radii = radius * rng.random(n) ** 0.25
    pts = pts * radii[:, None]
    return center[None, :] + pts


def check_local_intersection(d, zhat, radius, samples, seed=0):
    """Does the domain agree with the intersection of its members' half-spaces nearby?

    Samples the real 4-ball around the edge point and compares the domain's
    membership rule against ``all(rho_member < 0)``.  Raises if any
    non-member hypersurface changes sign inside the ball (radius too large
    for a purely local statement).
    """
    members = d.active_members(zhat)
    if not members:
        raise ValueError("point is not on the boundary of any hypersurface")
    rng = np.random.default_rng(seed)
    center = np.array(
        [zhat[0].real, zhat[0].imag, zhat[1].real, zhat[1].imag], dtype=float
    )
    pts = _ball_samples(rng, center, radius, int(samples))
    vals = d.rho_values((pts[:, 0] + 1j * pts[:, 1], pts[:, 2] + 1j * pts[:, 3]))
    nonmembers = [i for i in range(len(d.hypersurfaces)) if i not in members]
    reached = vals[nonmembers] >= 0
    if np.any(reached):
        first = np.argmax(np.any(reached, axis=0))
        i = nonmembers[int(np.argmax(reached[:, first]))]
        raise ValueError(
            f"radius {radius} too large: non-member hypersurface "
            f"{d.label(i)!r} reaches the sample ball"
        )
    local = np.all(vals[members] < 0, axis=0)
    disagreements = int(np.sum(local != _membership_from_values(d, vals)))
    return {
        "passed": disagreements == 0,
        "samples": int(samples),
        "disagreements": disagreements,
        "members": [d.label(m) for m in members],
        "radius": float(radius),
    }


def _membership_from_values(d, vals):
    """Membership from the defining-function values on axis 0."""
    if d.membership == "intersection":
        return np.all(vals < 0, axis=0)
    return np.any(vals < 0, axis=0)


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
    """
    zhat = np.asarray(zhat, dtype=complex)
    members = d.active_members(zhat)
    if not members:
        raise ValueError("point is not on the boundary")
    if len(members) >= 2:
        members = list(d.edge_at(zhat).members)
    radius = 0.5 if local_radius is None else float(local_radius)

    if len(members) == 1:
        t = np.ones((1, 1))
    else:
        s = np.arange(t_grid) / (t_grid - 1.0)
        t = np.stack([s, 1.0 - s], axis=-1)
    points = zhat.reshape(-1, 2)
    w = t @ _member_planes(d, members, points)
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
        membership=d.membership,
    )


def _sample_points(chart, resolution):
    """Chart points at every ``resolution``-th node of its grid."""
    params, _ = chart.grid(resolution)
    return chart.project(params[::resolution])[0]


def validate_domain(d, resolution=12):
    """Structural validation: charts on-locus, sign conditions, transversality.

    Returns a report dict with ``passed`` and a list of human-readable
    ``failures`` naming the offending hypersurface or chart.

    Raises
    ------
    ProjectionError
        If a chart's projection fails: its Newton solve does not converge, or
        its tangents are singular (not transverse, or rank-deficient with the conormals).
    """
    failures = []

    for fi, f in enumerate(d.faces):
        vals = d.rho_values(_sample_points(f.chart, resolution).T)
        if np.any(np.abs(vals[f.hypersurface]) > _ONLOCUS_TOL):
            failures.append(
                f"face {fi} chart point leaves hypersurface "
                f"{d.label(f.hypersurface)!r} (|rho| > {_ONLOCUS_TOL})"
            )
        for i in range(len(d.hypersurfaces)):
            if i != f.hypersurface and np.any(vals[i] >= 0):
                failures.append(f"face {fi} chart reaches the wrong side of {d.label(i)!r}")

    for ei, e in enumerate(d.edges):
        z = _sample_points(e.chart, resolution)
        vals = d.rho_values(z.T)
        for m in e.members:
            if np.any(np.abs(vals[m]) > _ONLOCUS_TOL):
                failures.append(f"edge {ei} chart point leaves member {d.label(m)!r}")
        grads = np.stack([_grad(d.rho(m), z) for m in e.members], axis=-2)
        if np.any(_transversality(grads) < 1e-8):
            failures.append(
                f"edge {ei}: member gradients are complex-linearly dependent "
                f"(transversality fails)"
            )
        for i in range(len(d.hypersurfaces)):
            if i not in e.members and np.any(vals[i] >= 0):
                failures.append(f"edge {ei} chart reaches the wrong side of {d.label(i)!r}")

    for p in d.interior_points:
        if d.membership == "intersection":
            for i, (_, rho) in enumerate(d.hypersurfaces):
                if rho(p[0], p[1]) >= 0:
                    failures.append(
                        f"interior point {p} is on the wrong side of {d.label(i)!r}"
                        " (orientation: rho must be negative inside)"
                    )
        elif not d.contains(p):
            failures.append(f"declared interior point {p} is not inside the domain")

    return {"passed": not failures, "failures": failures}
