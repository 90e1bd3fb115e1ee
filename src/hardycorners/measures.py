"""Boundary measures and the numerical reproducing formula.

Two measure pieces live on a piecewise-smooth boundary:

* on each smooth face, the defining-function-independent boundary density
  built from the bordered complex Hessian (:func:`fefferman_density`) — the
  natural surface measure of CR geometry, here normalized so that the unit
  sphere with an orthonormal tangent frame gives 2**(1/3);
* on each edge, the cube root of the edge weight produced by
  :mod:`.normalforms`, against the complex arc element of the edge
  (:func:`edge_measure_density`).

:func:`hardy_norm` integrates |f|^2 against both pieces; the combination is
what transforms cleanly under projective maps.  :func:`reproduce` runs the
actual reproducing formula: faces carry the smooth second-order Cauchy
density, edges carry the corner kernel, and for holomorphic f the sum
returns f at the interior point.

Both are sums, over the same boundary pieces, of a node weight times the
section.  Both kernels depend on the interior point tau only through a
pairing: the face density is a tau-free factor over ``(g_hat . (z -
tau))**2`` with ``g_hat = g / |g|``, the corner kernel one over ``(tau .
w1_hat)(tau . w2_hat)`` with the unit member hyperplanes.  And the measure
does not depend on the section at all.  So each piece's share of both is
built once per domain and resolution, on first use, and cached on the
domain for its lifetime, as one read-only :class:`_Piece` in the dict
``PwsDomain._cache``, keyed by ``(kind, index, resolution)``:

* ``"face"`` and ``"edge"``: the tau-free reproducing factor, i.e. the node
  points, the ``normals`` tau is paired with (unit gradients, or the two
  unit member hyperplanes), and one weight per node that folds the
  quadrature weight, the orientation sign and the kernel factor.  80 bytes
  per face node (64 at a node where the density vanishes, which keeps no
  weight), 144 per edge node;
* ``"face_measure"`` and ``"edge_measure"``: the node points and one
  combined weight per node (quadrature weight times measure density), and
  no ``normals``; 40 bytes per node.  The key holds the resolved edge
  resolution, so the default and the same value given explicitly share one
  entry.

A later :func:`reproduce` call at any tau then costs one pairing, one
section call and one contraction (:meth:`_Piece.contract`) per piece, and a
later :func:`hardy_norm` one section call and one contraction per piece.
Every check that does not depend on tau or the section (chart projection,
vanishing gradients, the on-locus test of the strong tangents, degenerate
orientation frames, non-positive edge weights) runs when an entry is built,
and a failed build caches nothing; the pole checks, which depend on tau,
and the section's shape check run on every call over every node.  Domains
and charts are treated as immutable once built, and
:func:`~hardycorners.domain.transform_domain` builds a new domain with a
cache of its own.

A piece's factor entry and its measure entry each project the chart, on
purpose.  Building both at once would make :func:`reproduce` fail wherever
the edge weight does: on ``bidisk``, :func:`hardy_norm` and every node of
the ``eta`` CLI raise "canonical slice requires negative transverse
curvatures", while :func:`reproduce` is exact to rounding.  And caching one
shared node set would keep its tangents (96 bytes per face node) alive for
callers that use only one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import strong_tangents
from .kernels import (
    _corner_factor,
    _corner_pairing,
    _leray_factor,
    _leray_pairing,
    _real_frame,
    orientation_sign_edge,
    orientation_sign_face,
)

# Unused here since reproduce splits them into factor and pairing, but
# bench/tracer.py wraps both by name in this module's namespace.
from .kernels import corner_kernel, smooth_leray_density  # noqa: F401
from .normalforms import eta
from .projective import det2, det3, det4, homogenize

__all__ = [
    "BoundaryMeasure",
    "fefferman_density",
    "edge_measure_density",
    "build_measure",
    "hardy_norm",
    "reproduce",
]


def fefferman_density(rho, zhat, tangents):
    """Boundary measure density of a smooth face on a real tangent frame.

    Computes ``2**(4/3) * |det B|**(1/3) * |det[nu, V1, V2, V3]| / |grad|``
    where B is the bordered complex Hessian of the defining function and nu
    the unit outward real gradient.  Exactly independent of the choice of
    defining function on the locus (rho -> u rho rescales det B by u^3 and
    the gradient by u).  Levi-degenerate points give density 0; a vanishing
    gradient raises.  Array-capable: ``(N, 2)`` points with ``(N, 3, 2)``
    tangents give ``(N,)`` densities.
    """
    zhat = np.asarray(zhat, dtype=complex)
    z1, z2 = zhat[..., 0], zhat[..., 1]
    g = rho.grad(z1, z2)
    grad_r = rho.grad_real(z1, z2)
    gn = np.linalg.norm(grad_r, axis=-1)
    if np.any(gn < 1e-14):
        raise ValueError("defining function has vanishing gradient at the point")
    h = rho.hessian_complex(z1, z2)
    b = np.zeros(zhat.shape[:-1] + (3, 3), dtype=complex)
    b[..., 0, 1] = np.conj(g[..., 0])
    b[..., 0, 2] = np.conj(g[..., 1])
    b[..., 1, 0] = g[..., 0]
    b[..., 2, 0] = g[..., 1]
    # Row index holomorphic, column index anti-holomorphic, matching the
    # border pairing; this is what makes det B transform with |det dPhi|^2
    # under holomorphic changes of variables.
    b[..., 1:, 1:] = np.swapaxes(h, -1, -2)
    detb = det3(b).real
    frame_det = det4(_real_frame([grad_r / gn[..., None]], tangents))
    return 2.0 ** (4.0 / 3.0) * np.abs(detb) ** (1.0 / 3.0) * np.abs(frame_det) / gn


def edge_measure_density(eta_weight, tangents):
    """Edge measure density: cube root of the edge weight times |dz(v1, v2)|.

    ``tangents`` are two affine edge-tangent vectors; the complex arc element
    is the alternating product of their coordinates.  The weight must be
    positive for the measure to exist.  Array-capable: ``(N,)`` weights with
    ``(N, 2, 2)`` tangents give ``(N,)`` densities.
    """
    eta_weight = np.asarray(eta_weight, dtype=float)
    if np.any(eta_weight <= 0):
        raise ValueError("edge weight must be positive to define a measure")
    dz12 = det2(np.asarray(tangents, dtype=complex))
    return eta_weight ** (1.0 / 3.0) * np.abs(dz12)


def _section_on(f, points):
    """A section's values ``(N,)`` at ``(N, 2)`` points, from one call on their coordinate pair."""
    n = len(points)
    values = np.asarray(f((points[:, 0], points[:, 1])))
    if values.shape not in ((), (n,)):
        raise ValueError(
            "a section is called on the coordinate pair (z1, z2) of N points, two "
            f"arrays of shape ({n},), and must return shape ({n},) or a scalar; "
            f"got shape {values.shape}"
        )
    return np.broadcast_to(values, (n,))


@dataclass(frozen=True)
class _Piece:
    """One boundary piece's cached share of :func:`reproduce` or :func:`hardy_norm`.

    ``points`` ``(N, 2)`` are the piece's nodes and ``weights`` the node
    weights; they cover the first ``len(weights)`` nodes, and the rest (the
    Levi-flat nodes of a face factor, where the density vanishes) serve only
    the pole check.  ``normals`` are what tau is paired with in a factor:
    unit gradients ``(N, 2)`` on a face, the two unit member hyperplanes
    ``(N, 2, 3)`` on an edge; a measure piece has none.  The arrays are
    read-only.
    """

    points: np.ndarray
    weights: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.points, self.weights, self.normals):
            if a is not None:
                a.flags.writeable = False

    def __len__(self):
        return len(self.weights)

    def contract(self, f, divisor=1.0):
        """``sum(weights * f(points) / divisor)`` over the weighted nodes.

        ``f`` is a section, called once on the weighted nodes; ``divisor`` is
        a scalar or one value per weighted node.
        """
        return np.sum(self.weights * _section_on(f, self.points[: len(self)]) / divisor)


@dataclass
class BoundaryMeasure:
    """Discretized boundary measure: one node set per piece.

    Each entry of ``face_nodes`` and ``edge_nodes`` is a piece's cached
    :class:`_Piece`: its nodes as ``points`` ``(N, 2)`` and their combined
    weights (quadrature weight times measure density) as ``weights``
    ``(N,)``, both read-only.
    """

    face_nodes: list
    edge_nodes: list

    def integrate(self, func):
        """Integrate a scalar function; returns (total, per-face, per-edge).

        ``func`` follows the section convention: it is called once per piece
        on the coordinate pair ``(z1, z2)`` of the piece's nodes, two ``(N,)``
        arrays, and returns ``(N,)`` values or a scalar.

        Raises
        ------
        ValueError
            If ``func`` returns any other shape.
        """
        faces = [float(np.real(p.contract(func))) for p in self.face_nodes]
        edges = [float(np.real(p.contract(func))) for p in self.edge_nodes]
        return sum(faces) + sum(edges), faces, edges


def _face_measure(d, index, resolution):
    fc = d.faces[index]
    ns = fc.chart.nodes(resolution)
    dens = fefferman_density(d.rho(fc.hypersurface), ns.points, ns.tangents)
    return _Piece(ns.points, ns.weights * dens)


def _edge_measure(d, index, resolution):
    ns = d.edges[index].chart.nodes(resolution)
    dens = edge_measure_density(eta(d, ns.points).eta_weight, ns.tangents)
    return _Piece(ns.points, ns.weights * dens)


def build_measure(d, resolution=16, edge_resolution=None):
    """The boundary measure of a domain at a given resolution.

    Faces are sampled on their chart node sets with the
    :func:`fefferman_density` weight; edges with the cube-rooted edge weight
    from :func:`hardycorners.normalforms.eta` (computed exactly from the
    defining polynomials, in one call per edge) against the arc element.
    ``edge_resolution`` defaults to ``max(6, resolution // 2)``.  Each piece
    is built on first use and cached on ``d`` (see the module docstring), so
    a later call at the same resolutions returns the same arrays.

    Raises
    ------
    ProjectionError
        If a chart's Newton projection does not converge.
    ValueError
        If a resolution is not an integer of at least 4
        (:meth:`~hardycorners.domain.Chart.grid`), a face's defining function
        has a vanishing gradient at a node, or an edge weight is not positive.
    """
    if edge_resolution is None:
        edge_resolution = max(6, resolution // 2)
    return BoundaryMeasure(
        face_nodes=[_cached(d, "face_measure", i, resolution) for i in range(len(d.faces))],
        edge_nodes=[_cached(d, "edge_measure", i, edge_resolution) for i in range(len(d.edges))],
    )


def hardy_norm(d, f, resolution=16, edge_resolution=None):
    """Squared boundary norm of a section against the full boundary measure.

    ``f`` is a section in the library's convention: it is called once per
    boundary piece on the coordinate pair ``(z1, z2)`` of the piece's nodes,
    two ``(N,)`` arrays, works elementwise and returns ``(N,)`` values (a
    scalar result stands for every node).  Returns a dict with the total and
    the per-face / per-edge contributions.  The measure comes from
    :func:`build_measure`, which caches it on ``d``; so only the first call
    at a resolution discretizes, and every call is one section call and one
    contraction per piece.  The only discretization is the quadrature
    resolution: the edge weights are exact up to rounding.

    Raises
    ------
    ValueError
        If ``f`` returns values of any other shape, or as
        :func:`build_measure` does.
    ProjectionError
        As :func:`build_measure` does.
    """
    measure = build_measure(d, resolution=resolution, edge_resolution=edge_resolution)
    total, faces, edges = measure.integrate(lambda z: np.abs(f(z)) ** 2)
    return {"total": total, "faces": faces, "edges": edges}


def _face_factor(d, index, resolution):
    fc = d.faces[index]
    rho = d.rho(fc.hypersurface)
    ns = fc.chart.nodes(resolution)
    unit_grad, dens = _leray_factor(rho, ns.points, ns.tangents)
    # Nodes where the density vanishes (Levi-flat faces) contribute nothing
    # and their frames need no orientation: they go last, for the pole check.
    # Reorder only when some vanish, so that no node arrays are copied otherwise.
    live = dens != 0
    points, rows = ns.points, slice(None)
    if not live.all():
        order = np.argsort(~live, kind="stable")
        points, unit_grad, rows = points[order], unit_grad[order], order[: np.count_nonzero(live)]
    sgn = orientation_sign_face(rho, ns.points[rows], ns.tangents[rows])
    return _Piece(points, ns.weights[rows] * sgn * dens[rows], unit_grad)


def _edge_factor(d, index, resolution):
    e = d.edges[index]
    ns = e.chart.nodes(resolution)
    planes, k = _corner_factor(strong_tangents(d, e, ns.points), ns.tangents)
    rhos = (d.rho(e.members[0]), d.rho(e.members[1]))
    sgn = orientation_sign_edge(rhos, ns.points, ns.tangents)
    return _Piece(ns.points, ns.weights * sgn * k, planes)


_BUILDERS = {
    "face": _face_factor,
    "edge": _edge_factor,
    "face_measure": _face_measure,
    "edge_measure": _edge_measure,
}


def _cached(d, kind, index, resolution):
    """A piece's cached entry of ``kind`` (a :data:`_BUILDERS` key), built on first use.

    The one lookup path of the per-domain cache; a failed build caches nothing.
    """
    key = (kind, index, resolution)
    if key not in d._cache:
        d._cache[key] = _BUILDERS[kind](d, index, resolution)
    return d._cache[key]


def reproduce(d, f, tau, resolution=24, face_resolution=None, edge_resolution=None):
    """Evaluate the reproducing formula for a holomorphic function.

    Faces carry the smooth second-order Cauchy density, edges the corner
    kernel; orientation signs are computed per node from the outward
    conormals.  Each piece's tau-free factor (its node set, unit gradients
    or hyperplanes, and folded weights) is built on the first call at a
    resolution and cached on ``d`` (see the module docstring); every call
    pairs it with ``tau``, calls ``f`` once and contracts over the node
    axis.  Returns a dict with the recovered value, the directly evaluated
    reference ``f(tau)``, per-piece contributions and the relative error.

    ``f`` is a section in the library's convention: it is called once per
    boundary piece on the coordinate pair ``(z1, z2)`` of the piece's nodes,
    two ``(N,)`` arrays, works elementwise and returns ``(N,)`` values (a
    scalar result stands for every node); ``f(tau)`` is the one-point case.

    Raises
    ------
    ValueError
        If ``f`` returns values of any other shape, or a resolution is not an
        integer of at least 4 (:meth:`~hardycorners.domain.Chart.grid`).
    ZeroDivisionError
        If a tangent hyperplane at some boundary node passes through ``tau``
        (the formula's precondition fails).
    ProjectionError
        If a chart's Newton projection does not converge.
    """
    if face_resolution is None:
        face_resolution = resolution
    if edge_resolution is None:
        edge_resolution = resolution
    tau = np.asarray(tau, dtype=complex)
    tau_hom = homogenize(tau)

    face_vals = []
    for i in range(len(d.faces)):
        p = _cached(d, "face", i, face_resolution)
        pairing = _leray_pairing(p.points, p.normals, tau)
        face_vals.append(complex(p.contract(f, pairing[: len(p)] ** 2)))
    edge_vals = []
    for i in range(len(d.edges)):
        p = _cached(d, "edge", i, edge_resolution)
        edge_vals.append(complex(p.contract(f, _corner_pairing(p.normals, tau_hom))))

    value = sum(face_vals) + sum(edge_vals)
    expected = complex(f(tau))
    rel_err = abs(value - expected) / max(abs(expected), 1e-300)
    return {
        "value": value,
        "expected": expected,
        "per_piece": {"faces": face_vals, "edges": edge_vals},
        "rel_err": float(rel_err),
    }
