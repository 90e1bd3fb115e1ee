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

Both kernels depend on the interior point tau only through a pairing: the
face density is a tau-free factor over ``(g_hat . (z - tau))**2`` with
``g_hat = g / |g|``, the corner kernel one over ``(tau . w1_hat)(tau .
w2_hat)`` with the unit member hyperplanes.  So :func:`reproduce` builds,
for each piece at the resolution asked for, the tau-free part once: the
node set, the unit gradients or hyperplanes, and one weight per node that
folds the quadrature weight, the orientation sign and the kernel factor.
It caches that on the domain, keyed by ``("face" | "edge", index,
resolution)``, for the domain's lifetime; a later call at any tau costs one
pairing, one section call and one contraction per piece.  Every check that
does not depend on tau (chart projection, vanishing gradients, the on-locus
test of the strong tangents, degenerate orientation frames) runs when the
factor is built, and a failed build caches nothing; the pole checks, which
do depend on tau, run on every call over every node.  A face costs 80 bytes
per node (points, unit gradients, folded weight; 64 at a node where the
density vanishes, which keeps no weight), an edge 144 (points, two unit
hyperplanes, folded weight).  The cached arrays are read-only, and domains
and charts are treated as immutable once built; ``hardy_norm`` and
``build_measure`` cache nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass
class BoundaryMeasure:
    """Discretized boundary measure: one node set per piece.

    Each entry of ``face_nodes`` and ``edge_nodes`` is the piece's
    :class:`~hardycorners.domain.NodeSet` with its quadrature weights
    multiplied by the measure density, so ``points`` and ``weights`` are the
    nodes and the combined weights of the piece.
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

        def piece(ns):
            return float(np.real(np.sum(ns.weights * _section_on(func, ns.points))))

        faces = [piece(ns) for ns in self.face_nodes]
        edges = [piece(ns) for ns in self.edge_nodes]
        return sum(faces) + sum(edges), faces, edges


def _face_measure_nodes(rho, chart, resolution):
    ns = chart.nodes(resolution)
    return replace(ns, weights=ns.weights * fefferman_density(rho, ns.points, ns.tangents))


def _edge_measure_nodes(d, chart, resolution):
    ns = chart.nodes(resolution)
    weights = eta(d, ns.points).eta_weight
    return replace(ns, weights=ns.weights * edge_measure_density(weights, ns.tangents))


def build_measure(d, resolution=16, edge_resolution=None):
    """Precompute the boundary measure of a domain at a given resolution.

    Faces are sampled on their chart node sets with the
    :func:`fefferman_density` weight; edges with the cube-rooted edge weight
    from :func:`hardycorners.normalforms.eta` (computed exactly from the
    defining polynomials, in one call per edge) against the arc element.
    """
    if edge_resolution is None:
        edge_resolution = max(6, resolution // 2)
    face_nodes = [
        _face_measure_nodes(d.rho(f.hypersurface), f.chart, resolution) for f in d.faces
    ]
    edge_nodes = [_edge_measure_nodes(d, e.chart, edge_resolution) for e in d.edges]
    return BoundaryMeasure(face_nodes=face_nodes, edge_nodes=edge_nodes)


def hardy_norm(d, f, resolution=16, edge_resolution=None, measure=None):
    """Squared boundary norm of a section against the full boundary measure.

    ``f`` is a section in the library's convention: it is called once per
    boundary piece on the coordinate pair ``(z1, z2)`` of the piece's nodes,
    two ``(N,)`` arrays, works elementwise and returns ``(N,)`` values (a
    scalar result stands for every node).  Returns a dict with the total and
    the per-face / per-edge contributions.  Passing a prebuilt ``measure``
    skips rediscretization.  The only discretization is the quadrature
    resolution: the edge weights are exact up to rounding (see
    :func:`build_measure`).

    Raises
    ------
    ValueError
        If ``f`` returns values of any other shape.
    """
    if measure is None:
        measure = build_measure(d, resolution=resolution, edge_resolution=edge_resolution)
    total, faces, edges = measure.integrate(lambda z: np.abs(f(z)) ** 2)
    return {"total": total, "faces": faces, "edges": edges}


@dataclass(frozen=True)
class _Factor:
    """The tau-free part of one boundary piece's share of the reproducing formula.

    ``points`` ``(N, 2)`` are the piece's nodes and ``normals`` what tau is
    paired with there: unit gradients ``(N, 2)`` on a face, the two unit
    member hyperplanes ``(N, 2, 3)`` on an edge.  ``weight`` folds the
    quadrature weight, the orientation sign and the kernel's tau-free factor;
    on a face it covers the first ``len(weight)`` nodes, those where the
    density does not vanish, and the rest serve only the pole check.  The
    arrays are read-only.
    """

    points: np.ndarray
    normals: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for a in (self.points, self.normals, self.weight):
            a.flags.writeable = False


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
    return _Factor(points, unit_grad, ns.weights[rows] * sgn * dens[rows])


def _edge_factor(d, index, resolution):
    e = d.edges[index]
    ns = e.chart.nodes(resolution)
    planes, k = _corner_factor(strong_tangents(d, e, ns.points), ns.tangents)
    rhos = (d.rho(e.members[0]), d.rho(e.members[1]))
    sgn = orientation_sign_edge(rhos, ns.points, ns.tangents)
    return _Factor(ns.points, planes, ns.weights * sgn * k)


def _factor(d, kind, index, resolution):
    """A piece's cached :class:`_Factor`, built on first use; a failed build caches nothing."""
    key = (kind, index, resolution)
    if key not in d._factors:
        build = _face_factor if kind == "face" else _edge_factor
        d._factors[key] = build(d, index, resolution)
    return d._factors[key]


def _face_value(factor, f, tau):
    """One face's share of the reproducing formula."""
    pairing = _leray_pairing(factor.points, factor.normals, tau)
    n = len(factor.weight)
    return complex(np.sum(factor.weight * _section_on(f, factor.points[:n]) / pairing[:n] ** 2))


def _edge_value(factor, f, tau_hom):
    """One edge's share of the reproducing formula."""
    pairing = _corner_pairing(factor.normals, tau_hom)
    return complex(np.sum(factor.weight * _section_on(f, factor.points) / pairing))


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
        If ``f`` returns values of any other shape.
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

    face_vals = [
        _face_value(_factor(d, "face", i, face_resolution), f, tau)
        for i in range(len(d.faces))
    ]
    edge_vals = [
        _edge_value(_factor(d, "edge", i, edge_resolution), f, tau_hom)
        for i in range(len(d.edges))
    ]

    value = sum(face_vals) + sum(edge_vals)
    expected = complex(f(tau))
    rel_err = abs(value - expected) / max(abs(expected), 1e-300)
    return {
        "value": value,
        "expected": expected,
        "per_piece": {"faces": face_vals, "edges": edge_vals},
        "rel_err": float(rel_err),
    }
