"""Reproducing-kernel densities on the incidence variety and at corners.

The central object is a projectively written Cauchy-type density living on
pairs (point, hyperplane) of the incidence variety: :func:`omega_cfl`
evaluates it on tangent triples in any affine chart and is chart-independent
on the nose once homogeneous representatives are fixed.  Two specializations
feed the reproducing formula on a piecewise-smooth boundary:

* :func:`smooth_leray_density` — the classical second-order density on a
  smooth face, written with a defining function;
* :func:`corner_kernel` — the residual density concentrated on an edge,
  assembled from the two member hypersurfaces' tangent hyperplanes.

Each of the two is written once, as a tau-free factor over a pairing with
tau (``_leray_factor``/``_leray_pairing``, ``_corner_factor``/
``_corner_pairing``); :func:`hardycorners.measures.reproduce` caches the
factors of a boundary piece and pays only the pairing per tau.

:func:`pushforward_corner_check` connects the two pictures by integrating
the incidence density over the segment of hyperplanes between the strong
tangents (the weak-tangent fiber) and comparing with the corner kernel.
:func:`simplex_integral` provides the scalar simplex identity that drives
the corner normalization, with both a closed form and a quadrature route.

The face density takes the Levi form as one Hermitian form, ``ddbar_rho(u,
v) = u^H h v - v^H h u = 2i Im(u^H h v)`` with h the complex Hessian, and a
vanishing gradient fails the one critical-point rule of :mod:`.hermpoly`.

Evaluators return pure alternating-form values; orientation conventions are
supplied separately by :func:`orientation_sign_face` and
:func:`orientation_sign_edge` so that integration drivers stay explicit
about boundary orientation.  Their frames take real conormals from
Wirtinger gradients as ``grad_real`` does, so a caller that holds the
gradients evaluates none again, and their degeneracy rule (``_frame_dets``)
is the one the charts apply when they project.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

import numpy as np

from .hermpoly import _gradient_norm, _real_gradient
from .projective import HomVec, _det4_columns, _dot2, _value, det3
from .quadrature import gauss_rule, simplex_rule

__all__ = [
    "Density",
    "StrongTangentSet",
    "omega_cfl",
    "omega_cfl_affine_form",
    "smooth_leray_density",
    "corner_kernel",
    "cramer_residual",
    "simplex_integral",
    "pushforward_corner_check",
    "orientation_sign_face",
    "orientation_sign_edge",
]

TWO_PI_I = 2j * np.pi

_REL_TOL = 1e-10


@dataclass(frozen=True)
class Density:
    """A kernel value together with its homogeneity bookkeeping.

    ``value`` is the alternating-form value on the tangent vectors it was
    evaluated with.  The bidegrees record how the value rescales when the
    homogeneous representative of each argument is rescaled: weight (p, q)
    means a factor lambda**p * conj(lambda)**q.  ``form_degree`` is the
    number of tangent arguments consumed.
    """

    value: complex
    form_degree: int
    bidegree_z: tuple = (Fraction(0), Fraction(0))
    bidegree_w: tuple = (Fraction(0), Fraction(0))
    bidegree_tau: tuple = (Fraction(0), Fraction(0))
    basepoint: object = None


@dataclass(frozen=True)
class StrongTangentSet:
    """Tangent hyperplanes of the member hypersurfaces at an edge point.

    ``planes`` is ordered like the edge's member list.  The basepoint keeps
    the homogeneous representative the planes were computed against.  At one
    point the basepoint and planes are :class:`HomVec` values; for ``N``
    edge points at once they are ``(N, 3)`` coordinate arrays.
    """

    basepoint: object
    planes: tuple

    def __len__(self):
        return len(self.planes)

    def __getitem__(self, i):
        return self.planes[i]

    def minor_vector(self):
        """Cross product of the two plane coordinate vectors.

        By the corner Cramer identity this is proportional to the basepoint's
        coordinate vector; component 0 is the minor that enters the corner
        kernel.
        """
        if len(self.planes) != 2:
            raise ValueError("minor vector is defined for exactly two planes")
        return np.cross(_as_hyperplane(self.planes[0]), _as_hyperplane(self.planes[1]))


def _as_point(z):
    if isinstance(z, HomVec):
        if z.role != "point":
            raise ValueError("expected a point, got a hyperplane")
        return z.array
    return np.asarray(z, dtype=complex)


def _as_hyperplane(w):
    if isinstance(w, HomVec):
        if w.role != "hyperplane":
            raise ValueError("expected a hyperplane, got a point")
        return w.array
    return np.asarray(w, dtype=complex)


def _dot3(a, b):
    """Bilinear pairing over the last axis of homogeneous triples (no conjugation)."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _norm(v):
    return np.linalg.norm(v, axis=-1)


def _check_incidence(z, w):
    scale = np.maximum(_norm(z) * _norm(w), 1e-300)
    if np.any(np.abs(_dot3(z, w)) > _REL_TOL * scale):
        raise ValueError("point and hyperplane are not incident")


def _check_tangent(z, w, dz, dw):
    scale = _norm(w) * _norm(dz) + _norm(z) * _norm(dw) + 1e-300
    if np.any(np.abs(_dot3(w, dz) + _dot3(z, dw)) > 1e-10 * scale):
        raise ValueError(
            "tangent vector does not satisfy the linearized incidence relation"
        )


def _pick(v, index):
    """Coordinate ``index[...]`` of each row of ``v`` (shape ``v.shape[:-1]``)."""
    return np.take_along_axis(v, index[..., None], axis=-1)[..., 0]


def _chart_index(v, chart, what):
    """Affinizing coordinate per row: the given one, or the largest in modulus."""
    if chart is None:
        index = np.asarray(np.argmax(np.abs(v), axis=-1))
    else:
        index = np.full(v.shape[:-1], chart)
    if np.any(np.abs(_pick(v, index)) <= 1e-14 * np.max(np.abs(v), axis=-1)):
        raise ValueError(f"{what} chart {chart} is invalid: coordinate vanishes")
    return index


def omega_cfl(z, w, tangents, charts=None):
    """Incidence Cauchy density on three tangent vectors, in an affine chart.

    Parameters
    ----------
    z, w : HomVec or length-3 sequences
        Incident point and hyperplane (homogeneous representatives).
    tangents : sequence of three (dz, dw) pairs
        Homogeneous lifts of tangent vectors to the incidence variety; each
        pair must satisfy the linearized incidence relation
        ``w . dz + z . dw = 0``.
    charts : (j, k), optional
        Affinize the point by coordinate ``j`` and the hyperplane by
        coordinate ``k``.  Defaults to the largest-modulus coordinates, picked
        per row.  The value does not depend on this choice (chart
        independence on the nose), but the chosen coordinates must be nonzero.

    Array-capable: ``z``, ``w`` and the tangent lifts may carry leading axes
    (say a node axis, ``(N, 3)``); they broadcast against each other and the
    value is an array of the broadcast leading shape.

    Returns
    -------
    Density
        Alternating 3-form value of weight (2, 0) in the point representative
        and (2, 0) in the hyperplane representative.
    """
    if len(tangents) != 3:
        raise ValueError("the incidence density consumes exactly three tangents")
    z = _as_point(z)
    w = _as_hyperplane(w)
    lifts = [np.asarray(v, dtype=complex) for pair in tangents for v in pair]
    shape = np.broadcast_shapes(z.shape, w.shape, *(v.shape for v in lifts))
    z, w, *lifts = (np.broadcast_to(v, shape) for v in (z, w, *lifts))
    _check_incidence(z, w)
    dzs, dws = lifts[0::2], lifts[1::2]
    for dz, dw in zip(dzs, dws):
        _check_tangent(z, w, dz, dw)

    j, k = (None, None) if charts is None else charts
    j = _chart_index(z, j, "point")
    k = _chart_index(w, k, "hyperplane")
    zj = _pick(z, j)[..., None]
    wk = _pick(w, k)[..., None]
    dzc = [(dz * zj - z * _pick(dz, j)[..., None]) / zj**2 for dz in dzs]
    dwc = [(dw * wk - w * _pick(dw, k)[..., None]) / wk**2 for dw in dws]
    a = [_dot3(z / zj, dw) for dw in dwc]

    def b(p, q):
        return _dot3(dzc[p], dwc[q]) - _dot3(dzc[q], dwc[p])

    wedge = a[0] * b(1, 2) - a[1] * b(0, 2) + a[2] * b(0, 1)
    value = zj[..., 0] ** 2 * wk[..., 0] ** 2 / TWO_PI_I**2 * wedge
    return Density(
        value=_value(value),
        form_degree=3,
        bidegree_z=(Fraction(2), Fraction(0)),
        bidegree_w=(Fraction(2), Fraction(0)),
    )


def omega_cfl_affine_form(z, w, tangents):
    """Independent affine-determinant expression for the incidence density.

    Written entirely in the z0-chart of the point and the polar affinization
    of the hyperplane (first dual coordinate over minus the zeroth), the
    density equals

        z0^2 w0^2 / (2 pi i)^2 * (1 / zhat2) * det[dwhat1, dzhat1, dzhat2]

    on any tangent triple.  Requires z0, w0 and the second affine point
    coordinate to be nonzero.  Used as a cross-check of :func:`omega_cfl`;
    the two must agree to full precision wherever both are defined.
    """
    z = _as_point(z)
    w = _as_hyperplane(w)
    _check_incidence(z, w)
    if abs(z[0]) <= 1e-14 * np.max(np.abs(z)):
        raise ValueError("affine form requires z0 != 0")
    if abs(w[0]) <= 1e-14 * np.max(np.abs(w)):
        raise ValueError("affine form requires w0 != 0")
    zhat2 = z[2] / z[0]
    if abs(zhat2) <= 1e-14:
        raise ValueError("affine form requires the second affine coordinate nonzero")

    rows = []
    for dz, dw in tangents:
        dz = np.asarray(dz, dtype=complex)
        dw = np.asarray(dw, dtype=complex)
        _check_tangent(z, w, dz, dw)
        dwhat1 = -(dw[1] * w[0] - w[1] * dw[0]) / w[0] ** 2
        dzhat1 = (dz[1] * z[0] - z[1] * dz[0]) / z[0] ** 2
        dzhat2 = (dz[2] * z[0] - z[2] * dz[0]) / z[0] ** 2
        rows.append([dwhat1, dzhat1, dzhat2])
    det = det3(np.array(rows, dtype=complex))
    value = z[0] ** 2 * w[0] ** 2 / TWO_PI_I**2 * det / zhat2
    return Density(
        value=complex(value),
        form_degree=3,
        bidegree_z=(Fraction(2), Fraction(0)),
        bidegree_w=(Fraction(2), Fraction(0)),
    )


def _frame(tangents, count):
    """Tangent vectors as a ``(..., count, 2)`` complex array (a list of vectors or a stack)."""
    t = np.asarray(tangents, dtype=complex)
    if t.shape[-2:] != (count, 2):
        raise ValueError(f"expected {count} tangent vectors of length 2, got shape {t.shape}")
    return t


def _leray_factor(rho, zhat, tangents):
    """The tau-free part of :func:`smooth_leray_density`: unit gradients and a factor.

    Returns ``g / |g|`` and ``(d_rho wedge ddbar_rho)(v1, v2, v3) / (|g|^2
    (2 pi i)^2)``, so that the density is the factor over the squared
    :func:`_leray_pairing`.  Raises ``ValueError`` where the gradient g
    vanishes.
    """
    zhat = np.asarray(zhat, dtype=complex)
    v1, v2, v3 = np.moveaxis(_frame(tangents, 3), -2, 0)
    g = rho.grad(zhat[..., 0], zhat[..., 1])
    gn = _gradient_norm(g)
    h = rho.hessian_complex(zhat[..., 0], zhat[..., 1])

    # Im(u^H h v): as h is Hermitian, ddbar_rho(u, v) = u^H h v - v^H h u is 2i times it
    def levi(u, v):
        return _dot2(np.conj(u), (h @ v[..., None])[..., 0]).imag

    a1, a2, a3 = (_dot2(g, v) for v in (v1, v2, v3))  # d_rho(v) = g . v
    wedge = a1 * levi(v2, v3) - a2 * levi(v1, v3) + a3 * levi(v1, v2)
    return g / gn[..., None], 2j * wedge / gn**2 / TWO_PI_I**2


def _leray_pairing(zhat, unit_grad, tau_hat):
    """The unit gradients paired with ``z - tau``.

    Raises ``ZeroDivisionError`` where the pairing falls below ``1e-12 *
    |z - tau|``: the tangent hyperplane passes through ``tau``.
    """
    offset = zhat - tau_hat
    pairing = _dot2(unit_grad, offset)
    floor = 1e-12 * np.maximum(np.linalg.norm(offset, axis=-1), 1e-300)
    if np.any(np.abs(pairing) < floor):
        raise ZeroDivisionError(
            "tangent hyperplane passes through the evaluation point"
        )
    return pairing


def smooth_leray_density(rho, zhat, tau_hat, tangents):
    """Second-order Cauchy density of a smooth face at a boundary point.

    Evaluates ``(1/(2 pi i)^2) * (d_rho wedge ddbar_rho)(v1, v2, v3)`` over
    the squared pairing of the tangent hyperplane with (z - tau), on three
    affine tangent vectors.  The result is a pure alternating form; the
    boundary orientation sign belongs to the caller (see
    :func:`orientation_sign_face`).

    Array-capable: with ``zhat`` of shape ``(N, 2)`` and ``tangents`` of
    shape ``(N, 3, 2)`` the value is an ``(N,)`` array.

    Raises
    ------
    ValueError
        If the gradient of the defining function vanishes at the point.
    ZeroDivisionError
        If the evaluation point's tangent plane passes through ``tau``.
    """
    zhat = np.asarray(zhat, dtype=complex)
    unit_grad, factor = _leray_factor(rho, zhat, tangents)
    pairing = _leray_pairing(zhat, unit_grad, np.asarray(tau_hat, dtype=complex))
    return Density(value=_value(factor / pairing**2), form_degree=3)


def _corner_factor(strong, frame):
    """The tau-free part of :func:`corner_kernel`: unit hyperplanes and a factor.

    Returns the two member hyperplanes scaled to unit norm, stacked as
    ``(..., 2, 3)``, and ``z0^2 det0 dz12 / (2 pi i)^2`` computed on them,
    so that the kernel is the factor over :func:`_corner_pairing`.
    """
    if len(strong) != 2:
        raise ValueError("corner kernel needs exactly two tangent hyperplanes")
    z = _as_point(strong.basepoint)
    planes = np.stack([_as_hyperplane(w) for w in strong.planes], axis=-2)
    planes = planes / np.linalg.norm(planes, axis=-1)[..., None]
    w1, w2 = planes[..., 0, :], planes[..., 1, :]
    det0 = w1[..., 1] * w2[..., 2] - w1[..., 2] * w2[..., 1]

    t = _frame(frame, 2)
    v1, v2 = t[..., 0, :], t[..., 1, :]
    dz12 = v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    return planes, z[..., 0] ** 2 * det0 * dz12 / TWO_PI_I**2


def _corner_pairing(planes, tau):
    """The product of ``tau``'s pairings with the two unit hyperplanes of each row.

    Raises ``ZeroDivisionError`` where either pairing falls below ``1e-12 *
    |tau|``: that member tangent hyperplane passes through ``tau``.
    """
    p = _dot3(planes, tau)
    if np.any(np.abs(p) < 1e-12 * np.linalg.norm(tau)):
        raise ZeroDivisionError("a member tangent hyperplane passes through tau")
    return p[..., 0] * p[..., 1]


def corner_kernel(strong, tau, frame):
    """Residual Cauchy density concentrated on an edge.

    Parameters
    ----------
    strong : StrongTangentSet
        The two member tangent hyperplanes at the edge point, with the
        basepoint representative they were computed against.
    tau : HomVec or length-3 sequence
        Interior point (homogeneous representative).
    frame : (v1, v2)
        Two affine tangent vectors to the edge at the basepoint.

    Array-capable: with ``strong`` holding ``(N, 3)`` arrays and ``frame`` of
    shape ``(N, 2, 2)`` the value is an ``(N,)`` array.

    Returns
    -------
    Density
        Alternating 2-form value of weight (2, 0) in the basepoint
        representative and (-2, 0) in ``tau``'s representative; invariant
        under rescaling either hyperplane.

    Raises
    ------
    ZeroDivisionError
        If a member tangent hyperplane passes through ``tau``.
    """
    planes, factor = _corner_factor(strong, frame)
    value = factor / _corner_pairing(planes, _as_point(tau))
    return Density(
        value=_value(value),
        form_degree=2,
        bidegree_z=(Fraction(2), Fraction(0)),
        bidegree_tau=(Fraction(-2), Fraction(0)),
        basepoint=strong.basepoint,
    )


def cramer_residual(strong):
    """Normalized defect of the corner Cramer identity.

    The cross product of the two tangent-hyperplane coordinate vectors must
    be proportional to the basepoint's coordinate vector; returns
    ``|cross(minor_vector, z)| / (|minor_vector| |z|)``, which is zero (to
    rounding) exactly when the identity holds.
    """
    c = strong.minor_vector()
    z = _as_point(strong.basepoint)
    denom = np.maximum(np.linalg.norm(c, axis=-1) * np.linalg.norm(z, axis=-1), 1e-300)
    return _value(np.linalg.norm(np.cross(c, z), axis=-1) / denom, float)


def _segment_distance(a, b):
    """Distance from 0 to the segment [a, b] of the complex plane."""
    d = b - a
    s = 0.0 if d == 0 else min(max(-(a.conjugate() * d).real / abs(d) ** 2, 0.0), 1.0)
    return abs(a + s * d)


def _hull_distance(f):
    """Distance from 0 to the convex hull of 2 or 3 complex numbers (a segment or a triangle)."""
    if len(f) == 2:
        return _segment_distance(f[0], f[1])
    sides = [(f[j], f[(j + 1) % 3]) for j in range(3)]
    # 0 is strictly inside when it lies on the same side of all three edges
    cross = [(a.conjugate() * b).imag for a, b in sides]
    if all(c > 0 for c in cross) or all(c < 0 for c in cross):
        return 0.0
    return min(_segment_distance(a, b) for a, b in sides)


def simplex_integral(tau, method="closed", order=24):
    """Scalar simplex identity behind the corner normalization.

    For parameters ``tau = (tau_1, ..., tau_n)`` the signed integral of
    ``1 / (sum_j w_j (1 - tau_j))**n`` over the standard (n-1)-simplex equals
    ``(-1)**n / ((n-1)! * prod_j (1 - tau_j))``.  The quadrature route
    evaluates the integrand once on the whole :func:`simplex_rule` node stack.

    Parameters
    ----------
    tau : sequence of complex, length 2 or 3
    method : "closed" or "quadrature"
    order : int
        Gauss order per axis for the quadrature route.

    Raises
    ------
    ValueError
        On both routes, if the denominator vanishes on the simplex: the
        distance from 0 to the convex hull of the factors ``1 - tau_j`` is at
        most ``1e-6 * max_j |1 - tau_j|``.
    """
    tau = np.asarray(tau, dtype=complex)
    n = len(tau)
    if n not in (2, 3):
        raise ValueError("the simplex identity is implemented for 2 or 3 parameters")
    factors = 1.0 - tau
    dist = _hull_distance(factors.tolist())
    if dist <= 1e-6 * float(np.max(np.abs(factors))):
        raise ValueError(
            f"pole: the hull of the factors 1 - tau_j passes within {dist:.3g} of 0, "
            "so the denominator vanishes on the simplex"
        )
    sign = (-1.0) ** n
    if method == "closed":
        return sign / (factorial(n - 1) * np.prod(factors))
    if method != "quadrature":
        raise ValueError("method must be 'closed' or 'quadrature'")
    nodes, weights = simplex_rule(n, order)
    return sign * complex(np.sum(weights / (nodes @ factors) ** n))


def _edge_tangent_basis(planes):
    """Real basis of the edge's tangent plane from the member hyperplanes, as ``(2, 2)`` rows."""
    _, _, vt = np.linalg.svd(np.array([_real_gradient(w[1:]) for w in planes]))
    return vt[2:, 0::2] + 1j * vt[2:, 1::2]


def _hyperplane_lifts(rho, w, zhat, vs):
    """Derivatives along ``vs`` of ``z -> gradient_hyperplane(rho, z)``, which is ``w`` at ``zhat``.

    The gradient ``g = w[1:]`` moves by ``H v + Hc^T conj(v)`` (holomorphic
    and complex Hessians), so the hyperplane ``[-(g . z) : g]`` moves by
    ``[-(dg . z) - g . v : dg]``: one ``(3,)`` row per row of ``vs``.
    """
    z1, z2 = zhat
    dg = vs @ rho.hessian_holomorphic(z1, z2).T + np.conj(vs) @ rho.hessian_complex(z1, z2)
    return np.concatenate([(-(dg @ zhat) - vs @ w[1:])[:, None], dg], axis=-1)


def pushforward_corner_check(d, zhat, tau, order=32):
    """Compare the corner kernel with the fiber integral that defines it.

    At an edge point, integrates the incidence density over the segment of
    hyperplanes joining the two strong tangents (against the squared pairing
    with ``tau``) and evaluates the corner kernel on the same edge-tangent
    frame.  The integrand is one :func:`omega_cfl` call on the stack of Gauss
    nodes.  Returns a dict with both values and their relative difference.
    """
    from .domain import strong_tangents  # domain imports this module at load time

    zhat = np.asarray(zhat, dtype=complex)
    e = d.edge_at(zhat)
    strong = strong_tangents(d, e, zhat)
    w_a, w_b = (p.array for p in strong.planes)
    vs = _edge_tangent_basis((w_a, w_b))
    tau_arr = _as_point(tau)
    corner = corner_kernel(strong, tau_arr, vs).value

    # Hyperplane w_t = t w_a + (1 - t) w_b and its tangent lifts, at every Gauss node t.
    t, weights = gauss_rule(0.0, 1.0, order)
    t = t[:, None]
    lift_a = _hyperplane_lifts(d.rho(e.members[0]), w_a, zhat, vs)
    lift_b = _hyperplane_lifts(d.rho(e.members[1]), w_b, zhat, vs)
    w_t = t * w_a + (1.0 - t) * w_b
    dz = np.concatenate([np.zeros((2, 1)), vs], axis=-1)
    triple = [
        (dz[0], t * lift_a[0] + (1.0 - t) * lift_b[0]),
        (dz[1], t * lift_a[1] + (1.0 - t) * lift_b[1]),
        (np.zeros(3), w_a - w_b),
    ]
    dens = omega_cfl(strong.basepoint, w_t, triple).value
    fiber = complex(np.sum(weights * dens / (w_t @ tau_arr) ** 2))

    denom = max(abs(corner), abs(fiber), 1e-300)
    return {
        "corner": corner,
        "fiber": fiber,
        "rel_err": abs(corner - fiber) / denom,
    }


def _real_columns(conormals, tangents):
    """The columns of real 4x4 frames, stacked over points: the conormals, then the tangents.

    A complex tangent (v1, v2) becomes the real column (Re v1, Im v1, Re v2,
    Im v2), which is exactly the float view of a contiguous complex pair, so
    the tangent columns are views and no frame is assembled.
    """
    real_t = np.ascontiguousarray(tangents, dtype=complex).view(float)
    return [*conormals, *np.moveaxis(real_t, -2, 0)]


def _frame_dets(grads, tangents):
    """Determinants of the real frames of ``grads``' conormals and ``tangents``; which are regular.

    A frame is degenerate if its |det| does not exceed 1e-12 times the
    product of its column norms.
    """
    cols = _real_columns([_real_gradient(g) for g in grads], tangents)
    det = _det4_columns(cols)
    scale = np.sqrt(prod(np.einsum("...i,...i->...", c, c) for c in cols))
    return det, np.abs(det) > 1e-12 * scale


def _orientation(grads, tangents, what):
    """Sign of each :func:`_frame_dets` determinant; ``ValueError`` if a frame is degenerate."""
    det, regular = _frame_dets(grads, tangents)
    if not np.all(regular):
        raise ValueError(f"degenerate {what} frame")
    return _value(np.where(det > 0, 1.0, -1.0), float)


def orientation_sign_face(rho, zhat, tangents):
    """Orientation of a face frame: outward gradient first, then the frame.

    Returns +1.0 or -1.0 according to the sign of the real 4x4 determinant
    ``det[grad_R rho, V1, V2, V3]``; a frame is positively oriented when it
    completes the outward conormal to a positive basis of R^4.  With
    ``(N, 2)`` points and ``(N, 3, 2)`` tangents the result is an ``(N,)``
    array of signs.
    """
    zhat = np.asarray(zhat, dtype=complex)
    return _orientation([rho.grad(zhat[..., 0], zhat[..., 1])], _frame(tangents, 3), "face")


def orientation_sign_edge(rho_members, zhat, tangents):
    """Orientation of an edge frame against the members' conormals.

    ``rho_members`` is the pair of member defining functions in edge order;
    the determinant is taken with the conormals in reversed member order,
    ``det[grad_R rho_2, grad_R rho_1, V1, V2]``, which is the convention
    under which the corner kernel reproduces the positively oriented
    iterated Cauchy integral on product models.  Array-capable like
    :func:`orientation_sign_face`.
    """
    r1, r2 = rho_members
    zhat = np.asarray(zhat, dtype=complex)
    grads = [rho.grad(zhat[..., 0], zhat[..., 1]) for rho in (r2, r1)]
    return _orientation(grads, _frame(tangents, 2), "edge")
