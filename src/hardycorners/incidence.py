"""The Cauchy-Fantappie-Leray density on the incidence variety, and the identities it satisfies.

The central object of the paper is a projectively written Cauchy-type
density living on pairs (point, hyperplane) of the incidence variety:
:func:`omega_cfl` evaluates it on tangent triples in any affine chart and is
chart-independent on the nose once homogeneous representatives are fixed;
:func:`omega_cfl_affine_form` is an independent affine-determinant
expression of it, to compare against.  The face and corner kernels that
the reproducing formula integrates (:mod:`.kernels`) are its
specializations, and this module checks the identities that connect them:

* :func:`cramer_residual` — the corner Cramer identity, the cross product
  of the two member tangent hyperplanes proportional to the edge point;
* :func:`simplex_integral` — the scalar simplex identity that drives the
  corner normalization, with both a closed form and a quadrature route;
* :func:`pushforward_corner_check` — the incidence density integrated over
  the segment of hyperplanes between the strong tangents (the weak-tangent
  fiber), compared with the corner kernel.

Neither :func:`~hardycorners.measures.reproduce` nor
:func:`~hardycorners.measures.hardy_norm` runs any of this, so this module
loads only where it is imported: by the acceptance checks and the
``selftest`` suites that use it.
``_random_incident_pair`` and ``_random_tangents`` draw the random incident
data those checks run on.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .domain import strong_tangents
from .hermpoly import _real_gradient
from .kernels import TWO_PI_I, Density, _coords, _dot3, corner_kernel
from .projective import _value, det3
from .quadrature import gauss_rule, simplex_rule

__all__ = [
    "omega_cfl",
    "omega_cfl_affine_form",
    "cramer_residual",
    "simplex_integral",
    "pushforward_corner_check",
]

_REL_TOL = 1e-10


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
    z = _coords(z, "point")
    w = _coords(w, "hyperplane")
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
    z = _coords(z, "point")
    w = _coords(w, "hyperplane")
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


def cramer_residual(strong):
    """Normalized defect of the corner Cramer identity.

    The cross product of the two tangent-hyperplane coordinate vectors must
    be proportional to the basepoint's coordinate vector; returns
    ``|cross(minor_vector, z)| / (|minor_vector| |z|)``, which is zero (to
    rounding) exactly when the identity holds.
    """
    c = strong.minor_vector()
    z = _coords(strong.basepoint, "point")
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
    zhat = np.asarray(zhat, dtype=complex)
    e = d.edge_at(zhat)
    strong = strong_tangents(d, e, zhat)
    w_a, w_b = (p.array for p in strong.planes)
    vs = _edge_tangent_basis((w_a, w_b))
    tau_arr = _coords(tau, "point")
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


def _random_incident_pair(rng):
    """A random point ``z`` and a random hyperplane ``w`` through it, as complex triples."""
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    basis = np.array([[-z[1], z[0], 0.0], [-z[2], 0.0, z[0]]])
    coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = coef @ basis
    return z, w


def _random_tangents(rng, z, w, count=3):
    """``count`` random tangent lifts ``(dz, dw)`` at ``(z, w)``: ``w . dz + z . dw = 0``."""
    out = []
    for _ in range(count):
        dz = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        dw = xi - ((z @ xi + w @ dz) / (z @ np.conj(z))) * np.conj(z)
        out.append((dz, dw))
    return out
