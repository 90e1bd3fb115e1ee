"""Reproducing-kernel densities of a piecewise-smooth boundary: faces and corners.

The paper's kernels are specializations of a projectively written
Cauchy-Fantappie-Leray density on the point-hyperplane incidence variety
(:func:`~hardycorners.incidence.omega_cfl`; that module checks the
identities that connect them).  Two of them feed the reproducing formula on
a piecewise-smooth boundary, and they are what this module evaluates:

* :func:`smooth_leray_density` — the classical second-order density on a
  smooth face, written with a defining function;
* :func:`corner_kernel` — the residual density concentrated on an edge,
  assembled from the two member hypersurfaces' tangent hyperplanes.

Each of the two is written once, as a tau-free factor over a pairing with
tau (``_leray_factor``/``_leray_pairing``, ``_corner_factor``/
``_corner_pairing``); :func:`hardycorners.measures.reproduce` caches the
factors of a boundary piece and pays only the pairing per tau.

Both face densities read the Levi form from one Hermitian form of the
complex Hessian h, ``u^H h v`` (``hermpoly._hermitian_form``): this one as
``ddbar_rho(u, v) = u^H h v - v^H h u = 2i Im(u^H h v)``, and
:func:`~hardycorners.measures.fefferman_density` as ``v^H h v`` on the complex
tangent.  A vanishing gradient fails the one critical-point rule of
:mod:`.hermpoly`.

Evaluators return pure alternating-form values; orientation conventions are
supplied separately by :func:`orientation_sign_face` and
:func:`orientation_sign_edge` so that integration drivers stay explicit
about boundary orientation.  Their frames take real conormals from
Wirtinger gradients as ``grad_real`` does, and their determinant
(``_frame_dets``) is the one the charts compute for their rank check when
they project; each node set keeps its sign as ``orientation``, which is
what :func:`hardycorners.measures.reproduce` reads, and these two functions
recompute it as a reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

import numpy as np

from .hermpoly import _gradient_norm, _hermitian_form, _real_gradient
from .projective import HomVec, _Frozen, _det4_columns, _dot2, _value, det2

__all__ = [
    "Density",
    "StrongTangentSet",
    "smooth_leray_density",
    "corner_kernel",
    "orientation_sign_face",
    "orientation_sign_edge",
]

TWO_PI_I = 2j * np.pi


class Density(NamedTuple):
    """A kernel value together with its homogeneity bookkeeping.

    ``value`` is the alternating-form value on the tangent vectors it was
    evaluated with.  The bidegrees record how the value rescales when the
    homogeneous representative of each argument is rescaled: weight (p, q)
    means a factor lambda**p * conj(lambda)**q.  ``form_degree`` is the
    number of tangent arguments consumed.  A named tuple: it compares field
    by field, which for an array ``value`` raises, as for any array.
    """

    value: complex
    form_degree: int
    bidegree_z: tuple = (Fraction(0), Fraction(0))
    bidegree_w: tuple = (Fraction(0), Fraction(0))
    bidegree_tau: tuple = (Fraction(0), Fraction(0))
    basepoint: object = None


class StrongTangentSet(_Frozen):
    """Tangent hyperplanes of the member hypersurfaces at an edge point.

    ``planes`` is ordered like the edge's member list.  The basepoint keeps
    the homogeneous representative the planes were computed against.  At one
    point the basepoint and planes are :class:`HomVec` values; for ``N``
    edge points at once they are ``(N, 3)`` coordinate arrays.  ``len`` and
    indexing reach the planes.  Immutable; it compares by identity, since
    its fields may be arrays.
    """

    __slots__ = ("basepoint", "planes")

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
        return np.cross(*(_coords(w, "hyperplane") for w in self.planes))


def _coords(v, role):
    """The homogeneous coordinates of a ``role``, ``"point"`` or ``"hyperplane"``.

    ``v`` is a :class:`HomVec` or an array; a HomVec of the other role
    raises ``ValueError``.
    """
    if isinstance(v, HomVec):
        if v.role != role:
            raise ValueError(f"expected a {role}, got a {v.role}")
        return v.array
    return np.asarray(v, dtype=complex)


def _dot3(a, b):
    """Bilinear pairing over the last axis of homogeneous triples (no conjugation).

    Summed in place, in the order ``(a0 b0 + a1 b1) + a2 b2``, to hold one product at a time.
    """
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    return out


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
    # d_rho(v) = g . v, and Im(u^H h v) is ddbar_rho(u, v) / 2i, as h is Hermitian.  One
    # expression: a list of the three terms raised the peak RSS.
    wedge = (
        _dot2(g, v1) * _hermitian_form(h, v2, v3).imag
        - _dot2(g, v2) * _hermitian_form(h, v1, v3).imag
        + _dot2(g, v3) * _hermitian_form(h, v1, v2).imag
    )
    return g / gn[..., None], 2j * wedge / gn**2 / TWO_PI_I**2


def _leray_pairing(zhat, unit_grad, tau_hat, radius=None):
    """The unit gradients paired with ``z - tau``.

    Raises ``ZeroDivisionError`` where the pairing falls below ``1e-12 *
    |z - tau|``: the tangent hyperplane passes through ``tau``.

    A ``radius`` no smaller than any ``|z|`` screens that check: as
    ``|z - tau| <= radius + |tau|``, a smallest ``|pairing|`` of at least
    ``1e-12 (radius + |tau|)`` (times ``1 + 1e-9``, for rounding) clears
    every node's floor, and only otherwise are the floors computed.  So the
    decision is the same, and a NaN pairing, which fails the screen, meets
    the exact check.

    The pairing is summed one coordinate at a time, in the order of
    ``g1 (z1 - tau1) + g2 (z2 - tau2)``; on coordinate-major ``(N, 2)``
    arrays (as :mod:`.measures` caches them) every read is contiguous, and a
    screened call holds about three ``(N,)`` complex arrays at once.
    """
    pairing = unit_grad[..., 0] * (zhat[..., 0] - tau_hat[..., 0])
    pairing += unit_grad[..., 1] * (zhat[..., 1] - tau_hat[..., 1])
    if radius is not None:
        bound = 1e-12 * max(radius + np.linalg.norm(tau_hat), 1e-300) * (1 + 1e-9)
        if np.abs(pairing).min(initial=np.inf) >= bound:
            return pairing
    floor = 1e-12 * np.maximum(np.linalg.norm(zhat - tau_hat, axis=-1), 1e-300)
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
    z = _coords(strong.basepoint, "point")
    planes = np.stack([_coords(w, "hyperplane") for w in strong.planes], axis=-2)
    planes = planes / np.linalg.norm(planes, axis=-1)[..., None]
    det0 = det2(planes[..., 1:])
    dz12 = det2(_frame(frame, 2))
    return planes, z[..., 0] ** 2 * det0 * dz12 / TWO_PI_I**2


def _corner_pairing(planes, tau, out=None):
    """The product of ``tau``'s pairings with the two unit hyperplanes of each row, into ``out``.

    Raises ``ZeroDivisionError`` where either pairing falls below ``1e-12 *
    |tau|``: that member tangent hyperplane passes through ``tau``.

    The check is screened: as ``|p| >= max(|Re p|, |Im p|)``, every pairing
    whose larger part reaches the floor clears it, and the parts of all
    pairings are read through one float view.  Only when some pairing fails
    that screen are the moduli taken, so the decision is the per-pairing
    rule's; a NaN pairing fails the screen and meets the exact check.
    """
    p = _dot3(planes, tau)
    floor = 1e-12 * np.linalg.norm(tau)
    parts = np.abs(p.ravel(order="K").view(float))
    if not np.maximum(parts[0::2], parts[1::2]).min(initial=np.inf) >= floor:
        if np.any(np.abs(p) < floor):
            raise ZeroDivisionError("a member tangent hyperplane passes through tau")
    return np.multiply(p[..., 0], p[..., 1], out=out)


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
    value = factor / _corner_pairing(planes, _coords(tau, "point"))
    return Density(
        value=_value(value),
        form_degree=2,
        bidegree_z=(Fraction(2), Fraction(0)),
        bidegree_tau=(Fraction(-2), Fraction(0)),
        basepoint=strong.basepoint,
    )


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
