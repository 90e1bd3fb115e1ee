"""Edge normal forms, their coordinate-change laws, and edge invariants.

At a point of a transverse two-hypersurface edge, an adapted linear frame
turns each member locus into a graph ``y_l = Q_l(x) + O(|x|^3)`` over the
totally real tangent plane; the pair of quadratics

    y1 = a1 x1^2 + b1 x1 x2 + c1 x2^2
    y2 = a2 x2^2 + b2 x1 x2 + c2 x1^2

(note the mirrored index convention on the second surface, which makes the
coordinate-swap law a plain row swap) is the *normal form* of the edge.
The defining functions are polynomials, so :func:`extract_normal_form`
computes the six coefficients exactly, from a second-order implicit-function
expansion of the members' Taylor terms in the frame; only rounding error
enters.

The residual freedom of the frame acts on the coefficients by the four
tabulated one-parameter laws implemented in :func:`apply_coordinate_change`
(with their geometric realizations in :func:`change_matrix`), and
:func:`normalize_coeffs` composes shifts-then-scalings to the canonical
slice ``a1 = a2 = 0, c1 = c2 = -1, b1 <= b2``.

On that slice a scalar invariant appears: :func:`kappa` combines the two
remaining moduli through the Legendre transform of the universal convex
profile :func:`edge_profile`.  :func:`eta` packages it with the frame
normalization into the edge weight used by the boundary measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Edge, PwsDomain, _member_planes, _transversality
from .hermpoly import HermitianPoly
from .projective import (
    ProjMap,
    _principal_cube_root,
    _value,
    det2,
    det3,
    inv3,
    normalize_map,
    solve2,
)

__all__ = [
    "NormalForm",
    "NormalizedEdge",
    "EdgeInvariant",
    "model_edge_polys",
    "model_edge_domain",
    "edge_frame",
    "extract_normal_form",
    "apply_coordinate_change",
    "change_matrix",
    "normalize_coeffs",
    "edge_profile",
    "edge_profile_ratio",
    "legendre_argmax",
    "legendre_transform",
    "kappa",
    "eta",
]


@dataclass(frozen=True)
class NormalForm:
    """Quadratic coefficients of an edge at a basepoint."""

    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float

    @property
    def coeffs(self):
        return (self.a1, self.b1, self.c1, self.a2, self.b2, self.c2)


@dataclass(frozen=True)
class NormalizedEdge:
    """Result of driving a normal form to the canonical slice.

    ``b1 <= b2`` are the surviving moduli; ``q`` and ``r`` are the two
    scaling parameters used, ``shift1``/``shift2`` the two shear parameters,
    and ``swapped`` records whether the final coordinate swap was applied.
    """

    b1: float
    b2: float
    q: float
    r: float
    shift1: float
    shift2: float
    swapped: bool


@dataclass(frozen=True)
class EdgeInvariant:
    """Edge weight package at a basepoint.

    ``kappa`` is the scalar invariant of the canonical slice; ``eta_weight``
    is the measure weight: the magnitude of homogeneity weight (3/2, 3/2) at
    the basepoint, normalized to the z0 = 1 representative, obtained from
    kappa, the pre-normalization transverse curvatures ``c1``, ``c2`` and the
    frame's homogeneous scale.  ``kappa_times_c1c2`` exposes the raw product
    for comparison; only the full package transforms cleanly.
    """

    kappa: float
    eta_weight: float
    b1: float
    b2: float
    frame: object
    c1: float
    c2: float
    kappa_times_c1c2: float


def _x_sq_terms(i):
    """Monomial dict of x_i^2 in Wirtinger variables (i is 0 or 1)."""
    if i == 0:
        return {(2, 0, 0, 0): 0.25, (1, 1, 0, 0): 0.5, (0, 2, 0, 0): 0.25}
    return {(0, 0, 2, 0): 0.25, (0, 0, 1, 1): 0.5, (0, 0, 0, 2): 0.25}


_X1X2_TERMS = {
    (1, 0, 1, 0): 0.25,
    (1, 0, 0, 1): 0.25,
    (0, 1, 1, 0): 0.25,
    (0, 1, 0, 1): 0.25,
}


def model_edge_polys(coeffs):
    """Pair of defining functions of the straight model edge with given coefficients.

    Builds ``rho_l = 2 (Im z_l - Q_l(Re z_1, Re z_2))`` with the quadratics
    Q read from the six normal-form coefficients; the edge passes through the
    origin with the identity adapted frame, and refitting there returns the
    coefficients exactly (the surfaces are globally quadratic).
    """
    a1, b1, c1, a2, b2, c2 = _as_coeffs(coeffs)

    def build(lin_index, qa, qb, qc, qa_on, qc_on):
        terms = {}
        if lin_index == 0:
            terms[(1, 0, 0, 0)] = -1j
            terms[(0, 1, 0, 0)] = 1j
        else:
            terms[(0, 0, 1, 0)] = -1j
            terms[(0, 0, 0, 1)] = 1j
        for base, coef in (
            (_x_sq_terms(qa_on), qa),
            (_X1X2_TERMS, qb),
            (_x_sq_terms(qc_on), qc),
        ):
            for k, v in base.items():
                terms[k] = terms.get(k, 0.0) - 2.0 * coef * v
        return HermitianPoly({k: v for k, v in terms.items() if v != 0})

    rho1 = build(0, a1, b1, c1, 0, 1)
    rho2 = build(1, a2, b2, c2, 1, 0)
    return rho1, rho2


def model_edge_domain(coeffs):
    """Minimal two-sheet domain carrying the straight model edge at the origin."""
    rho1, rho2 = model_edge_polys(coeffs)
    return PwsDomain(
        hypersurfaces=[("sheet1", rho1), ("sheet2", rho2)],
        faces=[],
        edges=[Edge((0, 1), None)],
        interior_points=[],
        membership="intersection",
    )


def edge_frame(d, e, zhat):
    """Adapted projective frame at an edge point.

    The affine part sends the basepoint to the origin and maps each member's
    complex tangent hyperplane to a model plane {Im zeta_l = 0} with unit
    linear normalization (rows are i times the Wirtinger gradients, the
    linear parts of the member tangent hyperplanes); the homogeneous
    representative is scaled to unit determinant.  For an ``(N, 2)`` array
    of edge points the frames are returned as their ``(N, 3, 3)`` matrices.
    """
    zhat = np.asarray(zhat, dtype=complex)
    points = zhat.reshape(-1, 2)
    planes = _member_planes(d, e.members, points)
    if np.any(_transversality(planes[..., 1:]) < 1e-12):
        raise ValueError("member gradients are complex-linearly dependent")
    hom = np.zeros((len(points), 3, 3), dtype=complex)
    hom[:, 0, 0] = 1.0
    rows = 1j * planes[..., 1:]
    hom[:, 1:, 0] = -(rows @ points[:, :, None])[..., 0]
    hom[:, 1:, 1:] = rows
    mats = hom / _principal_cube_root(det3(hom))[:, None, None]
    return ProjMap(mats[0]) if zhat.ndim == 1 else mats


def _transformed_taylor2(rho, points, inv):
    """Real gradient ``(N, 4)`` and Hessian ``(N, 4, 4)`` of a member at the origin of each frame.

    ``inv`` holds the inverse frame matrices ``V``, ``(N, 3, 3)``.

    The member in frame coordinates is ``|D|^(2n) rho(G(zeta))``, the
    polynomial that :func:`~hardycorners.hermpoly.transform_poly` builds:
    ``G`` is the fractional-linear map of the inverse frame matrix ``V``,
    ``D = V_00 + V_01 zeta_1 + V_02 zeta_2`` its denominator and ``n`` the
    polynomial's degree.  Its Wirtinger derivatives at ``zeta = 0``, where
    ``G(0)`` is the edge point ``z``, follow from the chain rule: ``G`` has
    Jacobian ``J_jk = (V_jk - z_j D_k) / D`` and second derivatives
    ``-(J_jk D_l + J_jl D_k) / D``, and ``D^n`` has log-derivative
    ``n D_k / D``.  Two simplifications are exact for the graph that
    :func:`extract_normal_form` solves for: ``rho`` vanishes at the edge
    point, so no term carrying ``rho`` itself enters, and the value
    ``|D(0)|^(2n) > 0`` only rescales the member's equation, so it is left
    out.  The result is in the real coordinates ``(x1, x2, y1, y2)`` of
    ``zeta = x + i y``.
    """
    z1, z2 = points[:, 0], points[:, 1]
    n = max(rho.max_degrees())
    den = inv[:, 0, 0, None, None]
    dden = inv[:, 0, 1:]
    jac = (inv[:, 1:, 1:] - points[:, :, None] * dden[:, None, :]) / den
    jac_t = np.swapaxes(jac, -1, -2)
    # Wirtinger derivatives in frame coordinates: g_k, g_kl = d^2/dzeta_k
    # dzeta_l and g_klbar = d^2/dzeta_k dconj(zeta_l)
    gk = (rho.grad(z1, z2)[:, None, :] @ jac)[:, 0]
    gkl = jac_t @ rho.hessian_holomorphic(z1, z2) @ jac
    gklbar = jac_t @ np.swapaxes(rho.hessian_complex(z1, z2), -1, -2) @ np.conj(jac)
    # G's second derivatives and the first derivatives of D^n together add
    # (n - 1) (g_k D_l + D_k g_l) / D to g_kl; D^n and conj(D)^n add
    # (n D_k / D) conj(g_l) and its conjugate transpose to g_klbar
    outer = gk[:, :, None] * dden[:, None, :]
    gkl += (n - 1) * (outer + np.swapaxes(outer, -1, -2)) / den
    mixed = (n * dden / den[:, 0])[:, :, None] * np.conj(gk)[:, None, :]
    gklbar += mixed + np.conj(np.swapaxes(mixed, -1, -2))
    # d/dx = d/dzeta + d/dzetabar and d/dy = i (d/dzeta - d/dzetabar)
    grad = np.concatenate([2.0 * gk.real, -2.0 * gk.imag], axis=-1)
    hxx = 2.0 * (gkl + gklbar).real
    hxy = 2.0 * (gklbar - gkl).imag
    hyy = 2.0 * (gklbar - gkl).real
    hess = np.concatenate(
        [
            np.concatenate([hxx, hxy], axis=-1),
            np.concatenate([np.swapaxes(hxy, -1, -2), hyy], axis=-1),
        ],
        axis=-2,
    )
    return grad, hess


def extract_normal_form(d, zhat, frame=None):
    """The edge's quadratic normal form at a point, computed exactly.

    Takes each member's defining function in the frame coordinates (as
    :func:`~hardycorners.hermpoly.transform_poly` would build it) and reads
    its real gradient ``(A_l, B_l)`` and Hessian ``H_l`` at the origin, split
    into the real (x) and imaginary (y) parts of the frame coordinates; this
    second-order data comes from the chain rule, so no polynomial is
    transformed.  The implicit function theorem gives the edge as a graph
    ``y = L x + Q(x) + O(|x|^3)`` with ``L = -B^(-1) A`` and the quadratic
    part from ``-B^(-1) [(I; L)^T H_l (I; L)]``.  An adapted frame has
    ``L = 0``; an explicit one need not.

    Parameters
    ----------
    d : domain
    zhat : one edge point, or an ``(N, 2)`` array of points on one edge
        For ``N`` points each coefficient of the result is an ``(N,)`` array.
    frame : ProjMap or (N, 3, 3) array, optional
        Frame to use; defaults to :func:`edge_frame`.  Passing an explicit
        frame (e.g. the identity on a pre-straightened model) bypasses
        re-adaptation, which matters when comparing transformed copies of one
        edge.  It must send ``zhat`` to the origin.

    Raises
    ------
    ValueError
        If an explicit frame matrix is singular (|det| at most 1e-12 times
        the product of its row norms), or if the y-block ``B`` of the member
        gradients is singular or ill-conditioned: the frame does not present
        the edge as a graph over its real tangent plane.
    """
    zhat = np.asarray(zhat, dtype=complex)
    points = zhat.reshape(-1, 2)
    e = d.edge_at(points)
    if frame is None:
        frame = edge_frame(d, e, points)
    mats = frame.matrix if isinstance(frame, ProjMap) else np.asarray(frame, dtype=complex)
    mats = np.broadcast_to(mats, (len(points), 3, 3))
    if not np.all(np.abs(det3(mats)) > 1e-12 * np.prod(np.linalg.norm(mats, axis=-1), axis=-1)):
        raise ValueError("the frame matrix is singular")
    inv = inv3(mats)
    grads, hessians = zip(*(_transformed_taylor2(d.rho(m), points, inv) for m in e.members))
    grads = np.stack(grads, axis=1)
    hessians = np.stack(hessians, axis=1)
    a, b = grads[..., :2], grads[..., 2:]
    scale = np.linalg.norm(grads[:, 0], axis=-1) * np.linalg.norm(grads[:, 1], axis=-1)
    det = det2(b)
    if np.any(np.abs(det) <= 1e-12 * scale):
        raise ValueError(
            "the frame does not present the edge as a graph over its real "
            "tangent plane: the imaginary-part block of the member gradients "
            "is singular"
        )
    eye = np.broadcast_to(np.eye(2), a.shape)
    tangent = np.concatenate([eye, -solve2(b, a, det)], axis=-2)[:, None]
    restricted = np.swapaxes(tangent, -1, -2) @ hessians @ tangent
    # g[:, l] is the Hessian of the graph y_l(x) at x = 0
    g = -solve2(b, restricted.reshape(-1, 2, 4), det).reshape(-1, 2, 2, 2)
    if zhat.ndim == 1:
        g = g[0]
    coeffs = (
        g[..., 0, 0, 0] / 2,
        g[..., 0, 0, 1],
        g[..., 0, 1, 1] / 2,
        g[..., 1, 1, 1] / 2,
        g[..., 1, 0, 1],
        g[..., 1, 0, 0] / 2,
    )
    return NormalForm(*(_value(c, float) for c in coeffs))


def _as_coeffs(nf):
    """Six coefficients, each a Python float or an ``(N,)`` float array."""
    if isinstance(nf, NormalForm):
        return nf.coeffs
    t = tuple(_value(np.asarray(x, dtype=float), float) for x in nf)
    if len(t) != 6:
        raise ValueError("expected six normal-form coefficients")
    return t


def apply_coordinate_change(nf, kind, param=None):
    """Transform normal-form coefficients by one residual-frame generator.

    Kinds
    -----
    ``"shear1"`` (complex or real ``param``; only its imaginary part acts):
        (a1 + s, b1, c1, a2, b2 + s, c2) with s = Im(param) for complex
        param, else s = param.
    ``"scale"`` (real ``param = r > 0``):
        (a1 r, b1, c1 / r, a2, b2 r, c2 r^2).
    ``"swap"`` (no param): row swap
        (a2, b2, c2, a1, b1, c1).
    ``"parab"`` (real ``param = r``): the parabolic generator
        (a1 + r b1 + r^2 c1,
         b1 + 2 r c1,
         c1,
         a2 - r c1,
         b2 + 2 r a2 - r b1 - 2 r^2 c1,
         c2 + r (b2 - a1) + r^2 (a2 - b1) - r^3 c1).

    Returns the transformed 6-tuple.
    """
    a1, b1, c1, a2, b2, c2 = _as_coeffs(nf)
    if kind == "shear1":
        s = float(np.imag(param)) if np.iscomplexobj(np.asarray(param)) else float(param)
        return (a1 + s, b1, c1, a2, b2 + s, c2)
    if kind == "scale":
        r = float(param)
        if r <= 0:
            raise ValueError("scale parameter must be positive")
        return (a1 * r, b1, c1 / r, a2, b2 * r, c2 * r * r)
    if kind == "swap":
        return (a2, b2, c2, a1, b1, c1)
    if kind == "parab":
        r = float(param)
        return (
            a1 + r * b1 + r * r * c1,
            b1 + 2.0 * r * c1,
            c1,
            a2 - r * c1,
            b2 + 2.0 * r * a2 - r * b1 - 2.0 * r * r * c1,
            c2 + r * (b2 - a1) + r * r * (a2 - b1) - r ** 3 * c1,
        )
    raise ValueError(f"unknown change kind {kind!r}")


def change_matrix(kind, param=None):
    """Projective matrix realizing a residual-frame generator on the model.

    The matrices fix the origin and the pair of model tangent planes
    {Im zeta_l = 0}; applying one to a straightened edge and refitting in the
    identity frame realizes the corresponding coefficient law of
    :func:`apply_coordinate_change`.
    """
    if kind == "shear1":
        lam = complex(param)
        m = np.array([[1.0, -lam, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    elif kind == "scale":
        r = float(param)
        if r <= 0:
            raise ValueError("scale parameter must be positive")
        m = np.diag([1.0, 1.0 / r, 1.0]).astype(complex)
    elif kind == "swap":
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    elif kind == "parab":
        r = float(param)
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -r, 1.0]])
    else:
        raise ValueError(f"unknown change kind {kind!r}")
    return normalize_map(m)


def normalize_coeffs(nf):
    """Drive a normal form to the canonical slice a = 0, c = -1, b1 <= b2.

    Composition order is fixed: the two shear shifts first (killing a1 and
    a2), then the two scalings (driving c1 and c2 to -1), then the swap if
    needed to order the b's.  Array-capable: coefficients given as ``(N,)``
    arrays give a :class:`NormalizedEdge` of ``(N,)`` arrays.

    Raises
    ------
    ValueError
        If c1 >= 0 or c2 >= 0 at the shifted stage: the canonical slice only
        exists on the transversally curved (pseudoconvex) side.
    """
    a1, b1, c1, a2, b2, c2 = _as_coeffs(nf)
    s1 = -a1
    s2 = -a2
    # Shear in the first model plane, then its swap-conjugate; the two
    # commute and neither touches c1, c2.
    b1s = b1 + s2
    b2s = b2 + s1
    if np.any(c1 >= 0) or np.any(c2 >= 0):
        raise ValueError(
            "canonical slice requires negative transverse curvatures c1, c2"
        )
    u = -c1
    v = -c2
    q = (u * u * v) ** (-1.0 / 3.0)
    r = (u * v * v) ** (-1.0 / 3.0)
    b1n = b1s * q
    b2n = b2s * r
    swapped = b1n > b2n
    return NormalizedEdge(
        b1=_value(np.where(swapped, b2n, b1n), float),
        b2=_value(np.where(swapped, b1n, b2n), float),
        q=_value(q, float),
        r=_value(r, float),
        shift1=_value(s1, float),
        shift2=_value(s2, float),
        swapped=_value(swapped, bool),
    )


def _on_interval(t):
    """``t`` as a float array, checked to lie in the profile's domain (-1, 1)."""
    t = np.asarray(t, dtype=float)
    if not np.all((-1.0 < t) & (t < 1.0)):
        raise ValueError("the profile is defined on the open interval (-1, 1)")
    return t


def edge_profile(t):
    """Universal convex profile on (-1, 1): 4 / (1 - t^2) - 3 (elementwise)."""
    t = _on_interval(t)
    return _value(4.0 / (1.0 - t * t) - 3.0, float)


def edge_profile_ratio(t):
    """The same profile written as a cubic-mean ratio of the barycentric pair.

    With p = (1 + t)/2 and m = (1 - t)/2 this is (p^3 + m^3) / (p m); it
    agrees with :func:`edge_profile` identically and is kept as an
    independent expression for cross-checking.
    """
    t = _on_interval(t)
    p = 0.5 * (1.0 + t)
    m = 0.5 * (1.0 - t)
    return _value((p**3 + m**3) / (p * m), float)


# Newton steps allowed to the Legendre maximizer; from its starting bound it
# takes at most 7 over 1e-12 <= |p| <= 1e6.
_ARGMAX_MAXITER = 50


def legendre_argmax(p):
    """Maximizer t*(p) of t p - edge_profile(t) on (-1, 1), elementwise.

    Solves the stationarity equation 8 t / (1 - t^2)^2 = |p| on [0, 1) and
    restores the sign of ``p`` afterwards, so ``t*(-p) == -t*(p)`` exactly.
    The left side is increasing and convex there, so Newton's method started
    at an upper bound of the root decreases monotonically onto it: each
    iterate stays in the bracket [root, start], and the iteration stops once
    a step no longer decreases ``t`` (convergence to rounding).
    """
    p = np.asarray(p, dtype=float)
    q = np.abs(p)
    # 8 t <= |p| bounds the root by |p| / 8; for |p| >= 64/9 the root is at
    # least 1/2, which bounds it by sqrt(1 - 2 / sqrt(|p|)) as well.
    t = np.minimum(q / 8.0, np.sqrt(1.0 - 2.0 / np.sqrt(np.maximum(q, 64.0 / 9.0))))
    for _ in range(_ARGMAX_MAXITER):
        s = 1.0 - t * t
        step = (8.0 * t - q * s * s) * s / (8.0 * (1.0 + 3.0 * t * t))
        new = np.maximum(t - step, 0.0)
        down = new < t
        if not down.any():
            break
        t = np.where(down, new, t)
    else:
        raise RuntimeError("Legendre maximizer did not converge")
    return _value(np.copysign(t, p), float)


def legendre_transform(p):
    """Legendre transform of the edge profile: sup_t (t p - edge_profile(t)).

    Even in p (exactly), with value -1 at p = 0; strictly convex and smooth.
    Elementwise over arrays.
    """
    t = legendre_argmax(p)
    return _value(np.asarray(p, dtype=float) * t - edge_profile(t), float)


def kappa(b1, b2):
    """Scalar edge invariant on the canonical slice, elementwise.

    Symmetric in its arguments (exactly: ``kappa(b1, b2) == kappa(b2, b1)``);
    equals 1 at (0, 0) and 0 at (-1, -1).  Equivalently the negative of sup_t
    of the affine family -p1(t) b1 - p2(t) b2 - edge_profile(t) with
    barycentric weights p1 = (1+t)/2, p2 = (1-t)/2.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    return _value(0.5 * (b1 + b2) - legendre_transform(0.5 * (b2 - b1)), float)


def eta(d, zhat):
    """Edge weight package at an edge point of a domain.

    Computes the normal form in the adapted frame (:func:`extract_normal_form`,
    exact up to rounding), normalizes to the canonical slice, evaluates
    :func:`kappa`, and attaches the frame normalization: the weight is

        |den_frame(zhat)|^3 * kappa / (c1 * c2)

    with the pre-normalization transverse curvatures c1, c2.  This is the
    quantity of homogeneity weight (3/2, 3/2) whose cube root multiplies the
    edge arc element in the boundary norm; under a projective map G it
    transforms by |den_G(zhat)|^3.

    ``zhat`` is one edge point or an ``(N, 2)`` array of points on one edge;
    for ``N`` points every field is an ``(N,)`` array (``frame`` holds the
    ``(N, 3, 3)`` frame matrices), computed in one pass.
    """
    zhat = np.asarray(zhat, dtype=complex)
    fr = edge_frame(d, d.edge_at(zhat), zhat)
    nf = extract_normal_form(d, zhat, frame=fr)
    norm = normalize_coeffs(nf.coeffs)
    k = kappa(norm.b1, norm.b2)
    m0 = (fr.matrix if isinstance(fr, ProjMap) else fr)[..., 0, :]
    den = m0[..., 0] + m0[..., 1] * zhat[..., 0] + m0[..., 2] * zhat[..., 1]
    c1c2 = nf.c1 * nf.c2
    return EdgeInvariant(
        kappa=k,
        eta_weight=_value(np.abs(den) ** 3 * k / c1c2, float),
        b1=norm.b1,
        b2=norm.b2,
        frame=fr,
        c1=nf.c1,
        c2=nf.c2,
        kappa_times_c1c2=_value(c1c2 * k, float),
    )
