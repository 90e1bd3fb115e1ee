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
from scipy.optimize import brentq

from .hermpoly import HermitianPoly, transform_poly
from .projective import normalize_map

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
    from .domain import Edge, PwsDomain

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
    linear normalization (rows are i times the Wirtinger gradients); the
    homogeneous representative is scaled to unit determinant.
    """
    zhat = np.asarray(zhat, dtype=complex)
    rows = []
    for m in e.members:
        g = d.rho(m).grad(zhat[0], zhat[1])
        if np.linalg.norm(g) < 1e-14:
            raise ValueError(f"vanishing gradient of member {d.label(m)!r}")
        rows.append(1j * g)
    a = np.array(rows, dtype=complex)
    if abs(np.linalg.det(a)) < 1e-12 * np.linalg.norm(a[0]) * np.linalg.norm(a[1]):
        raise ValueError("member gradients are complex-linearly dependent")
    shift = a @ zhat
    hom = np.array(
        [
            [1.0, 0.0, 0.0],
            [-shift[0], a[0, 0], a[0, 1]],
            [-shift[1], a[1, 0], a[1, 1]],
        ],
        dtype=complex,
    )
    return normalize_map(hom)


# The real linear forms of z1, conj(z1), z2, conj(z2) in the real
# coordinates (x1, x2, y1, y2) of zeta = x + i y.
_REAL_FORMS = np.array(
    [[1, 0, 1j, 0], [1, 0, -1j, 0], [0, 1, 0, 1j], [0, 1, 0, -1j]]
)


def _real_taylor2(rho):
    """Real gradient and Hessian at the origin, in (x1, x2, y1, y2), of a defining function."""
    grad = np.zeros(4, dtype=complex)
    hess = np.zeros((4, 4), dtype=complex)
    for key, c in rho.terms.items():
        slots = [slot for slot, e in enumerate(key) for _ in range(e)]
        if len(slots) == 1:
            grad += c * _REAL_FORMS[slots[0]]
        elif len(slots) == 2:
            u, v = _REAL_FORMS[slots]
            hess += c * (np.outer(u, v) + np.outer(v, u))
    return grad.real, hess.real


def extract_normal_form(d, zhat, frame=None):
    """The edge's quadratic normal form at a point, computed exactly.

    Transforms each member's defining function by the frame
    (:func:`~hardycorners.hermpoly.transform_poly`) and reads its real
    gradient ``(A_l, B_l)`` and Hessian ``H_l`` at the origin, split into the
    real (x) and imaginary (y) parts of the frame coordinates.  The implicit
    function theorem gives the edge as a graph ``y = L x + Q(x) + O(|x|^3)``
    with ``L = -B^(-1) A`` and the quadratic part from
    ``-B^(-1) [(I; L)^T H_l (I; L)]``.  An adapted frame has ``L = 0``; an
    explicit one need not.

    Parameters
    ----------
    d, zhat : domain and an edge point on it
    frame : ProjMap, optional
        Frame to use; defaults to :func:`edge_frame`.  Passing an explicit
        frame (e.g. the identity on a pre-straightened model) bypasses
        re-adaptation, which matters when comparing transformed copies of one
        edge.  It must send ``zhat`` to the origin.

    Raises
    ------
    ValueError
        If the y-block ``B`` of the member gradients is singular or
        ill-conditioned: the frame does not present the edge as a graph over
        its real tangent plane.
    """
    e = d.edge_at(zhat)
    fr = edge_frame(d, e, zhat) if frame is None else frame
    grads, hessians = zip(
        *(_real_taylor2(transform_poly(d.rho(m), fr)) for m in e.members)
    )
    grads = np.array(grads)
    a, b = grads[:, :2], grads[:, 2:]
    scale = np.linalg.norm(grads[0]) * np.linalg.norm(grads[1])
    if abs(np.linalg.det(b)) <= 1e-12 * scale:
        raise ValueError(
            "the frame does not present the edge as a graph over its real "
            "tangent plane: the imaginary-part block of the member gradients "
            "is singular"
        )
    tangent = np.vstack([np.eye(2), -np.linalg.solve(b, a)])
    restricted = np.array([tangent.T @ h @ tangent for h in hessians])
    # g[l] is the Hessian of the graph y_l(x) at x = 0
    g = -np.linalg.solve(b, restricted.reshape(2, 4)).reshape(2, 2, 2)
    return NormalForm(
        a1=float(g[0, 0, 0] / 2),
        b1=float(g[0, 0, 1]),
        c1=float(g[0, 1, 1] / 2),
        a2=float(g[1, 1, 1] / 2),
        b2=float(g[1, 0, 1]),
        c2=float(g[1, 0, 0] / 2),
    )


def _as_coeffs(nf):
    if isinstance(nf, NormalForm):
        return nf.coeffs
    t = tuple(float(x) for x in nf)
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
    needed to order the b's.

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
    if c1 >= 0 or c2 >= 0:
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
    if swapped:
        b1n, b2n = b2n, b1n
    return NormalizedEdge(
        b1=float(b1n),
        b2=float(b2n),
        q=float(q),
        r=float(r),
        shift1=float(s1),
        shift2=float(s2),
        swapped=bool(swapped),
    )


def edge_profile(t):
    """Universal convex profile on (-1, 1): 4 / (1 - t^2) - 3."""
    t = float(t)
    if not -1.0 < t < 1.0:
        raise ValueError("the profile is defined on the open interval (-1, 1)")
    return 4.0 / (1.0 - t * t) - 3.0


def edge_profile_ratio(t):
    """The same profile written as a cubic-mean ratio of the barycentric pair.

    With p = (1 + t)/2 and m = (1 - t)/2 this is (p^3 + m^3) / (p m); it
    agrees with :func:`edge_profile` identically and is kept as an
    independent expression for cross-checking.
    """
    t = float(t)
    if not -1.0 < t < 1.0:
        raise ValueError("the profile is defined on the open interval (-1, 1)")
    p = 0.5 * (1.0 + t)
    m = 0.5 * (1.0 - t)
    return (p**3 + m**3) / (p * m)


def legendre_argmax(p):
    """Maximizer t*(p) of t p - edge_profile(t) on (-1, 1)."""
    p = float(p)
    if p == 0.0:
        return 0.0
    lo = -1.0 + 1e-14
    hi = 1.0 - 1e-14

    def dslope(t):
        return 8.0 * t / (1.0 - t * t) ** 2 - p

    return float(brentq(dslope, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300))


def legendre_transform(p):
    """Legendre transform of the edge profile: sup_t (t p - edge_profile(t)).

    Even in p, with value -1 at p = 0; strictly convex and smooth.
    """
    t = legendre_argmax(p)
    return float(p) * t - edge_profile(t)


def kappa(b1, b2):
    """Scalar edge invariant on the canonical slice.

    Symmetric in its arguments; equals 1 at (0, 0) and 0 at (-1, -1).
    Equivalently the negative of sup_t of the affine family
    -p1(t) b1 - p2(t) b2 - edge_profile(t) with barycentric weights
    p1 = (1+t)/2, p2 = (1-t)/2.
    """
    b1 = float(b1)
    b2 = float(b2)
    return 0.5 * (b1 + b2) - legendre_transform(0.5 * (b2 - b1))


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
    """
    e = d.edge_at(zhat)
    fr = edge_frame(d, e, zhat)
    nf = extract_normal_form(d, zhat, frame=fr)
    norm = normalize_coeffs(nf.coeffs)
    k = kappa(norm.b1, norm.b2)
    den = fr.den(np.asarray(zhat, dtype=complex))
    c1c2 = nf.c1 * nf.c2
    return EdgeInvariant(
        kappa=float(k),
        eta_weight=float(abs(den) ** 3 * k / c1c2),
        b1=norm.b1,
        b2=norm.b2,
        frame=fr,
        c1=nf.c1,
        c2=nf.c2,
        kappa_times_c1c2=float(c1c2 * k),
    )
