"""Homogeneous coordinates, projective maps, duality, and weighted sections.

Points and hyperplanes of complex projective 2-space are represented by
triples of homogeneous coordinates.  A point ``z = [z0 : z1 : z2]`` and a
hyperplane ``w = [w0 : w1 : w2]`` are incident when the bilinear pairing
``w0*z0 + w1*z1 + w2*z2`` vanishes.  Projective transformations are carried
by 3x3 matrices normalized to unit determinant; the hyperplane side
transforms by the inverse transpose, which preserves the pairing.

Weighted sections: a function ``F`` on nonzero coordinate triples has
bidegree ``(j, k)`` when ``F(lam * Z) = lam**j * conj(lam)**k * F(Z)``.
Such a section is determined by its values at affine representatives
``(1, z1, z2)``, and pulling back along a map with matrix ``M`` multiplies
the affine value by ``den**j * conj(den)**k`` with
``den = M[0,0] + M[0,1]*z1 + M[0,2]*z2``.  Half-integer bidegrees are kept
as exact :class:`fractions.Fraction` pairs; for those only modulus-level
statements are branch-independent, and :func:`pull_back_section` uses the
principal branch and flags the value as chart dependent.

The pole rule, one for :func:`affinize`, :meth:`ProjMap.affine`,
:meth:`ProjMap.jacobian` and :func:`pull_back_section`: a triple ``(out0,
out1, out2)`` lies on the pole z0 = 0, and raises ``ZeroDivisionError`` before
any division, when ``|out0| <= 1e-14 * max(|out0|, |out1|, |out2|)``.  On a
batch, :func:`pull_back_section` divides by one reciprocal ``1 / out0`` per
point and decides the rule by a screen on the image it forms; only a batch
that fails the screen is decided by the rule itself, and computed by its
division.  Its screened image and negative-integer weights move by a few ulp
from that division and ``den**j``; the one-point path and every other
function here are exact as before.

Small-matrix algebra on stacks of matrices (:func:`det2`, :func:`solve2`,
:func:`matmul`, :func:`det3`, :func:`inv3`, :func:`det4`) is written out in
closed form and broadcasts over leading axes such as a node axis; on stacks
of tiny matrices this is several times faster than batched ``numpy.linalg``
calls, and :func:`matmul` makes no BLAS call for each tiny matrix as the
``@`` operator does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "HomVec",
    "ProjMap",
    "Section",
    "SectionValue",
    "normalize_map",
    "dual_map",
    "pair",
    "pull_back_section",
    "proj_equal",
    "homogenize",
    "affinize",
    "det2",
    "solve2",
    "matmul",
    "det3",
    "inv3",
    "det4",
]


class _Frozen:
    """Base of the library's immutable records that are not tuples.

    A record's fields are its ``__slots__`` along the MRO, base class first,
    and this ``__init__`` fills them once, positionally or by keyword, with
    the ``TypeError`` of a Python signature for too many positionals and for
    a field that is missing, unknown or given twice.  A record that validates
    or coerces its inputs has its own ``__init__``, which sets its fields
    through :meth:`_set`.  Assigning or deleting an attribute afterwards
    raises ``AttributeError``.  No code is generated for a record:
    ``dataclasses`` would compile source for each one at every import.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = [n for c in reversed(type(self).__mro__) for n in vars(c).get("__slots__", ())]
        fields = dict(zip(names, args))
        if len(args) > len(names) or {*fields, *kwargs} != set(names):
            signature = f"{type(self).__name__} takes the fields {', '.join(names)}"
            raise TypeError(f"{signature}: got {len(args)} positional, keywords {sorted(kwargs)}")
        # A field given both ways raises TypeError here, as in a call.
        self._set(**fields, **kwargs)

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __setstate__(self, state):
        """Restore the fields of a copied or unpickled record (as ``copy`` and ``pickle`` do)."""
        for fields in state if isinstance(state, tuple) else (state,):
            self._set(**(fields or {}))


def _as_points(z1, z2):
    """Two Python complex scalars, or two complex arrays of one broadcast shape.

    Returns ``(z1, z2, shape)`` with ``shape`` None for a single point.
    """
    if getattr(z1, "ndim", 0) == 0 and getattr(z2, "ndim", 0) == 0:
        return complex(z1), complex(z2), None
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if z1.shape != z2.shape:
        z1, z2 = np.broadcast_arrays(z1, z2)
    return z1, z2, z1.shape


def _affine_pair(zhat):
    """The coordinate pair ``(z1, z2)`` of an affine point, or of an ``(..., 2)`` array of them."""
    zhat = np.asarray(zhat, dtype=complex)
    return _as_points(zhat[..., 0], zhat[..., 1])[:2]


def _stack_last(values, ndim=1):
    """Evaluations nested ``ndim`` lists deep, as an array with the nesting as its last axes."""
    out = np.array(values, dtype=complex)
    return out.transpose(tuple(range(ndim, out.ndim)) + tuple(range(ndim)))


def _dot2(a, b):
    """Bilinear pairing a_1 b_1 + a_2 b_2 over the last axis (no conjugation)."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def det2(a):
    """Determinants of 2x2 matrices on the last two axes, in closed form."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def solve2(a, b, det):
    """Solve ``a x = b`` by Cramer's rule: ``a`` is ``(..., 2, 2)``, ``b`` is ``(..., 2, k)``.

    ``det`` is ``det2(a)``, which the caller tests for singularity first:
    nothing here checks it.  Leading axes broadcast.
    """
    det = det[..., None]
    b0, b1 = b[..., 0, :], b[..., 1, :]
    return np.stack(
        [
            (a[..., 1, 1, None] * b0 - a[..., 0, 1, None] * b1) / det,
            (a[..., 0, 0, None] * b1 - a[..., 1, 0, None] * b0) / det,
        ],
        axis=-2,
    )


def matmul(a, b):
    """``a @ b`` for stacks of small matrices: ``a`` is ``(..., M, K)``, ``b`` is ``(..., K, P)``.

    The product is the sum over ``k`` of column ``k`` of ``a`` times row
    ``k`` of ``b``: the ``k = 0`` term is formed by broadcasting, and the
    other ``K - 1`` are added to it in place.  Leading axes broadcast as in
    ``np.matmul``; both operands must have at least two axes.
    """
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


def _cofactor3(a, i, j):
    """Signed cofactor of entry (i, j) of 3x3 matrices; cyclic indices carry the sign."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return a[..., i1, j1] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j1]


def det3(a):
    """Determinants of 3x3 matrices on the last two axes: cofactor expansion along row 0."""
    return sum(a[..., 0, j] * _cofactor3(a, 0, j) for j in range(3))


def inv3(a):
    """Inverses of 3x3 matrices on the last two axes: the adjugate over the determinant.

    Nothing checks for singularity; see :func:`solve2`.
    """
    adj = np.empty(a.shape, dtype=np.result_type(a.dtype, float))
    for i in range(3):
        for j in range(3):
            adj[..., j, i] = _cofactor3(a, i, j)
    det = sum(a[..., 0, j] * adj[..., j, 0] for j in range(3))
    return adj / det[..., None, None]


def det4(a):
    """Determinants of 4x4 matrices on the last two axes (see :func:`_det4_columns`)."""
    return _det4_columns([a[..., :, j] for j in range(4)])


def _det4_columns(cols):
    """Determinants of the 4x4 matrices whose columns are the four ``(..., 4)`` arrays ``cols``.

    Laplace expansion along rows 0-1: the sum over column pairs of the 2x2
    minor of rows 0-1 times the signed complementary minor of rows 2-3.  No
    matrix is assembled, and the minors of rows 0-1 are formed one at a
    time, to keep few arrays alive.
    """

    def minor(r, i, j):
        return cols[i][..., r] * cols[j][..., r + 1] - cols[j][..., r] * cols[i][..., r + 1]

    c = {(i, j): minor(2, i, j) for i in range(4) for j in range(i + 1, 4)}
    det = minor(0, 0, 1) * c[2, 3]
    det = det - minor(0, 0, 2) * c[1, 3]
    det = det + minor(0, 0, 3) * c[1, 2]
    det = det + minor(0, 1, 2) * c[0, 3]
    det = det - minor(0, 1, 3) * c[0, 2]
    return det + minor(0, 2, 3) * c[0, 1]


def _value(v, cast=complex):
    """A Python scalar for one point, the array itself for many."""
    return cast(v) if np.ndim(v) == 0 else v


def _finite(c):
    """``c`` itself, or HomVec's error if a coordinate is not finite."""
    if not np.isfinite(c).all():
        raise ValueError("homogeneous coordinates must be finite")
    return c


def _as_triple(v):
    """Coerce a HomVec or length-3 sequence of finite numbers to a complex numpy triple."""
    if isinstance(v, HomVec):
        return v.array
    a = np.asarray(v, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected 3 homogeneous coordinates, got shape {a.shape}")
    return _finite(a)


class HomVec(_Frozen):
    """A point or hyperplane of projective 2-space in homogeneous coordinates.

    Immutable, and equal (with equal hashes) to another HomVec with the same
    coordinates and role.

    Parameters
    ----------
    coords : tuple of 3 complex
        Homogeneous coordinates, finite and not all zero.
    role : str
        Either ``"point"`` or ``"hyperplane"``.  The incidence pairing
        checks that it is fed one of each.
    """

    __slots__ = ("coords", "role")

    def __init__(self, coords, role="point"):
        c = tuple(complex(x) for x in coords)
        if len(c) != 3:
            raise ValueError("HomVec needs exactly 3 coordinates")
        _finite(c)
        if max(abs(x) for x in c) == 0.0:
            raise ValueError("all homogeneous coordinates are zero")
        if role not in ("point", "hyperplane"):
            raise ValueError(f"unknown role {role!r}")
        self._set(coords=c, role=role)

    def __repr__(self):
        return f"HomVec(coords={self.coords!r}, role={self.role!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.coords, self.role) == (other.coords, other.role)

    def __hash__(self):
        return hash((self.coords, self.role))

    @property
    def array(self):
        return np.array(self.coords, dtype=complex)

    @classmethod
    def from_affine(cls, zhat, role="point"):
        """Lift an affine pair (z1, z2) to the representative [1 : z1 : z2]."""
        z1, z2 = zhat
        return cls((1.0, complex(z1), complex(z2)), role)


def proj_equal(u, v, tol=1e-10):
    """Projective equality: proportional coordinates within relative *tol*.

    Both arguments are scaled so that the coordinate where *u* has its
    largest modulus becomes 1, and compared entrywise.  (One pivot for both:
    two coordinates of equal modulus could otherwise round to different
    pivots.)
    """
    a = _as_triple(u)
    b = _as_triple(v)
    i = int(np.argmax(np.abs(a)))
    if b[i] == 0:
        return False
    return bool(np.max(np.abs(a / a[i] - b / b[i])) <= tol)


def _lift(z1, z2):
    """The representatives (1, z1, z2) of a coordinate pair, on a new last axis."""
    out = np.empty(np.shape(z1) + (3,), dtype=complex)
    out[..., 0] = 1.0
    out[..., 1] = z1
    out[..., 2] = z2
    return out


def homogenize(zhat):
    """Affine pair (z1, z2) -> numpy triple (1, z1, z2); (N, 2) arrays -> (N, 3)."""
    zhat = np.asarray(zhat, dtype=complex)
    return _lift(zhat[..., 0], zhat[..., 1])


# numpy divides complex arrays and scalars by multiplying with the reciprocal of
# a rescaled denominator, which overflows where |out0| is subnormal, so a point
# that passes the pole rule there would come out as inf+nanj; Python's complex
# division does not.
_TINY = np.finfo(float).tiny
_RESCALE = 2.0**600


def _rescued_quotient(num, den, small):
    """``num / den``, divided again after scaling both by 2**600 where ``small`` and not finite.

    Only those rows move, so every quotient that is finite without the
    rescaling is kept bit for bit.  The scaling is exact, and the overflow it
    replaces raises no warning.  Numpy scalars give a numpy scalar.
    """
    num, den, small = np.broadcast_arrays(num, den, small)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(num / den)  # 0-d for scalars, which divide to a numpy scalar
        redo = small & ~np.isfinite(q)
        q[redo] = num[redo] * _RESCALE / (den[redo] * _RESCALE)
    return q if q.ndim else q[()]


def _off_pole(out0, out1, out2, message="image lies on the affinization pole z0 = 0"):
    """``(out1/out0, out2/out0)``, or ``ZeroDivisionError(message)`` if some point is on the pole."""
    a0 = abs(out0)
    # |out0| <= 1e-14 * max(|out0|, |out1|, |out2|): the |out0| term matters
    # only at out0 = 0, and fmax, like the rule, ignores a NaN operand.
    if np.any((a0 <= 1e-14 * np.fmax(abs(out1), abs(out2))) | (a0 == 0)):
        raise ZeroDivisionError(message)
    small = a0 < _TINY
    # A Python float |out0| comes from Python complex values, whose division needs no rescue.
    if type(a0) is float or not small.any():
        return (out1 / out0, out2 / out0)
    return tuple(_rescued_quotient(out, out0, small) for out in (out1, out2))


def affinize(z):
    """Triple (or HomVec) -> affine pair (z1/z0, z2/z0); error on the pole z0 = 0."""
    return _off_pole(*_as_triple(z), "representative lies on the affinization pole z0 = 0")


def _principal_cube_root(c):
    """Principal cube root r^(1/3) * exp(i*arg/3) with arg in (-pi, pi], elementwise."""
    return np.abs(c) ** (1.0 / 3.0) * np.exp(1j * np.angle(c) / 3.0)


class ProjMap(_Frozen):
    """A projective transformation of CP^2 with unit-determinant matrix.

    The matrix acts on column vectors of homogeneous coordinates:
    ``Z' = M @ Z``.  Use :func:`normalize_map` to build one from an arbitrary
    invertible matrix.  A matrix that is not 3x3, has a non-finite entry
    (checked before any determinant is taken) or whose determinant is not 1
    within 1e-9 raises ``ValueError``.  The map keeps a read-only copy of the
    matrix.  It is immutable and compares by identity: two maps with equal
    matrices are not ``==``, so compare their ``matrix`` arrays.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError("ProjMap matrix must be 3x3")
        if not np.isfinite(m).all():
            raise ValueError("ProjMap matrix must be finite")
        if abs(np.linalg.det(m) - 1.0) > 1e-9:
            raise ValueError("ProjMap matrix must have unit determinant; use normalize_map")
        m = m.copy()
        m.flags.writeable = False
        self._set(matrix=m)

    def apply(self, z):
        """Apply to a homogeneous triple (or point HomVec); returns a triple."""
        return self.matrix @ _as_triple(z)

    @cached_property
    def _entries(self):
        """The matrix entries as Python complex numbers, for scalar arithmetic."""
        return self.matrix.tolist()

    def _images(self, z1, z2, count=3):
        """The first ``count`` coordinates of M @ (1, z1, z2), elementwise over a coordinate pair.

        ``(z1, z2)`` is as :func:`_as_points` returns it.
        """
        images = []
        for m0, m1, m2 in self._entries[:count]:
            # (m0 + m1*z1) + m2*z2, summed in place: the same roundings, fewer temporaries
            t = m1 * z1
            t += m0
            t += m2 * z2
            images.append(t)
        return images

    def den(self, zhat):
        """Homogeneous denominator M00 + M01*z1 + M02*z2 at an affine point."""
        return self._images(*_affine_pair(zhat), 1)[0]

    def affine(self, zhat):
        """Apply as a fractional-linear map on affine pairs.

        For an ``(N, 2)`` array of points the pair holds two ``(N,)`` arrays.
        """
        return _off_pole(*self._images(*_affine_pair(zhat)))

    def _affine_and_jacobian(self, zhat):
        """:meth:`affine` and :meth:`jacobian` at *zhat*, from one evaluation of M @ (1, z1, z2)."""
        m = self._entries
        den, num1, num2 = self._images(*_affine_pair(zhat))
        image = _off_pole(den, num1, num2)
        den2 = den**2
        jac = [
            [(m[i + 1][j + 1] * den - num * m[0][j + 1]) / den2 for j in (0, 1)]
            for i, num in ((0, num1), (1, num2))
        ]
        return image, _stack_last(jac, ndim=2)

    def jacobian(self, zhat):
        """Exact complex 2x2 Jacobian of the affine action at *zhat* (on the last two axes)."""
        return self._affine_and_jacobian(zhat)[1]

    def inverse(self):
        return normalize_map(np.linalg.inv(self.matrix))

    def __matmul__(self, other):
        """Composition: (self @ other) applies *other* first."""
        if not isinstance(other, ProjMap):
            return NotImplemented
        return normalize_map(self.matrix @ other.matrix)


def normalize_map(m):
    """Scale an invertible 3x3 matrix to unit determinant (principal cube root).

    The three cube-root choices differ by a cube root of unity; fixing the
    principal root makes the normalization deterministic, and every invariance
    statement downstream compares moduli or projective classes so the residual
    root-of-unity ambiguity washes out.  A matrix that is not 3x3, has a
    non-finite entry (checked before the determinant is taken) or is
    singular raises ``ValueError``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if not np.isfinite(m).all():
        raise ValueError("a matrix with a non-finite entry cannot define a projective map")
    d = np.linalg.det(m)
    if not np.isfinite(d) or abs(d) < 1e-300:
        raise ValueError("singular matrix cannot define a projective map")
    return ProjMap(m / _principal_cube_root(d))


def dual_map(t):
    """The induced action on hyperplanes: the inverse-transpose matrix.

    Satisfies ``pair(T z, dual_map(T) w) == pair(z, w)`` identically.
    """
    if not isinstance(t, ProjMap):
        t = normalize_map(t)
    return normalize_map(np.linalg.inv(t.matrix).T)


def pair(z, w):
    """Incidence pairing sum(w_j * z_j); zero iff the point lies on the hyperplane."""
    if isinstance(z, HomVec) and isinstance(w, HomVec):
        if z.role == w.role:
            raise ValueError(
                f"pairing needs one point and one hyperplane, got two {z.role}s"
            )
        if z.role == "hyperplane":
            z, w = w, z
    return complex(_as_triple(z) @ _as_triple(w))


class Section(_Frozen):
    """A weighted section given by its affine value function.

    ``func(zhat)`` returns the value at the representative ``(1, z1, z2)``;
    ``bidegree`` is the exact weight pair ``(j, k)`` (Fractions allowed),
    kept as a pair of :class:`~fractions.Fraction`.  Immutable, and equal
    to another Section with the same function and bidegree.

    The value function follows the library's section convention: it is
    called with the coordinate pair ``zhat = (z1, z2)``, either of one point
    or of ``N`` points as two ``(N,)`` arrays, and works elementwise (it
    returns ``(N,)`` values, or a scalar that stands for every point).
    """

    __slots__ = ("func", "bidegree")

    def __init__(self, func, bidegree):
        j, k = bidegree
        self._set(func=func, bidegree=(Fraction(j), Fraction(k)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.func, self.bidegree) == (other.func, other.bidegree)

    def __hash__(self):
        return hash((self.func, self.bidegree))

    def __call__(self, zhat):
        return self.func(zhat)


class SectionValue(_Frozen):
    """A section value with its weight data and the coordinate pair it was taken at.

    ``zhat`` is the pair ``(z1, z2)`` as :func:`pull_back_section` read it.
    The basepoint representative ``(1, z1, z2)`` is built from it on first
    read and kept: a :class:`HomVec` for one point; for ``N`` points at once
    ``value`` is an ``(N,)`` array and ``basepoint`` the ``(N, 3)`` array of
    representatives.  The pair's arrays are the caller's, not copies, so a
    caller that writes to them reads ``basepoint`` first.  Immutable; it
    compares by identity, since its fields may be arrays.
    """

    def __init__(self, value, bidegree, zhat, chart_dependent=False):
        # Straight into the instance dict: every warm pull-back builds one.
        fields = vars(self)
        fields.update(value=value, bidegree=bidegree, zhat=zhat, chart_dependent=chart_dependent)

    @cached_property
    def basepoint(self):
        z1, z2 = self.zhat
        return HomVec.from_affine(self.zhat) if np.ndim(z1) == 0 else _lift(z1, z2)


def _frac_power(base, expo):
    """base**expo for a Fraction exponent, principal branch, elementwise."""
    if expo.denominator == 1:
        return base**expo.numerator
    return np.exp(float(expo) * np.log(base))


# The screen of the batch pull-back.  When every real and imaginary part of
# the image coordinates out_l * (1 / out0) lies below it, each |out_l| /
# |out0| is below sqrt(2) * _SCREEN (1e14 / 1.06) up to a few ulp, so no point
# is on the pole by the rule of _off_pole.  A NaN, an overflowed reciprocal
# or a point near the pole fails it.
_SCREEN = 1e14 / 1.5


def pull_back_section(t, f, zhat):
    """Pull a weighted section back along a projective map, at affine points.

    For bidegree ``(j, k)`` the affine transformation law is

        (T* f)(z) = den**j * conj(den)**k * f(T(z)),
        den = M00 + M01*z1 + M02*z2.

    ``zhat`` is a coordinate pair ``(z1, z2)``: of one point (a length-2
    sequence), or of ``N`` points as two ``(N,)`` arrays, in which case the
    section is called once on the image pair and the value is an ``(N,)``
    array.  Half-integer exponents use the principal branch of ``den`` and
    the result is flagged ``chart_dependent`` (only its modulus is
    invariant).

    One point is divided out as :meth:`ProjMap.affine` does it, and its
    weight is ``den**j``.  ``N`` points share one reciprocal ``inv = 1 /
    den``: the image is ``(out1 * inv, out2 * inv)``, within 1.5 ulp of
    :meth:`ProjMap.affine`, and a negative integer ``j`` weighs by
    ``inv**-j``, within a few ulp of ``den**j`` (``j >= 0`` and half-integer
    weights are taken from ``den`` as for one point).  The pole rule is then
    one screen on the image: its real and imaginary parts all below
    ``1e14 / 1.5``.  A batch that fails the screen (a NaN, a reciprocal that
    overflows, or a point near the pole) is decided by the exact rule and
    computed by its division and ``den**j``, so the same batches raise.

    Raises
    ------
    ZeroDivisionError
        If some point lies on the pole hyperplane ``den = 0`` of the map.
    """
    if not isinstance(t, ProjMap):
        t = normalize_map(t)
    if not isinstance(f, Section):
        raise TypeError("f must be a Section (affine value function + bidegree)")
    z1, z2, shape = _as_points(*zhat)
    den, out1, out2 = t._images(z1, z2)
    j, k = f.bidegree
    image = None
    if shape is not None:
        buf = np.empty((2,) + shape, dtype=complex)
        with np.errstate(all="ignore"):
            inv = 1.0 / den
            np.multiply(out1, inv, out=buf[0])
            np.multiply(out2, inv, out=buf[1])
        if np.abs(buf.view(float)).max(initial=0.0) < _SCREEN:
            image = (buf[0], buf[1])
            n = j.numerator
            factor = inv**-n if n < 0 and j.denominator == 1 else _frac_power(den, j)
    if image is None:
        image = _off_pole(
            den, out1, out2, "affine point lies on the pole hyperplane of this affinization"
        )
        factor = _frac_power(den, j)
    if k.numerator:
        factor = factor * _frac_power(np.conj(den), k)
    # One point's value is a numpy complex whatever the bidegree.
    value = _value(factor, np.complex128) * f(image)
    return SectionValue(
        value=value,
        bidegree=(j, k),
        zhat=(z1, z2),
        chart_dependent=j.denominator != 1 or k.denominator != 1,
    )
