"""Real-valued polynomial defining functions in (z1, conj(z1), z2, conj(z2)).

A boundary hypersurface is cut out by a real-valued polynomial in the two
complex variables and their conjugates.  Restricting to polynomials keeps
every derivative exact: the Wirtinger derivatives used by the kernels and
the complex Hessian used by the boundary measure are term-by-term exponent
arithmetic, so no numerical differentiation enters any invariance test.

Realness is equivalent to Hermitian symmetry of the coefficient table:
the coefficient of ``z1^p1 conj(z1)^q1 z2^p2 conj(z2)^q2`` must equal the
conjugate of the coefficient of the exponent-swapped monomial
``(q1, p1, q2, p2)``.  :func:`parse_poly` enforces this and reports the
offending term pair when it fails.

The text grammar (stable across versions, used verbatim inside domain-spec
files)::

    poly    := ["+" | "-"] term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := number | "(" signed "," signed ")"    # (re, im)
             | var ["^" int] | "conj(" var ")" ["^" int] | "abs2(" var ")"
    signed  := ["+" | "-"] number
    number  := [0-9.]+ [("e" | "E") ["+" | "-"] [0-9]+]
    int     := [0-9]+
    var     := "z1" | "z2"

``abs2(z1)`` is sugar for ``z1*conj(z1)``.  Exponents are non-negative
integers; an omitted exponent means 1.  Numbers are ASCII decimals with an
optional exponent (``0.5``, ``.5``, ``1e-3``, ``2.5E+1``) that ``float`` must
accept, so ``1.2.3`` is a malformed number; other Unicode digits (``²``,
``٣``) are not digits here, and a parse error names their position.  A
number that overflows a float (``1e999``), a term whose coefficient does
(``(1e308, 1e308)*1e10``, or a repeated monomial whose coefficients sum
past the float range), and an exponent longer than ``int`` converts (4,300
digits) are parse errors at the number's, term's or exponent's position.
"""

from __future__ import annotations

import cmath
import math
import re
from functools import cached_property
from operator import add

import numpy as np

from .projective import HomVec, ProjMap, _as_points, _dot2, _stack_last, normalize_map

__all__ = [
    "Poly",
    "HermitianPoly",
    "PolyParseError",
    "HermitianSymmetryError",
    "parse_poly",
    "gradient_hyperplane",
    "transform_poly",
]

# Exponent keys are 4-tuples (p1, q1, p2, q2) for z1^p1 conj(z1)^q1 z2^p2 conj(z2)^q2.
_VARS = ("z1", "z1bar", "z2", "z2bar")


def _mate(key):
    """The key of the conjugate monomial: each variable's exponent swapped with its conjugate's."""
    p1, q1, p2, q2 = key
    return (q1, p1, q2, p2)


def _values(polys, z1, z2):
    """Each of ``polys`` at the points, which are conjugated once for all of them.

    The conjugates are freed on return, before a caller stacks the values:
    holding them across that allocation made the allocator give heap pages
    back and fault them in again at every Newton step of a chart build.
    """
    z1, z2, shape = _as_points(z1, z2)
    zs = (z1, z1.conjugate(), z2, z2.conjugate())
    return [p._at(zs, shape) for p in polys]


def _hessian(rows, z1, z2):
    """The 2x2 polynomials ``rows`` evaluated on the last two axes."""
    values = _values([*rows[0], *rows[1]], z1, z2)
    return _stack_last([values[:2], values[2:]], ndim=2)


class Poly:
    """Polynomial in (z1, conj z1, z2, conj z2) with complex coefficients.

    Not necessarily real-valued; this is the common representation for
    Wirtinger derivatives of the real defining functions.

    The coefficient table is compiled once, at construction, into a term
    table: each term's coefficient with its nonzero (variable, exponent)
    pairs.  Evaluation walks that table with arithmetic that is generic over
    Python complex scalars and numpy arrays, so a call at one point costs a
    few scalar multiplications and a call on ``(N,)`` arrays costs a few
    array multiplications per term, with one code path for both.
    """

    def __init__(self, terms=None):
        # Canonical form: no zero coefficients, sorted keys, and + 0j writes a -0.0 part as +0.0.
        self.terms = {k: complex(c) + 0j for k, c in sorted((terms or {}).items()) if c != 0}
        for key, c in self.terms.items():
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of {_monomial_str(key)} is not finite")
        self._table = tuple(
            (c, tuple((slot, e) for slot, e in enumerate(key) if e))
            for key, c in self.terms.items()
        )

    def __call__(self, z1, z2):
        """Evaluate at one point, or elementwise on arrays of points."""
        return _values([self], z1, z2)[0]

    def _at(self, zs, shape):
        """The value at ``zs = (z1, conj z1, z2, conj z2)``; ``shape`` is None for one point."""
        total = 0.0 + 0.0j if shape is None else np.zeros(shape, dtype=complex)
        for c, factors in self._table:
            term = c
            for slot, e in factors:
                term = term * (zs[slot] if e == 1 else zs[slot] ** e)
            total += term
        return total

    def diff(self, var):
        """Exact partial derivative with respect to one of z1, z1bar, z2, z2bar."""
        if var not in _VARS:
            raise ValueError(f"var must be one of {_VARS}, got {var!r}")
        i = _VARS.index(var)
        # Lowering one exponent maps distinct monomials to distinct ones: no two terms meet.
        return Poly(
            {k[:i] + (k[i] - 1,) + k[i + 1 :]: c * k[i] for k, c in self.terms.items() if k[i]}
        )

    @cached_property
    def _derivatives(self):
        """Gradient polynomials (d/dz1, d/dz2) and Hessian ones H[j][k] = d/dz_k d/dzbar_j."""
        grad = (self.diff("z1"), self.diff("z2"))
        hess = tuple(
            tuple(self.diff(bvar).diff(hvar) for hvar in ("z1", "z2"))
            for bvar in ("z1bar", "z2bar")
        )
        return grad, hess

    @cached_property
    def _holomorphic_hessian(self):
        """Holomorphic Hessian polynomials H[j][k] = d/dz_j d/dz_k, derived on first use."""
        d1, d2 = self._derivatives[0]
        mixed = d1.diff("z2")
        return ((d1.diff("z1"), mixed), (mixed, d2.diff("z2")))

    def conj(self):
        """Complex conjugate polynomial (swaps holomorphic/antiholomorphic exponents)."""
        return Poly({_mate(key): c.conjugate() for key, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def max_degrees(self):
        """(holomorphic degree, antiholomorphic degree) over all terms."""
        dh = max((p1 + p2 for (p1, q1, p2, q2) in self.terms), default=0)
        da = max((q1 + q2 for (p1, q1, p2, q2) in self.terms), default=0)
        return dh, da

    def __repr__(self):
        return f"Poly({self.terms!r})"


class HermitianSymmetryError(ValueError):
    """Raised when a would-be defining function is not real-valued."""

    def __init__(self, pairs):
        self.pairs = pairs
        lines = []
        for key, coeff, skey, scoeff in pairs:
            lines.append(
                f"coefficient {coeff} of {_monomial_str(key)} must equal the "
                f"conjugate of coefficient {scoeff} of {_monomial_str(skey)}"
            )
        super().__init__("polynomial is not real-valued: " + "; ".join(lines))


def _monomial_str(key):
    p1, q1, p2, q2 = key
    parts = []
    for name, e in (("z1", p1), ("conj(z1)", q1), ("z2", p2), ("conj(z2)", q2)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class HermitianPoly(Poly):
    """A real-valued polynomial: coefficient table with Hermitian symmetry."""

    def __init__(self, terms=None):
        super().__init__(terms)
        bad = []
        for key, c in self.terms.items():
            skey = _mate(key)
            if skey < key and skey in self.terms:
                continue  # the pair was checked at its first key
            sc = self.terms.get(skey, 0j)
            if abs(c - sc.conjugate()) > 1e-12 * max(abs(c), abs(sc), 1.0):
                bad.append((key, c, skey, sc))
        if bad:
            raise HermitianSymmetryError(bad)

    def __call__(self, z1, z2):
        """Evaluate; realness is structural, so return a float (or a float array)."""
        return Poly.__call__(self, z1, z2).real

    def grad(self, z1, z2):
        """Holomorphic Wirtinger gradient (d/dz1, d/dz2), stacked on a last axis of length 2."""
        return _stack_last(_values(self._derivatives[0], z1, z2))

    def grad_real(self, z1, z2):
        """Real gradient (d/dx1, d/dy1, d/dx2, d/dy2), stacked on a last axis of length 4."""
        return _real_gradient(self.grad(z1, z2))

    def hessian_complex(self, z1, z2):
        """Complex Hessian H[j, k] = d^2 rho / (dz_k d conj(z_j)) on the last two axes."""
        return _hessian(self._derivatives[1], z1, z2)

    def hessian_holomorphic(self, z1, z2):
        """Holomorphic Hessian H[j, k] = d^2 rho / (dz_j dz_k) on the last two axes."""
        return _hessian(self._holomorphic_hessian, z1, z2)

    def __repr__(self):
        return f"HermitianPoly({self.terms!r})"


class PolyParseError(ValueError):
    """Syntax error in the defining-function grammar, with source position."""

    def __init__(self, message, pos, text):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} at position {pos}: {text[:pos]}<HERE>{text[pos:]}")


# ASCII only: str.isdigit, int and float also take other Unicode digits.
_NUMBER = re.compile(r"[+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?")
_INTEGER = re.compile(r"[0-9]+")


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def error(self, message, pos=None):
        raise PolyParseError(message, self.pos if pos is None else pos, self.text)

    def expect(self, literal):
        if not self.try_literal(literal):
            self.error(f"expected {literal!r}")

    def try_literal(self, literal):
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def match(self, pattern, message):
        """Consume and return the text ``pattern`` matches at the next token; else ``message``."""
        self._skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            self.error(message)
        self.pos = m.end()
        return m.group()

    def number(self):
        text = self.match(_NUMBER, "expected a number")
        try:
            value = float(text)
        except ValueError:
            self.error(f"malformed number {text!r}", self.pos - len(text))
        if not math.isfinite(value):
            self.error(f"number {text!r} overflows a float", self.pos - len(text))
        return value

    def integer(self):
        text = self.match(_INTEGER, "expected a non-negative integer exponent")
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            self.error(f"exponent of {len(text)} digits is too long", self.pos - len(text))


def _parse_var(tok):
    if tok.try_literal("z1"):
        return 0
    if tok.try_literal("z2"):
        return 2
    tok.error("expected variable z1 or z2")


def _parse_factor(tok):
    """Return (coeff, exponent-4-tuple) for one factor."""
    ch = tok.peek()
    if ch is None:
        tok.error("unexpected end of input")
    if ch == "(":
        # complex coefficient (re, im)
        tok.expect("(")
        re = tok.number()
        tok.expect(",")
        im = tok.number()
        tok.expect(")")
        return complex(re, im), (0, 0, 0, 0)
    if ch in "0123456789.":
        return complex(tok.number()), (0, 0, 0, 0)
    abs2 = tok.try_literal("abs2(")
    conj = not abs2 and tok.try_literal("conj(")
    slot = _parse_var(tok)
    if abs2 or conj:
        tok.expect(")")
    exps = [0, 0, 0, 0]
    exps[slot + conj] = tok.integer() if not abs2 and tok.try_literal("^") else 1
    if abs2:
        exps[slot + 1] = 1  # abs2(z) is z*conj(z), and takes no exponent
    return 1.0 + 0.0j, tuple(exps)


def _parse_term(tok, sign, terms):
    """Add one term's coefficient to ``terms``; an error if the sum is not finite."""
    tok._skip_ws()
    start = tok.pos
    coeff = complex(sign)
    exps = [0, 0, 0, 0]
    while True:
        c, e = _parse_factor(tok)
        coeff *= c
        exps = [a + b for a, b in zip(exps, e)]
        if not tok.try_literal("*"):
            break
    key = tuple(exps)
    total = terms.get(key, 0.0 + 0.0j) + coeff
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        tok.error(f"coefficient {total!r} of this term is not finite", start)
    terms[key] = total


def parse_poly(text):
    """Parse the defining-function grammar into a :class:`HermitianPoly`.

    Raises
    ------
    PolyParseError
        On malformed input, with the source position of the failure.
    HermitianSymmetryError
        When the polynomial is not real-valued, listing the offending
        coefficient pair(s).

    Examples
    --------
    >>> p = parse_poly("abs2(z1) + abs2(z2) - 1")
    >>> round(p(0.6, 0.8), 12)
    0.0
    """
    if not isinstance(text, str):
        raise TypeError("parse_poly expects a string")
    tok = _Tokenizer(text)
    if tok.peek() is None:
        tok.error("empty polynomial")
    terms = {}
    while True:
        if tok.try_literal("-"):
            sign = -1.0
        elif tok.try_literal("+") or not terms:  # only the first term's sign is optional
            sign = 1.0
        else:
            tok.error("expected '+', '-' or end of input")
        _parse_term(tok, sign, terms)
        if tok.peek() is None:
            return HermitianPoly(terms)


def _real_gradient(g):
    """The real gradient ``(d/dx1, d/dy1, d/dx2, d/dy2)`` of Wirtinger gradients: ``2 conj(g)``."""
    return 2.0 * np.ascontiguousarray(np.conj(g)).view(float)


def _gradient_norm(g):
    """``|g|`` on the last axis; ``ValueError`` where it is below 1e-14 (a critical point)."""
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn < 1e-14):
        raise ValueError("vanishing gradient: the defining function has a critical point")
    return gn


def _hermitian_form(h, u, v):
    """``u^H h v`` for complex Hessians ``h`` ``(..., 2, 2)`` and vectors ``u``, ``v`` ``(..., 2)``."""
    return _dot2(np.conj(u), (h @ v[..., None])[..., 0])


def gradient_hyperplane(rho, zhat):
    """The tangent hyperplane cut out by the holomorphic gradient at a boundary point.

    Returns the hyperplane ``[-(r1*z1 + r2*z2) : r1 : r2]`` with
    ``r_j = d rho / d z_j`` evaluated at the affine point; it is incident to
    ``[1 : z1 : z2]`` exactly by construction.  For an ``(N, 2)`` array of
    points the result is the ``(N, 3)`` array of hyperplane coordinates.
    """
    zhat = np.asarray(zhat, dtype=complex)
    g = rho.grad(zhat[..., 0], zhat[..., 1])
    _gradient_norm(g)
    w = np.stack([-_dot2(g, zhat), g[..., 0], g[..., 1]], axis=-1)
    if w.ndim == 1:
        return HomVec(tuple(w), role="hyperplane")
    return w


def _mul(a, b):
    """The product of two ``{exponent tuple: coefficient}`` dicts."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(map(add, ka, kb))
            out[key] = out.get(key, 0.0 + 0.0j) + ca * cb
    return out


def _linear_forms_product(forms, exps):
    """``prod_i forms[i]**exps[i]`` of linear forms in ``(z0, z1, z2)``, as an exponent dict."""
    result = {(0, 0, 0): 1.0 + 0.0j}
    for form, e in zip(forms, exps):
        for _ in range(e):
            result = _mul(result, form)
    return result


def transform_poly(rho, t, degree=None):
    """Defining function of the image hypersurface under a projective map.

    Bihomogenizes ``rho`` to degree ``degree`` in the coordinates and in their
    conjugates (default: the polynomial's own max degree), substitutes the
    rows of the inverse matrix, and dehomogenizes at ``z0 = 1``.  The result
    equals ``|den|**(2*degree) * rho(T^(-1) z)`` with a positive factor, so it
    is a valid defining function for the transformed hypersurface with the
    same sign convention.

    When several hypersurfaces of one domain are transformed together, pass a
    common *degree* (the max over the family): quantities built from several
    gradients at once then rescale coherently.
    """
    if not isinstance(t, ProjMap):
        t = normalize_map(t)
    dh, da = rho.max_degrees()
    d = max(dh, da)
    if degree is None:
        degree = d
    if degree < d:
        raise ValueError(f"degree {degree} is below the polynomial degree {d}")
    n = np.linalg.inv(t.matrix)
    # The linear forms row . Z of the inverse's rows and of their conjugates, with Python
    # complex coefficients: numpy scalar products round alike but cost several times more.
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    nforms, cforms = (
        [{k: complex(c) for k, c in zip(units, row) if c != 0} for row in m]
        for m in (n, np.conj(n))
    )

    out = {}
    for (p1, q1, p2, q2), coeff in rho.terms.items():
        holo = _linear_forms_product(nforms, (degree - p1 - p2, p1, p2))
        anti = _linear_forms_product(cforms, (degree - q1 - q2, q1, q2))
        for (h0, h1, h2), hc in holo.items():
            for (a0, a1, a2), ac in anti.items():
                key = (h1, a1, h2, a2)  # dehomogenize: z0 = conj(z0) = 1
                out[key] = out.get(key, 0.0 + 0.0j) + coeff * hc * ac
    # roundoff can leave ~1e-17 asymmetries; resymmetrize exactly
    sym = {}
    for key, c in out.items():
        sym[key] = (c + out.get(_mate(key), 0.0 + 0.0j).conjugate()) / 2.0
    sym = {k: v for k, v in sym.items() if abs(v) > 1e-14}
    return HermitianPoly(sym)
