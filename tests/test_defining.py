"""Hermitian polynomial defining functions: parsing, calculus, transformation."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardycorners.hermpoly import (
    HermitianPoly,
    HermitianSymmetryError,
    Poly,
    PolyParseError,
    gradient_hyperplane,
    parse_poly,
    transform_poly,
)
from hardycorners.projective import dual_map, pair, proj_equal

from conftest import random_unit_det_map


SPHERE = "abs2(z1) + abs2(z2) - 1"


def _numeric_grad_real(rho, z1, z2, h=1e-6):
    out = []
    for k in range(4):
        d = np.zeros(4)
        d[k] = h
        zp = (z1 + complex(d[0], d[1]), z2 + complex(d[2], d[3]))
        zm = (z1 - complex(d[0], d[1]), z2 - complex(d[2], d[3]))
        out.append((rho(*zp) - rho(*zm)) / (2 * h))
    return np.array(out)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_sphere_evaluates():
    rho = parse_poly(SPHERE)
    assert np.isclose(rho(0.6, 0.8j), 0.0)
    assert rho(0.0, 0.0) == -1.0
    assert rho(1.0, 1.0) == 1.0


def test_parse_powers_and_products():
    rho = parse_poly("z1^2*conj(z1)^2 - 2*abs2(z1) + 1")
    z1 = 0.3 + 0.4j
    assert np.isclose(rho(z1, 0.0), (abs(z1) ** 2 - 1) ** 2)


def test_parse_complex_coefficients_hermitian():
    rho = parse_poly("(0,1)*z1*conj(z2) + (0,-1)*conj(z1)*z2")
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
    expected = (1j * z1 * np.conj(z2) + np.conj(1j * z1 * np.conj(z2))).real
    assert np.isclose(rho(z1, z2), expected)


def test_parse_error_carries_position_marker():
    with pytest.raises(PolyParseError) as exc_info:
        parse_poly("abs2(z1) + abs2(z3) - 1")
    assert "<HERE>" in str(exc_info.value)
    assert isinstance(exc_info.value.pos, int)


def test_parse_rejects_unbalanced_parens():
    with pytest.raises(PolyParseError):
        parse_poly("abs2(z1")


@pytest.mark.parametrize("text", ["1.2.3*abs2(z1) - 1", ".*abs2(z1)"])
def test_parse_malformed_number_is_located(text):
    with pytest.raises(PolyParseError, match="malformed number") as exc_info:
        parse_poly(text)
    assert exc_info.value.pos == 0


@pytest.mark.parametrize(
    "text, terms",
    [
        ("1e-3*abs2(z1) - 1", {(0, 0, 0, 0): -1.0, (1, 1, 0, 0): 1e-3}),
        ("(2.5E+1, 0e0)*abs2(z2) - .5e1", {(0, 0, 0, 0): -5.0, (0, 0, 1, 1): 25.0}),
    ],
)
def test_parse_number_with_exponent(text, terms):
    assert parse_poly(text).terms == terms


def test_parse_accepts_a_leading_plus():
    assert parse_poly("+abs2(z1) - 1").terms == parse_poly("abs2(z1) - 1").terms


def test_parse_exponent_needs_digits():
    with pytest.raises(PolyParseError, match="expected '\\+', '-' or end of input") as exc_info:
        parse_poly("1e*abs2(z1)")
    assert exc_info.value.pos == 1


@pytest.mark.parametrize(
    "text, pos, message",
    [
        ("1e999*abs2(z1) - 1", 0, "number '1e999' overflows a float"),
        ("abs2(z1) - 1" + "0" * 400, 11, "overflows a float"),
        ("(1e308,1e308)*abs2(z1)*1e10 - 1", 0, "coefficient (inf+infj) of this term is not finite"),
        ("1e308*abs2(z1) + 1e308*abs2(z1) - 1", 17, "coefficient (inf+0j) of this term"),
    ],
)
def test_parse_rejects_coefficients_that_overflow_a_float(text, pos, message):
    with pytest.raises(PolyParseError) as exc_info:
        parse_poly(text)
    assert exc_info.value.pos == pos
    assert message in str(exc_info.value)


def test_parse_exponent_longer_than_int_converts_is_located():
    with pytest.raises(PolyParseError, match="exponent of 5000 digits is too long") as exc_info:
        parse_poly("z1^" + "9" * 5000 + "*conj(z1) - 1")
    assert exc_info.value.pos == 3


# Other Unicode digits pass str.isdigit, int and float, but the grammar's numbers are ASCII.
@pytest.mark.parametrize(
    "text, pos", [("z1^\u00b2", 3), ("\u0663*abs2(z1) - 1", 0), ("(\u0661, 0)*abs2(z1)", 1)]
)
def test_parse_rejects_non_ascii_digits(text, pos):
    with pytest.raises(PolyParseError) as exc_info:
        parse_poly(text)
    assert exc_info.value.pos == pos


def test_non_hermitian_terms_rejected():
    with pytest.raises(HermitianSymmetryError):
        parse_poly("abs2(z1) + z1 - 1")
    with pytest.raises(HermitianSymmetryError):
        parse_poly("(1,1)*z1*conj(z2) + (1,1)*conj(z1)*z2")


def test_hermitian_poly_values_are_real(rng):
    rho = parse_poly("abs2(z1) + 0.1*abs2(z2) - 1 + 0.2*z1*conj(z2) + 0.2*conj(z1)*z2")
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        val = rho(z[0], z[1])
        assert isinstance(val, float)


# ---------------------------------------------------------------------------
# Polynomial calculus


def test_diff_on_monomial():
    p = Poly({(2, 1, 0, 0): 3.0})  # 3 * z1^2 * conj(z1)
    dz = p.diff("z1")
    assert dz.terms == {(1, 1, 0, 0): 6.0}
    dzbar = p.diff("z1bar")
    assert dzbar.terms == {(2, 0, 0, 0): 3.0}
    assert p.diff("z2").is_zero()


def test_wirtinger_matches_diff():
    # d/dz2 of (2 + i) z1 z2^2 conj(z2) is 2 (2 + i) z1 z2 conj(z2)
    p = Poly({(1, 0, 2, 1): 2.0 + 1j})
    assert p.diff("z2").terms == {(1, 0, 1, 1): 4.0 + 2.0j}
    with pytest.raises(ValueError, match="must be one of"):
        p.diff("x1")


def test_conj_swaps_exponent_pairs():
    p = Poly({(2, 0, 1, 0): 1.0 + 2.0j})
    q = p.conj()
    assert q.terms == {(0, 2, 0, 1): 1.0 - 2.0j}


def test_max_degrees():
    p = Poly({(2, 1, 0, 3): 1.0, (0, 0, 1, 0): 1.0})
    assert p.max_degrees() == (2, 4)


def test_grad_matches_finite_differences(rng):
    rho = parse_poly(
        "abs2(z1)*abs2(z1) + abs2(z2) - 1 + 0.3*z1*conj(z2) + 0.3*conj(z1)*z2"
    )
    for _ in range(5):
        z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rho.grad(z1, z2)
        num = _numeric_grad_real(rho, z1, z2)
        # real 4-gradient from the holomorphic gradient of a real function
        assert np.isclose(num[0], 2 * g[0].real, atol=1e-6)
        assert np.isclose(num[1], -2 * g[0].imag, atol=1e-6)
        assert np.isclose(num[2], 2 * g[1].real, atol=1e-6)
        assert np.isclose(num[3], -2 * g[1].imag, atol=1e-6)
        assert np.allclose(rho.grad_real(z1, z2), num, atol=1e-6)


def test_hessian_is_hermitian_and_matches_differences(rng):
    rho = parse_poly(
        "abs2(z1)*abs2(z2) + abs2(z1) + abs2(z2) "
        "+ (0.2,0.1)*z1^2*conj(z2) + (0.2,-0.1)*conj(z1)^2*z2 - 1"
    )
    z1, z2 = 0.4 + 0.2j, -0.3 + 0.6j
    h = rho.hessian_complex(z1, z2)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    eps = 1e-6
    for k in range(2):
        dz = np.zeros(2, dtype=complex)
        dz[k] = eps
        for j in range(2):
            gp = rho.grad(z1 + (1j * dz)[0], z2 + (1j * dz)[1])[j]
            gm = rho.grad(z1 - (1j * dz)[0], z2 - (1j * dz)[1])[j]
            gpr = rho.grad(z1 + dz[0], z2 + dz[1])[j]
            gmr = rho.grad(z1 - dz[0], z2 - dz[1])[j]
            fd_x = (gpr - gmr) / (2 * eps)
            fd_iy = (gp - gm) / (2j * eps)
            # anti-holomorphic derivative in slot k of the j-th gradient entry
            mixed = (fd_x - fd_iy) / 2.0
            assert np.isclose(h[k, j], mixed, atol=1e-5)


def test_sphere_hessian_is_identity():
    rho = parse_poly(SPHERE)
    assert np.allclose(rho.hessian_complex(0.3, 0.5j), np.eye(2))


# ---------------------------------------------------------------------------
# Gradient hyperplane and transformation


def test_gradient_hyperplane_incident():
    rho = parse_poly(SPHERE)
    zhat = (0.6, 0.8j)
    w = gradient_hyperplane(rho, zhat)
    assert w.role == "hyperplane"
    z = np.array([1.0, zhat[0], zhat[1]], dtype=complex)
    assert abs(pair(w.array, z)) < 1e-14


def test_gradient_hyperplane_rejects_critical_point():
    rho = parse_poly("abs2(z1)*abs2(z1) + abs2(z2)*abs2(z2)")
    with pytest.raises(ValueError):
        gradient_hyperplane(rho, (0.0, 0.0))


def test_transform_poly_maps_zero_set(rng):
    rho = parse_poly(SPHERE)
    t = random_unit_det_map(rng, scale=0.2)
    image = transform_poly(rho, t)
    for _ in range(10):
        th, ph = rng.uniform(0, 2 * np.pi, 2)
        r = rng.uniform(0, 1) ** 0.5
        zhat = np.array(
            [r * np.exp(1j * th), np.sqrt(1 - r**2) * np.exp(1j * ph)]
        )
        assert abs(rho(zhat[0], zhat[1])) < 1e-12
        w = t.affine(zhat)
        assert abs(image(w[0], w[1])) < 1e-10


def test_transform_poly_preserves_interior_sign(rng):
    rho = parse_poly(SPHERE)
    t = random_unit_det_map(rng, scale=0.2)
    image = transform_poly(rho, t)
    inside = t.affine(np.array([0.1 + 0.2j, -0.3j]))
    outside = t.affine(np.array([1.2, 0.9j]))
    assert image(inside[0], inside[1]) < 0
    assert image(outside[0], outside[1]) > 0


def test_transformed_tangent_plane_is_dual_image(rng):
    # The tangent hyperplane of the transformed zero set at the image point
    # is the dual-map image of the original tangent hyperplane.
    rho = parse_poly("abs2(z1) + 0.5*abs2(z2) - 1")
    zhat = np.array([0.6 + 0.3j, np.sqrt((1 - 0.45) / 0.5)])
    assert abs(rho(zhat[0], zhat[1])) < 1e-12
    for _ in range(5):
        t = random_unit_det_map(rng, scale=0.2)
        image = transform_poly(rho, t)
        w_image = gradient_hyperplane(image, t.affine(zhat))
        w_pushed = dual_map(t).matrix @ gradient_hyperplane(rho, zhat).array
        assert proj_equal(w_image.array, w_pushed, tol=1e-8)


coef = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(a=coef, b=coef)
def test_parsed_polynomials_are_real_valued(a, b):
    # negative coefficients spelled in (re, im) form
    rho = parse_poly(
        f"abs2(z1) + ({a:.6f},0)*z1*conj(z2) + ({a:.6f},0)*conj(z1)*z2 + ({b:.6f},0)"
    )
    val = rho(0.3 + 0.7j, -0.2 + 0.1j)
    assert isinstance(val, float)


def test_transform_poly_rejects_a_degree_below_the_polynomial():
    sphere = parse_poly("abs2(z1) + abs2(z2) - 1")
    with pytest.raises(ValueError, match="^degree 0 is below the polynomial degree 1$"):
        transform_poly(sphere, np.eye(3), degree=0)


@pytest.mark.parametrize(
    "text, message", [("   ", "empty polynomial"), ("z1 +", "unexpected end of input")]
)
def test_parse_rejects_empty_input_and_a_dangling_sign(text, message):
    expected = f"{message} at position {len(text)}: {text}<HERE>"
    with pytest.raises(PolyParseError, match=f"^{re.escape(expected)}$") as info:
        parse_poly(text)
    assert info.value.pos == len(text)


def test_parse_rejects_a_non_string():
    with pytest.raises(TypeError, match="^parse_poly expects a string$"):
        parse_poly(3)
