"""Homogeneous coordinates, projective maps, duality, and line-bundle sections."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardycorners.projective import (
    HomVec,
    ProjMap,
    Section,
    affinize,
    dual_map,
    homogenize,
    normalize_map,
    pair,
    proj_equal,
    pull_back_section,
)

from conftest import random_unit_det_map


def _random_point(rng):
    return rng.standard_normal(2) + 1j * rng.standard_normal(2)


# ---------------------------------------------------------------------------
# Homogeneous vectors


def test_homvec_affine_roundtrip():
    zhat = (0.3 + 0.1j, -0.7 - 0.2j)
    v = HomVec.from_affine(zhat)
    assert v.role == "point"
    assert np.allclose(affinize(v), zhat)


def test_homvec_rejects_bad_role():
    with pytest.raises(ValueError):
        HomVec((1.0, 0.0, 0.0), role="line")


def test_homvec_rejects_zero_vector():
    with pytest.raises(ValueError):
        HomVec((0.0, 0.0, 0.0))


def test_homogenize_affinize_roundtrip():
    zhat = np.array([0.2 - 0.4j, 1.5 + 0.3j])
    z = homogenize(zhat)
    assert z[0] == 1.0
    assert np.allclose(affinize(z), zhat)
    assert np.allclose(affinize(3.7j * z), zhat)


finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@given(
    coords=st.tuples(*[finite] * 6),
    scale=st.tuples(finite, finite),
)
def test_proj_equal_under_scaling(coords, scale):
    v = np.array(
        [
            complex(coords[0], coords[1]),
            complex(coords[2], coords[3]),
            complex(coords[4], coords[5]),
        ]
    )
    lam = complex(scale[0], scale[1])
    if np.linalg.norm(v) < 1e-3 or abs(lam) < 1e-3:
        return
    assert proj_equal(v, lam * v)


def test_proj_equal_distinguishes_points():
    assert not proj_equal(
        np.array([1.0, 0.0, 0.0]), np.array([1.0, 1e-3, 0.0]), tol=1e-10
    )


# ---------------------------------------------------------------------------
# Projective maps


def test_projmap_matches_matrix_action(rng):
    t = random_unit_det_map(rng)
    zhat = _random_point(rng)
    expected = affinize(t.matrix @ homogenize(zhat))
    assert np.allclose(t.affine(zhat), expected, atol=1e-12)


def test_projmap_den_is_first_row(rng):
    t = random_unit_det_map(rng)
    zhat = _random_point(rng)
    m = t.matrix
    assert np.isclose(t.den(zhat), m[0, 0] + m[0, 1] * zhat[0] + m[0, 2] * zhat[1])


def test_normalize_map_has_unit_determinant(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = normalize_map(m)
    assert np.isclose(np.linalg.det(t.matrix), 1.0, atol=1e-12)
    # same projective action as the raw matrix
    zhat = _random_point(rng)
    assert np.allclose(t.affine(zhat), affinize(m @ homogenize(zhat)), atol=1e-10)


def test_inverse_composes_to_identity(rng):
    t = random_unit_det_map(rng)
    zhat = _random_point(rng)
    assert np.allclose(t.inverse().affine(t.affine(zhat)), zhat, atol=1e-10)


def test_den_cocycle_for_unit_det_maps(rng):
    # For determinant-one maps the denominator of the inverse at the image
    # point is the reciprocal of the denominator at the source point.
    for _ in range(10):
        t = random_unit_det_map(rng)
        zhat = _random_point(rng)
        prod = t.inverse().den(t.affine(zhat)) * t.den(zhat)
        assert np.isclose(prod, 1.0, atol=1e-10)


def test_matmul_composes_actions(rng):
    s = random_unit_det_map(rng)
    t = random_unit_det_map(rng)
    zhat = _random_point(rng)
    assert np.allclose(
        (s @ t).affine(zhat), s.affine(t.affine(zhat)), atol=1e-10
    )


def test_jacobian_matches_finite_differences(rng):
    t = random_unit_det_map(rng)
    zhat = _random_point(rng)
    jac = t.jacobian(zhat)
    h = 1e-6
    for k in range(2):
        dz = np.zeros(2, dtype=complex)
        dz[k] = h
        fd = (
            np.array(t.affine(zhat + dz)) - np.array(t.affine(zhat - dz))
        ) / (2 * h)
        assert np.allclose(jac[:, k], fd, atol=1e-6)


def test_jacobian_determinant_is_inverse_cubed_denominator(rng):
    for _ in range(10):
        t = random_unit_det_map(rng)
        zhat = _random_point(rng)
        det = np.linalg.det(t.jacobian(zhat))
        assert np.isclose(det, t.den(zhat) ** -3, rtol=1e-9)


# ---------------------------------------------------------------------------
# Duality


def test_dual_map_preserves_pairing(rng):
    t = random_unit_det_map(rng)
    td = dual_map(t)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.isclose(
        pair(td.matrix @ w, t.matrix @ z), pair(w, z), atol=1e-10
    )


def test_dual_map_preserves_incidence(rng):
    for _ in range(10):
        t = random_unit_det_map(rng)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # two independent hyperplanes through z
        w = np.array([-z[1], z[0], 0.0])
        assert abs(pair(w, z)) < 1e-12
        image = pair(dual_map(t).matrix @ w, t.matrix @ z)
        assert abs(image) < 1e-10


def test_dual_of_shear_example():
    lam = 0.37 - 0.21j
    m = np.array([[1, 0, 0], [lam, 1, 0], [0, 0, 1]], dtype=complex)
    t = ProjMap(m)
    td = dual_map(t)
    w = np.array([2.0 + 1j, -0.5, 3.0], dtype=complex)
    expected = np.array([w[0] - lam * w[1], w[1], w[2]])
    assert np.allclose(td.matrix @ w, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Sections of line bundles


def test_pullback_of_linear_section(rng):
    # The chart representative of the degree-(1, 0) section "first affine
    # coordinate" pulls back to the matching entry of the matrix row.
    t = random_unit_det_map(rng)
    m = t.matrix
    f = Section(lambda zhat: zhat[0], bidegree=(1, 0))
    zhat = _random_point(rng)
    val = pull_back_section(t, f, zhat)
    assert val.bidegree == (1, 0)
    expected = m[1, 0] + m[1, 1] * zhat[0] + m[1, 2] * zhat[1]
    assert np.isclose(val.value, expected, atol=1e-12)


def test_pullback_scaling_law(rng):
    t = random_unit_det_map(rng)
    f = Section(lambda zhat: zhat[0] ** 2 - 0.5 * zhat[1], bidegree=(-2, 1))
    zhat = _random_point(rng)
    den = t.den(zhat)
    expected = den ** (-2) * np.conj(den) * f.func(t.affine(zhat))
    assert np.isclose(pull_back_section(t, f, zhat).value, expected, atol=1e-10)


@pytest.mark.parametrize("bidegree", [(-2, 0), (1, 1), (Fraction(-3, 2), Fraction(1, 2))])
def test_pullback_on_a_batch_equals_pointwise_calls(rng, bidegree):
    t = random_unit_det_map(rng)
    f = Section(lambda zhat: zhat[0] ** 2 - 0.5 * zhat[1] + 1.0, bidegree=bidegree)
    points = np.array([_random_point(rng) for _ in range(7)])
    batch = pull_back_section(t, f, (points[:, 0], points[:, 1]))
    single = [pull_back_section(t, f, z) for z in points]
    assert batch.value.shape == (7,)
    assert np.allclose(batch.value, [s.value for s in single], rtol=1e-14, atol=0)
    assert batch.chart_dependent == single[0].chart_dependent
    assert np.allclose(batch.basepoint[2], single[2].basepoint.array)


def test_pullback_batch_with_one_point_on_the_pole():
    # den = 1 + 2 z1 vanishes at z1 = -1/2 only
    t = normalize_map([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    f = Section(lambda zhat: 1.0, bidegree=(-2, 0))
    z1 = np.array([0.1, -0.5, 0.3j])
    with pytest.raises(ZeroDivisionError):
        pull_back_section(t, f, (z1, np.zeros(3)))
    assert np.all(np.isfinite(pull_back_section(t, f, (z1[[0, 2]], np.zeros(2))).value))


def test_pullback_composition_order(rng):
    # Pulling back through a composite equals pulling back step by step,
    # outermost map first.
    s = random_unit_det_map(rng)
    t = random_unit_det_map(rng)
    f = Section(lambda zhat: zhat[0] * zhat[1] + 1.0, bidegree=(-2, 0))
    zhat = _random_point(rng)
    via_composite = pull_back_section(s @ t, f, zhat)
    inner = Section(
        lambda y: pull_back_section(s, f, y).value, bidegree=f.bidegree
    )
    via_steps = pull_back_section(t, inner, zhat)
    assert np.isclose(via_composite.value, via_steps.value, atol=1e-10)
