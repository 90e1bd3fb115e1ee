"""Homogeneous coordinates, projective maps, duality, and line-bundle sections."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardycorners import projective
from hardycorners.domain import TransformedChart, transform_domain
from hardycorners.measures import hardy_norm
from hardycorners.projective import (
    HomVec,
    ProjMap,
    Section,
    _off_pole,
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


def _pulled(t, func, bidegree, zhat):
    return pull_back_section(t, Section(func, bidegree=bidegree), zhat).value


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


def test_images_equal_the_written_out_affine_rows(rng):
    t = random_unit_det_map(rng)
    points = np.array([_random_point(rng) for _ in range(7)])
    m = t.matrix
    for z1, z2 in ((points[:, 0], points[:, 1]), (complex(points[0, 0]), complex(points[0, 1]))):
        for got, row in zip(t._images(z1, z2), m):
            np.testing.assert_array_equal(got, row[0] + row[1] * z1 + row[2] * z2)


# ---------------------------------------------------------------------------
# The pole rule and one map evaluation per call

# den = 1 + 2 z1 vanishes exactly at z1 = -1/2.
SHEAR = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
# At (0, 0) the image is (1e-13, 0, 100) up to scale: den is far above 1e-14
# in absolute terms but below 1e-14 of the image's largest coordinate.
NEAR_POLE = [[1e-13, 0, 0], [0, 1, 0], [100, 0, 1]]


def _count_images(monkeypatch):
    calls = []
    images = ProjMap._images

    def counted(self, *args, **kwargs):
        calls.append(1)
        return images(self, *args, **kwargs)

    monkeypatch.setattr(ProjMap, "_images", counted)
    return calls


def test_pullback_evaluates_the_map_once(rng, monkeypatch):
    t = random_unit_det_map(rng)
    f = Section(lambda zhat: zhat[0] + 1.0, bidegree=(-2, 0))
    points = np.array([_random_point(rng) for _ in range(5)])
    calls = _count_images(monkeypatch)
    pull_back_section(t, f, (points[:, 0], points[:, 1]))
    assert len(calls) == 1


def test_transformed_chart_projection_evaluates_the_map_once(bidisk, rng, monkeypatch):
    chart = TransformedChart(bidisk.edges[0].chart, random_unit_det_map(rng, scale=0.05))
    params, _ = chart.grid(4)
    calls = _count_images(monkeypatch)
    chart.project(params)
    assert len(calls) == 1


def test_pullback_applies_the_relative_pole_rule():
    f = Section(lambda zhat: 1.0, bidegree=(-2, 0))
    with pytest.raises(ZeroDivisionError, match="pole hyperplane"):
        pull_back_section(normalize_map(NEAR_POLE), f, (0.0, 0.0))


@pytest.mark.parametrize("matrix, zhat", [(NEAR_POLE, (0.0, 0.0)), (SHEAR, (-0.5, 0.0))])
def test_affinize_raises_wherever_affine_does(matrix, zhat):
    t = normalize_map(matrix)
    with pytest.raises(ZeroDivisionError):
        t.affine(zhat)
    with pytest.raises(ZeroDivisionError):
        affinize(t.matrix @ homogenize(zhat))


def _three_comparison_rule(out0, out1, out2):
    """Reference: the pole rule written as one comparison per coordinate."""
    a0 = abs(out0)
    return bool(np.any((a0 <= 1e-14 * abs(out1)) | (a0 <= 1e-14 * abs(out2)) | (a0 == 0)))


_NAN, _INF = float("nan"), float("inf")
_ON = 1e-14 * 3.0  # exactly on the threshold of max(|out1|, |out2|) = 3
_TIES = np.nextafter(_ON, [0.0, 1.0])  # the neighbours just below and above it
POLE_TABLE = [
    (0.0, 0.0, 0.0),
    (0.0, 1.0, 2.0),
    (0.0j, _NAN, _NAN),
    (1.0, _NAN, 2.0),
    (1e-15, _NAN, 2.0),
    (1e-15, 2.0, _NAN),
    (1e-15, _NAN, _NAN),
    (_NAN, 1.0, 1.0),
    (1.0, _INF, 0.0),
    (1.0, 0.0, -_INF),
    (_INF, 1.0, 1.0),
    (_INF, _INF, _INF),
    (_ON, 3.0, 1.0),
    (_ON, 1.0, 3.0),
    (_ON * 1j, 3.0j, -1.0),
    (_ON, 2.9 + 2.9j, 0.0),  # on the pole, though each part of out1 / out0 is below 1e14
    (_TIES[0], 3.0, 3.0),
    (_TIES[1], 3.0, 3.0),
    (_TIES[1], 1.0, -3.0),
    (_TIES[1], _NAN, 3.0),
    (1e-300, 1e-286, 0.0),
    (2e-300, 1e-286, 0.0),
    (5e-324, 1e-309, 0.0),
    (2e-323, 1e-309, 0.0),
]


@pytest.mark.parametrize("row", POLE_TABLE)
def test_pole_rule_decides_as_one_comparison_per_coordinate(row):
    expected = _three_comparison_rule(*(np.complex128(x) for x in row))
    for triple in ([complex(x) for x in row], [np.array([x, 0.5], dtype=complex) for x in row]):
        with np.errstate(all="ignore"):
            try:
                _off_pole(*triple)
            except ZeroDivisionError:
                raised = True
            else:
                raised = False
        assert raised == expected, triple


def test_pole_rule_table_covers_both_decisions():
    decisions = [_three_comparison_rule(*(np.complex128(x) for x in row)) for row in POLE_TABLE]
    assert 0 < sum(decisions) < len(decisions)


@pytest.mark.parametrize("row", [(2e-323, 1e-309, 0.0), (5e-324, 1e-312j, 3e-320), (3e-310j, -1e-300, 1e-296)])
def test_subnormal_pole_distance_divides_as_one_point(row):
    # numpy's batch division overflows where |out0| is subnormal; the rows pass the pole rule,
    # so as arrays they must give the one-point quotients, with no warning.
    one = _off_pole(*(complex(x) for x in row))
    batch = _off_pole(*(np.array([x, 0.5], dtype=complex) for x in row))
    for q, q1 in zip(batch, one):
        np.testing.assert_allclose(q[0], q1, rtol=4.5e-16, atol=0)
        assert np.isfinite(q).all()
    assert (batch[0][1], batch[1][1]) == (1.0, 1.0)


@pytest.mark.parametrize("row", [row for row in POLE_TABLE if 0 < abs(row[0]) < 1e-307])
def test_affinize_of_one_subnormal_triple_is_its_batch_row(row):
    # One triple divides numpy scalars, which overflow like the batch; warnings are errors here.
    triple = [np.array([x, 0.5], dtype=complex) for x in row]
    try:
        batch = _off_pole(*triple)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            affinize(row)
        return
    one = affinize(row)
    assert one == (batch[0][0], batch[1][0])
    assert all(isinstance(q, np.complex128) and np.isfinite(q) for q in one)


def test_affinize_keeps_every_quotient_it_had_without_the_rescue():
    # Near and far from subnormal |z0|: each finite plain numpy-scalar quotient stays bit for bit.
    rng = np.random.default_rng(29)
    z0 = 10.0 ** rng.uniform(-323, 2, 600) * np.exp(2j * np.pi * rng.random(600))
    z1, z2 = z0 * 10.0 ** rng.uniform(-3, 13, (2, 600)) * np.exp(2j * np.pi * rng.random((2, 600)))
    rescued = 0
    for row in zip(z0, z1, z2):
        with np.errstate(all="ignore"):
            plain = (row[1] / row[0], row[2] / row[0])
        got = affinize(row)
        for q, p in zip(got, plain):
            assert np.isfinite(q)
            if np.isfinite(p):
                assert q == p
            else:
                rescued += 1
    assert rescued > 0


def test_subnormal_pole_distance_keeps_every_finite_quotient():
    # Only quotients that overflow are divided again: every finite one stays bit for bit.
    rng = np.random.default_rng(23)
    out0 = 10.0 ** rng.uniform(-323, -307.7, 4000) * np.exp(2j * np.pi * rng.random(4000))
    out1 = out0 * 10.0 ** rng.uniform(-3, 13, 4000) * np.exp(2j * np.pi * rng.random(4000))
    with np.errstate(all="ignore"):
        plain = out1 / out0
    got = _off_pole(out0, out1, out1)[0]
    finite = np.isfinite(plain)
    assert 0 < finite.sum() < len(finite)
    np.testing.assert_array_equal(got[finite], plain[finite])
    assert np.isfinite(got).all()


@pytest.mark.parametrize("row", POLE_TABLE)
def test_batch_pullback_decides_every_pole_row_as_the_rule(row, monkeypatch):
    # The row and a point far from the pole, as the map's images of a batch of two.
    triple = [np.array([x, 0.5], dtype=complex) for x in row]
    monkeypatch.setattr(ProjMap, "_images", lambda self, z1, z2, count=3: triple)
    expected = _three_comparison_rule(*(np.complex128(x) for x in row))
    pulled = Section(lambda z: z[0] + z[1], bidegree=(0, 0))
    with np.errstate(all="ignore"):
        try:
            value = pull_back_section(np.eye(3), pulled, (np.zeros(2), np.zeros(2))).value
        except ZeroDivisionError:
            value = None
    assert (value is None) == expected
    if value is not None:
        # the values of one-point division, so never an overflowed 1 / den
        exact = np.array([complex(a) / complex(d) + complex(b) / complex(d) for d, a, b in zip(*triple)])
        np.testing.assert_allclose(value, exact, rtol=2e-15, atol=0)
        assert np.all(np.isfinite(value) == np.isfinite(exact))


def test_batch_pullback_with_a_nan_point_takes_the_exact_path(rng):
    t = random_unit_det_map(rng)
    points = np.array([_random_point(rng) for _ in range(7)])
    points[3, 1] = np.nan
    with np.errstate(invalid="ignore"):
        value = _pulled(t, _cubic, (-2, 0), (points[:, 0], points[:, 1]))
        exact = t.den(points) ** -2 * _cubic(t.affine(points))
    assert np.isnan(value[3]) and np.all(np.isfinite(np.delete(value, 3)))
    np.testing.assert_array_equal(value, exact)


def test_jacobian_names_the_pole_without_warnings():
    t = normalize_map(SHEAR)
    batch = np.array([[0.1, 0.0], [-0.5, 0.0], [0.3j, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError, match="pole"):
            t.jacobian((-0.5, 0.0))
        with pytest.raises(ZeroDivisionError, match="pole"):
            t.jacobian(batch)
        assert np.all(np.isfinite(t.jacobian(batch[[0, 2]])))


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


def _cubic(zhat):
    return zhat[0] ** 2 - 0.5 * zhat[1] + 1.0


@pytest.mark.parametrize("j", [-3, -2, -1, 0, 1, 2])
def test_pullback_of_bidegree_j_0_is_den_to_the_j_times_the_image_value(rng, j):
    t = random_unit_det_map(rng)
    points = np.array([_random_point(rng) for _ in range(7)])
    zhat = (points[:, 0], points[:, 1])
    den = t.den(points)
    # N points share one reciprocal 1 / den: a negative weight is inv**-j,
    # within 4.3 ulp of den**j, and the image is within 1.5 ulp of affine.
    # Both are checked apart: a section such as _cubic amplifies the image's
    # ulps by its conditioning.
    factor = _pulled(t, lambda z: 1.0, (j, 0), zhat)
    if j >= 0:
        np.testing.assert_array_equal(factor, den**j)
    else:
        np.testing.assert_allclose(factor, den**j, rtol=2e-15, atol=0)
    for coord, want in enumerate(t.affine(points)):
        got = _pulled(t, lambda z: z[coord], (0, 0), zhat)
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)
    batch = pull_back_section(t, Section(_cubic, bidegree=(j, 0)), zhat)
    np.testing.assert_array_equal(batch.basepoint, homogenize(points))
    # one point is divided out and weighed exactly as affine and den**j are
    one = tuple(points[0])
    assert _pulled(t, _cubic, (j, 0), one) == t.den(one) ** j * _cubic(t.affine(one))


def test_pullback_with_antiholomorphic_weight_matches_the_written_out_law(rng):
    t = random_unit_det_map(rng)
    points = np.array([_random_point(rng) for _ in range(7)])
    zhat = (points[:, 0], points[:, 1])
    den = t.den(points)
    np.testing.assert_array_equal(_pulled(t, lambda z: 1.0, (1, 1), zhat), den * np.conj(den))
    # principal branch: den**(-3/2) * conj(den)**(1/2) = |den|**-1 * exp(-2i arg den)
    half = (Fraction(-3, 2), Fraction(1, 2))
    assert pull_back_section(t, Section(_cubic, bidegree=half), zhat).chart_dependent
    want = np.exp(-2j * np.angle(den)) / np.abs(den)
    np.testing.assert_allclose(_pulled(t, lambda z: 1.0, half, zhat), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("bidegree", [(-2, 0), (0, 0), (1, 1), (Fraction(-3, 2), Fraction(1, 2))])
def test_pullback_at_one_point_is_a_numpy_complex(rng, bidegree):
    t = random_unit_det_map(rng)
    for f in (_cubic, lambda zhat: 1.0):
        value = pull_back_section(t, Section(f, bidegree=bidegree), tuple(_random_point(rng))).value
        assert type(value) is np.complex128


def test_pullback_batch_with_one_point_on_the_pole():
    # den = 1 + 2 z1 vanishes at z1 = -1/2 only
    t = normalize_map([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    f = Section(lambda zhat: 1.0, bidegree=(-2, 0))
    z1 = np.array([0.1, -0.5, 0.3j])
    with pytest.raises(ZeroDivisionError):
        pull_back_section(t, f, (z1, np.zeros(3)))
    assert np.all(np.isfinite(pull_back_section(t, f, (z1[[0, 2]], np.zeros(2))).value))


def test_pullback_basepoint_is_built_on_first_read_and_kept(rng):
    t = random_unit_det_map(rng)
    f = Section(_cubic, bidegree=(-2, 0))
    points = np.array([_random_point(rng) for _ in range(7)])
    batch = pull_back_section(t, f, (points[:, 0], points[:, 1]))
    np.testing.assert_array_equal(batch.basepoint, homogenize(points))
    assert batch.basepoint is batch.basepoint
    one = pull_back_section(t, f, tuple(points[0]))
    assert one.basepoint == HomVec.from_affine(points[0])
    assert one.basepoint is one.basepoint


def test_warm_norm_of_a_pulled_back_section_builds_no_basepoint(perturbed_bidisk, monkeypatch):
    g = normalize_map(np.eye(3) + 0.05 * np.array([[0, 1, 0.5j], [0.3, 0, 0], [0, -0.2j, 0]]))
    moved = transform_domain(perturbed_bidisk, g)
    f = Section(lambda z: z[0] * z[1] ** 2 + 0.5, bidegree=(-2, 0))

    def pulled(zp):
        return pull_back_section(g.inverse(), f, zp).value

    before = hardy_norm(moved, pulled, resolution=8, edge_resolution=6)["total"]

    def no_lift(*args):
        raise AssertionError("the basepoint was built")

    monkeypatch.setattr(projective, "_lift", no_lift)
    assert hardy_norm(moved, pulled, resolution=8, edge_resolution=6)["total"] == before


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


# ---------------------------------------------------------------------------
# Argument checks


def test_pair_takes_point_and_hyperplane_in_either_order():
    p = HomVec((1.0, 2.0, 3.0))
    h = HomVec((1.0, 1.0, 1.0), role="hyperplane")
    assert pair(p, h) == pair(h, p) == 6.0
    with pytest.raises(ValueError, match="^pairing needs one point and one hyperplane, got two points$"):
        pair(p, p)
    with pytest.raises(ValueError, match="got two hyperplanes$"):
        pair(h, h)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.eye(2), "ProjMap matrix must be 3x3"),
        (2.0 * np.eye(3), "ProjMap matrix must have unit determinant; use normalize_map"),
    ],
)
def test_projmap_rejects_a_matrix_that_is_not_unimodular_3x3(matrix, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProjMap(matrix)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.eye(2), "expected a 3x3 matrix"),
        (np.zeros((3, 3)), "singular matrix cannot define a projective map"),
    ],
)
def test_normalize_map_rejects_a_matrix_that_is_not_invertible_3x3(matrix, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        normalize_map(matrix)


def test_pair_rejects_a_sequence_that_is_not_a_triple():
    with pytest.raises(ValueError, match=r"^expected 3 homogeneous coordinates, got shape \(2,\)$"):
        pair((1.0, 2.0), HomVec((1.0, 1.0, 1.0), role="hyperplane"))


def test_projmap_composes_only_with_a_projmap():
    with pytest.raises(TypeError):
        ProjMap(np.eye(3)) @ 2


def test_dual_map_normalizes_a_raw_matrix(rng):
    m = 2.0 * np.eye(3) + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert np.array_equal(dual_map(m).matrix, dual_map(normalize_map(m)).matrix)


def test_homvec_rejects_two_coordinates():
    with pytest.raises(ValueError, match="^HomVec needs exactly 3 coordinates$"):
        HomVec((1.0, 2.0))


def test_proj_equal_is_false_at_a_zero_pivot():
    # u's largest coordinate is the first, where v is 0
    assert proj_equal((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) is False


def test_pull_back_section_rejects_a_bare_callable():
    with pytest.raises(TypeError, match=r"^f must be a Section \(affine value function \+ bidegree\)$"):
        pull_back_section(np.eye(3), lambda z: 1.0, (0.0, 0.0))
