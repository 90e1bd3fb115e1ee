"""Edge normal forms, coordinate-change laws, and the scalar edge invariant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardycorners.domain import Edge, PwsDomain, TorusChart, transform_domain
from hardycorners.hermpoly import HermitianPoly, parse_poly, transform_poly
from hardycorners.measures import hardy_norm
from hardycorners import normalforms
from hardycorners.normalforms import (
    NormalForm,
    NormalizedEdge,
    apply_coordinate_change,
    change_matrix,
    edge_frame,
    edge_profile,
    eta,
    extract_normal_form,
    kappa,
    legendre_argmax,
    legendre_transform,
    model_edge_domain,
    model_edge_polys,
    normalize_coeffs,
)
from hardycorners.projective import ProjMap, Section, normalize_map, pull_back_section

from conftest import random_unit_det_map


COEFFS = (0.3, -0.6, -1.2, 0.1, 0.4, -0.8)


def _identity_frame():
    return ProjMap(np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# Model edges and normal-form extraction


def test_model_edge_polys_match_graph():
    rho1, rho2 = model_edge_polys(COEFFS)
    a1, b1, c1, a2, b2, c2 = COEFFS
    for x1, x2 in [(0.05, -0.02), (0.0, 0.1), (-0.07, 0.03)]:
        q1 = a1 * x1 * x1 + b1 * x1 * x2 + c1 * x2 * x2
        q2 = a2 * x2 * x2 + b2 * x1 * x2 + c2 * x1 * x1
        # on the graph y_l = Q_l both functions vanish
        z1 = x1 + 1j * q1
        z2 = x2 + 1j * q2
        assert abs(rho1(z1, z2)) < 1e-14
        assert abs(rho2(z1, z2)) < 1e-14
        # and the sign convention is 2 * (Im z_l - Q_l)
        assert np.isclose(rho1(x1 + 0.3j, z2), 2 * (0.3 - q1))


def test_extract_normal_form_recovers_model_coefficients():
    d = model_edge_domain(COEFFS)
    nf = extract_normal_form(d, np.array([0.0, 0.0]), frame=_identity_frame())
    assert np.allclose(nf.coeffs, COEFFS, atol=1e-9)


def test_extract_normal_form_uses_adapted_frame(perturbed_bidisk):
    chart = perturbed_bidisk.edges[0].chart
    zhat = np.array(chart.point(0.8, 2.0))
    nf = extract_normal_form(perturbed_bidisk, zhat)
    # transverse curvatures of a strictly pseudoconvex corner are negative
    assert nf.c1 < 0 and nf.c2 < 0


def test_extract_normal_form_rejects_degenerate_frame():
    # z1 -> i z1 sends Im z1 onto a real tangent axis: the first member's
    # gradient has no imaginary-part component, so the edge is no graph
    frame = normalize_map(np.diag([1, 1j, 1]))
    with pytest.raises(ValueError, match="imaginary-part block"):
        extract_normal_form(model_edge_domain(COEFFS), np.array([0.0, 0.0]), frame=frame)


def test_extract_normal_form_rejects_singular_frame_matrix():
    # rank 2: the third row is the sum of the first two
    frame = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="frame matrix is singular"):
        extract_normal_form(model_edge_domain(COEFFS), np.array([0.0, 0.0]), frame=frame)


def _newton_graph(rhos, x1, x2):
    """Imaginary parts (y1, y2) with rho_l(x + i y) = 0, by Newton from y = 0."""
    y = np.zeros(2)
    for _ in range(50):
        z = (x1 + 1j * y[0], x2 + 1j * y[1])
        vals = np.array([float(np.real(r(*z))) for r in rhos])
        if np.max(np.abs(vals)) < 1e-14:
            return y
        jac = np.array([r.grad_real(*z)[[1, 3]] for r in rhos])
        y = y - np.linalg.solve(jac, vals)
    raise AssertionError("graph Newton did not converge")


def test_extract_normal_form_handles_x_linear_frame():
    # (z1, z2) -> (z1 + 0.3i z2, z2 + 0.2i z1) tilts both members: in the
    # identity frame the graph y(x) has a linear part, and it feeds the
    # quadratic part through the y-entries of the members' Hessians.  (A real
    # shear such as z1 -> z1 + 0.3 z2 leaves the linear part zero.)
    moved = transform_domain(
        model_edge_domain(COEFFS), normalize_map([[1, 0, 0], [0, 1, 0.3j], [0, 0.2j, 1]])
    )
    nf = extract_normal_form(moved, np.array([0.0, 0.0]), frame=_identity_frame())
    rhos = [moved.rho(m) for m in moved.edges[0].members]
    step = 1e-3
    y = np.array(
        [[_newton_graph(rhos, i * step, j * step) for j in (-1, 0, 1)] for i in (-1, 0, 1)]
    )
    # rows: d/dx1, d/dx2; columns: y1, y2.  Both graphs have a linear part.
    slope = np.array([y[2, 1] - y[0, 1], y[1, 2] - y[1, 0]]) / (2 * step)
    assert np.all(np.max(np.abs(slope), axis=0) > 0.1)
    d11 = (y[2, 1] - 2 * y[1, 1] + y[0, 1]) / step**2
    d22 = (y[1, 2] - 2 * y[1, 1] + y[1, 0]) / step**2
    d12 = (y[2, 2] - y[2, 0] - y[0, 2] + y[0, 0]) / (4 * step**2)
    a1, b1, c1, a2, b2, c2 = nf.coeffs
    assert np.allclose([d11[0], d12[0], d22[0]], [2 * a1, b1, 2 * c1], atol=1e-6)
    assert np.allclose([d11[1], d12[1], d22[1]], [2 * c2, b2, 2 * a2], atol=1e-6)


# The real linear forms of z1, conj(z1), z2, conj(z2) in the real
# coordinates (x1, x2, y1, y2) of zeta = x + i y.
_REAL_FORMS = np.array([[1, 0, 1j, 0], [1, 0, -1j, 0], [0, 1, 0, 1j], [0, 1, 0, -1j]])


def _reference_normal_form(d, zhat, frame):
    """The normal form computed by transforming whole polynomials.

    Each member is transformed by the frame with ``transform_poly``; its real
    gradient and Hessian at the origin are read from the terms of degree <= 2
    and fed to the same implicit-function expansion.
    """
    grads, hessians = [], []
    for m in d.edge_at(zhat).members:
        grad = np.zeros(4, dtype=complex)
        hess = np.zeros((4, 4), dtype=complex)
        for key, c in transform_poly(d.rho(m), frame).terms.items():
            slots = [slot for slot, e in enumerate(key) for _ in range(e)]
            if len(slots) == 1:
                grad += c * _REAL_FORMS[slots[0]]
            elif len(slots) == 2:
                u, v = _REAL_FORMS[slots]
                hess += c * (np.outer(u, v) + np.outer(v, u))
        grads.append(grad.real)
        hessians.append(hess.real)
    grads = np.array(grads)
    a, b = grads[:, :2], grads[:, 2:]
    tangent = np.vstack([np.eye(2), -np.linalg.solve(b, a)])
    restricted = np.array([tangent.T @ h @ tangent for h in hessians])
    g = -np.linalg.solve(b, restricted.reshape(2, 4)).reshape(2, 2, 2)
    return np.array(
        [g[0, 0, 0] / 2, g[0, 0, 1], g[0, 1, 1] / 2, g[1, 1, 1] / 2, g[1, 0, 1], g[1, 0, 0] / 2]
    )


def _assert_matches_reference(d, points, frames):
    got = np.array(extract_normal_form(d, points, frame=frames).coeffs).T
    for z, fr, row in zip(points, frames, got):
        ref = _reference_normal_form(d, z, ProjMap(fr))
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batched_normal_form_matches_transformed_polynomials(perturbed_bidisk):
    rng = np.random.default_rng(401)
    images = [transform_domain(perturbed_bidisk, random_unit_det_map(rng, 0.06)) for _ in range(2)]
    for d in [perturbed_bidisk] + images:
        e = d.edges[0]
        points = e.chart.nodes(4).points
        _assert_matches_reference(d, points, edge_frame(d, e, points))


def test_batched_normal_form_in_a_projective_frame(perturbed_bidisk):
    # change_matrix("shear1", .) fixes the origin and has the nonconstant
    # denominator 1 - lam z1; composed after the adapted frames it gives
    # projective frames, whose second derivatives then enter
    e = perturbed_bidisk.edges[0]
    points = e.chart.nodes(4).points
    frames = change_matrix("shear1", 0.4 + 0.3j).matrix @ edge_frame(perturbed_bidisk, e, points)
    _assert_matches_reference(perturbed_bidisk, points, frames)
    single = extract_normal_form(perturbed_bidisk, points[5], frame=ProjMap(frames[5]))
    ref = _reference_normal_form(perturbed_bidisk, points[5], ProjMap(frames[5]))
    assert np.max(np.abs(np.array(single.coeffs) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batched_eta_equals_pointwise_calls(perturbed_bidisk):
    points = perturbed_bidisk.edges[0].chart.nodes(6).points
    batch = eta(perturbed_bidisk, points)
    for name in ("kappa", "eta_weight", "b1", "b2", "c1", "c2", "kappa_times_c1c2"):
        single = [getattr(eta(perturbed_bidisk, z), name) for z in points]
        np.testing.assert_allclose(getattr(batch, name), single, rtol=1e-14, atol=0)
    assert batch.frame.shape == (len(points), 3, 3)
    assert np.allclose(batch.frame[3], eta(perturbed_bidisk, points[3]).frame.matrix, rtol=1e-14)


def test_edge_frame_straightens_members(perturbed_bidisk):
    e = perturbed_bidisk.edges[0]
    chart = e.chart
    zhat = np.array(chart.point(0.8, 2.0))
    fr = edge_frame(perturbed_bidisk, e, zhat)
    # basepoint goes to the origin
    assert np.allclose(fr.affine(zhat), (0.0, 0.0), atol=1e-12)
    # unit determinant representative
    assert np.isclose(np.linalg.det(fr.matrix), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Coordinate-change laws (transform, then refit)


def _refit_after(coeffs, kind, param):
    d = model_edge_domain(coeffs)
    t = change_matrix(kind, param)
    moved = transform_domain(d, t)
    nf = extract_normal_form(moved, np.array([0.0, 0.0]), frame=_identity_frame())
    return nf.coeffs


@pytest.mark.parametrize(
    "kind,param",
    [
        ("shear1", 0.45j),
        ("shear1", complex(0.3)),  # real part must not act
        ("shear1", 0.3),  # a real parameter is its real part
        ("shear1", 0.3 - 0.45j),
        ("scale", 1.7),
        ("swap", None),
        ("parab", 0.35),
    ],
)
def test_coefficient_laws_match_refit(kind, param):
    predicted = apply_coordinate_change(COEFFS, kind, param)
    refit = _refit_after(COEFFS, kind, param)
    assert np.allclose(refit, predicted, atol=5e-8)


def test_scale_law_example():
    out = apply_coordinate_change((1, 2, 3, 4, 5, 6), "scale", 2.0)
    assert np.allclose(out, (2, 2, 1.5, 4, 10, 24))


def test_swap_is_involutive():
    once = apply_coordinate_change(COEFFS, "swap")
    twice = apply_coordinate_change(once, "swap")
    assert twice == COEFFS


def test_parab_composes_additively():
    # applying r then s equals applying r + s
    via_two = apply_coordinate_change(
        apply_coordinate_change(COEFFS, "parab", 0.2), "parab", 0.3
    )
    direct = apply_coordinate_change(COEFFS, "parab", 0.5)
    assert np.allclose(via_two, direct, atol=1e-12)


def test_change_matrix_rejects_unknown_kind():
    with pytest.raises(ValueError):
        change_matrix("rotate", 1.0)
    with pytest.raises(ValueError):
        apply_coordinate_change(COEFFS, "rotate", 1.0)
    with pytest.raises(ValueError):
        apply_coordinate_change(COEFFS, "scale", -2.0)
    with pytest.raises(ValueError, match="^scale parameter must be positive$"):
        change_matrix("scale", 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("param", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", ["shear1", "scale", "parab"])
def test_law_and_matrix_reject_a_non_finite_parameter_alike(kind, param):
    # Both read the parameter through the generator table, so both reject it with one message.
    with pytest.raises(ValueError, match=f"^{kind} parameter must be ") as law:
        apply_coordinate_change(COEFFS, kind, param)
    with pytest.raises(ValueError) as matrix:
        change_matrix(kind, param)
    assert str(matrix.value) == str(law.value)


def test_coordinate_change_takes_a_normal_form_or_six_coefficients():
    swapped = apply_coordinate_change(COEFFS, "swap")
    assert apply_coordinate_change(NormalForm(*COEFFS), "swap") == swapped
    with pytest.raises(ValueError, match="^expected six normal-form coefficients$"):
        apply_coordinate_change(COEFFS[:5], "swap")


# ---------------------------------------------------------------------------
# Canonical slice


def test_normalize_coeffs_canonical_form():
    out = normalize_coeffs(COEFFS)
    assert isinstance(out, NormalizedEdge)
    assert out.b1 <= out.b2
    assert out.q > 0 and out.r > 0


def test_normalize_coeffs_requires_negative_transverse_curvature():
    with pytest.raises(ValueError):
        normalize_coeffs((0.0, 0.5, 1.0, 0.0, 0.5, -1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [(0, 0, np.nan, 0, 0, -1), ([0, 0], 0, -1, 0, 0, [-1, np.nan])])
def test_normalize_coeffs_rejects_nan_curvature(coeffs):
    with pytest.raises(ValueError, match="^canonical slice requires negative transverse curvatures"):
        normalize_coeffs(coeffs)


def _slice_by_laws(coeffs, q, r):
    """One row taken to the canonical slice by the public laws, in normalize_coeffs's order.

    Shear by -a1, its swap-conjugate by -a2 (a shear acts by the imaginary
    part of its parameter), scale by r, its swap-conjugate by q.
    """

    def conjugate(c, kind, param):
        return apply_coordinate_change(
            apply_coordinate_change(apply_coordinate_change(c, "swap"), kind, param), "swap"
        )

    c = apply_coordinate_change(coeffs, "shear1", -1j * coeffs[0])
    c = conjugate(c, "shear1", -1j * coeffs[3])
    return conjugate(apply_coordinate_change(c, "scale", r), "scale", q)


def _scalings(c1, c2):
    u, v = -c1, -c2
    return (u * u * v) ** (-1.0 / 3.0), (u * v * v) ** (-1.0 / 3.0)


def _assert_on_slice(norm, row, composed, q, r):
    a1, b1, c1, a2, b2, c2 = composed
    assert a1 == 0.0 and a2 == 0.0
    assert abs(c1 + 1.0) <= 1e-15 and abs(c2 + 1.0) <= 1e-15
    swapped = b1 > b2
    expected = (min(b1, b2), max(b1, b2), q, r, -row[0], -row[3], swapped)
    assert tuple(norm) == expected


def test_normalize_coeffs_is_the_composition_of_the_laws():
    rng = np.random.default_rng(402)
    a1, b1, c1, a2, b2, c2 = rng.uniform(-2.0, 2.0, size=(6, 200))
    rows = (a1, b1, -np.abs(c1) - 0.05, a2, b2, -np.abs(c2) - 0.05)
    norm = normalize_coeffs(rows)
    q, r = _scalings(rows[2], rows[5])
    assert norm.swapped.any() and not norm.swapped.all()
    for i in range(len(a1)):
        row = tuple(float(c[i]) for c in rows)
        composed = _slice_by_laws(row, q[i], r[i])
        _assert_on_slice(NormalizedEdge(*(f[i] for f in norm)), row, composed, q[i], r[i])
    row = tuple(float(c[0]) for c in rows)
    q, r = _scalings(row[2], row[5])
    _assert_on_slice(normalize_coeffs(row), row, _slice_by_laws(row, q, r), q, r)


def test_normalize_fixed_points_of_canonical_slice():
    out = normalize_coeffs((0.0, -0.4, -1.0, 0.0, 0.7, -1.0))
    assert np.isclose(out.q, 1.0) and np.isclose(out.r, 1.0)
    assert out.shift1 == 0.0 and out.shift2 == 0.0
    assert not out.swapped
    assert np.allclose((out.b1, out.b2), (-0.4, 0.7))


def test_normalize_orders_by_swap():
    out = normalize_coeffs((0.0, 0.7, -1.0, 0.0, -0.4, -1.0))
    assert out.swapped
    assert out.b1 <= out.b2


bval = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(b1=bval, b2=bval)
def test_normalized_invariant_is_shear_invariant(b1, b2):
    # the shear shifts kill a1 and a2, moving b1 by -a2 and b2 by -a1; a
    # pre-sheared tuple therefore lands on the same canonical slice data
    sheared = (0.5, b1, -1.0, -0.3, b2 + 0.5, -1.0)
    n_base = normalize_coeffs((0.0, b1 + 0.3, -1.0, 0.0, b2, -1.0))
    n_shear = normalize_coeffs(sheared)
    assert np.isclose(n_base.b1, n_shear.b1, atol=1e-12)
    assert np.isclose(n_base.b2, n_shear.b2, atol=1e-12)


# ---------------------------------------------------------------------------
# Profile, Legendre transform, kappa


def edge_profile_ratio(t):
    """The profile written as a cubic-mean ratio of the barycentric pair, to cross-check it.

    With p = (1 + t)/2 and m = (1 - t)/2 this is (p^3 + m^3) / (p m), which
    agrees with :func:`~hardycorners.normalforms.edge_profile` identically.
    """
    t = normalforms._on_interval(t)
    p = 0.5 * (1.0 + t)
    m = 0.5 * (1.0 - t)
    return (p**3 + m**3) / (p * m)


def test_profile_identities():
    for t in np.linspace(-0.95, 0.95, 41):
        assert np.isclose(edge_profile(t), edge_profile_ratio(t), rtol=1e-13)
    assert edge_profile(0.0) == 1.0
    assert edge_profile(0.5) == edge_profile(-0.5)


def test_profile_domain_is_open_interval():
    with pytest.raises(ValueError):
        edge_profile(1.0)
    with pytest.raises(ValueError):
        edge_profile_ratio(-1.0)


def test_legendre_argmax_stationarity():
    for p in (-4.0, -0.3, 0.0, 0.7, 12.0):
        t = legendre_argmax(p)
        assert -1.0 < t < 1.0
        assert abs(8.0 * t / (1.0 - t * t) ** 2 - p) < 1e-9


def test_legendre_argmax_converges_well_inside_its_step_budget(monkeypatch):
    # Newton from an upper bound decreases onto the root: from 0 to the largest float, the
    # loop makes at most 7 steps and an 8th pass that finds no decrease, far inside the
    # budget of 50.  A budget below what a point needs raises.
    p = np.concatenate([[0.0], np.logspace(-320, 308, 2000), [np.finfo(float).max]])
    want = legendre_argmax(p)
    monkeypatch.setattr(normalforms, "_ARGMAX_MAXITER", 8)
    assert np.array_equal(legendre_argmax(p), want)
    monkeypatch.setattr(normalforms, "_ARGMAX_MAXITER", 1)
    with pytest.raises(RuntimeError, match="^Legendre maximizer did not converge$"):
        legendre_argmax(1.0)


def test_legendre_transform_basics():
    assert np.isclose(legendre_transform(0.0), -1.0)
    assert legendre_transform(2.5) == legendre_transform(-2.5)


@given(p=st.floats(min_value=-8, max_value=8, allow_nan=False), t=st.floats(min_value=-0.99, max_value=0.99))
def test_legendre_transform_dominates_fenchel(p, t):
    assert legendre_transform(p) >= p * t - edge_profile(t) - 1e-12


def test_kappa_on_arrays_is_elementwise_and_exactly_symmetric():
    b = np.random.default_rng(402).uniform(-3.0, 3.0, (2, 200))
    b[:, :3] = [[0.0, -1.0, 1e-9], [0.0, -1.0, -1e-9]]
    k = kappa(b[0], b[1])
    assert np.array_equal(k, kappa(b[1], b[0]))
    assert np.array_equal(k, [kappa(b1, b2) for b1, b2 in b.T])
    assert np.array_equal(legendre_argmax(-b[0]), -legendre_argmax(b[0]))


def test_kappa_anchor_values():
    assert abs(kappa(0.0, 0.0) - 1.0) < 1e-10
    assert abs(kappa(-1.0, -1.0)) < 1e-8


@given(b1=bval, b2=bval)
def test_kappa_swap_symmetry_is_exact(b1, b2):
    assert kappa(b1, b2) == kappa(b2, b1)


def test_kappa_grid_consistency():
    # kappa equals the negative sup of the affine family over the profile
    rng = np.random.default_rng(5)
    tgrid = np.linspace(-1 + 1e-9, 1 - 1e-9, 20001)
    f = np.array([edge_profile(t) for t in tgrid])
    for _ in range(10):
        b1, b2 = rng.uniform(-2.5, 2.5, 2)
        p1 = 0.5 * (1.0 + tgrid)
        p2 = 0.5 * (1.0 - tgrid)
        sup = np.max(-p1 * b1 - p2 * b2 - f)
        assert abs(sup + kappa(b1, b2)) < 1e-6


# ---------------------------------------------------------------------------
# The edge weight on a genuine domain


def test_eta_positive_on_strictly_convex_edge(perturbed_bidisk):
    chart = perturbed_bidisk.edges[0].chart
    zhat = np.array(chart.point(1.0, 2.5))
    inv = eta(perturbed_bidisk, zhat)
    assert inv.eta_weight > 0
    assert inv.c1 < 0 and inv.c2 < 0
    assert np.isclose(inv.kappa_times_c1c2, inv.kappa * inv.c1 * inv.c2)
    assert inv.b1 <= inv.b2


def test_eta_denominator_cube_law_to_roundoff(perturbed_bidisk):
    rng = np.random.default_rng(312)
    zhat = np.array(perturbed_bidisk.edges[0].chart.point(0.9, 2.3))
    base = eta(perturbed_bidisk, zhat).eta_weight
    for _ in range(3):
        g = random_unit_det_map(rng, scale=0.04)
        moved = eta(transform_domain(perturbed_bidisk, g), np.array(g.affine(zhat)))
        predicted = abs(g.den(zhat)) ** 3 * moved.eta_weight
        assert abs(predicted - base) / base <= 1e-12


def test_eta_rejects_flat_edge(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    with pytest.raises(ValueError):
        eta(bidisk, zhat)


def test_eta_evaluates_each_member_gradient_once(perturbed_bidisk, monkeypatch):
    points = perturbed_bidisk.edges[0].chart.nodes(8).points
    calls = []
    grad = HermitianPoly.grad

    def counted(self, *args):
        calls.append(1)
        return grad(self, *args)

    monkeypatch.setattr(HermitianPoly, "grad", counted)
    eta(perturbed_bidisk, points)
    assert len(calls) == 2


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
def test_eta_matches_closed_forms_on_symmetric_reinhardt_pairs(eps):
    # rho1 = |z1|^2 + eps |z2|^2 - 1 and rho2 = eps |z1|^2 + |z2|^2 - 1 meet on the torus
    # |z1|^2 = |z2|^2 = 1 / (1 + eps); perturbed_bidisk is eps = 0.1 (kappa 12.1, weight 3528.36).
    rhos = [
        parse_poly(f"abs2(z1) + {eps}*abs2(z2) - 1"),
        parse_poly(f"{eps}*abs2(z1) + abs2(z2) - 1"),
    ]
    r = (1.0 + eps) ** -0.5
    edge = Edge((0, 1), TorusChart(rhos, r0=(r, r)))
    d = PwsDomain(list(zip(("sheet1", "sheet2"), rhos)), [], [edge])
    inv = eta(d, d.edges[0].chart.nodes(12).points)
    np.testing.assert_allclose(inv.kappa, (1 + eps) ** 2 / eps, rtol=1e-13, atol=0)
    weight = 4 * (1 - eps**2) ** 2 * (1 - eps) / eps**3
    np.testing.assert_allclose(inv.eta_weight, weight, rtol=1e-13, atol=0)


def test_eta_matches_the_equal_radius_ball_pair_law():
    # The balls |z -+ (a, 0)|^2 < r^2 meet on the sphere Re z1 = 0, |Im z1|^2 + |z2|^2 = R^2,
    # R^2 = r^2 - a^2, with complex points at alpha = 0 and pi.  kappa = 2 (1 + cos theta), where
    # theta is the angle between the outward normals: cos theta = 1 - 2 a^2 / r^2.
    rng = np.random.default_rng(13)
    for _ in range(20):
        r = rng.uniform(0.6, 1.6)
        a = r * rng.uniform(0.05, 0.95)
        rhos = [
            parse_poly(f"abs2(z1) {s} {a}*z1 {s} {a}*conj(z1) + abs2(z2) - {r * r - a * a}")
            for s in "-+"
        ]
        d = PwsDomain(list(zip(("ball1", "ball2"), rhos)), [], [Edge((0, 1), None)])
        big_r = np.sqrt(r * r - a * a)
        alpha = rng.uniform(0.3, np.pi - 0.3, 16)
        phi = rng.uniform(0.0, 2 * np.pi, 16)
        points = big_r * np.stack([1j * np.cos(alpha), np.sin(alpha) * np.exp(1j * phi)], -1)
        kappa = 2 * (2 - 2 * a * a / (r * r))
        g = random_unit_det_map(rng, scale=0.1)
        image = np.stack(g.affine(points), axis=-1)
        for dom, z in ((d, points), (transform_domain(d, g), image)):
            np.testing.assert_allclose(eta(dom, z).kappa, kappa, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# Projective invariance of the boundary norm on independent nodes
#
# The image norm is computed on nodes that a chart of the moved domain lays
# down itself, not on the images of the base nodes, so agreement checks the
# invariance of the measure rather than a change of variables.


def _norm_section(z):
    return z[0] * z[1] ** 2 + 0.5


def _pulled(g):
    return lambda z: pull_back_section(g, Section(_norm_section, bidegree=(-2, 0)), z).value


@pytest.mark.parametrize("t, tol", [(0.3, 1e-12), (0.6, 1e-8)])
def test_sphere_norm_is_invariant_under_ball_boosts(sphere, t, tol):
    # The boost fixes the unit ball, so both norms use the sphere's own nodes.
    c, s = np.cosh(t), np.sinh(t)
    g = normalize_map([[c, s, 0], [s, c, 0], [0, 0, 1]])
    base = hardy_norm(sphere, _norm_section, resolution=32)["total"]
    image = hardy_norm(sphere, _pulled(g), resolution=32)["total"]
    assert abs(image - base) / base <= tol


@pytest.mark.parametrize("scale, edge_resolution", [(0.02, 16), (0.06, 24)])
def test_edge_norm_is_invariant_on_a_native_chart(perturbed_bidisk, scale, edge_resolution):
    rng = np.random.default_rng(114)
    base = hardy_norm(perturbed_bidisk, _norm_section, edge_resolution=edge_resolution)["edges"][0]
    for _ in range(3):
        g = random_unit_det_map(rng, scale)
        moved = transform_domain(perturbed_bidisk, g)
        members = moved.edges[0].members
        chart = TorusChart([moved.rho(i) for i in members], r0=(0.95, 0.95))
        native = PwsDomain(moved.hypersurfaces, [], [Edge(members, chart)])
        image = hardy_norm(native, _pulled(g.inverse()), edge_resolution=edge_resolution)
        assert abs(image["edges"][0] - base) / base <= 1e-11


def test_edge_frame_rejects_complex_linearly_dependent_members():
    # Both members vanish at (1, 0) with the same gradient (1, 0).
    d = PwsDomain(
        hypersurfaces=[("a", parse_poly("abs2(z1) - 1")), ("b", parse_poly("abs2(z1) + abs2(z2) - 1"))],
        faces=[],
        edges=[Edge((0, 1), None)],
    )
    with pytest.raises(ValueError, match="^member gradients are complex-linearly dependent$"):
        edge_frame(d, d.edges[0], np.array([1.0, 0.0]))
