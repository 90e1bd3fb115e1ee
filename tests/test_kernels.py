"""Boundary kernels: incidence density, smooth face density, corner residual."""

import numpy as np
import pytest

from hardycorners import kernels
from hardycorners.cli import _random_incident_pair, _random_tangents, load_spec
from hardycorners.domain import domain_from_spec, strong_tangents, transform_domain
from hardycorners.hermpoly import _real_gradient, parse_poly
from hardycorners.kernels import (
    StrongTangentSet,
    corner_kernel,
    cramer_residual,
    omega_cfl,
    omega_cfl_affine_form,
    orientation_sign_edge,
    orientation_sign_face,
    pushforward_corner_check,
    simplex_integral,
    smooth_leray_density,
)
from hardycorners.measures import fefferman_density
from hardycorners.projective import HomVec, _det4_columns, det3

from conftest import random_unit_det_map


# ---------------------------------------------------------------------------
# Incidence Cauchy density


def test_omega_requires_incidence(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)  # generic: not incident
    tangents = [(np.zeros(3), np.zeros(3))] * 3
    with pytest.raises(ValueError, match="incident"):
        omega_cfl(z, w, tangents)


def test_omega_requires_linearized_incidence(rng):
    z, w = _random_incident_pair(rng)
    tangents = _random_tangents(rng, z, w)
    bad = list(tangents)
    dz, dw = bad[1]
    bad[1] = (dz + 0.1, dw)  # breaks w . dz + z . dw = 0
    with pytest.raises(ValueError, match="linearized incidence"):
        omega_cfl(z, w, bad)


def test_omega_agrees_with_affine_determinant_form(rng):
    for _ in range(10):
        z, w = _random_incident_pair(rng)
        tangents = _random_tangents(rng, z, w)
        a = omega_cfl(z, w, tangents)
        b = omega_cfl_affine_form(z, w, tangents)
        assert np.isclose(a.value, b.value, rtol=1e-10)


def test_omega_chart_independent(rng):
    z, w = _random_incident_pair(rng)
    tangents = _random_tangents(rng, z, w)
    vals = [
        omega_cfl(z, w, tangents, charts=(j, k)).value
        for j in range(3)
        for k in range(3)
    ]
    spread = max(abs(v - vals[0]) for v in vals)
    assert spread < 1e-10 * abs(vals[0])


def test_omega_symmetric_in_point_and_hyperplane(rng):
    z, w = _random_incident_pair(rng)
    tangents = _random_tangents(rng, z, w)
    swapped = [(dw, dz) for dz, dw in tangents]
    a = omega_cfl(z, w, tangents)
    b = omega_cfl(w, z, swapped)
    assert np.isclose(a.value, b.value, rtol=1e-10)


def test_omega_alternates_in_tangent_slots(rng):
    z, w = _random_incident_pair(rng)
    t1, t2, t3 = _random_tangents(rng, z, w)
    a = omega_cfl(z, w, [t1, t2, t3]).value
    assert np.isclose(omega_cfl(z, w, [t2, t1, t3]).value, -a, rtol=1e-10)
    assert np.isclose(omega_cfl(z, w, [t1, t3, t2]).value, -a, rtol=1e-10)
    assert np.isclose(omega_cfl(z, w, [t3, t1, t2]).value, a, rtol=1e-10)


def test_omega_is_multilinear(rng):
    z, w = _random_incident_pair(rng)
    t1, t2, t3 = _random_tangents(rng, z, w)
    lam = 0.7 - 1.3j
    scaled = (lam * t1[0], lam * t1[1])
    a = omega_cfl(z, w, [t1, t2, t3]).value
    b = omega_cfl(z, w, [scaled, t2, t3]).value
    assert np.isclose(b, lam * a, rtol=1e-10)


def test_omega_rescaling_weights(rng):
    # weight (2, 0) in each homogeneous representative: tangent lifts rescale
    # along with the representative
    z, w = _random_incident_pair(rng)
    tangents = _random_tangents(rng, z, w)
    a = omega_cfl(z, w, tangents)
    assert a.form_degree == 3
    assert (a.bidegree_z, a.bidegree_w) == ((2, 0), (2, 0))
    lam = 1.4 + 0.5j
    scaled_tangents = [(lam * dz, dw) for dz, dw in tangents]
    b = omega_cfl(lam * z, w, scaled_tangents)
    # rescaling the representative together with its tangent lifts multiplies
    # the value by lambda**p * conj(lambda)**q for the recorded bidegree
    assert np.isclose(b.value, lam**2 * a.value, rtol=1e-10)


def test_omega_broadcasts_over_a_node_axis(rng):
    pairs = [_random_incident_pair(rng) for _ in range(8)]
    lifts = [_random_tangents(rng, z, w) for z, w in pairs]
    z = np.array([p[0] for p in pairs])
    w = np.array([p[1] for p in pairs])
    # the default charts differ between rows
    assert len(set(np.argmax(np.abs(z), axis=-1))) > 1
    assert len(set(np.argmax(np.abs(w), axis=-1))) > 1
    stacked = [
        (np.array([t[slot][0] for t in lifts]), np.array([t[slot][1] for t in lifts]))
        for slot in range(3)
    ]
    batch = omega_cfl(z, w, stacked).value
    assert batch.shape == (8,)
    for n in range(8):
        assert batch[n] == pytest.approx(omega_cfl(z[n], w[n], lifts[n]).value, rel=1e-14)
    for j, k in ((0, 0), (1, 2), (2, 1)):
        np.testing.assert_allclose(omega_cfl(z, w, stacked, charts=(j, k)).value, batch, rtol=1e-10)
    bad = [stacked[0], stacked[1], (stacked[2][0] + 0.1, stacked[2][1])]
    with pytest.raises(ValueError, match="linearized incidence"):
        omega_cfl(z, w, bad)


def test_omega_rejects_invalid_chart(rng):
    z, w = _random_incident_pair(rng)
    z[2] = 0.0
    w = np.array([-z[1], z[0], 0.0])  # stays incident
    tangents = _random_tangents(rng, z, w)
    with pytest.raises(ValueError):
        omega_cfl(z, w, tangents, charts=(2, 0))


# ---------------------------------------------------------------------------
# Smooth face density


def _sphere_tangent_frame(zhat):
    nu = np.array([zhat[0].real, zhat[0].imag, zhat[1].real, zhat[1].imag])
    nu = nu / np.linalg.norm(nu)
    basis = []
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        u = e - (e @ nu) * nu
        for b in basis:
            u = u - (u @ b) * b
        if np.linalg.norm(u) > 1e-6:
            basis.append(u / np.linalg.norm(u))
    return [np.array([complex(b[0], b[1]), complex(b[2], b[3])]) for b in basis[:3]]


def test_smooth_density_alternates():
    rho = parse_poly("abs2(z1) + abs2(z2) - 1")
    zhat = np.array([0.6, 0.8j])
    tau = np.array([0.1, 0.2])
    v1, v2, v3 = _sphere_tangent_frame(zhat)
    a = smooth_leray_density(rho, zhat, tau, [v1, v2, v3]).value
    b = smooth_leray_density(rho, zhat, tau, [v2, v1, v3]).value
    assert np.isclose(b, -a, rtol=1e-12)


def test_smooth_density_vanishes_on_levi_flat():
    rho = parse_poly("z1 + conj(z1)")  # flat wall Re z1 = 0
    zhat = np.array([0.0, 0.3 + 0.2j])
    tau = np.array([-0.5, 0.0])
    tangents = [
        np.array([1j, 0.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1j]),
    ]
    val = smooth_leray_density(rho, zhat, tau, tangents).value
    assert abs(val) < 1e-15


def test_smooth_density_pole_raises():
    rho = parse_poly("abs2(z1) + abs2(z2) - 1")
    zhat = np.array([1.0, 0.0])
    tau = np.array([1.0, 0.5])  # <grad, z - tau> = 0
    with pytest.raises(ZeroDivisionError):
        smooth_leray_density(rho, zhat, tau, _sphere_tangent_frame(zhat))


def _outcome(*args):
    """The pairing, or the ``ZeroDivisionError`` message."""
    try:
        return kernels._leray_pairing(*args)
    except ZeroDivisionError as exc:
        return str(exc)


@pytest.mark.parametrize("case", ["screen passes", "inconclusive", "below its floor", "nan row"])
def test_leray_pole_screen_keeps_every_decision(case, rng):
    # Coordinate-major nodes, as measures caches them, with unit gradients g.
    # A node tau + s conj(g) + c (-g2, g1) pairs to exactly s (up to rounding)
    # at |z - tau| = |(s, c)|.
    n = 64
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    g /= np.linalg.norm(g, axis=-1)[:, None]
    tau = np.array([0.2 - 0.1j, 0.05j])
    s = 0.5 + rng.random(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if case != "screen passes":
        s[0], c[0] = 1e6, 1e6  # one far node inflates the radius
        s[1], c[1] = {"inconclusive": 5e-12, "below its floor": 1e-13, "nan row": 1.0}[case], 1.0
    z = tau + s[:, None] * np.conj(g) + c[:, None] * np.stack([-g[:, 1], g[:, 0]], axis=-1)
    if case == "nan row":
        z[2] = np.nan
    z = np.asfortranarray(z)
    radius = np.linalg.norm(z, axis=-1).max()
    screened, exact = _outcome(z, g, tau, radius), _outcome(z, g, tau)
    if case == "below its floor":
        assert screened == exact == "tangent hyperplane passes through the evaluation point"
        return
    assert np.array_equal(screened, exact, equal_nan=True)
    smallest = np.abs(exact).min()
    bound = 1e-12 * (radius + np.linalg.norm(tau))
    if case == "screen passes":
        assert smallest >= 2 * bound
    elif case == "inconclusive":
        assert smallest < bound  # the per-node floors decide, and no node fails them
    else:
        assert np.isnan(exact[2]) and np.isnan(smallest)


def test_smooth_density_rejects_critical_point():
    rho = parse_poly("abs2(z1)*abs2(z1) + abs2(z2)*abs2(z2)")
    with pytest.raises(ValueError):
        smooth_leray_density(
            rho,
            np.array([0.0, 0.0]),
            np.array([0.3, 0.0]),
            [np.array([1.0, 0]), np.array([1j, 0]), np.array([0, 1.0])],
        )


def _bordered_hessian_det(rho, z1, z2):
    """det of the bordered complex Hessian ``[[0, conj(g)], [g, h^T]]``, by cofactors along row 0."""
    g = rho.grad(z1, z2)
    b = np.zeros(g.shape[:-1] + (3, 3), dtype=complex)
    b[..., 0, 1:] = np.conj(g)
    b[..., 1:, 0] = g
    b[..., 1:, 1:] = np.swapaxes(rho.hessian_complex(z1, z2), -1, -2)
    return det3(b)


@pytest.mark.parametrize(
    "name, image, tol",
    [
        ("sphere", False, 1e-14),
        ("perturbed_bidisk", False, 1e-14),
        ("perturbed_bidisk", True, 1e-12),
    ],
    ids=["sphere", "perturbed_bidisk", "perturbed_bidisk_image"],
)
def test_leray_numerator_matches_bordered_hessian(name, image, tol):
    # On tangent frames (d_rho ^ ddbar_rho)(V1, V2, V3) = 2 det B det[nu, V1, V2, V3] / |g|,
    # with B the bordered Hessian, nu the unit real gradient and g the Wirtinger gradient.
    # tol bounds the relative difference at every node.  Measured: at most 7e-16 on the
    # native charts and 5e-14 on the image, whose transformed polynomials cancel more digits.
    d = domain_from_spec(load_spec(name))
    if image:
        d = transform_domain(d, random_unit_det_map(np.random.default_rng(1), 0.2))
    for face in d.faces:
        rho = d.rho(face.hypersurface)
        ns = face.chart.nodes(8)
        z1, z2 = ns.points.T
        g = rho.grad(z1, z2)
        gn = np.linalg.norm(g, axis=-1)
        numer = kernels._leray_factor(rho, ns.points, ns.tangents)[1] * gn**2 * (2j * np.pi) ** 2
        nu = rho.grad_real(z1, z2) / (2 * gn[:, None])
        real = [np.stack([v[:, 0].real, v[:, 0].imag, v[:, 1].real, v[:, 1].imag], -1)
                for v in np.moveaxis(ns.tangents, 1, 0)]
        frame_det = np.linalg.det(np.stack([nu, *real], axis=-1))
        expected = 2 * _bordered_hessian_det(rho, z1, z2) * frame_det / gn
        assert np.all(np.abs(numer - expected) <= tol * np.abs(expected))


def _fefferman_from_bordered_det(rho, points, tangents):
    """fefferman_density with det B taken from the bordered 3x3 determinant, and ``|v|^T |h| |v|``.

    The second value, with v = (g2, -g1), bounds the terms of det B = -v^H h v, so
    ``eps`` times it is the rounding scale of both forms where they cancel.
    """
    z1, z2 = points.T
    g = rho.grad(z1, z2)
    grad_r = _real_gradient(g)
    gn = np.linalg.norm(grad_r, axis=-1)
    frame_det = _det4_columns(kernels._real_columns([grad_r / gn[:, None]], tangents))
    detb = _bordered_hessian_det(rho, z1, z2).real
    dens = 2.0 ** (4.0 / 3.0) * np.abs(detb) ** (1.0 / 3.0) * np.abs(frame_det) / gn
    v = np.abs(g[:, ::-1])
    scale = np.einsum("ni,nij,nj->n", v, np.abs(rho.hessian_complex(z1, z2)), v)
    return dens, detb, scale


@pytest.mark.parametrize("name", ["sphere", "perturbed_bidisk", "bidisk"])
def test_fefferman_density_on_native_charts_is_the_bordered_determinants(name):
    d = domain_from_spec(load_spec(name))
    for face in d.faces:
        ns = face.chart.nodes(12)
        rho = d.rho(face.hypersurface)
        dens = fefferman_density(rho, ns.points, ns.tangents)
        np.testing.assert_array_equal(dens, _fefferman_from_bordered_det(rho, ns.points, ns.tangents)[0])
        if name == "bidisk":  # Levi-flat: det B = 0 exactly
            assert np.all(dens == 0.0)


@pytest.mark.parametrize("scale", [0.05, 0.2, 0.4])
@pytest.mark.parametrize("name", ["sphere", "perturbed_bidisk"])
def test_fefferman_density_on_images_matches_the_bordered_determinant(name, scale):
    # The two forms of det B differ by at most 1.29 eps |v|^T |h| |v| (20 maps at each of
    # scales 0.05-0.4): at most 3 ulp of det B at scale <= 0.1, 32 at 0.2 and 4,096 at 0.4,
    # where both cancel.  The cube root divides that relative error by 3.
    eps = np.finfo(float).eps
    base = domain_from_spec(load_spec(name))
    for seed in range(4):
        d = transform_domain(base, random_unit_det_map(np.random.default_rng(seed), scale))
        for face in d.faces:
            ns = face.chart.nodes(12)
            rho = d.rho(face.hypersurface)
            dens = fefferman_density(rho, ns.points, ns.tangents)
            ref, detb, cancel = _fefferman_from_bordered_det(rho, ns.points, ns.tangents)
            bound = ref * (2 * eps * cancel / np.abs(detb) / 3 + 4 * eps)
            assert np.all(np.abs(dens - ref) <= bound)


# ---------------------------------------------------------------------------
# Corner kernel


def _bidisk_corner_data(theta=0.4, phi=1.1):
    zhat = np.array([np.exp(1j * theta), np.exp(1j * phi)])
    z = HomVec.from_affine(zhat)
    w1 = HomVec((-zhat[0] * np.conj(zhat[0]), np.conj(zhat[0]), 0.0), "hyperplane")
    w2 = HomVec((-zhat[1] * np.conj(zhat[1]), 0.0, np.conj(zhat[1])), "hyperplane")
    return StrongTangentSet(basepoint=z, planes=(w1, w2))


def test_corner_kernel_bidegrees():
    strong = _bidisk_corner_data()
    tau = np.array([1.0, 0.1, 0.2])
    frame = (np.array([1j * np.exp(0.4j), 0.0]), np.array([0.0, 1j * np.exp(1.1j)]))
    k = corner_kernel(strong, tau, frame)
    assert k.form_degree == 2
    assert k.bidegree_z == (2, 0)
    assert k.bidegree_tau == (-2, 0)


def test_corner_kernel_plane_rescaling_invariance():
    strong = _bidisk_corner_data()
    tau = np.array([1.0, 0.1, 0.2])
    frame = (np.array([1j * np.exp(0.4j), 0.0]), np.array([0.0, 1j * np.exp(1.1j)]))
    a = corner_kernel(strong, tau, frame).value
    rescaled = StrongTangentSet(
        basepoint=strong.basepoint,
        planes=(
            HomVec(tuple((2.0 - 1j) * strong.planes[0].array), "hyperplane"),
            HomVec(tuple((0.3 + 0.7j) * strong.planes[1].array), "hyperplane"),
        ),
    )
    b = corner_kernel(rescaled, tau, frame).value
    assert np.isclose(a, b, rtol=1e-12)


def test_corner_kernel_alternates_in_frame():
    strong = _bidisk_corner_data()
    tau = np.array([1.0, 0.1, 0.2])
    v1 = np.array([1j * np.exp(0.4j), 0.0])
    v2 = np.array([0.0, 1j * np.exp(1.1j)])
    a = corner_kernel(strong, tau, (v1, v2)).value
    b = corner_kernel(strong, tau, (v2, v1)).value
    assert np.isclose(b, -a, rtol=1e-12)


def test_corner_kernel_pole_raises():
    strong = _bidisk_corner_data()
    # tau on the first member's tangent hyperplane
    w1 = strong.planes[0].array
    tau = np.array([w1[1], -w1[0], 0.0])
    frame = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ZeroDivisionError):
        corner_kernel(strong, tau, frame)


def _corner_outcome(planes, tau):
    """Whether :func:`kernels._corner_pairing` raises, and whether the unscreened rule does."""
    p = kernels._dot3(planes, tau)
    unscreened = bool(np.any(np.abs(p) < 1e-12 * np.linalg.norm(tau)))
    try:
        out = kernels._corner_pairing(planes, tau)
    except ZeroDivisionError as exc:
        assert str(exc) == "a member tangent hyperplane passes through tau"
        return True, unscreened
    assert np.array_equal(out, p[..., 0] * p[..., 1], equal_nan=True)
    return False, unscreened


@pytest.mark.parametrize("case", ["complex", "nan plane", "zero part"])
def test_corner_pole_screen_decides_as_the_unscreened_rule(case):
    # Unit hyperplanes (N, 2, 3), coordinate-major as measures caches them, and tau = (1, tau1,
    # tau2), moved off one row's hyperplane until that pairing is 1e-16 to 1e-9 times |tau|,
    # or 0.6 to 1.5 times its floor 1e-12 |tau|, where both parts can lie below the floor and
    # the modulus above it.  "nan plane" puts a NaN in one plane; "zero part" pairs real planes
    # and planes times 1j with a real tau, so every pairing has an exactly zero part, and
    # zeroes some planes.
    rng = np.random.default_rng(2814)
    decisions = []
    for _ in range(1500):
        n = int(rng.integers(1, 9))
        planes = rng.standard_normal((n, 2, 3)) + 1j * rng.standard_normal((n, 2, 3))
        tau = np.array([1.0, *(rng.standard_normal(2) + 1j * rng.standard_normal(2))])
        if case == "zero part":
            planes, tau = planes.real * rng.choice([1, 1j], size=(n, 2, 1)), tau.real + 0j
        planes /= np.linalg.norm(planes, axis=-1, keepdims=True)
        w = planes[rng.integers(n), rng.integers(2)]
        tau[1] = -(w[0] + w[2] * tau[2]) / w[1]
        share = 10.0 ** rng.uniform(-16, -9) if rng.random() < 0.5 else 1e-12 * rng.uniform(0.6, 1.5)
        if case == "zero part":
            phase = rng.choice([-1, 1]) * w[1] / abs(w[1])  # keeps tau real
        else:
            phase = np.exp(2j * np.pi * rng.random())
        tau[1] += share * np.linalg.norm(tau) * phase / w[1]
        if case == "zero part":
            planes[rng.random(n) < 0.1, rng.integers(2)] = 0.0
        elif case == "nan plane":
            planes.view(float)[rng.integers(n), rng.integers(2), rng.integers(6)] = np.nan
        screened, unscreened = _corner_outcome(np.asfortranarray(planes), tau)
        assert screened == unscreened
        decisions.append(screened)
    assert 0.2 < np.mean(decisions) < 0.8


def test_cramer_residual_near_zero_for_true_corners(bidisk, rng):
    for _ in range(10):
        th, ph = rng.uniform(0, 2 * np.pi, 2)
        zhat = np.array([np.exp(1j * th), np.exp(1j * ph)])
        strong = strong_tangents(bidisk, bidisk.edges[0], zhat)
        assert cramer_residual(strong) < 1e-13


def test_cramer_residual_detects_mismatched_basepoint():
    strong = _bidisk_corner_data()
    corrupted = StrongTangentSet(
        basepoint=HomVec.from_affine((0.3, 0.9)), planes=strong.planes
    )
    assert cramer_residual(corrupted) > 1e-3


def test_minor_vector_proportional_to_basepoint():
    strong = _bidisk_corner_data()
    c = strong.minor_vector()
    z = strong.basepoint.array
    assert np.linalg.norm(np.cross(c, z)) < 1e-13 * np.linalg.norm(c) * np.linalg.norm(z)


# ---------------------------------------------------------------------------
# Simplex identity


def test_simplex_closed_form_matches_quadrature():
    tau2 = np.array([0.2 + 0.1j, -0.4])
    assert np.isclose(
        simplex_integral(tau2, "closed"),
        simplex_integral(tau2, "quadrature", order=24),
        rtol=1e-12,
    )
    tau3 = np.array([0.2 + 0.1j, -0.4, 0.3 - 0.2j])
    assert np.isclose(
        simplex_integral(tau3, "closed"),
        simplex_integral(tau3, "quadrature", order=24),
        rtol=1e-8,
    )


def test_simplex_closed_form_value():
    tau = np.array([0.5, 0.5])
    # (-1)^2 / (1! * 0.5 * 0.5)
    assert np.isclose(simplex_integral(tau, "closed"), 4.0)
    tau3 = np.zeros(3)
    # (-1)^3 / 2!
    assert np.isclose(simplex_integral(tau3, "closed"), -0.5)


def test_simplex_pole_raises():
    with pytest.raises(ValueError, match="pole"):
        simplex_integral(np.array([1.0 - 1e-12, 0.3]), "closed")
    with pytest.raises(ValueError):
        simplex_integral(np.array([0.1, 0.2, 0.3, 0.4]))
    # w1 (1 - tau1) + w2 (1 - tau2) vanishes at w = (1/2, 1/2), between the
    # Gauss nodes of even order and on the middle node of odd order
    for method, order in (("closed", 24), ("quadrature", 24), ("quadrature", 25)):
        with pytest.raises(ValueError, match="pole"):
            simplex_integral([2.0, 0.0], method, order=order)
    # the triangle of factors 1, -0.5 + i, -0.5 - i contains 0 in its interior
    for method in ("closed", "quadrature"):
        with pytest.raises(ValueError, match="pole"):
            simplex_integral([0.0, 1.5 - 1j, 1.5 + 1j], method)


def test_simplex_pole_guard_is_the_exact_hull_distance():
    # the distance from 0 to the hull of the factors is the minimum of
    # |sum_j w_j f_j| over the simplex, which a dense sample bounds from above
    from hardycorners.kernels import _hull_distance

    rng = np.random.default_rng(3)
    g = np.linspace(0.0, 1.0, 201)
    u, v = np.meshgrid(g, g)
    inside = u + v <= 1.0
    bary = {
        2: np.stack([g, 1.0 - g], axis=-1),
        3: np.stack([u[inside], v[inside], 1.0 - u[inside] - v[inside]], axis=-1),
    }
    for k in range(200):
        n = 2 + k % 2
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        exact = _hull_distance(list(f))
        sampled = np.min(np.abs(bary[n] @ f))
        assert exact <= sampled + 1e-12
        assert sampled - exact <= 0.02 * np.max(np.abs(f))  # 4x the grid step


# ---------------------------------------------------------------------------
# Orientation bookkeeping and the fibered consistency check


def test_face_orientation_sign_flips_with_frame():
    rho = parse_poly("abs2(z1) + abs2(z2) - 1")
    zhat = np.array([0.6, 0.8j])
    v1, v2, v3 = _sphere_tangent_frame(zhat)
    s = orientation_sign_face(rho, zhat, [v1, v2, v3])
    assert s in (-1.0, 1.0)
    assert orientation_sign_face(rho, zhat, [v2, v1, v3]) == -s


def test_rank_deficient_face_frame_is_degenerate():
    rho = parse_poly("abs2(z1) + abs2(z2) - 1")
    zhat = np.array([0.6, 0.8j])
    v1, v2, _ = _sphere_tangent_frame(zhat)
    # v3 in the span of v1 and v2, up to a rounding-sized perturbation
    v3 = 0.5 * v1 - 2.0 * v2 + 1e-15
    with pytest.raises(ValueError, match="degenerate face frame"):
        orientation_sign_face(rho, zhat, [v1, v2, v3])


def test_edge_orientation_sign_flips_with_members(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    rhos = [bidisk.rho(0), bidisk.rho(1)]
    chart = bidisk.edges[0].chart
    tangents = chart.tangents(0.4, 1.1)
    s = orientation_sign_edge(rhos, zhat, tangents)
    assert s in (-1.0, 1.0)
    assert orientation_sign_edge(rhos[::-1], zhat, tangents) == -s
    assert orientation_sign_edge(rhos, zhat, tangents[::-1]) == -s


def test_pushforward_matches_corner_kernel(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    tau = np.array([1.0, 0.15 + 0.05j, -0.1])
    out = pushforward_corner_check(bidisk, zhat, tau, order=24)
    assert out["rel_err"] < 1e-12
    assert np.isclose(out["corner"], out["fiber"], rtol=1e-10)


def _misused_kernel(case):
    """Call a kernel with an argument of the wrong count, shape or role."""
    z, w = HomVec((1.0, 0.5, 0.0), "point"), HomVec((-0.5, 1.0, 0.0), "hyperplane")
    lift = (np.zeros(3), np.zeros(3))
    one_plane = StrongTangentSet(_bidisk_corner_data().basepoint, (w,))
    sphere = parse_poly("abs2(z1) + abs2(z2) - 1")
    calls = {
        "minor_vector": lambda: one_plane.minor_vector(),
        "omega_two_tangents": lambda: omega_cfl(z, w, [lift] * 2),
        "point_role": lambda: omega_cfl(w, w, [lift] * 3),
        "hyperplane_role": lambda: omega_cfl(z, z, [lift] * 3),
        "leray_two_tangents": lambda: smooth_leray_density(sphere, [1.0, 0.0], [0.0, 0.0], np.eye(2)),
        "corner_one_plane": lambda: corner_kernel(one_plane, [1.0, 0.1, 0.2], np.eye(2)),
        "simplex_method": lambda: simplex_integral([0.1, 0.2], method="trapezoid"),
    }
    return calls[case]()


@pytest.mark.parametrize(
    "case, message",
    [
        ("minor_vector", "^minor vector is defined for exactly two planes$"),
        ("omega_two_tangents", "^the incidence density consumes exactly three tangents$"),
        ("point_role", "^expected a point, got a hyperplane$"),
        ("hyperplane_role", "^expected a hyperplane, got a point$"),
        ("leray_two_tangents", r"^expected 3 tangent vectors of length 2, got shape \(2, 2\)$"),
        ("corner_one_plane", "^corner kernel needs exactly two tangent hyperplanes$"),
        ("simplex_method", "^method must be 'closed' or 'quadrature'$"),
    ],
)
def test_kernel_arguments_of_the_wrong_count_shape_or_role_raise(case, message):
    with pytest.raises(ValueError, match=message):
        _misused_kernel(case)


@pytest.mark.parametrize(
    "z, w, message",
    [
        ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), "affine form requires z0 != 0"),
        ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0), "affine form requires w0 != 0"),
        ((1.0, 1.0, 0.0), (-1.0, 1.0, 5.0), "affine form requires the second affine coordinate nonzero"),
    ],
    ids=["z0", "w0", "zhat2"],
)
def test_affine_form_rejects_an_incident_pair_off_its_chart(z, w, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        omega_cfl_affine_form(z, w, [])
