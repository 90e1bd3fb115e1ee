"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL line with the measured figure and the
stated tolerance, then asserts it.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see every line.
"""

import time

import numpy as np
import pytest

from hardycorners.domain import (
    check_strict_convexity,
    strong_tangents,
    transform_domain,
)
from hardycorners.incidence import (
    _random_incident_pair,
    _random_tangents,
    cramer_residual,
    omega_cfl,
    omega_cfl_affine_form,
    pushforward_corner_check,
    simplex_integral,
)
from hardycorners.kernels import StrongTangentSet, corner_kernel
from hardycorners.measures import fefferman_density, hardy_norm, reproduce
from hardycorners.normalforms import (
    apply_coordinate_change,
    change_matrix,
    edge_profile,
    eta,
    extract_normal_form,
    kappa,
    model_edge_domain,
)
from hardycorners.hermpoly import parse_poly
from hardycorners.projective import (
    HomVec,
    ProjMap,
    Section,
    normalize_map,
    proj_equal,
    pull_back_section,
)

from conftest import random_unit_det_map


def _line(num, ok, detail):
    msg = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(msg)
    return msg


def _nonzero_incident_pair(rng):
    """Incident pair whose homogeneous coordinates are all comfortably nonzero."""
    while True:
        z, w = _random_incident_pair(rng)
        if (
            np.min(np.abs(z)) > 0.1 * np.max(np.abs(z))
            and np.min(np.abs(w)) > 0.1 * np.max(np.abs(w))
        ):
            return z, w


def _generic_cubic(rng):
    coeffs = {
        (j, k): rng.standard_normal() + 1j * rng.standard_normal()
        for j in range(4)
        for k in range(4)
        if j + k <= 3
    }

    def f(z):
        return sum(c * z[0] ** j * z[1] ** k for (j, k), c in coeffs.items())

    return f


# ---------------------------------------------------------------------------


def test_criterion_01_simplex_identity():
    rng = np.random.default_rng(101)
    worst = {2: 0.0, 3: 0.0}
    elapsed = {}
    for n, order in ((2, 28), (3, 24)):
        t0 = time.perf_counter()
        done = 0
        while done < 20:
            tau = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
            if np.min(np.abs(1.0 - tau)) < 0.3:
                continue
            done += 1
            closed = simplex_integral(tau, "closed")
            quad = simplex_integral(tau, "quadrature", order=order)
            worst[n] = max(worst[n], abs(quad - closed) / abs(closed))
        elapsed[n] = time.perf_counter() - t0
    ok = (
        worst[2] <= 1e-8
        and elapsed[2] <= 1.0
        and worst[3] <= 1e-6
        and elapsed[3] <= 10.0
    )
    msg = _line(
        1,
        ok,
        f"simplex identity, 20 draws each: n=2 rel {worst[2]:.2e} "
        f"(tol 1e-08, {elapsed[2]:.2f}s <= 1s), n=3 rel {worst[3]:.2e} "
        f"(tol 1e-06, {elapsed[3]:.2f}s <= 10s)",
    )
    assert ok, msg


def test_criterion_02_incidence_density_affine_comparison():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        z, w = _nonzero_incident_pair(rng)
        tangents = _random_tangents(rng, z, w)
        a = omega_cfl(z, w, tangents).value
        b = omega_cfl_affine_form(z, w, tangents).value
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    ok = worst <= 1e-10
    msg = _line(
        2, ok, f"chart vs affine determinant form, 100 draws: rel {worst:.2e} (tol 1e-10)"
    )
    assert ok, msg


def test_criterion_03_incidence_density_symmetry():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        z, w = _random_incident_pair(rng)
        tangents = _random_tangents(rng, z, w)
        a = omega_cfl(z, w, tangents).value
        b = omega_cfl(w, z, [(dw, dz) for dz, dw in tangents]).value
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    ok = worst <= 1e-10
    msg = _line(
        3, ok, f"point-hyperplane symmetry, 100 draws: rel {worst:.2e} (tol 1e-10)"
    )
    assert ok, msg


def test_criterion_04_corner_cramer_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        basis = np.array([[-z[1], z[0], 0.0], [-z[2], 0.0, z[0]]])
        coef = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(coef)) < 0.1:
            continue
        planes = tuple(
            HomVec(tuple(c @ basis), "hyperplane") for c in coef
        )
        strong = StrongTangentSet(
            basepoint=HomVec(tuple(z)), planes=planes
        )
        worst = max(worst, cramer_residual(strong))
    ok = worst <= 1e-12
    msg = _line(
        4, ok, f"corner Cramer identity, 100 draws: residual {worst:.2e} (tol 1e-12)"
    )
    assert ok, msg


def test_criterion_05_corner_kernel_projective_invariance():
    rng = np.random.default_rng(105)
    worst = 0.0
    done = 0
    while done < 100:
        zhat = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tau_hat = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        z = np.array([1.0, zhat[0], zhat[1]])
        tau = np.array([1.0, tau_hat[0], tau_hat[1]])
        basis = np.array([[-z[1], z[0], 0.0], [-z[2], 0.0, z[0]]])
        coef = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        planes = tuple(HomVec(tuple(c @ basis), "hyperplane") for c in coef)
        frame = (
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        m = random_unit_det_map(rng, scale=0.3)
        try:
            k = corner_kernel(
                StrongTangentSet(basepoint=HomVec(tuple(z)), planes=planes),
                tau,
                frame,
            )
            zhat_m = np.array(m.affine(zhat))
            tau_m = np.array(m.affine(tau_hat))
        except (ZeroDivisionError, ValueError):
            continue
        md = np.linalg.inv(m.matrix).T
        planes_m = tuple(
            HomVec(tuple(md @ p.array), "hyperplane") for p in planes
        )
        jac = m.jacobian(zhat)
        frame_m = (jac @ frame[0], jac @ frame[1])
        try:
            k_m = corner_kernel(
                StrongTangentSet(
                    basepoint=HomVec.from_affine(zhat_m), planes=planes_m
                ),
                np.array([1.0, tau_m[0], tau_m[1]]),
                frame_m,
            )
        except ZeroDivisionError:
            continue
        done += 1
        predicted = k.value * m.den(tau_hat) ** 2 / m.den(zhat) ** 2
        worst = max(worst, abs(k_m.value - predicted) / max(abs(k.value), 1e-300))
    ok = worst <= 1e-9
    msg = _line(
        5,
        ok,
        f"corner kernel covariance under 100 projective maps: rel {worst:.2e} (tol 1e-09)",
    )
    assert ok, msg


def test_criterion_06_flat_corner_reproduction(bidisk):
    rng = np.random.default_rng(106)
    f = _generic_cubic(rng)
    taus = [
        np.array([0.0, 0.0]),
        np.array([0.2 + 0.1j, -0.3 + 0.05j]),
        np.array([-0.45, 0.5j]),
        np.array([0.1 - 0.4j, 0.35 + 0.2j]),
        np.array([0.6 + 0.1j, -0.1 - 0.55j]),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for tau in taus:
        out = reproduce(bidisk, f, tau, face_resolution=6, edge_resolution=64)
        worst = max(worst, out["rel_err"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 5.0
    msg = _line(
        6,
        ok,
        f"flat-corner reproduction of a generic cubic at 5 interior points, "
        f"64^2 edge grid: rel {worst:.2e} (tol 1e-10), {elapsed:.2f}s <= 5s",
    )
    assert ok, msg


def test_criterion_07_smooth_reproduction(sphere):
    t0 = time.perf_counter()
    out = reproduce(sphere, lambda z: 1.0, np.array([0.25, -0.1 + 0.2j]), resolution=32)
    elapsed = time.perf_counter() - t0
    ok = out["rel_err"] <= 1e-8 and elapsed <= 30.0
    msg = _line(
        7,
        ok,
        f"smooth boundary reproduction of the constant section: rel "
        f"{out['rel_err']:.2e} (tol 1e-08), {elapsed:.2f}s <= 30s",
    )
    assert ok, msg


def test_criterion_08_curved_corner_reproduction(perturbed_bidisk):
    rng = np.random.default_rng(108)
    f = _generic_cubic(rng)
    t0 = time.perf_counter()
    out_center = reproduce(
        perturbed_bidisk,
        lambda z: 1.0,
        np.array([0.0, 0.0]),
        resolution=48,
        edge_resolution=24,
    )
    out_cubic = reproduce(
        perturbed_bidisk,
        f,
        np.array([0.2 + 0.05j, -0.15 + 0.1j]),
        resolution=48,
        edge_resolution=24,
    )
    elapsed = time.perf_counter() - t0
    worst = max(out_center["rel_err"], out_cubic["rel_err"])
    corner_share = abs(out_center["per_piece"]["edges"][0]) / abs(
        out_center["expected"]
    )
    ok = worst <= 1e-4 and corner_share > 10 * 1e-4 and elapsed <= 300.0
    msg = _line(
        8,
        ok,
        f"curved-corner reproduction: rel {worst:.2e} (tol 1e-04), corner share "
        f"{corner_share:.3f} (> 1e-03), {elapsed:.1f}s <= 300s",
    )
    assert ok, msg


def test_criterion_09_corner_kernel_as_fiber_integral(perturbed_bidisk):
    rng = np.random.default_rng(109)
    chart = perturbed_bidisk.edges[0].chart
    tau = np.array([1.0, 0.1 + 0.05j, -0.2 + 0.1j])
    worst = 0.0
    for _ in range(20):
        params = rng.uniform(0.0, 2 * np.pi, 2)
        zhat = np.array(chart.point(*params))
        out = pushforward_corner_check(perturbed_bidisk, zhat, tau, order=32)
        worst = max(worst, out["rel_err"])
    ok = worst <= 1e-5
    msg = _line(
        9,
        ok,
        f"corner kernel equals the fibered incidence integral at 20 edge "
        f"points: rel {worst:.2e} (tol 1e-05)",
    )
    assert ok, msg


def test_criterion_10_coordinate_change_laws():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        coeffs = tuple(rng.uniform(-1.0, 1.0, 6))
        cases = [
            ("shear1", complex(rng.uniform(-0.5, 0.5))),  # real: no action
            ("shear1", 1j * rng.uniform(-0.5, 0.5)),
            ("scale", float(rng.uniform(0.5, 2.0))),
            ("swap", None),
            ("parab", float(rng.uniform(-0.5, 0.5))),
        ]
        for kind, param in cases:
            predicted = apply_coordinate_change(coeffs, kind, param)
            moved = transform_domain(
                model_edge_domain(coeffs), change_matrix(kind, param)
            )
            refit = extract_normal_form(
                moved,
                np.array([0.0, 0.0]),
                frame=ProjMap(np.eye(3, dtype=complex)),
            ).coeffs
            worst = max(worst, float(np.max(np.abs(np.array(refit) - predicted))))
    ok = worst <= 1e-6
    msg = _line(
        10,
        ok,
        f"four coefficient laws vs transform-then-refit, 10 edges x 5 cases "
        f"(shear with real and imaginary parameter): max abs {worst:.2e} (tol 1e-06)",
    )
    assert ok, msg


def test_criterion_11_scalar_invariant_anchors():
    rng = np.random.default_rng(111)
    err_origin = abs(kappa(0.0, 0.0) - 1.0)
    err_corner = abs(kappa(-1.0, -1.0))
    swap_exact = all(
        kappa(b1, b2) == kappa(b2, b1)
        for b1, b2 in rng.uniform(-3.0, 3.0, (50, 2))
    )
    tgrid = np.linspace(-1 + 1e-9, 1 - 1e-9, 40001)
    fvals = np.array([edge_profile(t) for t in tgrid])
    p1 = 0.5 * (1.0 + tgrid)
    p2 = 0.5 * (1.0 - tgrid)
    worst_grid = 0.0
    for b1, b2 in rng.uniform(-2.0, 2.0, (50, 2)):
        sup = np.max(-p1 * b1 - p2 * b2 - fvals)
        worst_grid = max(worst_grid, abs(sup + kappa(b1, b2)))
    ok = (
        err_origin <= 1e-10
        and err_corner <= 1e-8
        and swap_exact
        and worst_grid <= 1e-6
    )
    msg = _line(
        11,
        ok,
        f"scalar invariant: |k(0,0)-1| {err_origin:.1e} (tol 1e-10), "
        f"|k(-1,-1)| {err_corner:.1e} (tol 1e-08), swap exact {swap_exact}, "
        f"sup-grid consistency over 50 draws {worst_grid:.2e} (tol 1e-06)",
    )
    assert ok, msg


def test_criterion_12_edge_weight_positivity_and_law(perturbed_bidisk):
    rng = np.random.default_rng(112)
    chart = perturbed_bidisk.edges[0].chart

    # (a) strict positivity over the full 64^2 edge grid
    n_grid = 64
    min_weight = float(np.min(eta(perturbed_bidisk, chart.nodes(n_grid).points).eta_weight))

    # (b) the cube of the denominator carries the weight across 20 maps
    zhat0 = np.array(chart.point(0.9, 2.3))
    base = eta(perturbed_bidisk, zhat0).eta_weight
    worst_law = 0.0
    for _ in range(20):
        g = random_unit_det_map(rng, scale=0.04)
        moved = transform_domain(perturbed_bidisk, g)
        inv_moved = eta(moved, np.array(g.affine(zhat0)))
        predicted = abs(g.den(zhat0)) ** 3 * inv_moved.eta_weight
        worst_law = max(worst_law, abs(predicted - base) / base)

    # (c) positive weight comes with a positive avoidance margin
    min_margin = np.inf
    for _ in range(10):
        params = rng.uniform(0.0, 2 * np.pi, 2)
        zhat = np.array(chart.point(*params))
        assert eta(perturbed_bidisk, zhat).eta_weight > 0
        conv = check_strict_convexity(
            perturbed_bidisk, zhat, t_grid=5, ambient_grid=8, local_radius=0.1
        )
        min_margin = min(min_margin, conv["min_margin"])

    ok = min_weight > 0 and worst_law <= 1e-6 and min_margin > 0
    msg = _line(
        12,
        ok,
        f"edge weight: min over 64^2 grid {min_weight:.3e} (> 0), "
        f"denominator-cube law over 20 maps rel {worst_law:.2e} (tol 1e-06), "
        f"min avoidance margin at 10 points {min_margin:.2e} (> 0)",
    )
    assert ok, msg


def test_criterion_13_boundary_density_normalization():
    rng = np.random.default_rng(113)
    rho = parse_poly("abs2(z1) + abs2(z2) - 1")

    def orthonormal_frame(zhat):
        nu = np.array([zhat[0].real, zhat[0].imag, zhat[1].real, zhat[1].imag])
        nu /= np.linalg.norm(nu)
        basis = []
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            u = e - (e @ nu) * nu
            for b in basis:
                u -= (u @ b) * b
            if np.linalg.norm(u) > 1e-6:
                basis.append(u / np.linalg.norm(u))
        return [
            np.array([complex(b[0], b[1]), complex(b[2], b[3])]) for b in basis[:3]
        ]

    worst_const = 0.0
    frames = []
    for _ in range(20):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        zhat = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        frame = orthonormal_frame(zhat)
        frames.append((zhat, frame))
        dens = fefferman_density(rho, zhat, frame)
        worst_const = max(worst_const, abs(dens - 2.0 ** (1.0 / 3.0)))

    worst_scale = 0.0
    for lam in (0.5, 1.7, 3.0):
        rho_lam = parse_poly(f"abs2(z1) + abs2(z2) - {lam * lam:.17g}")
        for zhat, frame in frames[:5]:
            d1 = fefferman_density(rho, zhat, frame)
            d2 = fefferman_density(rho_lam, lam * zhat, [lam * v for v in frame])
            worst_scale = max(
                worst_scale, abs(d2 / d1 - lam ** (8.0 / 3.0)) / lam ** (8.0 / 3.0)
            )

    ok = worst_const <= 1e-10 and worst_scale <= 1e-8
    msg = _line(
        13,
        ok,
        f"boundary density: round-sphere constancy {worst_const:.2e} (tol 1e-10), "
        f"dilation exponent 4/3 rel {worst_scale:.2e} (tol 1e-08)",
    )
    assert ok, msg


def test_criterion_14_boundary_norm_invariance(perturbed_bidisk):
    rng = np.random.default_rng(114)

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    base = hardy_norm(perturbed_bidisk, f, resolution=12, edge_resolution=8)
    worst = 0.0
    for _ in range(10):
        g = random_unit_det_map(rng, scale=0.06)
        moved = transform_domain(perturbed_bidisk, g)
        ginv = g.inverse()

        def f_moved(zp):
            return pull_back_section(ginv, Section(f, bidegree=(-2, 0)), zp).value

        image = hardy_norm(moved, f_moved, resolution=12, edge_resolution=8)
        worst = max(worst, abs(image["total"] - base["total"]) / base["total"])
    ok = worst <= 1e-5
    msg = _line(
        14,
        ok,
        f"squared boundary norm under 10 projective maps at matched "
        f"resolution: rel {worst:.2e} (tol 1e-05)",
    )
    assert ok, msg
