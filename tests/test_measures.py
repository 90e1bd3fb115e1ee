"""Boundary measure, squared boundary norm, and the reproducing formula."""

import numpy as np
import pytest

from hardycorners import kernels
from hardycorners.cli import load_spec
from hardycorners.domain import ProjectionError, domain_from_spec, strong_tangents, transform_domain
from hardycorners.hermpoly import parse_poly
from hardycorners.kernels import (
    _corner_pairing,
    _leray_pairing,
    corner_kernel,
    orientation_sign_edge,
    orientation_sign_face,
    smooth_leray_density,
)
from hardycorners.measures import (
    BoundaryMeasure,
    _Factors,
    build_measure,
    edge_measure_density,
    fefferman_density,
    hardy_norm,
    reproduce,
)
from hardycorners.normalforms import eta
from hardycorners.projective import Section, homogenize, pull_back_section

from conftest import random_unit_det_map


SPHERE_RHO = parse_poly("abs2(z1) + abs2(z2) - 1")


def _orthonormal_sphere_frame(zhat):
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


# ---------------------------------------------------------------------------
# Face density


def test_density_constant_on_sphere_orthonormal_frames(rng):
    for _ in range(10):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        zhat = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        dens = fefferman_density(SPHERE_RHO, zhat, _orthonormal_sphere_frame(zhat))
        assert np.isclose(dens, 2.0 ** (1.0 / 3.0), atol=1e-12)


def test_density_independent_of_defining_function():
    # same zero set written with a positive polynomial multiple
    rho2 = parse_poly(
        "abs2(z1) + abs2(z2) - 1"
        " + 0.2*z1*abs2(z1) + 0.2*conj(z1)*abs2(z1)"
        " + 0.2*z1*abs2(z2) + 0.2*conj(z1)*abs2(z2)"
        " - 0.2*z1 - 0.2*conj(z1)"
    )
    zhat = np.array([0.6 + 0.1j, np.sqrt(1 - 0.37)])
    frame = _orthonormal_sphere_frame(zhat)
    d1 = fefferman_density(SPHERE_RHO, zhat, frame)
    d2 = fefferman_density(rho2, zhat, frame)
    assert np.isclose(d1, d2, rtol=1e-12)


def test_density_scaling_weight():
    # dilating the point and the frame by lambda scales the density by
    # |lambda**2| ** (4/3)
    lam = 1.7
    rho_lam = parse_poly(f"abs2(z1) + abs2(z2) - {lam * lam:.17g}")
    zhat = np.array([0.6 + 0.1j, np.sqrt(1 - 0.37)])
    frame = _orthonormal_sphere_frame(zhat)
    d1 = fefferman_density(SPHERE_RHO, zhat, frame)
    d2 = fefferman_density(rho_lam, lam * zhat, [lam * v for v in frame])
    assert np.isclose(d2 / d1, lam ** (8.0 / 3.0), rtol=1e-12)


def test_density_vanishes_on_levi_flat_wall():
    rho = parse_poly("z1 + conj(z1)")
    zhat = np.array([0.0, 0.3])
    frame = [np.array([1j, 0]), np.array([0, 1.0]), np.array([0, 1j])]
    assert fefferman_density(rho, zhat, frame) == 0.0


def test_density_rejects_critical_point():
    rho = parse_poly("abs2(z1)*abs2(z1) + abs2(z2)*abs2(z2)")
    with pytest.raises(ValueError):
        fefferman_density(rho, np.array([0.0, 0.0]), [np.eye(2, dtype=complex)[0]] * 3)


# ---------------------------------------------------------------------------
# Edge density


def test_edge_density_requires_positive_weight():
    v = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        edge_measure_density(0.0, v)
    with pytest.raises(ValueError):
        edge_measure_density(-1.0, v)


def test_edge_density_cube_root_and_arc_element():
    v = (np.array([2.0, 0.0]), np.array([0.0, 3.0]))
    assert np.isclose(edge_measure_density(8.0, v), 2.0 * 6.0)


# ---------------------------------------------------------------------------
# Assembled measure and squared norm


def test_build_measure_node_counts(perturbed_bidisk):
    m = build_measure(perturbed_bidisk, resolution=8, edge_resolution=6)
    assert len(m.face_nodes) == 2
    assert len(m.edge_nodes) == 1
    assert len(m.edge_nodes[0]) == 36
    assert m.edge_nodes[0].points.shape == (36, 2)
    assert np.all(m.edge_nodes[0].weights > 0)


def test_hardy_norm_basicproperties(perturbed_bidisk):
    out_zero = hardy_norm(perturbed_bidisk, lambda z: 0.0, resolution=8, edge_resolution=6)
    assert out_zero["total"] == 0.0
    out_one = hardy_norm(perturbed_bidisk, lambda z: 1.0, resolution=8, edge_resolution=6)
    assert out_one["total"] > 0
    assert all(v >= 0 for v in out_one["faces"] + out_one["edges"])
    # building the measure again returns the cached arrays, and a fresh
    # domain builds the same ones
    m = build_measure(perturbed_bidisk, resolution=8, edge_resolution=6)
    again = build_measure(perturbed_bidisk, resolution=8, edge_resolution=6)
    for a, b in zip(m.face_nodes + m.edge_nodes, again.face_nodes + again.edge_nodes):
        assert a.points is b.points and a.weights is b.weights
    fresh = hardy_norm(
        domain_from_spec(load_spec("perturbed_bidisk")), lambda z: 1.0, resolution=8, edge_resolution=6
    )
    assert fresh == out_one


def _hardy_norm_node_by_node(d, f, resolution, edge_resolution):
    """Reference: the squared norm summed one node at a time with the scalar API."""
    total = 0.0
    for fc in d.faces:
        rho = d.rho(fc.hypersurface)
        for params, w in fc.chart.quad_nodes(resolution):
            z = fc.chart.point(*params)
            dens = fefferman_density(rho, z, fc.chart.tangents(*params))
            total += w * dens * abs(f(z)) ** 2
    for e in d.edges:
        for params, w in e.chart.quad_nodes(edge_resolution):
            z = e.chart.point(*params)
            dens = edge_measure_density(eta(d, z).eta_weight, e.chart.tangents(*params))
            total += w * dens * abs(f(z)) ** 2
    return total


def test_hardy_norm_matches_node_by_node_reference(perturbed_bidisk, rng):
    t = random_unit_det_map(rng, scale=0.05)
    moved = transform_domain(perturbed_bidisk, t)

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    def f_moved(zp):
        return pull_back_section(t.inverse(), Section(f, bidegree=(-2, 0)), zp).value

    for d, g in ((perturbed_bidisk, f), (moved, f_moved)):
        got = hardy_norm(d, g, resolution=6, edge_resolution=6)["total"]
        ref = _hardy_norm_node_by_node(d, g, 6, 6)
        # the same per-node terms, summed in another order
        assert abs(got - ref) <= 1e-12 * ref


def test_section_of_wrong_shape_is_rejected(perturbed_bidisk):
    def stacked(z):
        return np.stack(z, axis=-1)

    with pytest.raises(ValueError, match="coordinate pair"):
        hardy_norm(perturbed_bidisk, stacked, resolution=6, edge_resolution=6)
    with pytest.raises(ValueError, match="coordinate pair"):
        reproduce(perturbed_bidisk, stacked, np.array([0.1, 0.2j]), resolution=6)


def test_sphere_measure_total_matches_constant_density(sphere):
    # constant density 2**(1/3) times the euclidean volume of the unit
    # 3-sphere (2 * pi**2)
    out = hardy_norm(sphere, lambda z: 1.0, resolution=16)
    assert np.isclose(out["total"], 2.0 ** (1.0 / 3.0) * 2 * np.pi**2, rtol=1e-6)


def test_hardy_norm_projective_invariance(perturbed_bidisk, rng):
    # |f'|^2 against the transported measure equals |f|^2 against the
    # original, with the section pulled back at matched weight (-2, 0)
    t = random_unit_det_map(rng, scale=0.05)
    moved = transform_domain(perturbed_bidisk, t)
    tinv = t.inverse()

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    def f_moved(zp):
        return pull_back_section(
            tinv, Section(f, bidegree=(-2, 0)), zp
        ).value

    base = hardy_norm(perturbed_bidisk, f, resolution=8, edge_resolution=6)
    image = hardy_norm(moved, f_moved, resolution=8, edge_resolution=6)
    assert np.isclose(image["total"], base["total"], rtol=1e-5)


# ---------------------------------------------------------------------------
# Reproducing formula


def test_reproduce_polynomial_on_bidisk(bidisk):
    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    tau = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    out = reproduce(bidisk, f, tau, resolution=24, face_resolution=6)
    assert out["rel_err"] < 1e-10
    assert np.isclose(out["expected"], f(tau))
    # both faces and the edge contribute
    assert len(out["per_piece"]["faces"]) == 2
    assert len(out["per_piece"]["edges"]) == 1
    assert abs(out["per_piece"]["edges"][0]) > 0.01


def test_reproduce_constant_on_sphere(sphere):
    out = reproduce(sphere, lambda z: 1.0, np.array([0.25, -0.1 + 0.2j]), resolution=20)
    assert out["rel_err"] < 1e-8
    assert out["per_piece"]["edges"] == []


def test_reproduce_raises_on_boundary_pole(bidisk):
    # tau on the first disk's boundary makes a face node's tangent plane
    # pass through it
    tau = np.array([1.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        reproduce(bidisk, lambda z: 1.0, tau, resolution=12, face_resolution=6)
    # The pole check depends on tau, so a warm cache does not skip it: the
    # bidisk's faces are Levi-flat, and their nodes still take part.
    reproduce(bidisk, lambda z: 1.0, np.array([0.2, -0.1j]), resolution=12, face_resolution=6)
    assert ("reproduce", 6, 12) in bidisk._cache
    with pytest.raises(ZeroDivisionError):
        reproduce(bidisk, lambda z: 1.0, tau, resolution=12, face_resolution=6)
    # A pole at a face node at angle pi/3, which the 5-node edge grid misses,
    # so that only the Levi-flat face's pole check can see it.
    tau = np.array([bidisk.faces[0].chart.nodes(6).points[1, 0], 0.0])
    reproduce(bidisk, lambda z: 1.0, np.array([0.2, -0.1j]), face_resolution=6, edge_resolution=5)
    with pytest.raises(ZeroDivisionError, match="evaluation point"):
        reproduce(bidisk, lambda z: 1.0, tau, face_resolution=6, edge_resolution=5)


def test_reproduce_does_not_call_the_section_on_levi_flat_faces():
    # The bidisk's faces keep no weighted node, so the section sees only the
    # edge's nodes and tau, cold and warm alike.
    d = domain_from_spec(load_spec("bidisk"))
    calls = []

    def f(z):
        calls.append(np.shape(z[0]))
        return z[0] * z[1] ** 2 + 0.5

    tau = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    for _ in range(2):
        calls.clear()
        out = reproduce(d, f, tau, resolution=24, face_resolution=6)
        assert calls == [(24 * 24,), ()]
        assert out["per_piece"]["faces"] == [0j, 0j]
        assert out["rel_err"] < 1e-10
    factors = d._cache[("reproduce", 6, 24)]
    assert [len(piece) for piece in factors.face_nodes] == [0, 0]
    # every face node is Levi-flat: it is kept, with its unit gradient, for the pole check only
    flat = len(factors.flat_points)
    assert flat == len(factors.unit_grad) == sum(len(fc.chart.nodes(6).points) for fc in d.faces)
    assert not factors.flat_points.flags.writeable
    assert len(factors.points) == len(factors.weights) == 24 * 24


# ---------------------------------------------------------------------------
# Cached tau-free factors: one assembled node set per resolution pair


def _fresh(name):
    return domain_from_spec(load_spec(name))


def _cubic(z):
    return z[0] * z[1] ** 2 + 0.5


CACHE_TAU = np.array([0.2 + 0.1j, -0.3 + 0.05j])


def test_reproduce_is_bit_identical_warm_and_fresh():
    d = _fresh("perturbed_bidisk")
    first = reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    assert sorted(d._cache) == [("reproduce", 8, 6)]
    second = reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    fresh = reproduce(_fresh("perturbed_bidisk"), _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    assert first == second == fresh


def test_warm_reproduce_calls_the_section_once_on_all_weighted_nodes():
    d = _fresh("perturbed_bidisk")
    reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    calls = []

    def f(z):
        calls.append(np.shape(z[0]))
        return _cubic(z)

    warm = reproduce(d, f, CACHE_TAU, resolution=8, edge_resolution=6)
    assert calls == [(2 * 8 * 4 * 8 + 6 * 6,), ()]
    assert warm == reproduce(_fresh("perturbed_bidisk"), _cubic, CACHE_TAU, resolution=8, edge_resolution=6)


def test_reproduce_shares_are_the_sums_over_each_piece():
    d = _fresh("perturbed_bidisk")
    out = reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    fac = d._cache[("reproduce", 8, 6)]
    assert len(fac.flat_points) == 0  # no Levi-flat node on this domain
    divisor = np.concatenate(
        [
            _leray_pairing(fac.points[: len(fac.unit_grad)], fac.unit_grad, CACHE_TAU) ** 2,
            _corner_pairing(fac.planes, homogenize(CACHE_TAU)),
        ]
    )
    terms = fac.weights * _cubic((fac.points[:, 0], fac.points[:, 1])) / divisor
    shares = out["per_piece"]["faces"] + out["per_piece"]["edges"]
    start = 0
    for share, piece in zip(shares, fac.face_nodes + fac.edge_nodes, strict=True):
        assert share == np.sum(terms[start : start + len(piece)])
        start += len(piece)
    assert out["value"] == sum(shares)


def test_warm_bidisk_reproduce_pairs_and_sums_no_empty_face_piece(monkeypatch):
    # Both bidisk faces are Levi-flat, so both face pieces of the entry are empty: a warm call
    # pairs only the Levi-flat nodes (their pole check) and the edge rows, and each empty
    # piece is 0j.  The value is the sum of every piece's rows, empty ones included.
    sizes = {"face_resolution": 6, "edge_resolution": 24}
    d = _fresh("bidisk")
    cold = reproduce(d, _cubic, CACHE_TAU, **sizes)
    fac = d._cache[("reproduce", 6, 24)]
    assert [len(p) for p in fac.face_nodes] == [0, 0]
    paired = []

    def pairing(zhat, *args):
        paired.append(len(zhat))
        return _leray_pairing(zhat, *args)

    monkeypatch.setattr("hardycorners.measures._leray_pairing", pairing)
    warm = reproduce(d, _cubic, CACHE_TAU, **sizes)
    assert paired == [len(fac.flat_points)]
    assert warm["per_piece"]["faces"] == [0j, 0j]
    assert warm == cold
    terms = fac.weights * _cubic((fac.points[:, 0], fac.points[:, 1]))
    terms /= _corner_pairing(fac.planes, homogenize(CACHE_TAU))
    shares = [complex(terms[p.rows].sum()) for p in fac.face_nodes + fac.edge_nodes]
    assert warm["value"] == sum(shares[:2]) + sum(shares[2:])
    assert warm["rel_err"] < 1e-10


def test_node_set_sums_take_no_slice_of_an_empty_piece():
    d = _fresh("bidisk")
    reproduce(d, _cubic, CACHE_TAU, face_resolution=6, edge_resolution=8)
    fac = d._cache[("reproduce", 6, 8)]
    sliced = []

    class Terms:
        def __getitem__(self, rows):
            sliced.append(rows)
            return np.ones(rows.stop - rows.start, dtype=complex)

    assert fac._sums(Terms()) == ([0j, 0j], [64])
    assert sliced == [fac.edge_nodes[0].rows]


def test_edge_pole_raises_before_any_section_call():
    # tau on one edge node's first member tangent hyperplane, and on no face
    # node's: the edge's pole check must fail before the section sees a node.
    d = _fresh("perturbed_bidisk")
    reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    fac = d._cache[("reproduce", 8, 6)]
    w = fac.planes[1, 0]
    tau2 = 0.2j
    tau = np.array([-(w[0] + w[2] * tau2) / w[1], tau2])
    _leray_pairing(fac.points[: len(fac.unit_grad)], fac.unit_grad, tau)  # no face pole
    calls = []

    def f(z):
        calls.append(np.shape(z[0]))
        return _cubic(z)

    for domain in (d, _fresh("perturbed_bidisk")):  # warm and cold
        with pytest.raises(ZeroDivisionError, match="member tangent hyperplane"):
            reproduce(domain, f, tau, resolution=8, edge_resolution=6)
    assert calls == []


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_reproduce_cache_keys_on_resolution(order):
    pairs = [(6, 8), (8, 6)]
    d = _fresh("perturbed_bidisk")
    tau = np.array([0.1 - 0.05j, 0.2j])
    for i in order:
        face_res, edge_res = pairs[i]
        got = reproduce(d, _cubic, tau, face_resolution=face_res, edge_resolution=edge_res)
        want = reproduce(
            _fresh("perturbed_bidisk"), _cubic, tau, face_resolution=face_res, edge_resolution=edge_res
        )
        assert got == want
    assert sorted(d._cache) == [("reproduce", 6, 8), ("reproduce", 8, 6)]


def test_transformed_domain_builds_its_own_factors(rng):
    t = random_unit_det_map(rng, scale=0.05)
    base = _fresh("perturbed_bidisk")
    reproduce(base, _cubic, CACHE_TAU, resolution=6)
    moved = transform_domain(base, t)
    assert moved._cache == {}
    got = reproduce(moved, _cubic, CACHE_TAU, resolution=6)
    assert moved._cache.keys() == base._cache.keys()
    for key, factor in moved._cache.items():
        assert factor is not base._cache[key]
        assert not np.array_equal(factor.points, base._cache[key].points)
    want = reproduce(transform_domain(_fresh("perturbed_bidisk"), t), _cubic, CACHE_TAU, resolution=6)
    assert got == want


def test_cached_factor_arrays_are_read_only():
    d = _fresh("perturbed_bidisk")
    reproduce(d, _cubic, CACHE_TAU, resolution=6)
    fac = d._cache[("reproduce", 6, 6)]
    for a in (fac.points, fac.weights, fac.unit_grad, fac.planes):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # Each piece's arrays are views of its rows of the weighted nodes, faces first.
    assert len(fac.flat_points) == 0
    start = 0
    for piece in fac.face_nodes + fac.edge_nodes:
        end = start + len(piece)
        for a, whole in ((piece.points, fac.points), (piece.weights, fac.weights)):
            assert np.shares_memory(a, whole)
            np.testing.assert_array_equal(a, whole[start:end])
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        start = end
    assert start == len(fac.weights) == len(fac.unit_grad) + len(fac.planes)


@pytest.mark.parametrize("name", ["bidisk", "perturbed_bidisk", "sphere"])
def test_cached_node_sets_are_coordinate_major(name):
    # sphere has one face and no edge: its node arrays are a lone part, copied all the same.
    d = _fresh(name)
    reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=6)
    fac = d._cache[("reproduce", 8, 6)]
    entries = [(fac, ("points", "flat_points", "unit_grad", "planes"))]
    if name != "bidisk":  # bidisk's flat edge has no measure weight
        entries.append((build_measure(d, resolution=8, edge_resolution=6), ("points",)))
    for entry, names in entries:
        for field in names:
            a = getattr(entry, field)
            assert not a.flags.writeable
            for column in np.ndindex(a.shape[1:]):
                assert a[(slice(None), *column)].flags.c_contiguous, (field, column)
        flat = []
        for piece, fc in zip(entry.face_nodes, d.faces, strict=True):
            nodes = fc.chart.nodes(8).points
            if len(piece):
                assert np.array_equal(piece.points, nodes)
            else:  # a Levi-flat face keeps its nodes for the pole check only
                assert entry is fac
                flat.append(nodes)
        for piece, e in zip(entry.edge_nodes, d.edges, strict=True):
            assert np.array_equal(piece.points, e.chart.nodes(6).points)
        if entry is fac:
            assert np.array_equal(fac.flat_points, np.concatenate(flat or [np.empty((0, 2))]))
    # The pole screen's radius: the largest |z| over the Levi-flat and the weighted face nodes.
    face_points = fac.points[: len(fac.unit_grad) - len(fac.flat_points)]
    largest = np.linalg.norm(np.concatenate([fac.flat_points, face_points]), axis=-1).max()
    assert fac.radius == pytest.approx(largest, rel=1e-15)


def test_failed_factor_build_caches_nothing():
    # both members are one sphere, so the edge chart's tangents are undefined
    spec = load_spec("bidisk")
    for h in spec["hypersurfaces"]:
        h["rho"] = "abs2(z1) + abs2(z2) - 2"
    d = domain_from_spec(spec)
    for _ in range(2):
        with pytest.raises(ProjectionError, match="not transverse"):
            reproduce(d, lambda z: 1.0, np.array([0.0, 0.0]), resolution=6)
        assert not any(kind == "reproduce" for kind, _, _ in d._cache)


def test_collapsed_face_chart_raises_instead_of_dropping_its_face():
    # With disk_radius 0 every tangent frame of face 0 has rank 1: its measure density and
    # face density vanish at every node, so face 0 would add exactly 0 to either sum.
    spec = load_spec("perturbed_bidisk")
    spec["faces"][0]["chart"]["disk_radius"] = 0
    d = domain_from_spec(spec)
    with pytest.raises(ProjectionError, match=r"rank-deficient\) at 256 of 256 nodes"):
        reproduce(d, lambda z: z[0] + 1.0, np.array([0.1, 0.2j]), resolution=8)
    with pytest.raises(ProjectionError, match=r"rank-deficient\) at 256 of 256 nodes"):
        hardy_norm(d, lambda z: z[0] + 1.0, resolution=8)
    assert not d._cache


@pytest.mark.parametrize("resolution", [1, 2, 3, 4.5])
def test_resolution_is_an_integer_of_at_least_four(resolution):
    d = _fresh("perturbed_bidisk")
    match = "resolution must be an integer >= 4"
    for chart in [f.chart for f in d.faces] + [e.chart for e in d.edges]:
        with pytest.raises(ValueError, match=match):
            chart.nodes(resolution)
    with pytest.raises(ValueError, match=match):
        reproduce(d, _cubic, CACHE_TAU, resolution=resolution)
    with pytest.raises(ValueError, match=match):
        hardy_norm(d, _cubic, resolution=resolution)
    assert d._cache == {}
    # the smallest grid is built once, under the value that names it
    reproduce(d, _cubic, CACHE_TAU, resolution=4)
    reproduce(d, _cubic, CACHE_TAU, resolution=np.int64(4))
    assert sorted(d._cache) == [("reproduce", 4, 4)]


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_float_resolution_never_finds_the_integer_entry(warm):
    # 8.0 == 8 hashes to the cache key of 8, so the check must come before the lookup
    d = _fresh("perturbed_bidisk")
    if warm:
        reproduce(d, _cubic, CACHE_TAU, resolution=8)
        build_measure(d, 8, 6)
    before = dict(d._cache)
    match = "resolution must be an integer >= 4, got 8.0"
    with pytest.raises(ValueError, match=match):
        reproduce(d, _cubic, CACHE_TAU, resolution=8.0)
    with pytest.raises(ValueError, match=match):
        reproduce(d, _cubic, CACHE_TAU, resolution=8, edge_resolution=8.0)
    with pytest.raises(ValueError, match=match):
        build_measure(d, 8.0, 6)
    with pytest.raises(ValueError, match=match):
        build_measure(d, 8, 8.0)
    with pytest.raises(ValueError, match=match):
        hardy_norm(d, _cubic, resolution=8.0)
    assert d._cache == before
    # a numpy integer is an integer, and shares the entry
    reproduce(d, _cubic, CACHE_TAU, resolution=np.int64(8))
    build_measure(d, np.int64(8), np.int64(6))
    assert sorted(d._cache) == [("measure", 8, 6), ("reproduce", 8, 8)]


@pytest.mark.parametrize(
    "tau",
    [
        np.array([np.nan, 0.1]),
        np.array([0.1, np.inf * 1j]),
        np.zeros(3),
        np.zeros((1, 2)),
        0.1,
    ],
    ids=["nan", "inf", "three", "row", "scalar"],
)
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_bad_tau_raises_before_any_pairing_or_section_call(tau, warm, monkeypatch):
    d = _fresh("perturbed_bidisk")
    if warm:
        reproduce(d, _cubic, CACHE_TAU, resolution=8)
    before = dict(d._cache)
    calls = []

    def pairing(*args):
        calls.append("pairing")
        raise AssertionError("paired")

    def f(z):
        calls.append("section")
        return _cubic(z)

    monkeypatch.setattr("hardycorners.measures._leray_pairing", pairing)
    monkeypatch.setattr("hardycorners.measures._corner_pairing", pairing)
    with pytest.raises(ValueError, match="tau must be a finite point"):
        reproduce(d, f, tau, resolution=8)
    assert calls == []
    assert d._cache == before


# ---------------------------------------------------------------------------
# Cached measure pieces


def _measure_keys(d):
    return sorted(key for key in d._cache if key[0] == "measure")


def test_hardy_norm_is_bit_identical_warm_and_fresh():
    d = _fresh("perturbed_bidisk")
    first = hardy_norm(d, _cubic, resolution=8, edge_resolution=6)
    assert _measure_keys(d) == [("measure", 8, 6)]
    second = hardy_norm(d, _cubic, resolution=8, edge_resolution=6)
    fresh = hardy_norm(_fresh("perturbed_bidisk"), _cubic, resolution=8, edge_resolution=6)
    assert first == second == fresh


def test_default_edge_resolution_shares_the_explicit_entry():
    d = _fresh("perturbed_bidisk")
    default = build_measure(d, resolution=12)
    explicit = build_measure(d, resolution=12, edge_resolution=6)
    assert _measure_keys(d) == [("measure", 12, 6)]
    assert explicit is default
    assert explicit.edge_nodes[0] is default.edge_nodes[0]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_measure_cache_keys_on_resolution(order):
    pairs = [(6, 8), (8, 6)]
    d = _fresh("perturbed_bidisk")
    for i in order:
        res, edge_res = pairs[i]
        got = hardy_norm(d, _cubic, resolution=res, edge_resolution=edge_res)
        want = hardy_norm(_fresh("perturbed_bidisk"), _cubic, resolution=res, edge_resolution=edge_res)
        assert got == want
    assert _measure_keys(d) == [("measure", 6, 8), ("measure", 8, 6)]


def test_transformed_domain_builds_its_own_measure(rng):
    t = random_unit_det_map(rng, scale=0.05)
    base = _fresh("perturbed_bidisk")
    hardy_norm(base, _cubic, resolution=6)
    moved = transform_domain(base, t)
    assert moved._cache == {}
    got = hardy_norm(moved, _cubic, resolution=6)
    assert moved._cache.keys() == base._cache.keys()
    for key, piece in moved._cache.items():
        assert piece is not base._cache[key]
        assert not np.array_equal(piece.points, base._cache[key].points)
    assert got == hardy_norm(transform_domain(_fresh("perturbed_bidisk"), t), _cubic, resolution=6)


def test_cached_measure_arrays_are_read_only():
    d = _fresh("perturbed_bidisk")
    m = build_measure(d, resolution=6)
    for a in (m.points, m.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # Each piece's arrays are views of its rows of the one node set, faces first.
    start = 0
    for piece in m.face_nodes + m.edge_nodes:
        end = start + len(piece)
        for a, whole in ((piece.points, m.points), (piece.weights, m.weights)):
            assert np.shares_memory(a, whole)
            np.testing.assert_array_equal(a, whole[start:end])
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        start = end
    assert start == len(m.points) == len(m.weights)


def test_warm_hardy_norm_calls_the_section_once_on_all_nodes():
    d = _fresh("perturbed_bidisk")
    hardy_norm(d, _cubic, resolution=8, edge_resolution=6)
    calls = []

    def f(z):
        calls.append(z[0].shape)
        return _cubic(z)

    warm = hardy_norm(d, f, resolution=8, edge_resolution=6)
    assert calls == [build_measure(d, resolution=8, edge_resolution=6).points[:, 0].shape]
    assert calls == [(2 * 8 * 4 * 8 + 6 * 6,)]
    assert warm == hardy_norm(_fresh("perturbed_bidisk"), _cubic, resolution=8, edge_resolution=6)


def test_measure_shares_are_the_sums_over_each_piece():
    m = build_measure(_fresh("perturbed_bidisk"), resolution=8, edge_resolution=6)

    def func(z):
        return np.abs(_cubic(z)) ** 2

    total, faces, edges = m.integrate(func)
    for share, piece in zip(faces + edges, m.face_nodes + m.edge_nodes):
        values = func((piece.points[:, 0], piece.points[:, 1]))
        assert share == np.sum(piece.weights * values)
    assert total == sum(faces) + sum(edges)


def test_cold_reproduce_builds_one_frame_determinant_per_piece(monkeypatch):
    # The charts' rank check computes each piece's frame determinants, and the
    # orientation signs come with the node sets: reproduce builds no frame of its own.
    det4, calls = kernels._det4_columns, []

    def counted(cols):
        calls.append(cols)
        return det4(cols)

    monkeypatch.setattr(kernels, "_det4_columns", counted)
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    reproduce(d, lambda z: z[0] + 1.0, np.zeros(2), resolution=24, edge_resolution=12)
    assert len(calls) == 3


def test_failed_measure_build_caches_nothing(monkeypatch):
    def negated_eta(d, points):
        out = eta(d, points)
        return out._replace(eta_weight=-out.eta_weight)

    d = _fresh("perturbed_bidisk")
    monkeypatch.setattr("hardycorners.measures.eta", negated_eta)
    for _ in range(2):
        with pytest.raises(ValueError, match="edge weight must be positive"):
            hardy_norm(d, _cubic, resolution=6)
        assert not any(kind == "measure" for kind, _, _ in d._cache)
    monkeypatch.undo()
    assert hardy_norm(d, _cubic, resolution=6) == hardy_norm(_fresh("perturbed_bidisk"), _cubic, resolution=6)


@pytest.mark.parametrize("reproduce_first", [True, False])
def test_factor_and_measure_entries_stay_apart(reproduce_first):
    # One record type holds both kinds of entry, so a lookup that mixed them
    # up would raise nothing; at equal resolutions only the kind tells them apart.
    def run(d):
        calls = [
            lambda: reproduce(d, _cubic, CACHE_TAU, resolution=8),
            lambda: hardy_norm(d, _cubic, resolution=8, edge_resolution=8),
        ]
        return [call() for call in (calls if reproduce_first else calls[::-1])]

    d = _fresh("perturbed_bidisk")
    assert run(d) == run(_fresh("perturbed_bidisk"))
    assert sorted(d._cache) == [("measure", 8, 8), ("reproduce", 8, 8)]
    measure, factors = d._cache[("measure", 8, 8)], d._cache[("reproduce", 8, 8)]
    assert measure is build_measure(d, resolution=8, edge_resolution=8)
    assert type(measure) is BoundaryMeasure and measure.weights.dtype == float
    assert type(factors) is _Factors and factors.weights.dtype == complex
    assert not np.shares_memory(measure.points, factors.points)


def _reproduce_node_by_node(d, f, tau, resolution):
    """Reference: the reproducing formula summed one node at a time with the scalar API."""
    total = 0.0j
    for fc in d.faces:
        rho = d.rho(fc.hypersurface)
        for params, w in fc.chart.quad_nodes(resolution):
            z, vs = fc.chart.point(*params), fc.chart.tangents(*params)
            dens = smooth_leray_density(rho, z, tau, vs).value
            if dens != 0:
                total += w * orientation_sign_face(rho, z, vs) * f(z) * dens
    for e in d.edges:
        rhos = (d.rho(e.members[0]), d.rho(e.members[1]))
        for params, w in e.chart.quad_nodes(resolution):
            z, vs = e.chart.point(*params), e.chart.tangents(*params)
            k = corner_kernel(strong_tangents(d, e, z), homogenize(tau), vs).value
            total += w * orientation_sign_edge(rhos, z, vs) * f(z) * k
    return total


@pytest.mark.parametrize("name", ["bidisk", "perturbed_bidisk", "sphere", "moved"])
def test_reproduce_matches_node_by_node_reference(name, request, rng):
    if name == "moved":
        d = transform_domain(
            request.getfixturevalue("perturbed_bidisk"), random_unit_det_map(rng, scale=0.05)
        )
    else:
        d = request.getfixturevalue(name)

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    tau = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    got = reproduce(d, f, tau, resolution=6)["value"]
    ref = _reproduce_node_by_node(d, f, tau, 6)
    # Same per-node formula; only the summation order differs (pairwise
    # against sequential over a few hundred terms of size about 1).
    assert abs(got - ref) <= 1e-12 * abs(ref)
