"""Piecewise-smooth domains: charts, specs, tangent cycles, local checks."""

import copy
import json

import numpy as np
import pytest

from click.testing import CliRunner

from hardycorners.cli import load_spec, main
from hardycorners.domain import (
    Edge,
    Face,
    GraphPatchChart,
    ProjectionError,
    PwsDomain,
    SpherePolarChart,
    TorusChart,
    TransformedChart,
    canonical_spec,
    check_strict_convexity,
    domain_from_spec,
    strong_tangents,
    transform_domain,
    validate_domain,
    weak_tangent,
)
from hardycorners.hermpoly import parse_poly
from hardycorners.projective import dual_map, proj_equal

from conftest import random_unit_det_map


def _chart_points_on_locus(d, chart, rho_indices, params_list, tol=1e-10):
    for params in params_list:
        z = chart.point(*params)
        for i in rho_indices:
            assert abs(d.rho(i)(z[0], z[1])) < tol


def _tangents_match_differences(chart, params, tol=1e-5):
    params = np.asarray(params, dtype=float)
    tangents = chart.tangents(*params)
    h = 1e-6
    for i, v in enumerate(tangents):
        dp = np.zeros_like(params)
        dp[i] = h
        fd = (
            np.asarray(chart.point(*(params + dp)))
            - np.asarray(chart.point(*(params - dp)))
        ) / (2 * h)
        assert np.allclose(v, fd, atol=tol)


# ---------------------------------------------------------------------------
# Spec loading


def test_bidisk_spec_structure(bidisk):
    assert [bidisk.label(i) for i in range(2)] == ["disk1", "disk2"]
    assert len(bidisk.faces) == 2
    assert len(bidisk.edges) == 1
    assert bidisk.contains(np.array([0.0, 0.0]))
    assert not bidisk.contains(np.array([1.2, 0.0]))


def test_sphere_spec_structure(sphere):
    assert len(sphere.faces) == 1
    assert len(sphere.edges) == 0
    assert sphere.contains(np.array([0.3, 0.2j]))


def test_domain_from_spec_accepts_only_intersection_membership():
    spec = load_spec("bidisk")
    spec["membership"] = "intersection"
    assert domain_from_spec(spec).contains(np.zeros(2, complex))
    spec["membership"] = "union"
    with pytest.raises(ValueError, match="^membership must be 'intersection', not 'union'"):
        domain_from_spec(spec)


def test_domain_from_spec_rejects_unknown_member():
    spec = copy.deepcopy(load_spec("bidisk"))
    spec["edges"][0]["members"] = ["disk1", "nope"]
    with pytest.raises((KeyError, ValueError)):
        domain_from_spec(spec)


def test_pws_domain_rejects_duplicate_labels():
    rho = parse_poly("abs2(z1) - 1")
    with pytest.raises(ValueError, match="duplicate hypersurface label 'x'"):
        PwsDomain([("x", rho), ("y", rho), ("x", rho)], [], [])


def test_canonical_spec_is_key_order_independent():
    spec = load_spec("bidisk")
    shuffled = json.loads(json.dumps(spec))
    reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert canonical_spec(spec) == canonical_spec(reordered)
    assert ": " not in canonical_spec(spec)


def test_active_members_and_edge_at(bidisk):
    corner = np.array([np.exp(0.3j), np.exp(-0.9j)])
    assert bidisk.active_members(corner) == [0, 1]
    assert bidisk.edge_at(corner) is bidisk.edges[0]
    face_point = np.array([np.exp(0.3j), 0.2 + 0.1j])
    assert bidisk.active_members(face_point) == [0]


# ---------------------------------------------------------------------------
# Charts


def test_torus_chart_on_locus(bidisk):
    chart = bidisk.edges[0].chart
    assert isinstance(chart, TorusChart)
    params_list = [(0.3, 1.2), (4.0, 5.5), (0.0, 0.0)]
    _chart_points_on_locus(bidisk, chart, [0, 1], params_list, tol=1e-12)
    _tangents_match_differences(chart, (0.7, 2.1))


def test_torus_chart_solves_coupled_sheets(perturbed_bidisk):
    chart = perturbed_bidisk.edges[0].chart
    params_list = [(0.5, 2.5), (3.0, 0.1)]
    _chart_points_on_locus(perturbed_bidisk, chart, [0, 1], params_list, tol=1e-12)
    _tangents_match_differences(chart, (0.5, 2.5))


def test_sphere_polar_chart(sphere):
    chart = sphere.faces[0].chart
    assert isinstance(chart, SpherePolarChart)
    params_list = [(0.4, 1.0, 2.0), (1.2, 0.0, 5.0)]
    _chart_points_on_locus(sphere, chart, [0], params_list, tol=1e-12)
    _tangents_match_differences(chart, (0.4, 1.0, 2.0))


def test_graph_patch_chart(bidisk):
    chart = bidisk.faces[0].chart
    assert isinstance(chart, GraphPatchChart)
    params_list = [(0.5, 1.0, 2.0), (0.9, 4.0, 0.3)]
    _chart_points_on_locus(bidisk, chart, [0], params_list, tol=1e-12)
    _tangents_match_differences(chart, (0.5, 1.0, 2.0))
    # the graph coordinate stays inside the transverse disk
    z = chart.point(0.5, 1.0, 2.0)
    assert abs(z[0]) > 0.99 and abs(z[1]) <= 1.0


def test_quad_nodes_cover_resolution(bidisk):
    chart = bidisk.edges[0].chart
    nodes = list(chart.quad_nodes(8))
    assert len(nodes) == 64
    total = sum(w for _, w in nodes)
    assert np.isclose(total, (2 * np.pi) ** 2)


def _collapsed_chart_domains():
    """A face chart and an edge chart that Newton-converge but collapse a parameter axis."""
    # disk_radius 0: the disk shrinks to a point, so two of the three tangents vanish
    face_spec = load_spec("perturbed_bidisk")
    face_spec["faces"][0]["chart"]["disk_radius"] = 0
    # r0 = 0 on |z1 - 1|^2 = 1: every ray from 0 meets the circle at 0, so z1 stays 0
    edge_spec = {
        "hypersurfaces": [
            {"label": "a", "rho": "abs2(z1) - z1 - conj(z1)"},
            {"label": "b", "rho": "abs2(z2) - 1"},
        ],
        "faces": [],
        "edges": [{"members": ["a", "b"], "chart": {"type": "torus2", "r0": [0.0, 1.0]}}],
    }
    return domain_from_spec(face_spec).faces[0].chart, domain_from_spec(edge_spec).edges[0].chart


# Resolution 6 keeps the edge chart's angles off pi/2, where its Newton Jacobian is singular.
@pytest.mark.parametrize(
    "piece, kind, resolution, nodes",
    [(0, "graph_patch", 8, 256), (1, "torus2", 6, 36)],
    ids=["face", "edge"],
)
def test_rank_deficient_chart_frame_is_projection_error(rng, piece, kind, resolution, nodes):
    chart = _collapsed_chart_domains()[piece]
    message = f"{kind} chart tangents are singular .* rank-deficient.* at {nodes} of {nodes} nodes"
    with pytest.raises(ProjectionError, match=message):
        chart.nodes(resolution)
    # the image of a collapsed chart is collapsed too
    with pytest.raises(ProjectionError, match="rank-deficient"):
        TransformedChart(chart, random_unit_det_map(rng, scale=0.1)).nodes(resolution)


def test_transformed_chart_tracks_base(bidisk, rng):
    t = random_unit_det_map(rng, scale=0.1)
    base = bidisk.edges[0].chart
    moved = TransformedChart(base, t)
    params = (0.7, 2.1)
    assert np.allclose(
        moved.point(*params), t.affine(base.point(*params)), atol=1e-12
    )
    _tangents_match_differences(moved, params)
    assert list(moved.quad_nodes(6)) == list(base.quad_nodes(6))


# ---------------------------------------------------------------------------
# Weak tangent cycle


def test_strong_tangents_at_corner(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    strong = strong_tangents(bidisk, bidisk.edges[0], zhat)
    assert len(strong) == 2
    z = np.array([1.0, zhat[0], zhat[1]])
    for w in strong.planes:
        assert abs(np.dot(w.array, z)) < 1e-12


def test_strong_tangents_rejects_off_edge_point(bidisk):
    zhat = np.array([np.exp(0.4j), 0.5])
    with pytest.raises(ValueError):
        strong_tangents(bidisk, bidisk.edges[0], zhat)


def test_weak_tangent_interpolates_strong(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    e = bidisk.edges[0]
    strong = strong_tangents(bidisk, e, zhat)
    assert proj_equal(
        weak_tangent(bidisk, e, zhat, (1.0, 0.0)).array, strong[0].array
    )
    assert proj_equal(
        weak_tangent(bidisk, e, zhat, (0.0, 1.0)).array, strong[1].array
    )
    z = np.array([1.0, zhat[0], zhat[1]])
    for t1 in (0.25, 0.5, 0.9):
        w = weak_tangent(bidisk, e, zhat, (t1, 1.0 - t1))
        assert abs(np.dot(w.array, z)) < 1e-12


def test_weak_tangent_validates_barycentric(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    e = bidisk.edges[0]
    with pytest.raises(ValueError):
        weak_tangent(bidisk, e, zhat, (0.7, 0.7))
    with pytest.raises(ValueError):
        weak_tangent(bidisk, e, zhat, (-0.2, 1.2))
    with pytest.raises(ValueError):
        weak_tangent(bidisk, e, zhat, (1.0,))
    with pytest.raises(ValueError, match="t must be finite"):
        weak_tangent(bidisk, e, zhat, (np.nan, 1.0))
    with pytest.raises(ValueError, match="t must be finite"):
        weak_tangent(bidisk, e, zhat, (0.5, np.nan))


# ---------------------------------------------------------------------------
# Strict convexity margins


def test_bidisk_edge_is_not_strictly_convex(bidisk):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    out = check_strict_convexity(bidisk, zhat, t_grid=5, ambient_grid=8)
    assert not out["strict"]
    assert abs(out["min_margin"]) < 1e-12


@pytest.mark.parametrize(
    "name, value",
    [
        ("t_grid", 1),
        ("t_grid", 0),
        ("ambient_grid", 0),
        ("local_radius", 0.0),
        ("local_radius", -0.1),
        ("local_radius", np.inf),
        ("local_radius", np.nan),
    ],
)
def test_strict_convexity_rejects_bad_arguments(bidisk, name, value):
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    with pytest.raises(ValueError, match=name):
        check_strict_convexity(bidisk, zhat, **{name: value})


def test_face_point_needs_no_t_grid(sphere):
    # a face point has the single weight t = (1,), so t_grid is not read
    zhat = np.array([1.0, 0.0])
    out = check_strict_convexity(sphere, zhat, t_grid=1, ambient_grid=4)
    assert [t for t, _ in out["per_t"]] == [(1.0,)]
    assert out["strict"]


def test_perturbed_edge_is_strictly_convex(perturbed_bidisk):
    chart = perturbed_bidisk.edges[0].chart
    zhat = np.array(chart.point(0.4, 1.1))
    out = check_strict_convexity(
        perturbed_bidisk, zhat, t_grid=5, ambient_grid=8, local_radius=0.1
    )
    assert out["strict"]
    assert out["min_margin"] > 0


def _reference_margins(d, zhat, t_grid, ambient_grid, radius):
    """Per-t margins one weight at a time, from the summed member gradients."""
    members = d.active_members(zhat)
    if len(members) >= 2:
        members = list(d.edge_at(zhat).members)
    if len(members) == 1:
        weights = [np.array([1.0])]
    else:
        weights = [np.array([i / (t_grid - 1.0), 1.0 - i / (t_grid - 1.0)]) for i in range(t_grid)]
    rr = radius * np.arange(1, ambient_grid + 1) / ambient_grid
    line = rr[:, None] * np.exp(2j * np.pi * np.arange(ambient_grid) / ambient_grid)
    out = []
    for t in weights:
        g = sum(tl * d.rho(m).grad(zhat[0], zhat[1]) for tl, m in zip(t, members))
        direction = np.array([g[1], -g[0]])
        norm = np.linalg.norm(direction)
        if norm < 1e-14:
            out.append((tuple(t), np.nan))
            continue
        direction = direction / norm
        p1, p2 = zhat[0] + line * direction[0], zhat[1] + line * direction[1]
        vals = np.max([d.rho(m)(p1, p2) for m in members], axis=0)
        out.append((tuple(t), float(np.min(vals))))
    return out


def test_strict_convexity_batch_equals_single_points(perturbed_bidisk, sphere):
    cases = [
        (perturbed_bidisk, perturbed_bidisk.edges[0].chart.nodes(8).points,
         {"t_grid": 5, "ambient_grid": 8, "local_radius": 0.1}),
        (sphere, sphere.faces[0].chart.nodes(4).points, {}),
    ]
    for d, points, kwargs in cases:
        batch = check_strict_convexity(d, points, **kwargs)
        single = [check_strict_convexity(d, z, **kwargs) for z in points]
        assert batch["members"] == single[0]["members"]
        assert batch["min_margin"].shape == batch["strict"].shape == (len(points),)
        np.testing.assert_array_equal(batch["min_margin"], [s["min_margin"] for s in single])
        np.testing.assert_array_equal(batch["strict"], [s["strict"] for s in single])
        assert [t for t, _ in batch["per_t"]] == [t for t, _ in single[0]["per_t"]]
        np.testing.assert_array_equal(
            np.stack([m for _, m in batch["per_t"]], axis=-1),
            [[m for _, m in s["per_t"]] for s in single],
        )


@pytest.mark.parametrize(
    "kwargs", [{}, {"t_grid": 5, "ambient_grid": 8, "local_radius": 0.1}]
)
def test_strict_convexity_margins_match_per_t_reference(bidisk, perturbed_bidisk, sphere, kwargs):
    rng = np.random.default_rng(7)
    points = [(bidisk, np.array([np.exp(0.4j), 0.3]))]
    for d in (bidisk, perturbed_bidisk):
        edge_points = d.edges[0].chart.project(rng.uniform(0, 2 * np.pi, (3, 2)))[0]
        points += [(d, z) for z in edge_points]
    face_points = sphere.faces[0].chart.project(rng.uniform(0.1, 1.4, (3, 3)))[0]
    points += [(sphere, z) for z in face_points]
    t_grid = kwargs.get("t_grid", 11)
    ambient_grid = kwargs.get("ambient_grid", 16)
    radius = kwargs.get("local_radius", 0.5)
    for d, zhat in points:
        got = check_strict_convexity(d, zhat, **kwargs)["per_t"]
        ref = _reference_margins(d, zhat, t_grid, ambient_grid, radius)
        assert [t for t, _ in got] == [t for t, _ in ref]
        np.testing.assert_allclose(
            [m for _, m in got], [m for _, m in ref], rtol=0, atol=1e-14
        )


# ---------------------------------------------------------------------------
# Validation


def test_validate_domain_passes_fixtures(bidisk, perturbed_bidisk, sphere):
    for d in (bidisk, perturbed_bidisk, sphere):
        out = validate_domain(d, resolution=6)
        assert out["passed"], out["failures"]


def test_validate_domain_flags_exterior_interior_point():
    spec = copy.deepcopy(load_spec("sphere"))
    spec["interior_points"] = [[2.0, 0.0, 0.0, 0.0]]
    d = domain_from_spec(spec)
    out = validate_domain(d, resolution=6)
    assert not out["passed"]
    assert any("sphere" in f for f in out["failures"])


def test_validate_domain_flags_wrong_side_orientation():
    spec = copy.deepcopy(load_spec("sphere"))
    spec["hypersurfaces"][0]["rho"] = "1 - abs2(z1) - abs2(z2)"
    d = domain_from_spec(spec)
    out = validate_domain(d, resolution=6)
    assert not out["passed"]


def test_validate_domain_checks_every_node_the_integrals_use(tmp_path):
    # cut = -Re z1 (1 - |z2|^2) - 0.1 is -0.1 on face 1 and on the edge torus,
    # but positive on face 0 where Re z1 < -0.1 / (1 - |z2|^2): never at the
    # nodes of angle psi = 0 (z1 = 1), always at some of the others.
    spec = copy.deepcopy(load_spec("bidisk"))
    cut = "-0.5*z1 - 0.5*conj(z1) + 0.5*z1*abs2(z2) + 0.5*conj(z1)*abs2(z2) - 0.1"
    spec["hypersurfaces"].append({"label": "cut", "rho": cut})
    d = domain_from_spec(spec)
    for resolution in (6, 8, 12):
        z = d.faces[0].chart.nodes(resolution).points
        assert np.any(d.rho(2)(z[:, 0], z[:, 1]) >= 0)
        out = validate_domain(d, resolution=resolution)
        assert out["failures"] == ["face 0 chart reaches the wrong side of 'cut'"]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(spec))
    result = CliRunner().invoke(main, ["check-domain", str(path)])
    assert result.exit_code == 1
    assert json.loads(result.output)["pass"] is False


def test_validate_domain_counts_a_nan_non_member_as_the_wrong_side(bidisk):
    # Face 0 alone, against a non-member that is negative on it, then NaN on it.
    def nan(z1, z2):
        return np.full(np.shape(z1), np.nan)

    for other, failures in (
        (parse_poly("abs2(z2) - 4"), []),
        (nan, ["face 0 chart reaches the wrong side of 'other'"]),
    ):
        hypersurfaces = [bidisk.hypersurfaces[0], ("other", other)]
        d = PwsDomain(hypersurfaces, bidisk.faces[:1], [])
        assert validate_domain(d, 8)["failures"] == failures


def test_validate_domain_flags_a_chart_that_leaves_its_member():
    # The face chart projects onto the sphere of radius 1.1, not onto the face's hypersurface.
    sphere = parse_poly("abs2(z1) + abs2(z2) - 1")
    chart = SpherePolarChart(parse_poly("abs2(z1) + abs2(z2) - 1.21"), r0=1.1)
    d = PwsDomain([("sphere", sphere)], [Face(0, chart)], [], [np.zeros(2, complex)])
    assert validate_domain(d, 6)["failures"] == ["face 0 chart leaves 'sphere' (|rho| > 1e-10)"]
    d.faces[0] = Face(0, SpherePolarChart(sphere))
    assert validate_domain(d, 6)["passed"]


def test_validate_domain_flags_member_gradients_that_are_not_transverse():
    # Both members cut out |z1| = 1, so their gradients are parallel at every node; the
    # chart is the bidisk's torus, whose own members are transverse, so it projects.
    disk1, disk2 = parse_poly("abs2(z1) - 1"), parse_poly("abs2(z2) - 1")
    members = [("a", disk1), ("b", parse_poly("2*abs2(z1) - 2"))]
    d = PwsDomain(members, [], [Edge((0, 1), TorusChart([disk1, disk2]))])
    assert validate_domain(d, 6)["failures"] == ["edge 0 member gradients are not transverse"]
    d.hypersurfaces[1] = ("b", disk2)
    assert validate_domain(d, 6)["passed"]


def test_validate_domain_counts_nan_interior_rho_as_failure():
    d = domain_from_spec(load_spec("sphere"))
    d.interior_points.append(np.array([complex(np.nan, 0.0), 0j]))
    out = validate_domain(d, resolution=6)
    assert len(out["failures"]) == 1
    assert "[nan+0.j  0.+0.j] is on the wrong side of 'sphere'" in out["failures"][0]


# ---------------------------------------------------------------------------
# Transforming whole domains


def test_transform_domain_moves_interior_and_locus(bidisk, rng):
    t = random_unit_det_map(rng, scale=0.1)
    moved = transform_domain(bidisk, t)
    for p in bidisk.interior_points:
        assert moved.contains(np.array(t.affine(p)))
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    image = np.array(t.affine(zhat))
    assert np.max(np.abs(moved.rho_values(image))) < 1e-9


def test_transform_domain_validates(bidisk, rng):
    t = random_unit_det_map(rng, scale=0.1)
    moved = transform_domain(bidisk, t)
    out = validate_domain(moved, resolution=6)
    assert out["passed"], out["failures"]


def test_transformed_tangent_cycle_is_dual_image(bidisk, rng):
    # strong and weak tangents transform by the dual map, at matched
    # barycentric coordinates
    t = random_unit_det_map(rng, scale=0.1)
    moved = transform_domain(bidisk, t)
    zhat = np.array([np.exp(0.4j), np.exp(1.1j)])
    image = np.array(t.affine(zhat))
    e0, e1 = bidisk.edges[0], moved.edges[0]
    td = dual_map(t)
    strong0 = strong_tangents(bidisk, e0, zhat)
    strong1 = strong_tangents(moved, e1, image)
    for w0, w1 in zip(strong0.planes, strong1.planes):
        assert proj_equal(td.matrix @ w0.array, w1.array, tol=1e-8)
    for t1 in (0.3, 0.8):
        w0 = weak_tangent(bidisk, e0, zhat, (t1, 1.0 - t1))
        w1 = weak_tangent(moved, e1, image, (t1, 1.0 - t1))
        assert proj_equal(td.matrix @ w0.array, w1.array, tol=1e-8)


def test_torus_chart_needs_two_defining_functions():
    sphere = parse_poly("abs2(z1) + abs2(z2) - 1")
    with pytest.raises(ValueError, match="^torus2 chart needs exactly two defining functions$"):
        TorusChart([sphere])


def test_strict_convexity_rejects_a_point_off_the_boundary():
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    with pytest.raises(ValueError, match="^point is not on the boundary$"):
        check_strict_convexity(d, np.array([0.1, 0.2j]))
