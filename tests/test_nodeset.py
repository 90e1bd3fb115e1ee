"""Chart node sets: on-locus points, tangent vectors, exact scalar wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardycorners.cli import load_spec
from hardycorners.domain import (
    Chart,
    Face,
    GraphPatchChart,
    NodeSet,
    ProjectionError,
    PwsDomain,
    SpherePolarChart,
    TorusChart,
    domain_from_spec,
    transform_domain,
)
from hardycorners.hermpoly import parse_poly
from hardycorners.kernels import orientation_sign_edge, orientation_sign_face
from hardycorners.quadrature import gauss_rule, trapezoid_rule

from conftest import random_unit_det_map

DOMAINS = {name: domain_from_spec(load_spec(name)) for name in ("bidisk", "perturbed_bidisk", "sphere")}


def _pieces(d):
    """(chart, indices of the hypersurfaces it lies on) for every face and edge."""
    return [(f.chart, (f.hypersurface,)) for f in d.faces] + [
        (e.chart, e.members) for e in d.edges
    ]


def _domain(name, seed):
    """A built-in domain, or (seed not None) its image under a random unimodular map."""
    d = DOMAINS[name]
    if seed is None:
        return d
    return transform_domain(d, random_unit_det_map(np.random.default_rng(seed), scale=0.1))


domains = st.tuples(
    st.sampled_from(sorted(DOMAINS)),
    st.none() | st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=25, deadline=None)
@given(domain=domains, resolution=st.integers(min_value=4, max_value=9))
def test_node_sets_lie_on_their_loci_with_annihilating_tangents(domain, resolution):
    d = _domain(*domain)
    for chart, members in _pieces(d):
        ns = chart.nodes(resolution)
        n = len(ns)
        assert ns.params.shape == (n, chart.dim)
        assert ns.weights.shape == (n,)
        assert ns.points.shape == (n, 2)
        assert ns.tangents.shape == (n, chart.dim, 2)
        # (Re v1, Im v1, Re v2, Im v2) of every tangent: (N, dim, 4)
        real_tangents = ns.tangents.view(float)
        for m in members:
            rho = d.rho(m)
            z1, z2 = ns.points[:, 0], ns.points[:, 1]
            assert np.max(np.abs(rho(z1, z2))) <= 1e-10
            grad = rho.grad_real(z1, z2)
            along = np.einsum("nk,nak->na", grad, real_tangents)
            scale = np.linalg.norm(grad, axis=-1)[:, None] * np.linalg.norm(
                real_tangents, axis=-1
            )
            assert np.all(np.abs(along) <= 1e-9 * scale)


@settings(max_examples=25, deadline=None)
@given(domain=domains, resolution=st.integers(min_value=4, max_value=7), data=st.data())
def test_scalar_wrappers_return_node_set_rows_exactly(domain, resolution, data):
    d = _domain(*domain)
    for chart, _ in _pieces(d):
        ns = chart.nodes(resolution)
        i = data.draw(st.integers(min_value=0, max_value=len(ns) - 1))
        params = ns.params[i]
        assert np.array_equal(chart.point(*params), ns.points[i])
        assert np.array_equal(np.array(chart.tangents(*params)), ns.tangents[i])
        nodes = chart.quad_nodes(resolution)
        assert np.array_equal(nodes[i][0], params)
        assert nodes[i][1] == ns.weights[i]


def test_node_set_is_the_quadrature_grid(perturbed_bidisk):
    chart = perturbed_bidisk.faces[0].chart
    ns = chart.nodes(8)
    assert isinstance(ns, NodeSet)
    assert len(ns) == 4 * 8 * 8
    # Gauss in r over [0, 1], trapezoid in both angles
    assert np.isclose(np.sum(ns.weights), (2 * np.pi) ** 2)


class _HalfDiskChart(GraphPatchChart):
    """A graph patch over half of its disk: Gauss nodes in the radius and in an angle in [0, pi]."""

    axes = (1.0, np.pi, None)


def test_declared_axes_set_the_grid_and_the_image_chart_keeps_them(perturbed_bidisk):
    base = perturbed_bidisk.faces[0].chart
    chart = _HalfDiskChart(*base.rhos, solve=base.solve, disk_radius=base.disk_radius, r0=base.r0)
    ns = chart.nodes(8)
    assert len(ns) == 4 * 4 * 8
    r, phi, psi = (np.unique(ns.params[:, a]) for a in range(3))
    assert np.array_equal(r, gauss_rule(0.0, 1.0, 4)[0])
    assert np.array_equal(phi, gauss_rule(0.0, np.pi, 4)[0])
    assert np.array_equal(psi, trapezoid_rule(8)[0])
    assert np.isclose(np.sum(ns.weights), 2 * np.pi**2)

    d = PwsDomain(perturbed_bidisk.hypersurfaces, [Face(0, chart)], [])
    g = random_unit_det_map(np.random.default_rng(5), scale=0.1)
    image = transform_domain(d, g).faces[0].chart.nodes(8)
    assert np.array_equal(image.params, ns.params)
    assert np.array_equal(image.weights, ns.weights)


@pytest.mark.parametrize("name", ["bidisk", "perturbed_bidisk", "sphere"])
@pytest.mark.parametrize("scale", [None, 0.05, 0.2, 0.4])
def test_node_set_orientation_is_the_reference_sign(name, scale):
    # A transformed chart carries its base chart's signs; the reference
    # recomputes them from the image's own defining functions.
    d = domain_from_spec(load_spec(name))
    if scale is not None:
        d = transform_domain(d, random_unit_det_map(np.random.default_rng(21), scale=scale))
    for resolution in (5, 8):
        for f in d.faces:
            ns = f.chart.nodes(resolution)
            assert ns.orientation.shape == (len(ns),)
            reference = orientation_sign_face(d.rho(f.hypersurface), ns.points, ns.tangents)
            assert np.array_equal(ns.orientation, reference)
        for e in d.edges:
            ns = e.chart.nodes(resolution)
            reference = orientation_sign_edge([d.rho(m) for m in e.members], ns.points, ns.tangents)
            assert np.array_equal(ns.orientation, reference)


def test_chart_without_geometry_cannot_project():
    # The base class leaves _geometry to the catalog charts.
    with pytest.raises(NotImplementedError):
        Chart().project(np.zeros((1, 0)))


def test_unconvergent_projection_raises_named_error():
    chart = GraphPatchChart(parse_poly("abs2(z1) + abs2(z2) - 1"), disk_radius=2.0)
    with pytest.raises(ProjectionError) as info:
        chart.nodes(6)
    err = info.value
    assert isinstance(err, RuntimeError)
    assert err.kind == "graph_patch"
    assert 0 < err.unconverged < err.total == 4 * 6 * 6
    with pytest.raises(ProjectionError):
        chart.point(0.9, 0.0, 0.0)


BIDISK_RHOS = [parse_poly("abs2(z1) - 1"), parse_poly("abs2(z2) - 1")]


@pytest.mark.parametrize(
    "chart",
    [
        GraphPatchChart(parse_poly("abs2(z1) - 1"), r0=float("nan")),
        TorusChart(BIDISK_RHOS, r0=(float("nan"), float("nan"))),
    ],
    ids=["graph_patch", "torus2"],
)
def test_nan_residual_counts_as_unconverged(chart):
    # rho is NaN wherever the Newton solve starts, so no node converges
    with pytest.raises(ProjectionError) as info:
        chart.nodes(4)
    assert info.value.unconverged == info.value.total


def test_singular_newton_jacobian_leaves_the_row_unconverged():
    # two copies of one member: the radial Jacobian has equal rows everywhere
    rho = parse_poly("abs2(z1) + abs2(z2) - 2")
    chart = TorusChart([rho, rho], r0=(0.9, 0.9))
    with pytest.raises(ProjectionError) as info:
        chart.nodes(4)
    assert info.value.unconverged == info.value.total == 16


def test_singular_tangent_jacobian_is_named():
    # the start lies on the locus, so Newton converges at once; the
    # tangents then need the singular Jacobian
    rho = parse_poly("abs2(z1) + abs2(z2) - 2")
    chart = TorusChart([rho, rho], r0=(1.0, 1.0))
    with pytest.raises(ProjectionError, match="member gradients are not transverse") as info:
        chart.nodes(4)
    assert info.value.kind == "torus2"
    assert info.value.unconverged == info.value.total == 16


@pytest.mark.parametrize(
    "chart",
    [
        SpherePolarChart(parse_poly("abs2(z1) + abs2(z2) - 1"), r0=0),
        GraphPatchChart(parse_poly("abs2(z1) + 0.1*abs2(z2) - 1"), r0=0),
        TorusChart(BIDISK_RHOS, r0=(0, 0)),
    ],
    ids=["sphere_polar", "graph_patch", "torus2"],
)
def test_radial_start_at_zero_derivative_leaves_rows_unconverged(chart):
    # at modulus 0 every rho has zero derivative along the solve directions, so no row steps
    with pytest.raises(ProjectionError) as info:
        chart.nodes(8)
    assert info.value.unconverged == info.value.total


def test_singular_radial_tangents_are_named():
    # rho ignores the solved coordinate z1: the node at |z2| = 1/2 lies on the
    # locus from the start, with zero derivative along the solve direction
    chart = GraphPatchChart(parse_poly("abs2(z2) - 0.25"))
    with pytest.raises(ProjectionError, match="tangents are singular") as info:
        chart.project(np.array([[0.5, 0.0, 0.0]]))
    assert info.value.kind == "graph_patch"
