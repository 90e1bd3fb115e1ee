"""Charts projected and cache entries built in fixed blocks of grid rows.

A cold build streams each chart's grid through its projection and the
piece's builder a block at a time (``domain._BLOCK`` rows).  Every step is
row by row, so the numbers are those of one whole-grid projection, byte for
byte; a failing chart raises the error one projection of its whole grid
raises; and a build holds its entry plus about one block.
"""

import tracemalloc

import numpy as np
import pytest

from hardycorners import domain, measures
from hardycorners.cli import load_spec
from hardycorners.domain import (
    GraphPatchChart,
    ProjectionError,
    SpherePolarChart,
    TorusChart,
    TransformedChart,
    domain_from_spec,
    validate_domain,
)
from hardycorners.hermpoly import parse_poly
from hardycorners.measures import reproduce

from conftest import random_unit_det_map

SPHERE = parse_poly("abs2(z1) + abs2(z2) - 1")
SPHERE_2 = parse_poly("abs2(z1) + abs2(z2) - 2")
BIDISK_RHOS = [parse_poly("abs2(z1) - 1"), parse_poly("abs2(z2) - 1")]
# One block for any grid here.
WHOLE = 10**9


def _fields(record):
    """A record's fields along the MRO, base class first."""
    return [n for c in reversed(type(record).__mro__) for n in vars(c).get("__slots__", ())]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _charts():
    """``(id, chart, resolution)``: each catalog kind and transformed charts, at 3+ blocks."""
    rng = np.random.default_rng(39)
    pb = domain_from_spec(load_spec("perturbed_bidisk"))
    face, edge = pb.faces[0].chart, pb.edges[0].chart
    return [
        ("torus2", edge, 96),
        ("sphere_polar", SpherePolarChart(SPHERE), 24),
        ("graph_patch", pb.faces[1].chart, 24),
        ("transformed", TransformedChart(face, random_unit_det_map(rng, 0.1)), 24),
        ("transformed_torus2", TransformedChart(edge, random_unit_det_map(rng, 0.1)), 96),
    ]


@pytest.mark.parametrize("name, chart, resolution", _charts(), ids=[c[0] for c in _charts()])
def test_node_set_is_the_whole_grid_projection_byte_for_byte(name, chart, resolution):
    params, weights = chart.grid(resolution)
    assert len(weights) >= 3 * domain._BLOCK
    ns = chart.nodes(resolution)
    whole = (params, weights, *chart.project(params))
    for field, expected in zip(domain.NodeSet.__slots__, whole):
        assert _same_bytes(getattr(ns, field), expected), field


def test_grid_rows_are_the_whole_grid_rows():
    chart = SpherePolarChart(SPHERE)
    rules = chart._rules(12)
    params, weights = chart.grid(12)
    for start, stop in [(0, 5), (100, 357), (860, 10**6)]:
        p, w = domain.tensor_grid(rules, start, stop)
        assert _same_bytes(p, params[start:stop]) and _same_bytes(w, weights[start:stop])


def _mixed():
    """A corner domain with a curved face, then a Levi-flat one: both kinds of face node."""
    spec = load_spec("perturbed_bidisk")
    spec["hypersurfaces"][0]["rho"] = "abs2(z1) - 1"
    spec["faces"] = spec["faces"][::-1]
    spec["faces"][0]["chart"]["disk_radius"] = 0.99
    spec["faces"][1]["chart"]["disk_radius"] = 0.9
    spec["edges"][0]["chart"]["r0"] = [1.0, 0.95]
    return spec


def _entry(spec, kind, resolutions, block, monkeypatch):
    monkeypatch.setattr(domain, "_BLOCK", block)
    return measures._cached(domain_from_spec(spec), kind, *resolutions)


@pytest.mark.parametrize(
    "spec, kind, resolutions",
    [
        (load_spec("perturbed_bidisk"), "reproduce", (24, 48)),
        (load_spec("perturbed_bidisk"), "measure", (24, 48)),
        (load_spec("bidisk"), "reproduce", (6, 96)),
        (load_spec("sphere"), "measure", (24, 6)),
        (_mixed(), "reproduce", (24, 48)),
    ],
    ids=["perturbed_reproduce", "perturbed_measure", "bidisk_reproduce", "sphere", "mixed"],
)
def test_entry_is_the_one_block_entry_byte_for_byte(monkeypatch, spec, kind, resolutions):
    d = domain_from_spec(spec)
    sizes = [f.chart._size(resolutions[0]) for f in d.faces]
    sizes += [e.chart._size(resolutions[1]) for e in d.edges]
    assert max(sizes) >= 3 * domain._BLOCK
    blocked = _entry(spec, kind, resolutions, domain._BLOCK, monkeypatch)
    whole = _entry(spec, kind, resolutions, WHOLE, monkeypatch)
    for field in _fields(whole):
        got, want = getattr(blocked, field), getattr(whole, field)
        if field in ("face_nodes", "edge_nodes"):
            assert [p.rows for p in got] == [p.rows for p in want], field
        else:
            assert _same_bytes(got, want), field
            if np.ndim(want) == 2:
                assert not got.flags.writeable and got.flags.f_contiguous, field


def test_mixed_entry_keeps_both_kinds_of_face_node(monkeypatch):
    fac = _entry(_mixed(), "reproduce", (24, 48), domain._BLOCK, monkeypatch)
    size = 12 * 24 * 24
    assert len(fac.flat_points) == len(fac.flat_grad) == size
    assert len(fac.unit_grad) == size
    assert [len(p) for p in fac.face_nodes] == [size, 0]


def _cubic(z):
    return z[0] * z[1] ** 2 + 0.5


FACE_POLE = "^tangent hyperplane passes through the evaluation point$"


def test_mixed_entry_pole_checks_both_kinds_of_face_node():
    # tau on the complex tangent line z + 0.3 (g2, -g1) of one Levi-flat node of face 1 and of
    # one weighted node of face 0: each is a face pole, cold and warm, raised before the edges'
    # check ("a member tangent hyperplane ...").  At an interior tau no node is a pole.
    sizes = {"face_resolution": 24, "edge_resolution": 48}
    d = domain_from_spec(_mixed())
    reproduce(d, _cubic, d.interior_points[0], **sizes)  # no pole; its accuracy is not checked
    fac = d._cache[("reproduce", 24, 48)]
    assert len(fac.flat_points) == len(fac.unit_grad) == 6912
    nodes = [(fac.flat_points[100], fac.flat_grad[100]), (fac.points[100], fac.unit_grad[100])]
    calls = []

    def f(z):
        calls.append(np.shape(z[0]))
        return _cubic(z)

    for z, g in nodes:
        tau = z + 0.3 * np.array([g[1], -g[0]])
        cold = domain_from_spec(_mixed())
        for dom in (cold, cold, d):  # cold, warm, warm
            with pytest.raises(ZeroDivisionError, match=FACE_POLE):
                reproduce(dom, f, tau, **sizes)
    assert calls == []


def _failure(call):
    with pytest.raises(ProjectionError) as info:
        call()
    err = info.value
    return err.kind, err.reason, err.unconverged, err.total, str(err)


FAILING = [
    # A NaN start: Newton fails at every node.
    ("nan_start", lambda: TorusChart(BIDISK_RHOS, r0=(np.nan, np.nan)), 16),
    # The disk reaches past the sphere: Newton fails at some nodes of many blocks.
    ("partly_unconverged", lambda: GraphPatchChart(SPHERE, disk_radius=2.0), 8),
    # Both members one sphere: the tangents are singular everywhere.
    ("not_transverse", lambda: TorusChart([SPHERE_2, SPHERE_2], r0=(1.0, 1.0)), 16),
    # A collapsed disk: every frame of conormals and tangents has rank 1 (see test_measures).
    (
        "rank_deficient",
        lambda: GraphPatchChart(parse_poly("abs2(z1) + 0.1*abs2(z2) - 1"), disk_radius=0.0),
        8,
    ),
    # rho ignores z1: the nodes at |z2| = 1/2 start on the locus with singular tangents, the
    # others never converge.  Some blocks hold only the former, so the stages mix.
    ("mixed_stages", lambda: GraphPatchChart(parse_poly("abs2(z2) - 0.25")), 10),
]


def _failed_blocks(chart, resolution):
    """The reason of each block of ``chart``'s grid that fails when projected alone."""
    reasons = []
    for start in range(0, chart._size(resolution), domain._BLOCK):
        params = domain.tensor_grid(chart._rules(resolution), start, start + domain._BLOCK)[0]
        try:
            chart.project(params)
        except ProjectionError as exc:
            reasons.append(exc.reason)
    return reasons


@pytest.mark.parametrize("chart, resolution", [f[1:] for f in FAILING], ids=[f[0] for f in FAILING])
def test_failure_over_blocks_is_the_whole_grid_failure(monkeypatch, chart, resolution):
    chart = chart()
    whole = _failure(lambda: chart.project(chart.grid(resolution)[0]))
    monkeypatch.setattr(domain, "_BLOCK", 50)
    assert chart._size(resolution) > 2 * domain._BLOCK
    assert len(_failed_blocks(chart, resolution)) >= 2
    assert _failure(lambda: chart.nodes(resolution)) == whole
    # validate_domain and the builders read the same blocks.
    assert _failure(lambda: list(chart._blocks(resolution))) == whole


def test_mixed_stages_raise_the_earliest_stage(monkeypatch):
    chart = GraphPatchChart(parse_poly("abs2(z2) - 0.25"))
    monkeypatch.setattr(domain, "_BLOCK", 50)
    assert set(_failed_blocks(chart, 10)) == {
        "Newton projection did not converge",
        "tangents are singular (rho has zero derivative along the solve direction)",
    }
    kind, reason, unconverged, total, _ = _failure(lambda: chart.nodes(10))
    assert (kind, reason, unconverged, total) == (
        "graph_patch", "Newton projection did not converge", 400, 500
    )


def test_build_error_waits_for_a_later_blocks_projection_failure(monkeypatch):
    # Block 0 of the edge projects, then fails its build (its edge weight raises); every
    # later block fails its projection.  The projection error comes first, as it does when
    # the whole grid is projected before it is built.
    monkeypatch.setattr(domain, "_BLOCK", 40)
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    project = domain.TorusChart.project
    first = d.edges[0].chart.grid(12)[0][40]  # block 1's first row

    def poisoned(chart, params):
        # The rows from block 1's first row on, in grid order, whether projected in blocks or whole.
        later = (params[:, 0] > first[0]) | ((params[:, 0] == first[0]) & (params[:, 1] >= first[1]))
        return project(chart, np.where(later[:, None], np.nan, params))

    def failing_eta(d, points):
        raise ValueError("edge weight must be positive to define a measure")

    monkeypatch.setattr(domain.TorusChart, "project", poisoned)
    monkeypatch.setattr(measures, "eta", failing_eta)
    with pytest.raises(ProjectionError, match="Newton projection did not converge"):
        measures.build_measure(d, 8, 12)
    monkeypatch.setattr(domain.TorusChart, "project", project)
    with pytest.raises(ValueError, match="edge weight must be positive"):
        measures.build_measure(d, 8, 12)
    assert not d._cache


def test_validate_domain_reports_each_failure_once_over_blocks(monkeypatch):
    # A face that leaves the domain at nodes of several blocks, and the same report at one block.
    spec = load_spec("perturbed_bidisk")
    spec["faces"][0]["chart"]["disk_radius"] = 1.2
    d = domain_from_spec(spec)
    monkeypatch.setattr(domain, "_BLOCK", 64)
    blocked = validate_domain(d, 12)
    monkeypatch.setattr(domain, "_BLOCK", WHOLE)
    assert blocked == validate_domain(d, 12)
    assert blocked["failures"] == ["face 0 chart reaches the wrong side of 'sheet2'"]


def _traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name, kind, resolutions",
    [("bidisk", "reproduce", (6, 256)), ("perturbed_bidisk", "measure", (48, 24))],
)
def test_cold_build_peak_is_its_entry_plus_about_one_block(name, kind, resolutions):
    # Projected whole, each piece's node set and temporaries made these 3.45x and 6.1x the
    # entry.  Streamed in blocks, the builder reads 1.14x and 1.24x; _cached then frees an
    # untouched array as large as the entry, which tracemalloc counts: 2.0x in all.
    measures._cached(domain_from_spec(load_spec(name)), kind, 6, 6)  # imports, cached rules
    build = measures._BUILDERS[kind]
    entry, built = _traced_peak(lambda: build(domain_from_spec(load_spec(name)), *resolutions))
    assert built <= 1.5 * measures._nbytes(entry)
    d = domain_from_spec(load_spec(name))
    entry, cached = _traced_peak(lambda: measures._cached(d, kind, *resolutions))
    assert cached <= 2.5 * measures._nbytes(entry)
