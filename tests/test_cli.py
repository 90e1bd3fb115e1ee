"""Command-line interface: reports, exit codes, formats, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from hardycorners import kernels, measures
from hardycorners.domain import check_strict_convexity, domain_from_spec
from hardycorners.normalforms import eta
from hardycorners.cli import load_spec, main, parse_section_expr, spec_hash


@pytest.fixture
def runner():
    return CliRunner()


def _json_out(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# Spec loading and hashing


def test_load_spec_builtin_and_path(tmp_path):
    spec = load_spec("bidisk")
    assert spec["name"] == "bidisk"
    p = tmp_path / "custom.json"
    p.write_text(json.dumps(spec))
    assert load_spec(str(p)) == spec


def test_spec_hash_is_stable_sha256():
    spec = load_spec("bidisk")
    h = spec_hash(spec)
    assert len(h) == 64
    assert h == spec_hash(json.loads(json.dumps(spec)))
    other = dict(spec, name="renamed")
    assert spec_hash(other) != h


def test_parse_section_expr_evaluates():
    f = parse_section_expr("z1*z2**2 + 0.5")
    z = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    assert np.isclose(f(z), z[0] * z[1] ** 2 + 0.5)
    points = np.array([z, 2 * z, -z])
    assert np.allclose(f((points[:, 0], points[:, 1])), [f(p) for p in points], rtol=1e-15)
    assert parse_section_expr("2")((points[:, 0], points[:, 1])) == 2


def test_parse_section_expr_rejects_names_and_calls():
    import click

    with pytest.raises(click.UsageError):
        parse_section_expr("q1 + 1")
    with pytest.raises(click.UsageError):
        parse_section_expr("abs(z1)")


# ---------------------------------------------------------------------------
# check-domain


def test_check_domain_passes_on_bidisk(runner):
    result = runner.invoke(
        main, ["check-domain", "bidisk", "--samples", "100", "--resolution", "6"]
    )
    assert result.exit_code == 0, result.output
    report = _json_out(result)
    assert report["command"] == "check-domain"
    assert report["pass"] is True
    assert len(report["spec_hash"]) == 64
    checks = {r["check"] for r in report["results"]}
    assert {"validate", "local_intersection", "strict_convexity"} <= checks


def test_check_domain_fails_on_union_wedge(runner):
    result = runner.invoke(
        main, ["check-domain", "wedge_union", "--samples", "100", "--resolution", "6"]
    )
    assert result.exit_code == 1
    report = _json_out(result)
    assert report["pass"] is False
    li = [r for r in report["results"] if r["check"] == "local_intersection"][0]
    assert li["disagreements"] > 0


def test_check_domain_unknown_spec_is_usage_error(runner):
    result = runner.invoke(main, ["check-domain", "no_such_spec"])
    assert result.exit_code == 2


def test_check_domain_writes_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        [
            "check-domain",
            "sphere",
            "--samples",
            "50",
            "--resolution",
            "6",
            "--output",
            str(out),
        ],
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_bidisk_polynomial(runner):
    result = runner.invoke(
        main,
        [
            "reproduce",
            "bidisk",
            "--tau",
            "0.2,0.1,-0.3,0.05",
            "--f",
            "z1*z2**2 + 0.5",
            "--resolution",
            "24",
            "--face-resolution",
            "6",
            "--tolerance",
            "1e-8",
        ],
    )
    assert result.exit_code == 0, result.output
    report = _json_out(result)
    assert report["pass"] is True
    assert report["results"][0]["rel_err"] < 1e-8


def test_reproduce_rejects_exterior_tau(runner):
    result = runner.invoke(
        main, ["reproduce", "bidisk", "--tau", "1.5,0.0,0.0,0.0"]
    )
    assert result.exit_code == 2


def test_reproduce_rejects_malformed_tau(runner):
    result = runner.invoke(main, ["reproduce", "bidisk", "--tau", "0.1,0.2"])
    assert result.exit_code == 2


def test_reproduce_fails_above_tolerance(runner):
    # an impossibly tight tolerance turns the same run into a failure
    result = runner.invoke(
        main,
        [
            "reproduce",
            "bidisk",
            "--tau",
            "0.2,0.1,-0.3,0.05",
            "--resolution",
            "12",
            "--face-resolution",
            "4",
            "--tolerance",
            "1e-300",
        ],
    )
    assert result.exit_code == 1
    assert _json_out(result)["pass"] is False


# ---------------------------------------------------------------------------
# eta


def test_eta_json_on_perturbed_bidisk(runner):
    result = runner.invoke(
        main, ["eta", "perturbed_bidisk", "--grid", "4"]
    )
    assert result.exit_code == 0, result.output
    report = _json_out(result)
    assert report["pass"] is True
    assert len(report["results"]) == 16
    assert all(r["eta_weight"] > 0 for r in report["results"])


def test_eta_csv_header_and_rows(runner):
    result = runner.invoke(
        main, ["eta", "perturbed_bidisk", "--grid", "4", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "param1,param2,kappa,eta_weight,margin"
    assert len(lines) == 17
    row = lines[1].split(",")
    assert len(row) == 5
    assert float(row[2]) > 0 and float(row[3]) > 0
    assert row[4] == ""  # margins not requested


def test_eta_csv_with_margins(runner):
    result = runner.invoke(
        main,
        [
            "eta",
            "perturbed_bidisk",
            "--grid",
            "4",
            "--format",
            "csv",
            "--with-margins",
        ],
    )
    assert result.exit_code == 0
    rows = [ln.split(",") for ln in result.output.strip().splitlines()[1:]]
    assert all(float(r[4]) > 0 for r in rows)
    # each margin is the single-point probe at that node, to the last digit
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    ns = d.edges[0].chart.nodes(4)
    assert len(rows) == len(ns)
    for r, z in zip(rows, ns.points):
        conv = check_strict_convexity(d, z, t_grid=5, ambient_grid=8, local_radius=0.1)
        assert r[4] == f"{conv['min_margin']:.17g}"


def test_eta_fails_on_flat_edge(runner):
    result = runner.invoke(main, ["eta", "bidisk", "--grid", "4"])
    assert result.exit_code == 1
    report = _json_out(result)
    assert report["pass"] is False
    assert any("error" in r for r in report["results"])


def test_eta_json_rows_equal_per_point_eta(runner):
    result = runner.invoke(main, ["eta", "perturbed_bidisk", "--grid", "8"])
    assert result.exit_code == 0, result.output
    rows = _json_out(result)["results"]
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    ns = d.edges[0].chart.nodes(8)
    assert len(rows) == len(ns) == 64
    for row, params, z in zip(rows, ns.params, ns.points):
        inv = eta(d, z)
        assert row["params"] == list(params)
        assert row["kappa"] == pytest.approx(inv.kappa, rel=1e-14)
        assert row["eta_weight"] == pytest.approx(inv.eta_weight, rel=1e-14)
        assert row["margin"] is None


def test_eta_flat_edge_reports_every_node(runner):
    result = runner.invoke(main, ["eta", "bidisk", "--grid", "4"])
    assert result.exit_code == 1
    rows = _json_out(result)["results"]
    assert len(rows) == 16
    assert all(set(r) == {"params", "error"} for r in rows)


def test_eta_rejects_missing_edge(runner):
    result = runner.invoke(main, ["eta", "sphere", "--grid", "4"])
    assert result.exit_code == 2
    assert "edge index 0 out of range" in result.stderr


# ---------------------------------------------------------------------------
# selftest


@pytest.mark.parametrize("suite", ["simplex", "laws"])
def test_selftest_simplex_passes(runner, suite):
    result = runner.invoke(main, ["selftest", "--suite", suite])
    assert result.exit_code == 0, result.output
    report = _json_out(result)
    assert report["pass"] is True
    assert all(c["passed"] for c in report["results"])


def test_selftest_unknown_suite_is_usage_error(runner):
    result = runner.invoke(main, ["selftest", "--suite", "bogus"])
    assert result.exit_code == 2


def test_selftest_is_deterministic(runner):
    a = runner.invoke(main, ["selftest", "--suite", "cramer"])
    b = runner.invoke(main, ["selftest", "--suite", "cramer"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_selftest_seed_changes_data_not_verdict(runner):
    a = runner.invoke(main, ["selftest", "--suite", "symmetry", "--seed", "1"])
    b = runner.invoke(main, ["selftest", "--suite", "symmetry", "--seed", "2"])
    assert a.exit_code == b.exit_code == 0
    assert a.output != b.output


def test_selftest_anchor_fails_with_sign_flipped_corner_kernel(runner, monkeypatch):
    # The corner kernel is its tau-free factor over a pairing: flipping the
    # factor flips corner_kernel (the fiber check) and the edge factors that
    # reproduce builds (the anchor domain is fresh, so nothing is cached).
    original = kernels._corner_factor

    def flipped(*args, **kwargs):
        planes, factor = original(*args, **kwargs)
        return planes, -factor

    monkeypatch.setattr(kernels, "_corner_factor", flipped)
    monkeypatch.setattr(measures, "_corner_factor", flipped)
    result = runner.invoke(main, ["selftest", "--suite", "anchor"])
    assert result.exit_code == 1
    report = _json_out(result)
    assert report["pass"] is False
    assert not any(c["passed"] for c in report["results"])


def test_selftest_anchor_passes_unmutated(runner):
    result = runner.invoke(main, ["selftest", "--suite", "anchor"])
    assert result.exit_code == 0, result.output


# ---------------------------------------------------------------------------
# Input errors and precondition failures


@pytest.mark.parametrize(
    "command", [["check-domain"], ["reproduce", "--tau", "0,0,0,0"], ["eta"]]
)
def test_malformed_spec_file_is_input_error(runner, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    result = runner.invoke(main, command[:1] + [str(bad)] + command[1:])
    assert result.exit_code == 2
    assert result.stderr.startswith("invalid domain spec:")
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["faces", 0, "chart"], "graph_patch", "chart must be an object with a 'type' field"),
        (["edges", 0, "chart", "r0"], [0.95], "torus2 chart r0 must be two radii"),
        (["interior_points", 1], [0.1, 0.2], "interior point [0.1, 0.2] must be four reals"),
        (["edges", 0, "chart"], {"type": "graph_patch"}, "edge chart type 'graph_patch'"),
        (["faces", 0, "chart"], {"type": "torus2"}, "face chart type 'torus2'"),
        (["faces", 0, "hypersurface"], "sheet9", "face 0 names hypersurface 'sheet9'"),
        (["edges", 0, "members"], ["sheet1", "sheet9"], "edge 0 names hypersurface 'sheet9'"),
        (["faces", 0, "chart", "disk_radius"], "abc", "graph_patch chart disk_radius must be a real"),
        (["faces", 0, "chart", "r0"], "abc", "graph_patch chart r0 must be a real number"),
        (["edges", 0, "chart", "r0"], ["abc", 1.0], "torus2 chart r0 must be a real number"),
    ],
    ids=[
        "string_chart",
        "short_r0",
        "short_interior_point",
        "face_chart_on_edge",
        "edge_chart_on_face",
        "undeclared_face_hypersurface",
        "undeclared_edge_member",
        "text_disk_radius",
        "text_face_r0",
        "text_edge_r0",
    ],
)
@pytest.mark.parametrize(
    "command", [["check-domain"], ["reproduce", "--tau", "0,0,0,0"], ["eta"]]
)
def test_malformed_spec_field_is_input_error(runner, tmp_path, path, value, message, command):
    spec = load_spec("perturbed_bidisk")
    *parents, last = path
    field = spec
    for key in parents:
        field = field[key]
    field[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    result = runner.invoke(main, command[:1] + [str(bad)] + command[1:])
    assert result.exit_code == 2
    assert result.stderr.startswith("invalid domain spec:")
    assert result.stderr.count("\n") == 1
    assert message in result.stderr
    assert "Traceback" not in result.output


def test_check_domain_duplicate_label_is_input_error(runner, tmp_path):
    spec = load_spec("bidisk")
    for h in spec["hypersurfaces"]:
        h["label"] = "disk1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    result = runner.invoke(main, ["check-domain", str(bad)])
    assert result.exit_code == 2
    assert result.stderr == "invalid domain spec: duplicate hypersurface label 'disk1'\n"


def test_reproduce_section_evaluation_error_is_input_error(runner):
    result = runner.invoke(
        main,
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--f", "z1/0", "--resolution", "6"],
    )
    assert result.exit_code == 2
    assert "cannot be evaluated" in result.stderr
    assert "precondition" not in result.stderr


def test_reproduce_section_singular_at_some_nodes_is_input_error(runner):
    # z1 is exactly 1 on the edge nodes of angle 0 and nowhere else
    result = runner.invoke(
        main,
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--f", "1/(z1 - 1)", "--resolution", "6"],
    )
    assert result.exit_code == 2
    assert "cannot be evaluated at z = ((1+0j)" in result.stderr
    assert "Traceback" not in result.output


def test_parse_section_expr_bounds_exponents_when_parsing():
    import click

    # rejected while parsing, so the power is never evaluated
    for expr in ("9**9**9", "z1**65", "z1**-65", "z1**z2", "z1**0.5", "z1**(1+1)"):
        with pytest.raises(click.UsageError, match="exponent"):
            parse_section_expr(expr)
    z = np.array([0.5 + 0.1j, -0.2j])
    assert np.isclose(parse_section_expr("z1**64 + z2**-2")(z), z[0] ** 64 + z[1] ** -2)


def test_reproduce_rejects_huge_power_as_input_error(runner):
    result = runner.invoke(
        main, ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--f", "9**9**9"]
    )
    assert result.exit_code == 2
    assert "exponent" in result.stderr


def _unconvergent_spec(tmp_path):
    # A graph patch over a disk of radius 2 on the unit sphere: over |z2| > 1
    # no modulus of z1 reaches the locus, so the Newton projection must fail.
    spec = load_spec("sphere")
    spec["faces"][0]["chart"] = {
        "type": "graph_patch",
        "solve": "z1",
        "disk_radius": 2.0,
        "r0": 1.0,
    }
    p = tmp_path / "wide_patch.json"
    p.write_text(json.dumps(spec))
    return str(p)


@pytest.mark.parametrize(
    "command",
    [["reproduce", "--tau", "0,0,0,0", "--resolution", "6"], ["check-domain", "--resolution", "6"]],
)
def test_unconvergent_chart_is_precondition_failure(runner, tmp_path, command):
    result = runner.invoke(main, command[:1] + [_unconvergent_spec(tmp_path)] + command[1:])
    assert result.exit_code == 3
    assert result.stderr.count("\n") == 1
    assert "graph_patch chart Newton projection did not converge" in result.stderr


@pytest.mark.parametrize("name, kind", [("sphere", "sphere_polar"), ("perturbed_bidisk", "graph_patch")])
def test_radial_chart_started_at_zero_is_precondition_failure(runner, tmp_path, name, kind):
    # at modulus 0 the face's rho has zero derivative along the solve direction
    spec = load_spec(name)
    spec["faces"][0]["chart"]["r0"] = 0
    p = tmp_path / "r0_zero.json"
    p.write_text(json.dumps(spec))
    result = runner.invoke(main, ["check-domain", str(p)])
    assert result.exit_code == 3
    assert result.stderr.startswith(f"precondition failure: {kind} chart Newton projection")
    assert result.stderr.count("\n") == 1


def test_non_transverse_edge_is_precondition_failure(runner, tmp_path):
    # both members are one sphere, so the edge chart's tangents are undefined
    spec = load_spec("bidisk")
    for h in spec["hypersurfaces"]:
        h["rho"] = "abs2(z1) + abs2(z2) - 2"
    p = tmp_path / "same_members.json"
    p.write_text(json.dumps(spec))
    for command in (["check-domain"], ["eta", "--grid", "4"], ["reproduce", "--tau", "0,0,0,0"]):
        result = runner.invoke(main, command[:1] + [str(p)] + command[1:])
        assert result.exit_code == 3, command
        assert result.stderr.startswith("precondition failure: ")
        assert result.stderr.count("\n") == 1
        assert "member gradients are not transverse" in result.stderr
        assert "Traceback" not in result.output


def _spec_file(tmp_path, spec):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return str(p)


@pytest.mark.parametrize(
    "constant, message",
    [
        ("1.9", "edge 0: radius 0.05 too large: non-member hypersurface 'ball' reaches the sample"),
        ("2", "edge 0: no declared edge matches the active hypersurfaces [0, 1, 2]"),
    ],
    ids=["ball_near_the_edge", "ball_through_the_edge"],
)
def test_check_domain_local_geometry_error_is_input_error(runner, tmp_path, constant, message):
    spec = load_spec("bidisk")
    spec["hypersurfaces"].append({"label": "ball", "rho": f"abs2(z1) + abs2(z2) - {constant}"})
    result = runner.invoke(main, ["check-domain", _spec_file(tmp_path, spec)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(message)
    assert result.stderr.count("\n") == 1


def test_check_domain_overflowing_radius_is_input_error(runner):
    # the margins would be infinite, which JSON cannot carry
    result = runner.invoke(main, ["check-domain", "bidisk", "--radius", "1e300"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "--radius 1e+300 is too large: the local checks at edge 0 overflow\n"


@pytest.mark.parametrize(
    "command",
    [
        ["check-domain", "--resolution", "8"],
        ["reproduce", "--tau", "0.1,0,0,0.2", "--resolution", "8"],
        ["eta", "--grid", "6"],
    ],
    ids=["check-domain", "reproduce", "eta"],
)
def test_rank_deficient_chart_is_precondition_failure(runner, tmp_path, command):
    if command[0] == "eta":
        # eta projects only the edge chart: r0 = 0 on |z1 - 1|^2 = 1 holds z1 at 0
        spec = {
            "hypersurfaces": [
                {"label": "a", "rho": "abs2(z1) - z1 - conj(z1)"},
                {"label": "b", "rho": "abs2(z2) - 1"},
            ],
            "edges": [{"members": ["a", "b"], "chart": {"type": "torus2", "r0": [0.0, 1.0]}}],
        }
        kind = "torus2"
    else:
        # disk_radius 0 collapses face 0's disk, which no longer drops out silently
        spec = load_spec("perturbed_bidisk")
        spec["faces"][0]["chart"]["disk_radius"] = 0
        kind = "graph_patch"
    result = runner.invoke(main, command[:1] + [_spec_file(tmp_path, spec)] + command[1:])
    assert result.exit_code == 3
    assert result.stderr.startswith(f"precondition failure: {kind} chart tangents are singular")
    assert "rank-deficient" in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["selftest", "--suite", "simplex", "--seed", "-1"],
        ["check-domain", "bidisk", "--seed", "-1"],
        ["check-domain", "bidisk", "--samples", "-1"],
        ["check-domain", "bidisk", "--resolution", "0"],
        ["check-domain", "bidisk", "--radius", "0"],
        ["check-domain", "bidisk", "--radius", "nan"],
        ["check-domain", "bidisk", "--radius", "inf"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--tolerance", "nan"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--tolerance", "inf"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--tolerance", "-1"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--resolution", "-3"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--face-resolution", "0"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--edge-resolution", "-1"],
        ["eta", "bidisk", "--grid", "0"],
        ["check-domain", "bidisk", "--resolution", "3"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--resolution", "3"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--face-resolution", "3"],
        ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--edge-resolution", "2"],
        ["eta", "bidisk", "--grid", "3"],
    ],
)
def test_out_of_range_numeric_option_is_input_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    errors = [ln for ln in result.stderr.splitlines() if ln.startswith("Error:")]
    assert len(errors) == 1
    assert f"Invalid value for '{args[-2]}': {args[-1]}" in errors[0]
    assert "Traceback" not in result.stderr
