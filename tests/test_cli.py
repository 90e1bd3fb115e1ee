"""Command-line interface: reports, exit codes, formats, determinism."""

import json

import numpy as np
import pytest

from hardycorners import cli, domain, kernels, measures
from hardycorners.domain import check_strict_convexity, domain_from_spec
from hardycorners.normalforms import eta
from hardycorners.cli import load_spec, main, parse_section_expr, spec_hash


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
    with pytest.raises(cli.InputError):
        parse_section_expr("q1 + 1")
    with pytest.raises(cli.InputError):
        parse_section_expr("abs(z1)")


# ---------------------------------------------------------------------------
# check-domain


def test_check_domain_passes_on_bidisk(runner):
    result = runner.invoke(main, ["check-domain", "bidisk", "--resolution", "6"])
    assert result.exit_code == 0, result.output
    report = _json_out(result)
    assert report["command"] == "check-domain"
    assert report["pass"] is True
    assert len(report["spec_hash"]) == 64
    checks = {r["check"] for r in report["results"]}
    assert checks == {"validate", "strict_convexity"}


def test_check_domain_projects_each_chart_once(runner, monkeypatch):
    # validate_domain projects every chart; the edge probe projects one node of its own.
    nodes, kinds = domain.Chart.nodes, []

    def counted(chart, resolution):
        kinds.append(chart.kind)
        return nodes(chart, resolution)

    monkeypatch.setattr(domain.Chart, "nodes", counted)
    result = runner.invoke(main, ["check-domain", "perturbed_bidisk", "--resolution", "32"])
    assert result.exit_code == 0
    assert kinds == ["graph_patch", "graph_patch", "torus2"]


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


def test_eta_csv_marks_every_failed_row(runner):
    # bidisk's edge is flat, so eta fails at every node: each row keeps its params only.
    result = runner.invoke(main, ["eta", "bidisk", "--grid", "4", "--format", "csv"])
    assert result.exit_code == 1
    params = domain_from_spec(load_spec("bidisk")).edges[0].chart.nodes(4).params
    assert result.output.splitlines() == ["param1,param2,kappa,eta_weight,margin"] + [
        f"{p1:.17g},{p2:.17g},nan,nan," for p1, p2 in params
    ]


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


def test_selftest_chart_identity_checks_every_chart_pair(runner):
    result = runner.invoke(main, ["selftest", "--suite", "chart-identity", "--seed", "3"])
    assert result.exit_code == 0, result.output
    checks = _json_out(result)["results"]
    assert [c["name"] for c in checks] == ["chart_identity"] * 10
    assert all(c["passed"] and 0 <= c["rel_err"] < 1e-10 for c in checks)


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


NAN, INF = float("nan"), float("inf")
# A table value that removes the field instead of setting it.
_MISSING = object()


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
        (["edges", 0, "members"], ["sheet1", "sheet1"], "edge 0 members must be two distinct"),
        (["edges", 0, "members"], ["sheet1"], "edge 0 members must be two distinct"),
        (["edges", 0, "members"], ["sheet1", "sheet2", "sheet1"], "edge 0 members must be two"),
        (["faces", 0, "chart", "disk_radius"], NAN, "graph_patch chart disk_radius must be finite"),
        (["edges", 0, "chart", "r0"], [1.0, INF], "torus2 chart r0 must be finite, not inf"),
        (["interior_points", 0], [NAN, 0, 0, 0], "interior point 0 must be finite, not nan"),
        (["interior_points", 1], [0.1, "abc", 0, 0], "interior point 1 must be a real number"),
        (["hypersurfaces"], _MISSING, "the spec has no 'hypersurfaces' field"),
        (["hypersurfaces", 0, "label"], _MISSING, "hypersurface 0 has no 'label' field"),
        (["hypersurfaces", 1, "rho"], _MISSING, "hypersurface 1 has no 'rho' field"),
        (["faces", 1, "hypersurface"], _MISSING, "face 1 has no 'hypersurface' field"),
        (["faces", 0, "chart"], _MISSING, "face 0 has no 'chart' field"),
        (["edges", 0, "members"], _MISSING, "edge 0 has no 'members' field"),
        (["edges", 0, "chart"], _MISSING, "edge 0 has no 'chart' field"),
        (["hypersurfaces", 0, "label"], ["x"], "hypersurface 0 label must be a str, not ['x']"),
        (["faces", 0, "chart", "r0"], 10**400, "graph_patch chart r0 must be a real number"),
        (["faces"], 5, "the spec faces must be a list, not 5"),
        (["faces", 1, "chart", "solve"], "z3", "graph_patch chart solve must be 'z1' or 'z2'"),
        (
            ["membership"],
            "xor",
            "membership must be 'intersection', not 'xor': only intersection domains are integrated",
        ),
        (
            ["membership"],
            "union",
            "membership must be 'intersection', not 'union': only intersection domains are integrated",
        ),
        (
            ["hypersurfaces", 0, "rho"],
            "abs2(z3)",
            "invalid domain spec: hypersurface 0 rho: expected variable z1 or z2 at position 5:"
            " abs2(<HERE>z3)\n",
        ),
        (
            ["hypersurfaces", 0, "rho"],
            "1e999*abs2(z1) - 1",
            "hypersurface 0 rho: number '1e999' overflows a float at position 0",
        ),
        (
            ["hypersurfaces", 0, "rho"],
            "(1e308,1e308)*abs2(z1)*1e10 - 1",
            "hypersurface 0 rho: coefficient (inf+infj) of this term is not finite at position 0",
        ),
        (
            ["hypersurfaces", 0, "rho"],
            "z1^" + "9" * 5000 + "*conj(z1) - 1",
            "hypersurface 0 rho: exponent of 5000 digits is too long at position 3",
        ),
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
        "repeated_edge_member",
        "one_member_edge",
        "three_member_edge",
        "nan_disk_radius",
        "inf_edge_r0",
        "nan_interior_point",
        "text_interior_coordinate",
        "no_hypersurfaces",
        "no_label",
        "no_rho",
        "no_face_hypersurface",
        "no_face_chart",
        "no_edge_members",
        "no_edge_chart",
        "list_label",
        "huge_integer_r0",
        "faces_not_a_list",
        "unknown_solve",
        "unknown_membership",
        "union_membership",
        "malformed_rho",
        "overflowing_rho_number",
        "overflowing_rho_coefficient",
        "long_rho_exponent",
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
    if value is _MISSING:
        del field[last]
    else:
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
    # rejected while parsing, so the power is never evaluated
    for expr in ("9**9**9", "z1**65", "z1**-65", "z1**z2", "z1**0.5", "z1**(1+1)"):
        with pytest.raises(cli.InputError, match="exponent"):
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
    "constant, radius, exit_code, message",
    [
        # the ball's rho is 0.1 on the whole edge, whatever the convexity radius: no
        # longer an input error, but a validate failure on the edge chart's nodes
        ("1.9", "0.05", 1, "edge 0 chart reaches the wrong side of 'ball'"),
        ("1.9", "1e-6", 1, "edge 0 chart reaches the wrong side of 'ball'"),
        ("2", "0.05", 2, "edge 0: no declared edge matches the active hypersurfaces [0, 1, 2]"),
    ],
    ids=["ball_near_the_edge", "ball_near_the_edge_at_any_radius", "ball_through_the_edge"],
)
def test_check_domain_local_geometry_error_is_input_error(
    runner, tmp_path, constant, radius, exit_code, message
):
    spec = load_spec("bidisk")
    spec["hypersurfaces"].append({"label": "ball", "rho": f"abs2(z1) + abs2(z2) - {constant}"})
    result = runner.invoke(main, ["check-domain", _spec_file(tmp_path, spec), "--radius", radius])
    assert result.exit_code == exit_code
    if exit_code == 1:
        report = _json_out(result)
        assert report["pass"] is False
        assert message in report["results"][0]["failures"]
    else:
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


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--f", "z1 +", "cannot parse expression 'z1 +'"),
        ("--f", "'a'", "only numeric literals are allowed"),
        ("--tau", "a,b,c,d", "cannot parse --tau 'a,b,c,d'"),
    ],
)
def test_reproduce_malformed_expression_or_tau_is_input_error(runner, option, value, message):
    args = ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--f", "z1"]
    args[args.index(option) + 1] = value
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Error: {message}" in result.stderr
    assert "Traceback" not in result.stderr


def test_eta_batch_failure_evaluates_each_node_alone(runner, monkeypatch):
    # The batch fails, and then only node 5 on its own: every other row keeps its values.
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    points = d.edges[0].chart.nodes(4).points

    def failing(dom, z):
        if np.ndim(z) == 2 or np.array_equal(z, points[5]):
            raise ValueError("no weight here")
        return eta(dom, z)

    monkeypatch.setattr(cli, "edge_eta", failing)
    result = runner.invoke(main, ["eta", "perturbed_bidisk", "--grid", "4"])
    assert result.exit_code == 1
    rows = _json_out(result)["results"]
    assert len(rows) == 16
    assert set(rows[5]) == {"params", "error"} and rows[5]["error"] == "no weight here"
    for i, (row, z) in enumerate(zip(rows, points)):
        if i != 5:
            inv = eta(d, z)
            assert (row["kappa"], row["eta_weight"]) == (inv.kappa, inv.eta_weight)


def test_input_error_is_not_a_library_error():
    # reproduce_cmd turns ValueError into exit 3, and the section catches ArithmeticError
    assert not issubclass(cli.InputError, (ValueError, ArithmeticError))


_SMALL_RUNS = {
    "check-domain": ["check-domain", "sphere", "--resolution", "6"],
    "reproduce": ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--resolution", "8"],
    "eta-json": ["eta", "perturbed_bidisk", "--grid", "4"],
    "eta-csv": ["eta", "perturbed_bidisk", "--grid", "4", "--format", "csv"],
    "selftest": ["selftest", "--suite", "simplex"],
}


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_unwritable_output_is_input_error(runner, tmp_path, command, where):
    path = tmp_path / "missing" / "report.out" if where == "missing_directory" else tmp_path
    reason = "No such file or directory" if where == "missing_directory" else "Is a directory"
    result = runner.invoke(main, _SMALL_RUNS[command] + ["--output", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"cannot write --output {str(path)!r}: {reason}\n"


@pytest.mark.parametrize(
    "args, sizes",
    [
        (["check-domain", "bidisk", "--resolution", "400"], "--resolution 400"),
        (["reproduce", "bidisk", "--tau", "0.1,0,0.1,0"], "--resolution 32"),
        (
            ["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--resolution", "8", "--face-resolution", "400"],
            "--resolution 8 --face-resolution 400",
        ),
        (["eta", "perturbed_bidisk", "--grid", "400"], "--grid 400"),
    ],
    ids=["check-domain", "reproduce", "reproduce_face", "eta"],
)
def test_out_of_memory_is_input_error_naming_the_size(runner, monkeypatch, args, sizes):
    def exhausted(chart, resolution):
        raise MemoryError

    monkeypatch.setattr(domain.Chart, "nodes", exhausted)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"out of memory at {sizes}: choose a smaller size\n"


@pytest.mark.parametrize(
    "args",
    [
        ["reproduce", "bidisk"],
        ["selftest"],
        ["eta", "bidisk", "--format", "xml"],
        ["eta", "bidisk", "--grid"],
        ["check-domain", "bidisk", "--samples", "4"],
        ["check-domain", "bidisk", "--res", "8"],
        [],
    ],
    ids=[
        "no_tau",
        "no_suite",
        "unknown_format",
        "no_grid_value",
        "unknown_option",
        "abbreviation",
        "no_command",
    ],
)
def test_malformed_command_line_is_one_error_line(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: hardycorners")
    assert len([ln for ln in result.stderr.splitlines() if ln.startswith("Error:")]) == 1
    assert result.stderr.splitlines()[-1].startswith("Error:")


@pytest.mark.parametrize(
    "args, typed",
    [
        (["check-domain", "bidisk", "--samples", "4"], "--samples 4"),
        (["check-domain", "bidisk", "--samples=4", "--res", "8"], "--samples=4 --res 8"),
        (["reproduce", "bidisk", "--tau", "0.1,0,0.1,0", "--g", "-z1"], "--g -z1"),
        (["selftest", "--suite", "simplex", "extra"], "extra"),
    ],
    ids=["check-domain", "joined_and_abbreviated", "dash_value", "positional"],
)
def test_unknown_argument_shows_the_command_usage_and_the_arguments_as_typed(runner, args, typed):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"usage: hardycorners {args[0]} [-h]")
    assert result.stderr.splitlines()[-1] == f"Error: unrecognized arguments: {typed}"


@pytest.mark.parametrize(
    "args, message",
    [
        (["check-domain", "bidisk", "--resolution", "eight"], "'eight' is not a valid int."),
        (["check-domain", "bidisk", "--radius", "wide"], "'wide' is not a valid float."),
    ],
)
def test_numeric_option_that_is_not_a_number_is_input_error(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == f"Error: Invalid value for '{args[-2]}': {message}"


def test_double_dash_ends_the_options(runner):
    plain = runner.invoke(main, ["check-domain", "--resolution", "6", "sphere"])
    dashed = runner.invoke(main, ["check-domain", "--resolution", "6", "--", "sphere"])
    assert plain.exit_code == dashed.exit_code == 0
    assert dashed.output == plain.output


def test_out_of_memory_without_a_size_option_is_raised(runner, monkeypatch):
    # selftest has no size to name, so its MemoryError is not turned into an input error.
    def exhausted(rng, checks):
        raise MemoryError

    monkeypatch.setitem(cli._SUITES, "simplex", exhausted)
    with pytest.raises(MemoryError):
        runner.invoke(main, ["selftest", "--suite", "simplex"])


def test_section_batch_failure_that_no_point_repeats_is_input_error():
    # On no points, a constant division by zero fails the batch and no single point.
    f = parse_section_expr("z1 + 1/0")
    with pytest.raises(cli.InputError, match=r"^expression 'z1 \+ 1/0' cannot be evaluated: "):
        f((np.empty(0), np.empty(0)))


def test_eta_margin_failure_marks_every_row(runner, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("no margin here")

    monkeypatch.setattr(cli, "check_strict_convexity", failing)
    result = runner.invoke(main, ["eta", "perturbed_bidisk", "--grid", "4", "--with-margins"])
    assert result.exit_code == 1
    rows = _json_out(result)["results"]
    assert len(rows) == 16
    assert all(row.keys() == {"params", "error"} and row["error"] == "no margin here" for row in rows)


def test_option_values_may_begin_with_a_dash(runner):
    # --tau -0.1,... and --f -z1 are values, not options
    result = runner.invoke(
        main, ["reproduce", "bidisk", "--tau", "-0.1,0,0.1,0", "--f", "-z1", "--resolution", "8"]
    )
    assert result.exit_code == 0, result.output
    assert _json_out(result)["results"][0]["expected"] == [0.1, -0.0]


def test_no_margins_undoes_with_margins(runner):
    args = ["eta", "perturbed_bidisk", "--grid", "4", "--format", "csv"]
    plain = runner.invoke(main, args)
    undone = runner.invoke(main, args + ["--with-margins", "--no-margins"])
    assert plain.exit_code == undone.exit_code == 0
    assert undone.output == plain.output


def _fresh_interpreter(*args):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_loads_no_click_and_help_exits_zero():
    probe = "import sys, hardycorners.cli; print([m for m in sys.modules if m.split('.')[0] == 'click'])"
    proc = _fresh_interpreter("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    for args in (["--help"], ["reproduce", "--help"]):
        proc = _fresh_interpreter("-m", "hardycorners.cli", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hardycorners")
