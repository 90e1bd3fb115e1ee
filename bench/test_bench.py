"""Tests of the benchmark itself, at tiny resolutions.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import math
from pathlib import Path

import pytest

import run
import tracer
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "curved_reproduce": {"resolution": 8, "edge_resolution": 4},
    "flat_corner_taus": {"face_resolution": 4, "edge_resolution": 8},
    "norm_invariance": {"resolution": 4, "edge_resolution": 4},
}


def _graph_patch_nodes(n):
    """Nodes of one graph-patch face: Gauss in r, trapezoid in both angles."""
    return max(4, n // 2) * n * n


def _torus_nodes(n):
    return max(4, n) ** 2


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.SIZES)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_has_every_metric_with_its_unit(name, trace):
    result = run.run(name, seed=1, seconds=0, trace=trace, sizes=TINY[name], setup_samples=1)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_main_prints_the_result_as_its_last_line(monkeypatch, capsys):
    monkeypatch.setitem(workloads.SIZES, "curved_reproduce", TINY["curved_reproduce"])
    args = ["--workload", "curved_reproduce", "--seed", "2", "--seconds", "0", "--trace", "0"]
    assert run.main(args) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["wall_s"]["value"] > 0


def _traced_layers(name, sizes):
    workload = workloads.prepare(name, 3)
    with tracer.Tracer() as t:
        workload.operation(sizes)
    return tracer.layer_metrics(t.summary())


@pytest.mark.parametrize("name", ["curved_reproduce", "flat_corner_taus"])
def test_reproduce_counts_come_out_as_derived(name):
    sizes = TINY[name]
    face_n = sizes.get("resolution", sizes.get("face_resolution"))
    n_taus = workloads.N_TAUS[name]
    nodes = n_taus * (2 * _graph_patch_nodes(face_n) + _torus_nodes(sizes["edge_resolution"]))
    layers = _traced_layers(name, sizes)
    assert layers["quadrature.nodes"][0] == nodes
    assert layers["domain.solves_per_node"][0] == 2.0
    assert layers["domain.chart_calls"][0] == 2 * nodes
    assert layers["normalforms.eta_calls"][0] == 0


def test_norm_counts_come_out_as_derived():
    sizes = TINY["norm_invariance"]
    per_domain = 2 * _graph_patch_nodes(sizes["resolution"]) + _torus_nodes(
        sizes["edge_resolution"]
    )
    n_domains = 1 + workloads.N_MAPS
    layers = _traced_layers("norm_invariance", sizes)
    assert layers["quadrature.nodes"][0] == n_domains * per_domain
    assert layers["normalforms.eta_calls"][0] == n_domains * _torus_nodes(
        sizes["edge_resolution"]
    )
    assert layers["measures.density_calls"][0] == n_domains * per_domain
    # A transformed chart projects each node through its base chart three
    # times (point, and point plus tangents for the pushed tangents).
    assert layers["domain.solves_per_node"][0] == pytest.approx((2 + 3 * workloads.N_MAPS) / n_domains)


def _installed():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer._targets()]


def test_no_wrapper_is_left_installed():
    before = _installed()
    workload = workloads.prepare("curved_reproduce", 4)
    with pytest.raises(KeyError):
        with tracer.Tracer():
            assert any(vars(o)[a] is not f for o, a, f in before)
            workload.operation(TINY["curved_reproduce"])
            raise KeyError("leave the block by an exception")
    assert all(vars(o)[a] is f for o, a, f in before)
    run.run("flat_corner_taus", 4, 0, 1, sizes=TINY["flat_corner_taus"])
    assert all(vars(o)[a] is f for o, a, f in before)


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer()
    inner = t.wrap(lambda: sum(range(20000)), "test.inner")
    outer = t.wrap(lambda: inner() + inner(), "test.outer")
    outer()
    s = t.summary()
    assert s["test.inner"]["calls"] == 2
    assert s["test.outer"]["calls"] == 1
    assert s["test.outer"]["self_s"] == pytest.approx(
        s["test.outer"]["inclusive_s"] - s["test.inner"]["inclusive_s"], abs=1e-12
    )


def test_failed_calls_are_counted_and_the_run_goes_on():
    out = workloads.Outcome()

    def pole():
        raise ZeroDivisionError("tangent hyperplane passes through tau")

    out.check(pole, 1e-4, "pole")
    out.check(lambda: float("nan"), 1e-4, "nan")
    out.check(lambda: 1e-3, 1e-4, "too large")
    out.check(lambda: 1e-6, 1e-4, "fine")
    out.check(lambda: None, 1e-4, "no figure")
    assert (out.attempted, out.failed) == (5, 3)
    with pytest.raises(KeyError):
        out.check(lambda: {}["x"], 1e-4, "a defect, not a failure")


def test_inputs_come_from_the_seed():
    sizes = TINY["curved_reproduce"]

    def errors(seed):
        return workloads.prepare("curved_reproduce", seed).operation(sizes).errors

    assert errors(5) == errors(5)
    assert errors(5) != errors(6)
