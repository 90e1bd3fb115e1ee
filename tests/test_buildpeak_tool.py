"""``tools/buildpeak.py``: the run summary, and a small run of the repository against itself."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TOOLS = _ROOT / "tools"


@pytest.fixture
def buildpeak(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # it imports its sibling, tools/pairs.py
    spec = importlib.util.spec_from_file_location("buildpeak", _TOOLS / "buildpeak.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _figures(peak, entry, rise, cold):
    return {"peak_mb": peak, "entry_mb": entry, "rss_rise_mb": rise, "cold_ms": cold}


def test_summary_counts_runs_won_and_the_peak_ratios(buildpeak):
    runs = [
        (_figures(30.0, 10.0, 20.0, 90.0), _figures(12.0, 10.0, 9.0, 80.0)),
        (_figures(33.0, 10.0, 21.0, 88.0), _figures(11.0, 10.0, 10.0, 95.0)),
    ]
    rows, ratios = buildpeak.summarize(runs)
    by_name = {name: rest for name, *rest in rows}
    assert list(by_name) == ["peak_mb", "entry_mb", "rss_rise_mb", "cold_ms"]
    parent, change, rel, won, beyond = by_name["peak_mb"]
    assert parent == pytest.approx((30.75, 31.5, 32.25))
    assert change == pytest.approx((11.25, 11.5, 11.75))
    assert won == 2 and beyond and rel == pytest.approx(11.5 / 31.5 - 1)
    assert by_name["entry_mb"][3] == 0  # a tie wins for neither side
    assert by_name["cold_ms"][3] == 1
    assert ratios == pytest.approx((3.15, 1.15))


def test_a_run_of_the_repository_against_itself(buildpeak, capsys):
    before = sorted(_ROOT.rglob("__pycache__"))
    args = [str(_ROOT), str(_ROOT), "--spec", "bidisk", "--kind", "reproduce"]
    args += ["--resolution", "6", "--edge-resolution", "16", "--runs", "1"]
    assert buildpeak.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cold reproduce build of bidisk at 6/16; runs=1"
    assert [line.split()[0] for line in lines[4:]] == [
        "peak_mb", "entry_mb", "rss_rise_mb", "cold_ms", "peak/entry"
    ]
    # One entry, the same on both sides: 288 Levi-flat face nodes (a point and a unit
    # gradient, 64 bytes) and 256 edge nodes (144 bytes each).
    entry = lines[5].split()
    assert entry[1] == entry[4] == f"{(288 * 64 + 256 * 144) / 1e6:.5g}"
    assert sorted(_ROOT.rglob("__pycache__")) == before
