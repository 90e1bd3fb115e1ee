"""``tools/importcost.py``: the run summary, the refusal of cached checkouts, and a small run."""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def importcost(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # it imports its sibling, tools/pairs.py
    spec = importlib.util.spec_from_file_location("importcost", _TOOLS / "importcost.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_runs_won_and_reports_the_first_runs_counts(importcost):
    runs = [
        ((0.024, 17), (0.012, 0)),
        ((0.025, 17), (0.011, 0)),
        ((0.023, 17), (0.024, 0)),
    ]
    parent, change, rel, won, beyond, n_parent, n_change = importcost.summarize(runs)
    assert parent == pytest.approx((0.0235, 0.024, 0.0245))
    assert change == pytest.approx((0.0115, 0.012, 0.018))
    assert rel == pytest.approx(-0.5)
    assert won == 2 and beyond
    assert (n_parent, n_change) == (17, 0)


def _checkout(root, body):
    package = root / "src" / "hardycorners"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(body)
    return root


def test_a_checkout_with_a_bytecode_cache_is_refused(importcost, tmp_path):
    roots = [_checkout(tmp_path / name, "") for name in ("parent", "change")]
    (roots[1] / "src" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="bytecode cache"):
        importcost.main([str(r) for r in roots] + ["--runs", "1"])


def test_a_run_counts_dataclasses_and_writes_nothing_in_the_checkouts(importcost, tmp_path, capsys):
    record = "import dataclasses\n\n@dataclasses.dataclass\nclass Record:\n    x: int\n"
    roots = [_checkout(tmp_path / "parent", record), _checkout(tmp_path / "change", "")]
    before = sorted(p for r in roots for p in r.rglob("*"))
    assert importcost.main([str(r) for r in roots] + ["--runs", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[-2:]]
    assert [(row[0], row[-3:]) for row in rows] == [
        ("uncached", ["1", "->", "0"]),
        ("cached", ["1", "->", "0"]),
    ]
    assert sorted(p for r in roots for p in r.rglob("*")) == before
