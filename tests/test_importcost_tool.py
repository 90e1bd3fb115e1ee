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
    parent, change = ("cli", "domain", "normalforms"), ("cli", "domain")
    runs = [
        ((0.024, parent), (0.012, change)),
        ((0.025, parent), (0.011, change)),
        ((0.023, ()), (0.024, ())),
    ]
    parent, change, rel, won, beyond, n_parent, n_change = importcost.summarize(runs)
    assert parent == pytest.approx((0.0235, 0.024, 0.0245))
    assert change == pytest.approx((0.0115, 0.012, 0.018))
    assert rel == pytest.approx(-0.5)
    assert won == 2 and beyond
    assert (n_parent, n_change) == (3, 2)


def _checkout(root, body, extra=()):
    """A package with the four modules the benchmark imports, ``cli`` holding ``body``."""
    package = root / "src" / "hardycorners"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(body)
    for name in ("domain", "measures", "projective", *extra):
        (package / f"{name}.py").write_text("")
    return root


def _dependency(root, name):
    """A top-level module ``name`` outside the standard library, on the checkout's path."""
    (root / "src" / f"{name}.py").write_text("")


def test_a_checkout_with_a_bytecode_cache_is_refused(importcost, tmp_path):
    roots = [_checkout(tmp_path / name, "") for name in ("parent", "change")]
    (roots[1] / "src" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="bytecode cache"):
        importcost.main([str(r) for r in roots] + ["--runs", "1"])


def test_a_run_lists_the_loaded_modules_and_writes_nothing_in_the_checkouts(
    importcost, tmp_path, capsys
):
    eager = "import fakedep, json, numpy.polynomial\nfrom . import normalforms\n"
    roots = [
        _checkout(tmp_path / "parent", eager, extra=("normalforms",)),
        _checkout(tmp_path / "change", "", extra=("normalforms",)),
    ]
    _dependency(roots[0], "fakedep")
    before = sorted(p for r in roots for p in r.rglob("*"))
    assert importcost.main([str(r) for r in roots] + ["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[-2:]]
    assert [(row[0], row[-3:]) for row in rows] == [
        ("uncached", ["5", "->", "4"]),
        ("cached", ["5", "->", "4"]),
    ]
    # numpy is imported before the timer, but not its polynomial package; json is standard
    assert lines[3:9] == [
        "hardycorners modules the parent's import loads: cli, domain, measures, normalforms, projective",
        "hardycorners modules the change's import loads: cli, domain, measures, projective",
        "numpy subpackages the parent's import adds: numpy.polynomial",
        "numpy subpackages the change's import adds: none",
        "third-party modules the parent's import adds: fakedep",
        "third-party modules the change's import adds: none",
    ]
    assert sorted(p for r in roots for p in r.rglob("*")) == before
