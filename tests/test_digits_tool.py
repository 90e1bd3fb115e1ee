"""``tools/digits.py``: the seed list and the per-seed accuracy summary."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digits.py"
_spec = importlib.util.spec_from_file_location("digits", _PATH)
digits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digits)


@pytest.mark.parametrize(
    "text, seeds", [("0-3", [0, 1, 2, 3]), ("1,7", [1, 7]), ("5", [5]), ("0-1,7", [0, 1, 7])]
)
def test_seeds_are_ranges_with_both_ends_or_lists(text, seeds):
    assert digits.parse_seeds(text) == seeds


def test_summary_names_the_worst_loss_and_both_medians():
    seeds = [0, 1, 2, 3]
    parent = [15.0, 14.5, 14.8, 15.5]
    change = [15.25, 14.5, 14.75, 15.375]
    rows, (worst, seed, parent_median, change_median) = digits.summarize(seeds, parent, change)
    assert [row[0] for row in rows] == seeds
    assert [row[3] for row in rows] == pytest.approx([0.25, 0.0, -0.05, -0.125])
    assert worst == pytest.approx(0.125) and seed == 3
    assert parent_median == pytest.approx(14.9) and change_median == pytest.approx(15.0)


def test_a_change_that_gains_on_every_seed_has_a_negative_worst_loss():
    _, (worst, seed, _, _) = digits.summarize([4, 9], [14.0, 15.0], [14.5, 15.25])
    assert worst == pytest.approx(-0.25) and seed == 9


def test_losses_beyond_the_bound_name_their_seeds_and_spare_a_loss_at_the_bound():
    rows, _ = digits.summarize([0, 1, 2, 3], [15.5, 15.0, 15.0, 14.0], [15.0, 14.75, 15.5, 13.75])
    # losses 0.5, 0.25, -0.5 (a gain) and 0.25
    assert digits.losses_beyond(rows, 0.25) == [0]
    assert digits.losses_beyond(rows, 0.2) == [0, 1, 3]
    assert digits.losses_beyond(rows, 1.0) == []


def test_the_bound_is_read_from_the_benchmark_declaration(tmp_path):
    assert digits.accuracy_bound() == 0.2
    metrics = [{"name": "wall_s", "bound": 0.5}, {"name": "accuracy_digits", "bound": 0.3}]
    spec = {"end_to_end": metrics}
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert digits.accuracy_bound(path) == 0.3


def test_the_report_counts_the_seeds_beyond_the_bound(monkeypatch, capsys):
    figures = {"parent": [15.0, 15.0, 15.0], "change": [14.5, 15.25, 14.9]}
    monkeypatch.setattr(digits, "_digits", lambda root, workload, seeds: figures[root.name])
    assert digits.main(["parent", "change", "--workload", "norm_invariance", "--seeds", "4-6"]) == 0
    out = capsys.readouterr().out.splitlines()
    worst = next(i for i, line in enumerate(out) if line.startswith("worst loss"))
    assert out[worst] == "worst loss: 0.5000 digits (seed 4)"
    bound = digits.accuracy_bound()
    assert out[worst + 1] == f"losses beyond the accuracy_digits bound {bound}: 1 (seeds 4)"
