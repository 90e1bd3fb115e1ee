"""``tools/digits.py``: the seed list and the per-seed accuracy summary."""

import importlib.util
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
