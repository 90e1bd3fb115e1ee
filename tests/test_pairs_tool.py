"""``tools/pairs.py``: the pair summary and the refusal to compare cached checkouts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _result(wall, digits):
    return {"metrics": {"wall_s": {"value": wall}, "accuracy_digits": {"value": digits}}}


def test_summary_counts_pairs_won_in_each_metrics_direction():
    runs = [
        (_result(3.0, 15.0), _result(2.0, 15.0)),
        (_result(3.2, 15.0), _result(2.1, 14.0)),
        (_result(2.9, 15.0), _result(3.0, 16.0)),
    ]
    rows = pairs.summarize(runs, [("wall_s", "lower"), ("accuracy_digits", "higher")])
    (name, parent, change, rel, won, beyond), digits = rows
    assert name == "wall_s"
    assert parent == (2.95, 3.0, 3.1) and change == (2.05, 2.1, 2.55)
    assert rel == pytest.approx(-0.3)
    assert won == 2 and beyond
    # one pair better, one worse, one tie: the tie counts for neither side
    assert digits[4] == 1 and not digits[5]


def test_a_checkout_with_a_bytecode_cache_is_refused(tmp_path):
    roots = []
    for name in ("parent", "change"):
        for sub in ("src", "bench"):
            (tmp_path / name / sub).mkdir(parents=True)
        roots.append(str(tmp_path / name))
    (tmp_path / "change" / "src" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="bytecode cache"):
        pairs.main([*roots, "--workload", "norm_invariance", "--pairs", "1"])
