"""``tools/pairs.py``: the pair summary, its JSON record, the alternating runs, and the refusal
of cached checkouts.
"""

import argparse
import importlib.util
import json
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


def test_record_keeps_the_summary_and_which_side_ran_first():
    runs = [(_result(3.0, 15.0), _result(2.0, 15.0)), (_result(3.2, 15.0), _result(2.1, 14.0))]
    rows = pairs.summarize(runs, [("wall_s", "lower")])
    args = argparse.Namespace(workload="norm_invariance", seed=1, seconds=5.0)
    out = json.loads(json.dumps(pairs.record(args, runs, rows)))
    assert out["command"].endswith("--workload norm_invariance --seed 1 --seconds 5.0 --trace 0")
    assert out["pairs"] == 2
    wall = out["summary"]["wall_s"]
    assert wall["change"] == pytest.approx({"q1": 2.025, "median": 2.05, "q3": 2.075})
    assert wall["pairs_won_by_change"] == 2
    assert [r["first"] for r in out["runs"]] == ["parent", "change"]
    assert out["runs"][1]["change"] == {"wall_s": 2.1, "accuracy_digits": 14.0}


def test_runs_alternate_which_side_goes_first():
    calls = []

    def measure(side):
        calls.append(side)
        return 10 * len(calls) + side

    assert list(pairs.alternate(3, measure)) == [(10, 21), (40, 31), (50, 61)]
    assert calls == [0, 1, 1, 0, 0, 1]


def test_a_checkout_with_a_bytecode_cache_is_refused(tmp_path):
    roots = []
    for name in ("parent", "change"):
        for sub in ("src", "bench"):
            (tmp_path / name / sub).mkdir(parents=True)
        roots.append(str(tmp_path / name))
    (tmp_path / "change" / "src" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="bytecode cache"):
        pairs.main([*roots, "--workload", "norm_invariance", "--pairs", "1"])
