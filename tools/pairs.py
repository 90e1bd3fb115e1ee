"""Compare the benchmark's end-to-end metrics between two checkouts, in alternating pairs.

Run from anywhere, with the two checkouts' roots::

    python tools/pairs.py PARENT CHANGE --workload norm_invariance --seed 1 --pairs 10

Each pair runs ``bench/run.py`` once in each checkout, one after the other;
the side that goes first swaps from pair to pair, so a drift of the machine's
speed during the comparison falls on both sides alike.  Only the last line of
each run's standard output is read (the JSON object ``bench/run.py`` ends
with), and nothing in either checkout is written.

For each end-to-end metric that ``BENCHMARK.json`` declares, the table gives
the median and quartiles of each side, the relative change of the medians,
the pairs the change won (better on its declared direction; ties count for
neither side), and whether the gap of the medians exceeds the parent's
interquartile range.  ``failed_share`` is summed over all runs of each side.

Two conditions bias a comparison without showing in its numbers:

* A bytecode cache under ``src/`` or ``bench/`` makes the interpreters that
  ``setup_s`` times start faster.  The script refuses to run while either
  checkout has a ``__pycache__`` there, and runs the benchmark with
  ``PYTHONDONTWRITEBYTECODE=1`` so that none appears.
* Paths of different length change the layout of the interpreter's heap and
  can move small timings.  The script warns when the two roots differ in
  length.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _end_to_end():
    """``(name, better)`` of each end-to-end metric the benchmark declares."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def _bytecode_caches(root):
    """The ``__pycache__`` directories under ``src/`` and ``bench/`` of a checkout."""
    return sorted(p for sub in ("src", "bench") for p in (root / sub).rglob("__pycache__"))


def _run(root, workload, seed, seconds):
    """One ``bench/run.py`` run in ``root``; its final JSON object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    """``(q1, median, q3)``; for one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cell(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(pairs, better):
    """The pair statistics of one metric's ``(parent, change)`` values.

    Returns ``(parent quartiles, change quartiles, relative change of the
    medians, pairs won, gap beyond the parent's IQR)``.  ``better`` is
    ``"higher"`` or ``"lower"``; a tie wins for neither side.
    """
    sides = list(zip(*pairs))
    parent, change = (_quartiles(v) for v in sides)
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    gap = sign * (change[1] - parent[1])
    rel = (change[1] - parent[1]) / parent[1] if parent[1] else float("nan")
    return parent, change, rel, won, gap > parent[2] - parent[0]


def summarize(runs, metrics):
    """One row per metric from ``runs``: a list of ``(parent, change)`` result pairs.

    Each row is ``(name, parent quartiles, change quartiles, relative change
    of the medians, pairs won, gap beyond the parent's IQR)``.
    """
    rows = []
    for name, better in metrics:
        values = [tuple(r[i]["metrics"][name]["value"] for i in (0, 1)) for r in runs]
        rows.append((name, *compare(values, better)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]

    caches = [p for root in roots for p in _bytecode_caches(root)]
    if caches:
        sys.exit(
            "refusing to compare: a bytecode cache makes setup_s read low; remove "
            + ", ".join(map(str, caches))
        )
    if len(str(roots[0])) != len(str(roots[1])):
        print(
            f"warning: the checkout paths differ in length ({len(str(roots[0]))} and "
            f"{len(str(roots[1]))} characters), which can move small timings",
            file=sys.stderr,
        )

    runs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        result = [None, None]
        for side in order:
            result[side] = _run(roots[side], args.workload, args.seed, args.seconds)
        runs.append(tuple(result))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} seconds={args.seconds}")
    print(f"parent={roots[0]}\nchange={roots[1]}")
    print(
        f"{'metric':<16} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
        f"{'change':>8} {'won':>7} {'gap>IQR':>7}"
    )
    for name, p, c, rel, won, beyond in summarize(runs, _end_to_end()):
        print(
            f"{name:<16} {_cell(p):>34} {_cell(c):>34} {rel:>+8.1%} "
            f"{f'{won}/{len(runs)}':>7} {'yes' if beyond else 'no':>7}"
        )
    for label, side in (("parent", 0), ("change", 1)):
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        print(f"failed_share {label}: {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
