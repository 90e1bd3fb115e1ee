"""Compare the benchmark's ``accuracy_digits`` between two checkouts, seed by seed.

Run from anywhere, with the two checkouts' roots::

    python tools/digits.py PARENT CHANGE --workload norm_invariance --seeds 0-39

``--seeds`` takes a range ``A-B`` (both ends included), a comma list, or one
seed.  For each checkout, one interpreter imports that checkout's ``src/`` and
``bench/workloads.py`` (two interpreters, since both checkouts name their
modules alike) and, for each seed, prepares the workload and runs a cold and
a warm operation untimed, as ``bench/run.py`` runs its first two;
``accuracy_digits`` is that of their merged outcome.  No time is measured, so
a sweep over many seeds takes seconds.

The table gives each seed's figure in both checkouts and the change's gain
(negative for a loss); below it, the worst loss (the largest ``parent -
change``, negative when every seed gained) with its seed and the median of
each side.  The interpreters run with ``-B``, so nothing in either
checkout is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# Run in each checkout's own interpreter: argv is the root, the workload and
# a JSON list of seeds; prints a JSON list of accuracy_digits, one per seed.
_WORKER = """
import json, sys
root, name, seeds = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/bench"]
import workloads
digits = []
for seed in seeds:
    workload = workloads.prepare(name, seed)
    outcome = workloads.Outcome()
    for _ in range(2):
        outcome.merge(workload.operation(workloads.SIZES[name]))
    digits.append(outcome.accuracy_digits())
print(json.dumps(digits))
"""


def parse_seeds(text):
    """``"0-39"`` -> 0..39, ``"1,7"`` -> [1, 7], ``"3"`` -> [3]."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def _digits(root, workload, seeds):
    """``accuracy_digits`` of each seed, computed in ``root``'s own interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _WORKER, str(root), workload, json.dumps(seeds)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(seeds, parent, change):
    """Rows ``(seed, parent, change, gain)`` and ``(worst loss, its seed, parent median, change median)``.

    ``parent`` and ``change`` hold one figure per seed, in the order of
    ``seeds``; the gain is ``change - parent``.  The worst loss is the
    largest ``parent - change``, and the first seed that reaches it is named.
    """
    rows = [(s, p, c, c - p) for s, p, c in zip(seeds, parent, change)]
    seed, p, c, _ = max(rows, key=lambda row: row[1] - row[2])
    return rows, (p - c, seed, statistics.median(parent), statistics.median(change))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-39"))
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    parent, change = (_digits(root, args.workload, args.seeds) for root in roots)

    print(f"workload={args.workload} seeds={len(args.seeds)}")
    print(f"parent={roots[0]}\nchange={roots[1]}")
    print(f"{'seed':>5} {'parent':>9} {'change':>9} {'gain':>8}")
    rows, (worst, seed, parent_median, change_median) = summarize(args.seeds, parent, change)
    for s, p, c, gain in rows:
        print(f"{s:>5} {p:>9.4f} {c:>9.4f} {gain:>+8.4f}")
    print(f"worst loss: {worst:.4f} digits (seed {seed})")
    print(f"median: parent {parent_median:.4f}, change {change_median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
