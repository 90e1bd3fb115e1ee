"""Time ``import hardycorners.cli`` in two checkouts, in alternating fresh interpreters.

Run from anywhere, with the two checkouts' roots::

    python tools/importcost.py PARENT CHANGE --runs 10

Each run starts one interpreter per checkout, the side that goes first
swapping from run to run.  The interpreter puts the checkout's ``src/`` first
on its path, imports ``numpy`` and ``click``, and only then starts the timer
around ``import hardycorners.cli``, so the figure is the library's own import.
It also counts the classes of the ``hardycorners`` modules that
``dataclasses.is_dataclass`` accepts (after the timer stops).

The runs are made twice:

* uncached, with ``PYTHONDONTWRITEBYTECODE=1``: every module of ``src/`` is
  compiled in each run, as in a checkout without ``__pycache__`` (the way
  ``bench/run.py``'s ``setup_s`` is measured; ``tools/pairs.py`` refuses
  cached checkouts).  This script refuses them too, since their cache
  would be read;
* cached, with ``PYTHONPYCACHEPREFIX`` set to a temporary directory that
  one untimed import per checkout fills first, as an installed package
  runs.

For each, the table gives each side's median and quartiles in milliseconds,
the relative change of the medians, the runs the change won (a lower time)
and whether the gap of the medians exceeds the parent's interquartile
range.  The tracer of ``bench/`` cannot see an import; this is its per-layer
figure.  Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import _cell, compare

# Run in a fresh interpreter: argv[1] is the checkout's src/.  Prints the
# seconds of the import and the number of dataclasses it defines.
_WORKER = """
import sys, time
sys.path.insert(0, sys.argv[1])
import click, numpy
start = time.perf_counter()
import hardycorners.cli
elapsed = time.perf_counter() - start
import dataclasses
modules = [(n, m) for n, m in list(sys.modules.items()) if n.split(".")[0] == "hardycorners"]
print(elapsed, sum(
    isinstance(obj, type) and obj.__module__ == name and dataclasses.is_dataclass(obj)
    for name, module in modules for obj in vars(module).values()
))
"""


def _import(src, env, cwd):
    """One timed import of ``src``'s package: ``(seconds, dataclass count)``."""
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    seconds, count = proc.stdout.split()
    return float(seconds), int(count)


def summarize(runs):
    """One mode's row from ``runs``: ``((seconds, count), (seconds, count))`` pairs, parent first.

    The row is ``(parent quartiles, change quartiles, relative change of the
    medians, runs won, gap beyond the parent's IQR, parent dataclasses,
    change dataclasses)``; the counts are those of the first run.
    """
    stats = compare([(p[0], c[0]) for p, c in runs], "lower")
    return (*stats, runs[0][0][1], runs[0][1][1])


def _measure(srcs, runs, env, cwd):
    out = []
    for i in range(runs):
        result = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            result[side] = _import(srcs[side], env, cwd)
        out.append(tuple(result))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    srcs = [args.parent.resolve() / "src", args.change.resolve() / "src"]
    caches = sorted(p for src in srcs for p in src.rglob("__pycache__"))
    if caches:
        sys.exit(
            "refusing to time: a bytecode cache would be read; remove " + ", ".join(map(str, caches))
        )

    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        uncached = dict(base, PYTHONDONTWRITEBYTECODE="1")
        rows.append(("uncached", summarize(_measure(srcs, args.runs, uncached, tmp))))
        prefix = Path(tmp, "pycache")
        cached = {k: v for k, v in base.items() if k != "PYTHONDONTWRITEBYTECODE"}
        cached["PYTHONPYCACHEPREFIX"] = str(prefix)
        for src in srcs:
            _import(src, cached, tmp)
        rows.append(("cached", summarize(_measure(srcs, args.runs, cached, tmp))))

    print(f"import hardycorners.cli, after numpy and click; runs={args.runs}")
    print(f"parent={srcs[0]}\nchange={srcs[1]}")
    print(
        f"{'bytecode':<9} {'parent ms median [q1, q3]':>30} {'change ms median [q1, q3]':>30} "
        f"{'change':>8} {'won':>6} {'gap>IQR':>7} {'dataclasses':>11}"
    )
    for mode, (p, c, rel, won, beyond, n_parent, n_change) in rows:
        ms = [tuple(1e3 * v for v in q) for q in (p, c)]
        counts = f"{n_parent} -> {n_change}"
        print(
            f"{mode:<9} {_cell(ms[0]):>30} {_cell(ms[1]):>30} {rel:>+8.1%} "
            f"{f'{won}/{args.runs}':>6} {'yes' if beyond else 'no':>7} {counts:>11}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
