"""Time the benchmark's import of ``hardycorners`` in two checkouts, in alternating fresh interpreters.

Run from anywhere, with the two checkouts' roots::

    python tools/importcost.py PARENT CHANGE --runs 10

Each run starts one interpreter per checkout, the side that goes first
swapping from run to run.  The interpreter puts the checkout's ``src/`` first
on its path, imports ``numpy``, and only then starts the timer around the
line ``bench/workloads.py`` imports the library with, ``from hardycorners
import cli, domain, measures, projective``: the package import and the
import of the four modules, with every module they load.  After the timer
stops, it lists the ``hardycorners`` submodules that the import loaded, the
``numpy`` subpackages that it added (``numpy`` itself is loaded before the
timer, but some of its subpackages, such as ``numpy.polynomial``, load only
when imported), and the top-level modules outside the standard library and
``hardycorners`` that it added to ``sys.modules`` (such as a command-line
library).

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
range, and the number of ``hardycorners`` submodules each side loaded.  The
modules each side's import loaded and added are printed, from its first run,
above the table.  The tracer of ``bench/`` cannot see an import; this is
its per-layer figure.  Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import _cell, alternate, compare

# Run in a fresh interpreter: argv[1] is the checkout's src/.  Prints the
# seconds of the import, the package's submodules it loaded and the numpy
# subpackages it added (each comma-separated, "-" if none), and the
# third-party top-level modules it added, if any.
_WORKER = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
start = time.perf_counter()
from hardycorners import cli, domain, measures, projective
elapsed = time.perf_counter() - start
new = set(sys.modules) - before
added = {n.split(".")[0] for n in new} - {n.split(".")[0] for n in before}
added -= set(sys.stdlib_module_names) | {"hardycorners"}
package = sorted(n.partition(".")[2] for n in sys.modules if n.startswith("hardycorners."))
subpackages = sorted({".".join(n.split(".")[:2]) for n in new if n.startswith("numpy.")})
print(elapsed, ",".join(package) or "-", ",".join(subpackages) or "-", *sorted(added))
"""


def _import(src, env, cwd):
    """One timed import of ``src``'s package.

    Returns ``(seconds, submodules loaded, numpy subpackages added, third-party
    modules added)``.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    seconds, package, subpackages, *added = proc.stdout.split()
    modules, numpy_added = (() if f == "-" else tuple(f.split(",")) for f in (package, subpackages))
    return float(seconds), modules, numpy_added, tuple(added)


def summarize(runs):
    """One mode's row from ``runs``: ``((seconds, modules), (seconds, modules))`` pairs, parent first.

    The row is ``(parent quartiles, change quartiles, relative change of the
    medians, runs won, gap beyond the parent's IQR, parent submodule count,
    change submodule count)``; the counts are those of the first run.  Each
    ``(seconds, modules)`` may carry more fields, which are ignored.
    """
    stats = compare([(p[0], c[0]) for p, c in runs], "lower")
    return (*stats, len(runs[0][0][1]), len(runs[0][1][1]))


def _measure(srcs, runs, env, cwd):
    return list(alternate(runs, lambda side: _import(srcs[side], env, cwd)))


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
        first = _measure(srcs, args.runs, uncached, tmp)
        rows.append(("uncached", summarize(first)))
        prefix = Path(tmp, "pycache")
        cached = {k: v for k, v in base.items() if k != "PYTHONDONTWRITEBYTECODE"}
        cached["PYTHONPYCACHEPREFIX"] = str(prefix)
        for src in srcs:
            _import(src, cached, tmp)
        rows.append(("cached", summarize(_measure(srcs, args.runs, cached, tmp))))

    print(f"from hardycorners import cli, domain, measures, projective, after numpy; runs={args.runs}")
    print(f"parent={srcs[0]}\nchange={srcs[1]}")
    for side, (_, package, _, _) in zip(("parent", "change"), first[0]):
        print(f"hardycorners modules the {side}'s import loads: {', '.join(package) or 'none'}")
    for side, (_, _, numpy_added, _) in zip(("parent", "change"), first[0]):
        print(f"numpy subpackages the {side}'s import adds: {', '.join(numpy_added) or 'none'}")
    for side, (_, _, _, added) in zip(("parent", "change"), first[0]):
        print(f"third-party modules the {side}'s import adds: {', '.join(added) or 'none'}")
    print(
        f"{'bytecode':<9} {'parent ms median [q1, q3]':>30} {'change ms median [q1, q3]':>30} "
        f"{'change':>8} {'won':>6} {'gap>IQR':>7} {'modules':>8}"
    )
    for mode, (p, c, rel, won, beyond, n_parent, n_change) in rows:
        ms = [tuple(1e3 * v for v in q) for q in (p, c)]
        counts = f"{n_parent} -> {n_change}"
        print(
            f"{mode:<9} {_cell(ms[0]):>30} {_cell(ms[1]):>30} {rel:>+8.1%} "
            f"{f'{won}/{args.runs}':>6} {'yes' if beyond else 'no':>7} {counts:>8}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
