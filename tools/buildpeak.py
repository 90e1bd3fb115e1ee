"""Compare one cold cache-entry build between two checkouts, in alternating fresh interpreters.

Run from anywhere, with the two checkouts' roots::

    python tools/buildpeak.py PARENT CHANGE --spec bidisk --kind reproduce \\
        --resolution 6 --edge-resolution 256 --runs 10

Each run starts one interpreter per checkout, the side that goes first
swapping from run to run.  The interpreter puts the checkout's ``src/`` first
on its path and imports the library and ``hardycorners.normalforms`` (which
the first ``measure`` build would import), so that no import is measured.
It then builds the cache entry ``measures._cached(d, KIND, RESOLUTION,
EDGE_RESOLUTION)`` twice, each time on a domain freshly read from the spec,
so each build is cold:

* the first build is timed, and the rise of the process's peak resident set
  size (``ru_maxrss``) across it is read;
* the second build runs under ``tracemalloc``, which gives the traced peak
  of the build, and the bytes of the entry's arrays.

For each figure the table gives each side's median and quartiles, the
relative change of the medians, the runs the change won (a lower figure) and
whether the gap of the medians exceeds the parent's interquartile range, and
then each side's median ratio of the traced peak to the entry.  The
interpreters run with ``PYTHONDONTWRITEBYTECODE=1``, so nothing in either
checkout is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import _cell, alternate, compare

# Run in a fresh interpreter: argv[1] is the checkout's src/, then the spec, kind and the two
# resolutions.  Prints one JSON object with the figures of the two builds.
_WORKER = """
import json, resource, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from hardycorners import domain, measures, normalforms
from hardycorners.cli import load_spec
spec, kind = load_spec(sys.argv[2]), sys.argv[3]
sizes = int(sys.argv[4]), int(sys.argv[5])
d = domain.domain_from_spec(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
measures._cached(d, kind, *sizes)
seconds = time.perf_counter() - start
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
d = domain.domain_from_spec(spec)
tracemalloc.start()
entry = measures._cached(d, kind, *sizes)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
fields = [n for c in type(entry).__mro__ for n in vars(c).get("__slots__", ())]
arrays = [getattr(entry, n) for n in fields]
nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
print(json.dumps({"peak_mb": peak / 1e6, "entry_mb": nbytes / 1e6,
                  "rss_rise_mb": rise * 1024 / 1e6, "cold_ms": seconds * 1e3}))
"""

FIGURES = ("peak_mb", "entry_mb", "rss_rise_mb", "cold_ms")


def _build(src, args, env, cwd):
    """The figures of one run in a fresh interpreter on ``src``, as a dict."""
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src), args.spec, args.kind,
         str(args.resolution), str(args.edge_resolution)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs):
    """One row per figure from ``runs``, ``(parent, change)`` dicts; then the median peak ratios.

    Each row is ``(figure, parent quartiles, change quartiles, relative
    change of the medians, runs won, gap beyond the parent's IQR)``; a lower
    figure wins.  The ratios are each side's median of traced peak over
    entry bytes.
    """
    rows = [(f, *compare([(p[f], c[f]) for p, c in runs], "lower")) for f in FIGURES]
    ratios = tuple(
        statistics.median(r[side]["peak_mb"] / r[side]["entry_mb"] for r in runs) for side in (0, 1)
    )
    return rows, ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--kind", required=True, choices=("reproduce", "measure"))
    parser.add_argument("--resolution", type=int, required=True)
    parser.add_argument("--edge-resolution", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    srcs = [args.parent.resolve() / "src", args.change.resolve() / "src"]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    with tempfile.TemporaryDirectory() as tmp:
        runs = list(alternate(args.runs, lambda side: _build(srcs[side], args, env, tmp)))
    rows, ratios = summarize(runs)

    print(
        f"cold {args.kind} build of {args.spec} at {args.resolution}/{args.edge_resolution}; "
        f"runs={args.runs}"
    )
    print(f"parent={srcs[0]}\nchange={srcs[1]}")
    print(
        f"{'figure':<12} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28} "
        f"{'change':>8} {'won':>6} {'gap>IQR':>7}"
    )
    for name, p, c, rel, won, beyond in rows:
        print(
            f"{name:<12} {_cell(p):>28} {_cell(c):>28} {rel:>+8.1%} "
            f"{f'{won}/{args.runs}':>6} {'yes' if beyond else 'no':>7}"
        )
    print(f"peak/entry   parent {ratios[0]:.2f}  change {ratios[1]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
