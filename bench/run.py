"""Run one workload of the hardycorners benchmark and print its metrics.

Usage, from the root of a checkout (the library is imported from ``src/``)::

    python3 bench/run.py --workload curved_reproduce --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics ``wall_s`` (median
seconds per operation), ``setup_s`` (median of several cold set-ups, each in
a fresh interpreter), ``peak_rss_mb`` and ``accuracy_digits``.  Both times
are calibrated against the machine's speed as sampled while they run (see
:mod:`speed`); the raw wall median is printed next to them.  With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of :mod:`tracer` plus ``trace.overhead_s``.  Either way
every library result is checked against its acceptance-criterion tolerance,
the share of failed calls is printed as ``failed_share``, and the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits 0 when the run completed, whether or not a check failed;
``correct`` says which.  See README.md in this directory for the workloads.
"""

import os

# One BLAS/OpenMP thread: the host has few cores and is shared, and the
# library's small dense solves gain nothing from threads.  This must happen
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

# Cold set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5
# Operations timed per run even when --seconds is shorter than that.
MIN_REPS = 3


def _probe(name, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_setup(name, seed, samples=SETUP_SAMPLES):
    """Median calibrated seconds of cold set-ups, one fresh interpreter each."""
    return statistics.median(_probe(name, seed) for _ in range(samples))


def timed_run(workload, sizes, seconds):
    """Repeat the operation for about ``seconds``.

    Returns the raw and the calibrated wall time of each operation (see
    :mod:`speed`), and their merged outcome.
    """
    outcome = workloads.Outcome()
    walls, calibrated_walls = [], []
    start = time.perf_counter()
    while True:
        with SpeedSampler() as sampler:
            out = workload.operation(sizes)
        outcome.merge(out)
        walls.append(sampler.wall)
        calibrated_walls.append(sampler.calibrated())
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            return walls, calibrated_walls, outcome


def _timed(workload, sizes):
    t0 = time.perf_counter()
    outcome = workload.operation(sizes)
    return time.perf_counter() - t0, outcome


def traced_run(workload, sizes, seconds):
    """Alternate untraced and traced operations; return per-layer metrics."""
    from tracer import Tracer, layer_metrics

    outcome = workloads.Outcome()
    untraced, traced, per_op = [], [], []
    tracer = Tracer()
    sections = dict(workload.sections)
    start = time.perf_counter()
    while True:
        wall, out = _timed(workload, sizes)
        untraced.append(wall)
        outcome.merge(out)
        workload.sections.update(
            {k: tracer.wrap(f, f"section.{k}") for k, f in sections.items()}
        )
        try:
            with tracer:
                tracer.reset()
                wall, out = _timed(workload, sizes)
        finally:
            workload.sections.update(sections)
        traced.append(wall)
        outcome.merge(out)
        per_op.append(layer_metrics(tracer.summary()))
        elapsed = time.perf_counter() - start
        if elapsed + untraced[-1] + traced[-1] > seconds:
            break
    metrics = {
        name: (statistics.median(op[name][0] for op in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced),
        "s",
    )
    return metrics, outcome


def run(name, seed, seconds, trace, sizes=None, setup_samples=SETUP_SAMPLES):
    """Run one workload; print its metrics and return the result object."""
    workload = workloads.prepare(name, seed)
    sizes = workloads.SIZES[name] if sizes is None else sizes
    print(
        f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} workload={name} seed={seed} sizes={sizes}"
    )
    if trace:
        metrics, outcome = traced_run(workload, sizes, seconds)
    else:
        setup_s = measure_setup(name, seed, setup_samples)
        walls, calibrated_walls, outcome = timed_run(workload, sizes, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "wall_s": (statistics.median(calibrated_walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "accuracy_digits": (outcome.accuracy_digits(), "digits"),
        }
        print(
            f"operations timed: {len(walls)}, uncalibrated wall median "
            f"{statistics.median(walls):.6g} s"
        )
    for metric, (value, unit) in metrics.items():
        print(f"{metric}: {value:.6g} {unit}")
    print(f"failed_share: {outcome.failed / outcome.attempted:.6g} ({outcome.failed}/{outcome.attempted})")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="bench: %(message)s")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
