"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 bench/setup_probe.py <workload> <seed>``.  Prints the
calibrated seconds (see :mod:`speed`) from before ``hardycorners`` and
``numpy`` are imported until the workload's domains and inputs are ready.
``run.py`` starts this several times and reports the median as ``setup_s``.
"""

import sys

from speed import SpeedSampler

with SpeedSampler() as sampler:
    import run  # sets the thread counts, then imports numpy and hardycorners

    run.workloads.prepare(sys.argv[1], int(sys.argv[2]))
print(repr(sampler.calibrated()))
