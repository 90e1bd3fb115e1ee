"""Calibrated timing on a shared host.

The benchmark runs on small shared machines whose speed drifts by tens of
percent within minutes, and changes again within a second.  Raw wall times
of the same operation then spread far more than the bounds the benchmark
sets.  :class:`SpeedSampler` measures the machine's speed *during* the timed
code: every ``INTERVAL_S`` of wall time a timer signal runs
:func:`reference_work`, a fixed piece of pure-Python work that uses nothing
from ``hardycorners``, and records how long it took.  The calibrated time is
the timed code's own wall time (the samples' time taken out), rescaled to
the speed at which one reference sample takes ``REFERENCE_S``.

This module imports nothing beyond the standard library, so that a set-up
probe can start sampling before ``numpy`` or ``hardycorners`` is imported.
"""

import signal
import time

# Wall seconds between speed samples; each sample takes about a millisecond,
# so sampling adds about 5% to the wall time (and nothing to calibrated time).
INTERVAL_S = 0.02
# Calibrated seconds are seconds at the speed at which one reference_work()
# call takes this long.  On the 2-core x86-64 VM (CPython 3.11) the bounds
# were set on, it takes 1.0-1.5 ms.
REFERENCE_S = 0.001


def reference_work():
    """About a millisecond of complex arithmetic over a small monomial table.

    It mimics the interpreter-bound inner loops of the library (polynomial
    evaluation in Python); its result is discarded.
    """
    terms = {(1, 1, 0, 0): 1.0, (0, 0, 1, 1): 0.1, (0, 0, 0, 0): -1.0, (2, 1, 0, 1): 0.3j}
    acc = 0j
    for i in range(500):
        z1 = complex(0.3 + 1e-5 * i, 0.1)
        z2 = complex(0.2, -0.1)
        z1b, z2b = z1.conjugate(), z2.conjugate()
        for (p1, q1, p2, q2), c in terms.items():
            acc += c * z1**p1 * z1b**q1 * z2**p2 * z2b**q2
        acc = acc * 0.5 + abs(acc) * 1e-3
    return acc


class SpeedSampler:
    """Times a ``with`` block and samples the machine's speed while it runs.

    After the block, ``wall`` is the block's wall time without the samples'
    time and :meth:`calibrated` its calibrated time.  Uses ``SIGALRM`` and
    the real-time interval timer, so only one sampler may be active at a
    time, in the main thread.
    """

    def __init__(self):
        self.samples = []
        self.wall = None
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = elapsed - sum(self.samples)
        if not self.samples:  # a block shorter than one interval
            self._sample()

    def calibrated(self):
        """Wall seconds of the block at the reference speed.

        Each sample stands for an equal slice of the block; the work done in
        a slice is proportional to its length over the sample's duration.
        """
        mean_speed = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        return self.wall * mean_speed
