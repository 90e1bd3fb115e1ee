"""Seeded inputs, the three benchmark workloads and their correctness gate.

Each workload is split in two.  ``prepare`` is the set-up the benchmark
times as ``setup_s``: it loads the built-in specs, builds (and, for
``norm_invariance``, transforms) the domains and draws every input from the
seed.  The prepared :class:`Workload` then runs one *operation* at a time;
an operation is the same list of library calls (tasks) on the same inputs
every time, so repeated operations are comparable.

Every library call is checked against the tolerance of the acceptance
criterion its configuration comes from (08: 1e-4, 06: 1e-10, 14: 1e-5).  A
call that raises one of the library's documented errors counts as failed
and the run goes on.

Library functions are looked up through their modules at call time
(``measures.reproduce``, ``projective.pull_back_section``), so that the
traced run's wrappers see these calls.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hardycorners import cli, domain, measures, projective

log = logging.getLogger("bench")

# The errors the library documents for a failed projection, a kernel pole or
# a bad input.  Any other exception is a defect and aborts the run.
CAUGHT = (ZeroDivisionError, RuntimeError, ValueError)

# Resolutions of each workload: the configuration of the acceptance
# criterion it comes from, on one thread.
SIZES = {
    "curved_reproduce": {"resolution": 24, "edge_resolution": 12},
    "flat_corner_taus": {"face_resolution": 6, "edge_resolution": 64},
    "norm_invariance": {"resolution": 12, "edge_resolution": 8},
}

TOLERANCES = {
    "curved_reproduce": 1e-4,  # criterion 08
    "flat_corner_taus": 1e-10,  # criterion 06
    "norm_invariance": 1e-5,  # criterion 14
}

# Range (lo, hi) of the moduli |tau_1|, |tau_2| of the interior points.  The
# torus quadrature with n nodes per axis errs by about |tau_l|**n, so on
# curved_reproduce's 12-node edge the accuracy depends on the moduli far more
# than on anything else: they are fixed there and only the phases and the
# cubic vary with the seed.  Moduli up to 0.6 keep criterion 06's 64-node
# edge at roundoff.
TAU_MODULI = {"curved_reproduce": (0.25, 0.25), "flat_corner_taus": (0.0, 0.6)}
N_TAUS = {"curved_reproduce": 1, "flat_corner_taus": 5}
N_MAPS = 2
MAP_SCALE = 0.06

# Relative errors below double-precision unit roundoff read as roundoff.
ERROR_FLOOR = 2.0**-53


def generic_cubic(rng):
    """Coefficients c_jk, j + k <= 3, of a random holomorphic cubic."""
    return {
        (j, k): complex(rng.standard_normal(), rng.standard_normal())
        for j in range(4)
        for k in range(4 - j)
    }


def cubic_section(coeffs):
    """The cubic sum c_jk z1^j z2^k as a callable of an affine point."""

    def f(z):
        return sum(c * z[0] ** j * z[1] ** k for (j, k), c in coeffs.items())

    return f


def interior_tau(rng, d, moduli, attempts=1000):
    """A point that ``d`` contains, with |tau_l| uniform over an annulus.

    ``moduli`` is the (inner, outer) radius of the annulus of each coordinate.
    """
    lo, hi = moduli
    for _ in range(attempts):
        r = np.sqrt(lo**2 + (hi**2 - lo**2) * rng.random(2))
        tau = r * np.exp(2j * np.pi * rng.random(2))
        if d.contains(tau):
            return tau
    raise ValueError(f"no interior point found in {attempts} draws")


def unimodular_map(rng, scale):
    """A random unimodular map at a fixed distance from the identity.

    The perturbation has a random direction and the Frobenius norm that
    ``scale * (N + iN)`` has on average, for N a standard normal 3x3 matrix;
    fixing the norm keeps the invariance error from depending on the seed
    through the size of the map.
    """
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.eye(3) + scale * np.sqrt(18.0) * x / np.linalg.norm(x)
    return projective.normalize_map(m)


@dataclass
class Outcome:
    """Error figures and failures of one or more operations."""

    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, call: Callable[[], float | None], tol: float, what: str):
        """Run one library call; ``call`` returns its error figure or None."""
        self.attempted += 1
        try:
            err = call()
        except CAUGHT as exc:
            self.failed += 1
            log.warning("%s raised %s: %s", what, type(exc).__name__, exc)
            return
        if err is None:
            return
        self.errors.append(err)
        if not err <= tol:  # also true for NaN
            self.failed += 1
            log.warning("%s: error %.3e exceeds tolerance %.0e", what, err, tol)

    def merge(self, other):
        self.errors.extend(other.errors)
        self.attempted += other.attempted
        self.failed += other.failed

    def accuracy_digits(self):
        """-log10 of the worst error figure; 0 when no call produced one."""
        if not self.errors:
            return 0.0
        return -math.log10(max(max(self.errors), ERROR_FLOOR))


@dataclass
class Workload:
    """A prepared workload: an operation is its tasks, run in order.

    Each task is one checked library call: ``(label, call)``, where
    ``call(sizes)`` returns the call's error figure, or None when the call
    has no figure of its own.
    """

    name: str
    tasks: list
    # The benchmark's own callables of points; the traced run wraps them so
    # their time is not charged to the library layer that calls them.
    sections: dict

    def operation(self, sizes):
        """Run one operation; return its outcome."""
        outcome = Outcome()
        for label, task in self.tasks:
            outcome.check(functools.partial(task, sizes), TOLERANCES[self.name], label)
        return outcome


def _rel(value, expected):
    return abs(complex(value) - expected) / abs(expected)


def _reproduce_tasks(name, rng, spec):
    d = domain.domain_from_spec(cli.load_spec(spec))
    coeffs = generic_cubic(rng)
    taus = [interior_tau(rng, d, TAU_MODULI[name]) for _ in range(N_TAUS[name])]
    sections = {"f": cubic_section(coeffs)}

    def reproduce_at(tau, sizes):
        f = sections["f"]
        return _rel(measures.reproduce(d, f, tau, **sizes)["value"], f(tau))

    tasks = [
        (f"reproduce at tau #{i}", functools.partial(reproduce_at, tau))
        for i, tau in enumerate(taus)
    ]
    return tasks, sections


def _norm_tasks(rng):
    d = domain.domain_from_spec(cli.load_spec("perturbed_bidisk"))
    moved = []
    for _ in range(N_MAPS):
        g = unimodular_map(rng, MAP_SCALE)
        moved.append((domain.transform_domain(d, g), g.inverse()))

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    sections = {"f": f}
    section = projective.Section(lambda z: sections["f"](z), bidegree=(-2, 0))
    # The base task's norm, which the image tasks after it compare with.
    base = []

    def base_norm(sizes):
        base.clear()
        total = measures.hardy_norm(d, sections["f"], **sizes)["total"]
        if not (math.isfinite(total) and total > 0):
            raise ValueError(f"squared norm {total!r} is not positive")
        base.append(total)

    def image_err(moved_domain, ginv, sizes):
        def f_moved(zp):
            return projective.pull_back_section(ginv, section, zp).value

        image = measures.hardy_norm(moved_domain, f_moved, **sizes)["total"]
        if not base:
            raise ValueError("no base norm to compare with")
        return abs(image - base[0]) / base[0]

    tasks = [("base norm", base_norm)] + [
        (f"norm of image #{i}", functools.partial(image_err, dm, ginv))
        for i, (dm, ginv) in enumerate(moved)
    ]
    return tasks, sections


def prepare(name, seed):
    """Build the domains and draw the inputs of a workload from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "curved_reproduce":
        tasks, sections = _reproduce_tasks(name, rng, "perturbed_bidisk")
    elif name == "flat_corner_taus":
        tasks, sections = _reproduce_tasks(name, rng, "bidisk")
    elif name == "norm_invariance":
        tasks, sections = _norm_tasks(rng)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(SIZES)}")
    return Workload(name=name, tasks=tasks, sections=sections)
