"""Each polynomial's derivatives are derived once: no evaluation path re-derives them.

After one warm-up call of every array path on a domain, ``Poly.diff`` is
made to raise; the same calls must then run, and give the same numbers, from
the derivative polynomials cached on the domain's members alone.  The
domain's cache of reproducing factors and measure pieces is cleared first,
so that ``reproduce`` and ``hardy_norm`` build them again under the guard.
"""

import numpy as np
import pytest

from hardycorners.cli import load_spec
from hardycorners.domain import check_strict_convexity, domain_from_spec
from hardycorners.hermpoly import Poly
from hardycorners.kernels import pushforward_corner_check
from hardycorners.measures import hardy_norm, reproduce
from hardycorners.normalforms import eta


def test_array_paths_never_rederive_polynomials(monkeypatch):
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    edge_points = d.edges[0].chart.nodes(8).points
    zhat = edge_points[5]
    tau = np.array([0.1 + 0.05j, -0.2 + 0.1j])

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    def run():
        return [
            reproduce(d, f, tau, resolution=8, face_resolution=6)["value"],
            hardy_norm(d, f, resolution=6, edge_resolution=8)["total"],
            eta(d, edge_points).eta_weight,
            pushforward_corner_check(d, zhat, np.array([1.0, *tau]))["fiber"],
            check_strict_convexity(d, zhat)["min_margin"],
        ]

    warm = run()

    def no_diff(self, var):
        raise AssertionError(f"Poly.diff({var!r}) called after the warm-up")

    monkeypatch.setattr(Poly, "diff", no_diff)
    with pytest.raises(AssertionError, match="after the warm-up"):
        d.rho(0).diff("z1")
    # reproduce and hardy_norm would otherwise reuse what the warm-up built
    d._cache.clear()
    for before, after in zip(warm, run()):
        np.testing.assert_array_equal(before, after)
