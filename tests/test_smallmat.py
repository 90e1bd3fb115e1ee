"""Closed-form 2x2/3x3/4x4 algebra: agreement with numpy.linalg, and no LAPACK on the hot path.

``det2``/``solve2``/``det3``/``inv3``/``det4`` are checked against
``numpy.linalg`` on seeded random stacks at relative tolerance 1e-12, for
real and complex entries, for a single matrix, a stack and a stack with an
extra leading axis, and for matrices rescaled by 1e-8 and 1e8.  The random
matrices are ``k * I`` plus standard normal noise, so their determinants and
inverses are well conditioned and a relative comparison is meaningful.
"""

import numpy as np
import pytest

from hardycorners.cli import load_spec
from hardycorners.domain import domain_from_spec, transform_domain
from hardycorners.measures import hardy_norm, reproduce
from hardycorners.projective import det2, det3, det4, inv3, solve2

from conftest import random_unit_det_map

SHAPES = [(), (7,), (3, 5)]
SCALES = [1e-8, 1.0, 1e8]
RTOL = 1e-12


def _stack(seed, lead, k, dtype, scale=1.0, cols=None):
    """Seeded ``lead + (k, k)`` matrices ``k I + noise`` (or ``lead + (k, cols)`` noise)."""
    rng = np.random.default_rng(seed)
    shape = lead + (k, k if cols is None else cols)
    a = rng.standard_normal(shape)
    if dtype is complex:
        a = a + 1j * rng.standard_normal(shape)
    if cols is None:
        a = a + k * np.eye(k)
    return scale * a


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("k, det", [(2, det2), (3, det3), (4, det4)])
def test_determinants_match_numpy(k, det, scale, lead, dtype):
    a = _stack(k, lead, k, dtype, scale)
    ours = det(a)
    assert np.shape(ours) == lead
    assert np.iscomplexobj(ours) == (dtype is complex)
    np.testing.assert_allclose(ours, np.linalg.det(a), rtol=RTOL, atol=0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
def test_inv3_matches_numpy(scale, lead, dtype):
    a = _stack(3, lead, 3, dtype, scale)
    ours = inv3(a)
    ref = np.linalg.inv(a)
    assert ours.shape == ref.shape
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("cols", [1, 4])
def test_solve2_matches_numpy(cols, scale, lead, dtype):
    a = _stack(2, lead, 2, dtype, scale)
    b = _stack(5, lead, 2, dtype, scale, cols=cols)
    ref = np.linalg.solve(a, b)
    ours = solve2(a, b, det2(a))
    assert ours.shape == ref.shape
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


def test_solve2_broadcasts_one_matrix_over_right_hand_sides():
    a = _stack(2, (), 2, complex)
    b = _stack(3, (6,), 2, complex, cols=3)
    ref = np.linalg.solve(np.broadcast_to(a, (6, 2, 2)), b)
    ours = solve2(a, b, det2(a))
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


def test_hot_paths_call_no_lapack(monkeypatch):
    """``reproduce`` and ``hardy_norm`` (plain and transformed) run without numpy.linalg's det/solve/inv.

    The domains and the map are built first: constructing a projective map
    takes one single-matrix determinant, which is not on the per-node path.
    """
    bidisk = domain_from_spec(load_spec("bidisk"))
    perturbed = domain_from_spec(load_spec("perturbed_bidisk"))
    moved = transform_domain(perturbed, random_unit_det_map(np.random.default_rng(6), scale=0.06))
    tau = np.array([0.2 + 0.1j, -0.3 + 0.05j])

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    def run():
        return [
            reproduce(bidisk, f, tau, face_resolution=6, edge_resolution=16)["value"],
            hardy_norm(perturbed, f, resolution=6, edge_resolution=8)["total"],
            hardy_norm(moved, f, resolution=6, edge_resolution=8)["total"],
        ]

    before = run()

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called on a per-node path")

        return call

    for name in ("det", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    with pytest.raises(AssertionError, match="per-node path"):
        np.linalg.det(np.eye(3))
    # reproduce and hardy_norm would otherwise reuse what the first run built
    for d in (bidisk, perturbed, moved):
        d._cache.clear()
    np.testing.assert_array_equal(run(), before)
