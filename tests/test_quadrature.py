"""Deterministic quadrature rules: periodic trapezoid, Gauss tensor, simplex."""

import numpy as np
import pytest

from hardycorners.quadrature import gauss_rule, simplex_rule, tensor_grid, trapezoid_rule


def test_periodic_exact_on_trig_polynomials():
    t, w = trapezoid_rule(8)
    assert len(t) == 8
    assert np.isclose(np.sum(w * (1.0 + np.cos(t) + np.sin(2 * t))), 2 * np.pi, atol=1e-14)


def test_periodic_two_dimensional():
    params, w = tensor_grid([trapezoid_rule(6)] * 2)
    assert params.shape == (36, 2)
    t, p = params.T
    assert np.isclose(np.sum(w * (1.0 + np.cos(t) * np.cos(p))), (2 * np.pi) ** 2, atol=1e-12)


def test_periodic_spectral_convergence():
    exact = 7.95492652101284  # 2*pi*I_0(1)
    t, w = trapezoid_rule(24)
    assert np.isclose(np.sum(w * np.exp(np.cos(t))), exact, atol=1e-12)


def test_gauss_rule_polynomial_exactness():
    x, w = gauss_rule(0.0, 1.0, 5)
    for k in range(10):  # degree <= 2*5 - 1
        assert np.isclose(np.sum(w * x**k), 1.0 / (k + 1), atol=1e-14)


def test_gauss_rule_respects_interval():
    x, w = gauss_rule(-2.0, 3.0, 8)
    assert np.all(x > -2.0) and np.all(x < 3.0)
    assert np.isclose(np.sum(w), 5.0)


def test_gauss_rule_cached_nodes_are_never_handed_out():
    x, w = gauss_rule(-1.0, 1.0, 6)
    x2, w2 = gauss_rule(-1.0, 1.0, 6)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(w, w2)
    assert x.flags.writeable and w.flags.writeable
    x[:] = 0.0
    w *= 2.0
    x3, w3 = gauss_rule(-1.0, 1.0, 6)
    np.testing.assert_array_equal(x3, x2)
    np.testing.assert_array_equal(w3, w2)
    assert not np.shares_memory(x3, x2) and not np.shares_memory(w3, w2)


def test_patch_tensor_polynomial():
    params, w = tensor_grid([gauss_rule(0.0, 1.0, 6), gauss_rule(0.0, 2.0, 6)])
    x, y = params.T
    assert np.isclose(np.sum(w * x * y**2), 0.5 * (8.0 / 3.0), atol=1e-13)


def test_patch_single_axis_complex_integrand():
    x, w = gauss_rule(0.0, np.pi, 12)
    assert np.isclose(np.sum(w * np.exp(1j * x)), 2j, atol=1e-12)


def test_simplex_measure_n2():
    nodes, w = simplex_rule(2, 8)
    assert np.isclose(np.sum(w), 1.0, atol=1e-14)  # dw1 over 0 <= w1 <= 1
    assert np.isclose(np.sum(w * nodes[:, 0]), 0.5, atol=1e-14)


def test_simplex_measure_n3():
    nodes, w = simplex_rule(3, 8)
    assert np.isclose(np.sum(w), 0.5, atol=1e-13)  # triangle area
    assert np.isclose(np.sum(w * nodes[:, 2]), 1.0 / 6.0, atol=1e-13)


def test_simplex_barycentric_argument():
    # every node is a full barycentric vector: non-negative, summing to one
    for n in (2, 3):
        nodes, w = simplex_rule(n, 4)
        assert nodes.shape == (4 ** (n - 1), n) and w.shape == (4 ** (n - 1),)
        assert np.all(nodes >= 0) and np.all(w > 0)
        np.testing.assert_allclose(np.sum(nodes, axis=1), 1.0, rtol=0, atol=1e-15)


def test_simplex_validates_arguments():
    with pytest.raises(ValueError):
        simplex_rule(4, 8)
    with pytest.raises(ValueError):
        simplex_rule(2, 1)
