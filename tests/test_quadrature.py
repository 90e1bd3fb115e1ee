"""Deterministic quadrature engines: periodic trapezoid, Gauss tensor, simplex."""

import numpy as np
import pytest

from hardycorners.quadrature import (
    QuadResult,
    gauss_rule,
    integrate_patch,
    integrate_periodic,
    integrate_simplex,
)


def test_periodic_exact_on_trig_polynomials():
    res = integrate_periodic(lambda t: 1.0 + np.cos(t) + np.sin(2 * t), 8)
    assert np.isclose(res.value, 2 * np.pi, atol=1e-14)
    assert res.nodes_used == 8


def test_periodic_two_dimensional():
    res = integrate_periodic(
        lambda t, p: 1.0 + np.cos(t) * np.cos(p), 6, dim=2
    )
    assert np.isclose(res.value, (2 * np.pi) ** 2, atol=1e-12)
    assert res.nodes_used == 36


def test_periodic_spectral_convergence():
    f = lambda t: np.exp(np.cos(t))  # noqa: E731 - analytic, 2*pi periodic
    exact = 7.95492652101284  # 2*pi*I_0(1)
    res = integrate_periodic(f, 24)
    assert np.isclose(res.value, exact, atol=1e-12)
    assert res.error_estimate < 1e-6


def test_periodic_rejects_odd_or_tiny_n():
    with pytest.raises(ValueError):
        integrate_periodic(np.cos, 7)
    with pytest.raises(ValueError):
        integrate_periodic(np.cos, 2)
    with pytest.raises(ValueError):
        integrate_periodic(np.cos, 8, dim=4)


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
    res = integrate_patch(lambda x, y: x * y**2, [(0.0, 1.0), (0.0, 2.0)], 6)
    assert np.isclose(res.value, 0.5 * (8.0 / 3.0), atol=1e-13)


def test_patch_single_axis_complex_integrand():
    res = integrate_patch(lambda x: np.exp(1j * x), [(0.0, np.pi)], 12)
    assert np.isclose(res.value, 2j, atol=1e-12)


def test_patch_validates_arguments():
    with pytest.raises(ValueError):
        integrate_patch(lambda x: x, [(0, 1)], 1)
    with pytest.raises(ValueError):
        integrate_patch(lambda *a: 1.0, [(0, 1)] * 4, 4)


def test_simplex_measure_n2():
    res = integrate_simplex(lambda w: 1.0, 2, 8)
    assert np.isclose(res.value, 1.0, atol=1e-14)  # dw1 over 0 <= w1 <= 1
    res = integrate_simplex(lambda w: w[0], 2, 8)
    assert np.isclose(res.value, 0.5, atol=1e-14)


def test_simplex_measure_n3():
    res = integrate_simplex(lambda w: 1.0, 3, 8)
    assert np.isclose(res.value, 0.5, atol=1e-13)  # triangle area
    res = integrate_simplex(lambda w: w[2], 3, 8)
    assert np.isclose(res.value, 1.0 / 6.0, atol=1e-13)


def test_simplex_barycentric_argument():
    # the integrand receives the full barycentric vector summing to one
    def f(w):
        assert np.isclose(np.sum(w), 1.0)
        assert np.all(w >= -1e-15)
        return np.sum(w)

    res = integrate_simplex(f, 3, 4)
    assert np.isclose(res.value, 0.5, atol=1e-13)


def test_simplex_validates_arguments():
    with pytest.raises(ValueError):
        integrate_simplex(lambda w: 1.0, 4, 8)
    with pytest.raises(ValueError):
        integrate_simplex(lambda w: 1.0, 2, 1)


def test_error_estimate_reflects_refinement():
    # a rough integrand shows a nonzero self-consistency estimate
    res = integrate_periodic(lambda t: np.abs(np.sin(t)) ** 3, 8)
    assert res.error_estimate > 0
    fine = integrate_periodic(lambda t: np.abs(np.sin(t)) ** 3, 64)
    assert fine.error_estimate < res.error_estimate


def test_quadresult_is_frozen():
    res = integrate_periodic(np.cos, 8)
    assert isinstance(res, QuadResult)
    with pytest.raises(AttributeError):
        res.value = 0.0
