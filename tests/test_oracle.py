import math

import numpy as np
import pytest

from oscquad import adaptive_gauss, gauss_rule
from oscquad import AdaptiveConfig, Integrand, adaptive_integrate


def test_rule_n1():
    rule = gauss_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=0)
    np.testing.assert_allclose(rule.weights, [2.0], atol=1e-15)


def test_rule_n2():
    rule = gauss_rule(2)
    r = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(rule.nodes, [-r, r], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_rule_n3():
    rule = gauss_rule(3)
    r = math.sqrt(3.0 / 5.0)
    np.testing.assert_allclose(rule.nodes, [-r, 0.0, r], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)


def test_rule_invariants():
    for n in (1, 2, 3, 7, 30, 64):
        rule = gauss_rule(n)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14
        assert np.all(rule.weights > 0)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.all(np.abs(rule.nodes) < 1.0)


def test_rule_degree_exactness():
    for n in (5, 30):
        rule = gauss_rule(n)
        for m in range(2 * n):
            exact = 0.0 if m % 2 else 2.0 / (m + 1)
            got = float(rule.weights @ rule.nodes ** m)
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), (n, m)


def test_rule_bounds():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(201)


def test_adaptive_polynomial():
    res = adaptive_gauss(lambda x: x * x, -1.0, 1.0)
    assert res.status == "converged"
    assert abs(res.value - 2.0 / 3.0) <= 1e-14


def test_adaptive_exponential():
    res = adaptive_gauss(np.exp, 0.0, 1.0)
    assert abs(res.value - (math.e - 1.0)) <= 1e-14


def test_adaptive_agrees_with_collocation_route():
    lam = 100.0
    res_gauss = adaptive_gauss(lambda x: (1 + x * x) * np.exp(1j * lam * x * x),
                               -1.0, 1.0, tol=1e-15)
    res_levin = adaptive_integrate(
        Integrand(f=lambda x: 1.0 + x * x, g=lambda x: lam * x * x),
        -1.0, 1.0, AdaptiveConfig())
    assert res_gauss.status == res_levin.status == "converged"
    assert abs(res_gauss.value - res_levin.value) <= 5e-11


def test_adaptive_counts_and_validation():
    res = adaptive_gauss(lambda x: np.sin(3 * x) ** 2, 0.0, 2.0)
    assert res.fevals % 90 == 0
    assert res.intervals_used % 3 == 0
    for a, b in ((1.0, 0.0), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            adaptive_gauss(np.exp, a, b)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            adaptive_gauss(np.exp, 0.0, 1.0, tol=tol)


def test_nan_region_is_panel_failure_with_the_partial_sum():
    # the panels over (0.3, 0.4) fail down to the width floor; everything
    # accepted left of 0.3 is returned
    def f(x):
        out = np.ones_like(x)
        out[(x > 0.3) & (x < 0.4)] = np.nan
        return out

    res = adaptive_gauss(f, 0.0, 1.0)
    assert res.status == "panel_failure"
    assert abs(res.value - 0.3) <= 1e-13
