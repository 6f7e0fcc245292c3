import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscquad import adaptive_gauss, gauss_rule, oracle
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


@pytest.mark.parametrize("n", [12, 30])
def test_rule_matches_a_50_digit_refinement_of_its_nodes(n):
    # numpy's leggauss(30) has weights off by 3e-13, so this pins what the
    # hand-rolled rule is for
    mpmath = pytest.importorskip("mpmath")
    rule = gauss_rule(n)
    with mpmath.workdps(50):
        for x0, w0 in zip(rule.nodes, rule.weights):
            x = mpmath.mpf(float(x0))
            for _ in range(6):
                pn, pm = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                dpn = n * (x * pn - pm) / (x * x - 1)
                x -= pn / dpn
            pn, pm = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            dpn = n * (x * pn - pm) / (x * x - 1)
            w = 2 / ((1 - x * x) * dpn * dpn)
            assert abs(x0 - x) <= 2.3e-16, (n, x0)
            assert abs(w0 - w) <= 1e-14 * w, (n, x0)


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
    integrand = Integrand(f=lambda x: 1.0 + x * x, g=lambda x: lam * x * x)
    res_gauss = adaptive_gauss(integrand, -1.0, 1.0, tol=1e-15)
    res_levin = adaptive_integrate(integrand, -1.0, 1.0, AdaptiveConfig())
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


def record_trios(monkeypatch):
    """Make adaptive_gauss record the (a0, c0, b0) of each trio it evaluates."""
    trios = []
    run_worklist = oracle._run_worklist

    def recording(trio, *rest):
        def recorded(*args):
            trios.append(args)
            return trio(*args)
        return run_worklist(recorded, *rest)

    monkeypatch.setattr(oracle, "_run_worklist", recording)
    return trios


def test_nan_region_is_panel_failure_with_the_partial_sum(monkeypatch):
    # the panels over (0.3, 0.4) fail down to the width floor; everything
    # accepted left of 0.3 is returned
    sampled = []

    def f(x):
        sampled.append(x.size)
        out = np.ones_like(x)
        out[(x > 0.3) & (x < 0.4)] = np.nan
        return out

    trios = record_trios(monkeypatch)
    res = adaptive_gauss(f, 0.0, 1.0)
    assert res.status == "panel_failure"
    assert abs(res.value - 0.3) <= 1e-13
    # every processed interval counts, the failed ones too
    assert res.intervals_used == 3 * len(trios)
    assert res.fevals == sum(sampled) == 90 * len(trios)


def test_trio_samples_each_panel_as_mid_plus_half_times_nodes(monkeypatch):
    # the three panels are sampled in one call, but every point keeps the
    # bits of its own panel's mid + half * node
    sampled = []
    trios = record_trios(monkeypatch)

    def f(x):
        sampled.append(x.copy())
        return np.cos(60 * x)

    res = adaptive_gauss(f, 0.1, 2.3)
    assert res.status == "converged" and len(trios) > 1
    assert type(res.value) is complex
    nodes = gauss_rule(30).nodes
    for (a0, c0, b0), xs in zip(trios, sampled, strict=True):
        h0 = 0.5 * (b0 - a0)
        hh = 0.5 * h0
        want = np.concatenate(((a0 + h0) + h0 * nodes, (a0 + hh) + hh * nodes,
                               (c0 + hh) + hh * nodes))
        assert xs.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, complex(0.0, math.inf)])
def test_non_finite_samples_are_panel_failure(value):
    def f(x):
        out = np.ones_like(x, dtype=np.complex128)
        out[(x > 0.3) & (x < 0.4)] = value
        return out

    res = adaptive_gauss(f, 0.0, 1.0)
    assert res.status == "panel_failure"
    assert abs(res.value - 0.3) <= 1e-13


def test_runs_emit_no_warning_and_keep_the_callers_errstate():
    def raising(x):
        raise KeyError("from fn")

    runs = [(lambda x: np.exp(-1e4 * x), "converged"),  # underflows
            (lambda x: np.sqrt(0.3 - x), "panel_failure"),  # invalid right of 0.3
            # every sample finite, but the weighted sum overflows at any width
            (lambda x: np.full(x.shape, 1e308), "panel_failure"),
            (raising, None)]
    for fn, status in runs:
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            before = np.geterr()
            if status is None:
                with pytest.raises(KeyError):
                    adaptive_gauss(fn, 0.0, 1.0)
            else:
                assert adaptive_gauss(fn, 0.0, 1.0).status == status
            assert np.geterr() == before


def test_concurrent_runs_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    def job(lam):
        res = adaptive_gauss(lambda x: np.exp(1j * lam * x * x) / (1 + x * x), -1.0, 1.0)
        return res.value, res.intervals_used, res.fevals, res.status

    lams = [10.0, 100.0, 1e3, 3e3] * 2
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(job, lams))
    serial = [job(lam) for lam in lams]
    assert parallel == serial


@st.composite
def _integrands(draw):
    """A polynomial f of degree <= 4 (real or complex), a monotone or
    stationary phase g of frequency lam <= 1e3, and a kernel."""
    unit = st.floats(-1.0, 1.0)
    coeffs = np.array(draw(st.lists(unit, min_size=1, max_size=5)))
    if draw(st.booleans()):
        coeffs = coeffs + 1j * np.array(draw(st.lists(unit, min_size=coeffs.size,
                                                     max_size=coeffs.size)))
    lam = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        beta = draw(st.floats(0.0, 1.0))
        g = lambda x: lam * (x + beta * x ** 3)
    else:
        c = draw(st.floats(-0.9, 0.9))
        g = lambda x: lam * (x - c) ** 2
    kernel = draw(st.sampled_from(["exp", "cos", "sin"]))
    return Integrand(f=lambda x: np.polynomial.polynomial.polyval(x, coeffs), g=g,
                     kernel=kernel)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_integrands())
def test_levin_and_gauss_agree_on_random_integrands(integrand):
    res_levin = adaptive_integrate(integrand, -1.0, 1.0, AdaptiveConfig(eps=1e-12))
    res_gauss = adaptive_gauss(integrand, -1.0, 1.0, tol=1e-15)
    assert res_levin.status == res_gauss.status == "converged"
    assert abs(res_levin.value - res_gauss.value) <= 1e-10
