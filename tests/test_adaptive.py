import math
import warnings

import numpy as np
import pytest

from oscquad import AdaptiveConfig, Integrand, adaptive, adaptive_integrate
from oscquad.adaptive import accepted_pair_update
from oscquad.levin import panel_trio


def test_accept_exact_split():
    assert accepted_pair_update(1 + 0j, 0.5 + 0j, 0.5 + 0j, 1e-12)


def test_split_on_large_difference():
    assert not accepted_pair_update(1 + 0j, 0.5 + 0j, 0.4 + 0j, 1e-3)


def test_boundary_difference_splits():
    # strict inequality: a difference of exactly eps is not accepted
    assert not accepted_pair_update(1.0 + 0j, 0.5 + 0j, 0.5 - 1e-3 + 0j, 1e-3)


def test_arctan_phase_unit_value():
    integrand = Integrand(f=lambda x: 1.0 / (1 + x * x),
                          g=lambda x: 2.0 * np.arctan(x), kernel="cos")
    res = adaptive_integrate(integrand, -1.0, 1.0)
    assert res.status == "converged"
    assert abs(res.value - 1.0) <= 1e-12


def test_zero_integrand():
    res = adaptive_integrate(Integrand(f=lambda x: 0.0 * x, g=lambda x: 1e6 * x),
                             -1.0, 1.0)
    assert res.status == "converged"
    assert res.value == 0.0
    assert res.intervals_used == 3


def test_exponential_phase_closed_form():
    lam = 1e3
    integrand = Integrand(f=np.exp, g=lambda x: lam * np.exp(x))
    res = adaptive_integrate(integrand, 0.0, 10.0)
    want = (1j / lam) * (np.exp(1j * lam) - np.exp(1j * (lam * np.exp(10.0))))
    assert res.status == "converged"
    assert abs(res.value - want) <= 1e-11


def test_additivity():
    integrand = Integrand(f=lambda x: np.exp(-x) * x, g=lambda x: 500.0 * x * x)
    config = AdaptiveConfig()
    whole = adaptive_integrate(integrand, 0.0, 1.0, config)
    left = adaptive_integrate(integrand, 0.0, 0.31, config)
    right = adaptive_integrate(integrand, 0.31, 1.0, config)
    assert whole.status == left.status == right.status == "converged"
    assert abs(whole.value - (left.value + right.value)) <= 4.0 * config.eps


def test_determinism():
    integrand = Integrand(f=lambda x: 1.0 / (0.01 + x ** 4),
                          g=lambda x: 777.0 * x ** 4)
    a = adaptive_integrate(integrand, -1.0, 1.0)
    b = adaptive_integrate(integrand, -1.0, 1.0)
    assert a.value == b.value
    assert a.intervals_used == b.intervals_used
    assert a.fevals == b.fevals


def test_budget_exhaustion(monkeypatch):
    integrand = Integrand(f=lambda x: np.cos(x) / (1 + x * x),
                          g=lambda x: 1e6 * x * x)
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", 3)
    res = adaptive_integrate(integrand, -1.0, 1.0)
    assert res.status == "budget_exhausted"
    assert np.isfinite(res.value)


def test_width_floor(monkeypatch):
    integrand = Integrand(f=lambda x: np.cos(x) / (1 + x * x),
                          g=lambda x: 1e5 * x * x)
    monkeypatch.setattr(adaptive, "MIN_WIDTH_FACTOR", 0.6)
    res = adaptive_integrate(integrand, 0.0, 1.0)
    assert res.status == "width_floor"


def test_panel_failure_after_splitting_to_floor(monkeypatch):
    # a wide non-finite region cannot be stepped over by subdivision, so
    # the failing panels split down to the width floor and the run stops
    sampled = []

    def f(x):
        sampled.append(x.size)
        out = np.ones_like(x)
        out[(x > 0.3) & (x < 0.4)] = np.nan
        return out

    trios = []

    def counted(*args):
        trios.append(args)
        return panel_trio(*args)

    monkeypatch.setattr(adaptive, "panel_trio", counted)
    res = adaptive_integrate(Integrand(f=f, g=lambda x: 0.0 * x), 0.0, 1.0)
    assert res.status == "panel_failure"
    assert np.isfinite(res.value)
    # every processed interval counts, the failed ones and their nudges too
    assert res.intervals_used == 3 * len(trios)
    assert res.fevals == sum(sampled)


def test_overflow_in_the_solve_is_panel_failure():
    # f = 1e308 overflows the truncated solve on either solver: every panel
    # fails, without a warning or a bare scipy ValueError
    integrand = Integrand(f=lambda x: 1e308 * np.ones_like(x), g=lambda x: x)
    for solver in ("qr", "svd"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = adaptive_integrate(integrand, 0.0, 1.0, AdaptiveConfig(solver=solver))
        assert res.status == "panel_failure", solver


def test_counts():
    integrand = Integrand(f=lambda x: 1.0 + x * x, g=lambda x: 50.0 * x * x)
    res = adaptive_integrate(integrand, -1.0, 1.0)
    assert res.intervals_used >= 3
    assert res.intervals_used % 3 == 0
    # three panels of 12 nodes per processed interval, no nudges here
    assert res.fevals == 12 * res.intervals_used


def test_svd_and_qr_drivers_agree():
    integrand = Integrand(f=lambda x: 1.0 + x * x, g=lambda x: 300.0 * x * x)
    r1 = adaptive_integrate(integrand, -1.0, 1.0, AdaptiveConfig(solver="qr"))
    r2 = adaptive_integrate(integrand, -1.0, 1.0, AdaptiveConfig(solver="svd"))
    assert abs(r1.value - r2.value) <= 1e-11


def test_config_validation():
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            AdaptiveConfig(eps=eps)
    with pytest.raises(ValueError):
        AdaptiveConfig(k=3)
    with pytest.raises(ValueError):
        AdaptiveConfig(solver="lu")
    for a, b in ((0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            adaptive_integrate(Integrand(f=lambda x: x, g=lambda x: x), a, b)


def test_concurrent_integrals_match_serial():
    # distinct integrals may run concurrently; results stay bit-identical
    from concurrent.futures import ThreadPoolExecutor

    def job(lam):
        integrand = Integrand(f=lambda x: 1.0 / (1 + x * x),
                              g=lambda x, lam=lam: lam * x * x)
        return adaptive_integrate(integrand, -1.0, 1.0).value

    lams = [10.0, 100.0, 1e3, 1e4] * 2
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(job, lams))
    serial = [job(lam) for lam in lams]
    assert parallel == serial
