import cmath
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import dawsn, exp1, sici

from oscquad import (AdaptiveConfig, Integrand, PanelError, adaptive, adaptive_gauss,
                     adaptive_integrate, chebyshev, linalg, oracle)
from oscquad.adaptive import QuadResult, accepted_pair_update
from oscquad.levin import panel_values
from oscquad.reference import evaluate_levin, integrand_for, oracle_integrand
from helpers import panel_bits, record_passes


def test_accept_exact_split():
    assert accepted_pair_update(1 + 0j, 0.5 + 0j, 0.5 + 0j, 1e-12)


def test_split_on_large_difference():
    assert not accepted_pair_update(1 + 0j, 0.5 + 0j, 0.4 + 0j, 1e-3)


def test_boundary_difference_splits():
    # strict inequality: a difference of exactly eps is not accepted
    assert not accepted_pair_update(1.0 + 0j, 0.5 + 0j, 0.5 - 1e-3 + 0j, 1e-3)


@pytest.mark.parametrize("scale", [1e2, 1e4, 1e5, 1e6, 1e8])
def test_large_integrand_converges_at_its_roundoff(scale):
    # eps=1e-12 is below the rounding of values of size `scale`; the
    # acceptance floor at 16 machine epsilons of the panel values lets both
    # routes accept in one trio instead of splitting toward the budget
    integrand = Integrand(f=lambda x: scale * np.exp(x), g=lambda x: 10.0 * x)
    want = scale * (np.exp(1 + 10j) - 1) / (1 + 10j)
    for res in (adaptive_integrate(integrand, 0.0, 1.0),
                adaptive_gauss(integrand, 0.0, 1.0)):
        assert res.status == "converged"
        assert res.intervals_used <= 9
        assert abs(res.value - want) <= 1e-14 * abs(want)


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
    panel_trio = adaptive.panel_trio

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


def test_phase_overflowing_to_inf_is_panel_failure():
    # g overflows to inf right of 0.3: the panels there fail without a
    # warning, their endpoint phases exp(i g) included
    integrand = Integrand(f=lambda x: np.ones_like(x),
                          g=lambda x: x + np.exp(np.where(x > 0.3, 1000.0, 0.0)))
    for solver in ("qr", "svd"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = adaptive_integrate(integrand, 0.0, 1.0, AdaptiveConfig(solver=solver))
        assert res.status == "panel_failure", solver


def test_overflowing_sum_is_overflow():
    # every panel is finite, the sum of them is not: the run stops at the
    # first accepted panel that would overflow it and keeps the finite sum
    integrand = Integrand(f=lambda x: np.full_like(x, 1e306), g=lambda x: 0.0 * x)
    res = adaptive_integrate(integrand, 0.0, 300.0)
    assert res.status == "overflow"
    assert res.value == 1.5e308


def _scripted_run(steps, a=0.0, b=1.0):
    """_run_worklist over a step that reads (v0, accepted, nevals) from
    ``steps`` by (a0, b0), with no solver; returns the result and the
    intervals the step was called on, in order."""
    calls = []

    def step(a0, c0, b0):
        assert c0 == 0.5 * (a0 + b0)
        calls.append((a0, b0))
        return steps[a0, b0]

    return adaptive._run_worklist(step, a, b), calls


def test_worklist_splits_left_first_and_sums_left_to_right():
    # [0, 1] is rejected and its left half failed above the floor: both are
    # split, left half first.  1 + 1e-16 + 1e-16 is 1.0 summed left to
    # right, and 1.0000000000000002 summed right to left
    res, calls = _scripted_run({
        (0.0, 1.0): (5.0 + 0j, False, 1),
        (0.0, 0.5): (None, False, 2),
        (0.0, 0.25): (1.0 + 0j, True, 4),
        (0.25, 0.5): (1e-16 + 0j, True, 8),
        (0.5, 1.0): (1e-16 + 0j, True, 16),
    })
    assert calls == [(0.0, 1.0), (0.0, 0.5), (0.0, 0.25), (0.25, 0.5), (0.5, 1.0)]
    assert res == QuadResult(value=1.0 + 0j, intervals_used=15, fevals=31,
                             status="converged")


def test_worklist_stops_a_failed_interval_whose_halves_pass_no_floor(monkeypatch):
    # floor 0.3: [0, 1] fails and splits, [0.5, 1] fails with halves of 0.25
    monkeypatch.setattr(adaptive, "MIN_WIDTH_FACTOR", 0.3)
    res, calls = _scripted_run({
        (0.0, 1.0): (None, False, 1),
        (0.0, 0.5): (0.25 + 0j, True, 2),
        (0.5, 1.0): (None, False, 4),
    })
    assert calls == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]
    assert res == QuadResult(value=0.25 + 0j, intervals_used=9, fevals=7,
                             status="panel_failure")


def test_worklist_tests_the_rounded_halves_against_the_floor(monkeypatch):
    # the computed half-width (b0 - a0) / 2 of this interval passes the
    # floor, its rounded left half c0 - a0 does not: a failure stops here
    a0, b0 = 4.808190853639753, 4.808190853639799
    c0 = 0.5 * (a0 + b0)
    factor = 0.5 * (c0 - a0 + 0.5 * (b0 - a0)) / b0
    assert c0 - a0 < factor * b0 < 0.5 * (b0 - a0)
    monkeypatch.setattr(adaptive, "MIN_WIDTH_FACTOR", factor)
    res, calls = _scripted_run({(a0, b0): (None, False, 1)}, a0, b0)
    assert calls == [(a0, b0)]
    assert res == QuadResult(value=0j, intervals_used=3, fevals=1, status="panel_failure")


def test_worklist_keeps_the_finite_sum_on_overflow():
    res, _ = _scripted_run({
        (0.0, 1.0): (None, False, 1),
        (0.0, 0.5): (1e308 + 0j, True, 1),
        (0.5, 1.0): (1e308 + 0j, True, 1),
    })
    assert res == QuadResult(value=1e308 + 0j, intervals_used=9, fevals=3,
                             status="overflow")


@pytest.mark.parametrize("budget, status", [(1, "budget_exhausted"), (2, "width_floor")])
def test_worklist_pop_below_the_floor_takes_budget_and_no_panels(monkeypatch, budget,
                                                                  status):
    # floor 0.6: [0, 1] is rejected and pushes halves below the floor; the
    # pop of one takes a second interval of the budget and adds no panels
    monkeypatch.setattr(adaptive, "MIN_WIDTH_FACTOR", 0.6)
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", budget)
    res, calls = _scripted_run({(0.0, 1.0): (1.0 + 0j, False, 1)})
    assert calls == [(0.0, 1.0)]
    assert res == QuadResult(value=0j, intervals_used=3, fevals=1, status=status)


@pytest.mark.parametrize("route, intervals, fevals", [
    ("qr", 258, 3924), ("svd", 240, 3708), ("gauss", 222, 6660)])
def test_failed_interval_at_the_floor_is_panel_failure(route, intervals, fevals):
    # sqrt(4.808191 - x) is NaN right of its root.  Every route splits the
    # failing intervals around the root down to [4.808190853639753,
    # 4.808190853639799], whose half-width passes the floor (2.2589e-14)
    # while its rounded left half (2.2204e-14) does not: it stops there
    integrand = Integrand(f=lambda x: np.sqrt(4.808191 - x), g=lambda x: 3.0 * x)
    if route == "gauss":
        res = adaptive_gauss(integrand, 3.218, 6.358)
    else:
        res = adaptive_integrate(integrand, 3.218, 6.358, AdaptiveConfig(solver=route))
    assert (res.status, res.intervals_used, res.fevals) == ("panel_failure", intervals,
                                                            fevals)
    assert cmath.isfinite(res.value)


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
    # an integer in [5, 200]: k x k arrays, so 10**9 would ask for 8e18 bytes
    for k in (4, 12.0, 201, 10**9, "12"):
        with pytest.raises(ValueError):
            AdaptiveConfig(k=k)
    assert AdaptiveConfig(k=np.int64(12)).k == 12
    with pytest.raises(ValueError):
        AdaptiveConfig(solver="lu")
    # b = inf is taken with a finite a only
    for a, b in ((-math.inf, 0.0), (-math.inf, math.inf), (0.0, -math.inf),
                 (math.nan, math.inf), (0.0, math.nan), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            adaptive_integrate(Integrand(f=lambda x: x, g=lambda x: x), a, b)


def test_concurrent_integrals_match_serial():
    # distinct integrals may run concurrently; results stay bit-identical
    def job(lam):
        integrand = Integrand(f=lambda x: 1.0 / (1 + x * x),
                              g=lambda x, lam=lam: lam * x * x)
        return adaptive_integrate(integrand, -1.0, 1.0).value

    lams = [10.0, 100.0, 1e3, 1e4] * 2
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(job, lams))
    serial = [job(lam) for lam in lams]
    assert parallel == serial


def test_concurrent_tails_match_serial():
    # semi-infinite runs: the ladder and the finite part of each stay per run
    def job(args):
        lam, kernel = args
        integrand = Integrand(f=lambda x: 2.0 / x, g=lambda x, lam=lam: lam * x,
                              kernel=kernel)
        res = adaptive_integrate(integrand, 1.0, math.inf)
        return (res.value.real.hex(), res.value.imag.hex(), res.intervals_used, res.fevals,
                res.status)

    runs = [(lam, "exp") for lam in (1.0, 10.0, 1e3, 1e5)] + [(10.0, "cos")]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(job, runs * 2))
    serial = [job(run) for run in runs * 2]
    assert parallel == serial
    assert {fp[4] for fp in serial} == {"converged"}


def one_trio_per_call(integrand, a, b, panels):
    """The driver without solve-ahead: each trio is a panel_values pass of its
    own, judged when popped; the passes' panels are recorded in ``panels``."""
    grid = chebyshev.grid(12)
    eps = AdaptiveConfig().eps

    def solve(intervals):
        (a0, b0), = intervals
        c0 = 0.5 * (a0 + b0)
        values, _, nevals = panel_values(integrand, ((a0, b0), (a0, c0), (c0, b0)),
                                         grid, "qr")
        return values, nevals

    solve = record_passes(solve, panels)

    def trio(a0, c0, b0):
        values, nevals = solve([(a0, b0)])
        if any(isinstance(v, PanelError) for v in values):
            return None, False, nevals
        return values[0], accepted_pair_update(*values, eps), nevals

    return adaptive._run_worklist(trio, a, b)


def _nan_region(x):
    out = np.ones_like(x)
    out[(x > 0.3) & (x < 0.4)] = np.nan
    return out


def _inv_sqrt(x):
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(x)


def _catalog(id, params, domain=None):
    components, (a, b) = integrand_for(id, params)
    a, b = domain or (a, b)
    return [(f"{id}-{params}-{n}", integrand, a, b)
            for n, (_, integrand) in enumerate(components)]


_CONVERGED_RUNS = [
    *_catalog("I22", {"lambda": 1e5, "m": 20.0}),
    # I3 on a wide finite domain, whose first trio agrees with itself
    *_catalog("I3", {"lambda": 1e3}, (1.0, 4e10)),
    *_catalog("I21", {"kappa": 100.0, "m": 100.0, "alpha": 0.5}),
    *((f"complex-f-{kernel}", Integrand(f=lambda x: np.exp(-x) + 1j * x,
                                        g=lambda x: 40.0 * x + 3.0 * x ** 2,
                                        kernel=kernel), -1.0, 1.0)
      for kernel in ("cos", "sin")),
]


def _nan_spot(x):
    # a kink at 1/3 splits both sides of it; the NaN at 23/64 is first
    # sampled by a trio that shares its pass with trios popped before it
    return np.where(np.abs(x - 23 / 64) < 1e-12, np.nan, np.sqrt(np.abs(x - 1 / 3)))


# the first three runs pop every trio they solve ahead (the halves of a
# failed interval are not solved ahead): they cost what they did
_STOPPED_RUNS = [
    ("nan-region", Integrand(f=_nan_region, g=lambda x: 0.0 * x), "panel_failure", True),
    ("f-1e308", Integrand(f=lambda x: np.full_like(x, 1e308), g=lambda x: x),
     "panel_failure", True),
    ("sqrt-0.3-x", Integrand(f=lambda x: np.sqrt(0.3 - x), g=lambda x: x), "panel_failure",
     True),
    ("nan-spot", Integrand(f=_nan_spot, g=lambda x: 10.0 * x), "panel_failure", False),
    ("inv-sqrt", Integrand(f=_inv_sqrt, g=lambda x: 100.0 * x), "width_floor", False),
    # a deep run whose frontier is wide: solving every pending interval a
    # pass would break the waste bound
    ("inv-sqrt-beside-stationary-points",
     Integrand(f=_inv_sqrt, g=lambda x: 1e3 * np.cos(10 * np.pi * x) ** 2), "width_floor", False),
]


def _same_run(monkeypatch, integrand, a, b):
    """Run both drivers; every popped interval must have the same three
    panels, to the value bits or as a PanelError, and the same outcome in
    both, and so must the run.  Returns both results and both runs'
    qr_factor calls."""
    popped, panels, factored = [], ({}, {}), []
    run_worklist, qr_factor = adaptive._run_worklist, linalg.qr_factor
    table = adaptive._SolveAhead

    def counted(*args):
        factored[-1] += 1
        return qr_factor(*args)

    def recording(trio, *rest):
        seen = []
        popped.append(seen)
        factored.append(0)

        def recorded(*args):
            out = trio(*args)
            seen.append((args, panel_bits(out[0]), out[1]))
            return out
        return run_worklist(recorded, *rest)

    monkeypatch.setattr(adaptive, "_run_worklist", recording)
    monkeypatch.setattr(adaptive, "_SolveAhead",
                        lambda solve, *rest: table(record_passes(solve, panels[1]), *rest))
    monkeypatch.setattr(linalg, "qr_factor", counted)
    old = one_trio_per_call(integrand, a, b, panels[0])
    new = adaptive_integrate(integrand, a, b)
    runs = [[(*pop, solved[pop[0][::2]]) for pop in seen]
            for seen, solved in zip(popped, panels)]
    assert runs[0] == runs[1]
    assert (old.value.real.hex(), old.value.imag.hex(), old.intervals_used, old.status) \
        == (new.value.real.hex(), new.value.imag.hex(), new.intervals_used, new.status)
    return old, new, factored


def _largest_pass(monkeypatch):
    """Record the spans of each panel_values pass of the solve-ahead table;
    the returned list's max is the largest pass (in qr_factor calls)."""
    spans = []

    def recorded(integrand, batch, *rest):
        spans.append(len(batch))
        return panel_values(integrand, batch, *rest)

    monkeypatch.setattr(adaptive, "panel_values", recorded)
    return spans


@pytest.mark.parametrize("name, integrand, a, b", _CONVERGED_RUNS,
                         ids=[run[0] for run in _CONVERGED_RUNS])
def test_solve_ahead_keeps_every_bit_of_a_converged_run(monkeypatch, name, integrand, a, b):
    old, new, (factored_old, factored_new) = _same_run(monkeypatch, integrand, a, b)
    assert new.status == "converged" and new.fevals == old.fevals
    # every trio solved ahead is popped: three factorizations per interval
    assert factored_new == factored_old == new.intervals_used


@pytest.mark.parametrize("name, integrand, status, same_cost", _STOPPED_RUNS,
                         ids=[run[0] for run in _STOPPED_RUNS])
def test_solve_ahead_keeps_every_bit_of_a_stopped_run(monkeypatch, name, integrand, status,
                                                      same_cost):
    passes = _largest_pass(monkeypatch)
    old, new, (factored_old, factored_new) = _same_run(monkeypatch, integrand, 0.0, 1.0)
    assert new.status == status
    # the table never holds more solved trios than the run has popped plus
    # its largest pass
    assert factored_new <= 2 * factored_old + max(passes)
    if same_cost:
        assert (factored_new, new.fevals) == (factored_old, old.fevals)


def test_solve_ahead_keeps_every_bit_within_a_budget(monkeypatch):
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", 500)
    passes = _largest_pass(monkeypatch)
    (_, integrand, a, b), = _catalog("I22", {"lambda": 1e5, "m": 20.0})
    old, new, (factored_old, factored_new) = _same_run(monkeypatch, integrand, a, b)
    assert new.status == "budget_exhausted" and new.intervals_used == 1500
    assert factored_new <= 2 * factored_old + max(passes)


def test_solve_ahead_keeps_every_bit_when_passes_are_capped(monkeypatch):
    # two trios a pass: each miss solves at most two trios
    monkeypatch.setattr(adaptive, "PASS_ENTRIES", 2 * 3 * 12 ** 2)
    passes = _largest_pass(monkeypatch)
    (_, integrand, a, b), = _catalog("I22", {"lambda": 1e5, "m": 20.0})
    old, new, (factored_old, factored_new) = _same_run(monkeypatch, integrand, a, b)
    assert new.status == "converged" and new.fevals == old.fevals
    assert factored_new == factored_old == new.intervals_used
    assert max(passes) == 3 * 2


def _record_misses(monkeypatch, module):
    """Make ``module``'s solve-ahead table record each miss (a pop whose
    trio it does not hold) and each pass, as (the last miss, its intervals)."""
    misses, passes = [], []
    table = adaptive._SolveAhead

    class Recording(table):
        def __init__(self, solve, *rest):
            def recorded(intervals):
                passes.append((misses[-1], list(intervals)))
                return solve(intervals)
            super().__init__(recorded, *rest)

        def trio(self, a0, c0, b0):
            if (a0, b0) not in self.solved:
                misses.append((a0, b0))
            return super().trio(a0, c0, b0)

    monkeypatch.setattr(module, "_SolveAhead", Recording)
    return misses, passes


@pytest.mark.parametrize("route, lam, count", [("levin", 1e5, 51), ("gauss", 1e3, 56)])
def test_each_miss_makes_one_pass_that_holds_it(monkeypatch, route, lam, count):
    # the table solves ahead only in the pass of a miss, and that pass
    # holds the popped interval, so there are as many passes as misses
    misses, passes = _record_misses(monkeypatch, adaptive if route == "levin" else oracle)
    if route == "levin":
        (_, integrand, a, b), = _catalog("I22", {"lambda": lam, "m": 20.0})
        res = adaptive_integrate(integrand, a, b)
    else:
        fn, (a, b) = oracle_integrand("I22", {"lambda": lam, "m": 20.0})
        res = adaptive_gauss(fn, a, b)
    assert res.status == "converged"
    assert all(miss in intervals for miss, intervals in passes)
    assert len(passes) == len(misses) == count


def test_a_balanced_run_takes_one_pass_per_level(monkeypatch):
    # I1 at lambda = 1e3 splits every interval of its first two levels; a
    # pass may solve as many trios as the run has popped plus its largest
    # pass, so each of its three levels is one pass (spans, three a trio)
    passes = _largest_pass(monkeypatch)
    res = evaluate_levin("I1", {"lambda": 1e3})
    assert res.status == "converged"
    assert passes == [3, 6, 12]


@pytest.mark.parametrize("solver", ["qr", "svd"])
@pytest.mark.parametrize("lam", [1.0, 10.0, 1e3])
def test_cosine_and_sine_integral_tails(lam, solver):
    # int_1^inf cos(lam x)/x dx = -Ci(lam), int_1^inf sin(lam x)/x dx = pi/2 - Si(lam)
    si, ci = sici(lam)
    for kernel, want in (("cos", -ci), ("sin", math.pi / 2 - si)):
        integrand = Integrand(f=lambda x: 1.0 / x, g=lambda x: lam * x, kernel=kernel)
        res = adaptive_integrate(integrand, 1.0, math.inf, AdaptiveConfig(solver=solver))
        assert res.status == "converged"
        assert res.value.imag == 0.0
        assert abs(res.value - want) <= 1e-11, (kernel, res.value, want)


def test_complex_f_tail_under_cos_and_sin():
    # f = (1 + 2i)/x under cos and sin: (1 + 2i) times the real-f tails
    si, ci = sici(10.0)
    for kernel, want in (("cos", -ci), ("sin", math.pi / 2 - si)):
        integrand = Integrand(f=lambda x: (1 + 2j) / x, g=lambda x: 10.0 * x, kernel=kernel)
        res = adaptive_integrate(integrand, 1.0, math.inf)
        assert res.status == "converged"
        assert abs(res.value - (1 + 2j) * want) <= 1e-11, kernel


def test_tail_adds_its_spans_and_samples_to_the_finite_part():
    integrand = Integrand(f=lambda x: 2.0 / x, g=lambda x: 1e3 * x)
    u, tail = adaptive._tail(integrand, 0.25, chebyshev.grid(12), AdaptiveConfig())
    # accepted at U0 = 1, after one pass of the ladder; g' = 1e3 does not
    # grow, so no rung below U0 is solved
    assert (u, tail.status, tail.intervals_used, tail.fevals) == (
        1.0, "converged", adaptive.TAIL_SPANS, 12 * adaptive.TAIL_SPANS)
    finite = adaptive_integrate(integrand, 0.25, u)
    res = adaptive_integrate(integrand, 0.25, math.inf)
    assert res == QuadResult(finite.value + tail.value,
                             finite.intervals_used + tail.intervals_used,
                             finite.fevals + tail.fevals, "converged")
    assert abs(res.value - 2.0 * exp1(-250j)) <= 1e-12


@pytest.mark.parametrize("lam", [1e3, 1e5, 1e7])
def test_tail_that_holds_at_a_leaves_no_finite_part(lam):
    # I3 = 2 int_1^inf e^{i lam x}/x dx: from a >= 1/2 the first rung is
    # [a, 2a], and the tail holds at U = a, so no interval is processed
    (_, integrand), = integrand_for("I3", {"lambda": lam})[0]
    u, tail = adaptive._tail(integrand, 1.0, chebyshev.grid(12), AdaptiveConfig())
    assert (u, tail.status, tail.intervals_used) == (1.0, "converged", adaptive.TAIL_SPANS)
    res = adaptive_integrate(integrand, 1.0, math.inf)
    assert res == tail
    assert abs(res.value - 2.0 * exp1(-1j * lam)) <= 1e-11


@pytest.mark.parametrize("lam", [1.0, 1e3, 1e5, 1e7])
def test_tail_reaches_below_its_first_rung_where_g_prime_grows(monkeypatch, lam):
    # int_0^inf e^{i lam x^2} dx = (1/2) sqrt(pi/lam) e^{i pi/4}: |g'| = 2 lam x
    # grows from [1, 2] to [2, 4], so the stationary point is at or below
    # U0 = 1, and one more pass of TAIL_SPANS rungs reaches down toward it
    integrand = Integrand(f=lambda x: 1.0 + 0.0 * x, g=lambda x: lam * x * x)
    grid = chebyshev.grid(12)
    res = adaptive_integrate(integrand, 0.0, math.inf)
    assert res.status == "converged"
    want = 0.5 * math.sqrt(math.pi / lam) * cmath.exp(0.25j * math.pi)
    assert abs(res.value - want) <= 1e-11, (res.value, want)
    u, tail = adaptive._tail(integrand, 0.0, grid, AdaptiveConfig())
    monkeypatch.setattr(adaptive, "_grows", lambda *args: False)
    u_up, tail_up = adaptive._tail(integrand, 0.0, grid, AdaptiveConfig())
    spans, spans_up = tail.intervals_used, tail_up.intervals_used
    assert u <= u_up and spans <= spans_up + adaptive.TAIL_SPANS
    if lam >= 1e5:
        assert u < 1.0 == u_up and spans == spans_up + adaptive.TAIL_SPANS


@pytest.mark.parametrize("lam", [10.0, 1e3])
def test_tail_whose_g_prime_does_not_grow_keeps_its_first_rung(lam):
    # g' = lam is constant: U = U0 = 1, with [0, 1] one trio, as before the
    # ladder could reach below U0; the integral is 1/(1 - i lam)
    res = adaptive_integrate(Integrand(f=lambda x: np.exp(-x), g=lambda x: lam * x),
                             0.0, math.inf)
    assert (res.status, res.intervals_used) == ("converged", 3 + adaptive.TAIL_SPANS)
    assert abs(res.value - 1.0 / (1.0 - 1j * lam)) <= 1e-12


def test_tail_that_overflows_the_sum_is_overflow(monkeypatch):
    # the finite part's value is kept, with the tail's spans and samples
    monkeypatch.setattr(adaptive, "_tail",
                        lambda *args: (1.0, QuadResult(1.797e308 + 0j, 3, 36, "converged")))
    integrand = Integrand(f=lambda x: np.full_like(x, 1e306), g=lambda x: x)
    finite = adaptive_integrate(integrand, 0.0, 1.0)
    assert finite.status == "converged"
    res = adaptive_integrate(integrand, 0.0, math.inf)
    assert res == QuadResult(finite.value, finite.intervals_used + 3, finite.fevals + 36,
                             "overflow")


def test_zero_integrand_has_a_zero_tail():
    # p = 0 falls by the rule (0 <= 0), so U0 = 6 is accepted; [-3, 6] is one trio
    res = adaptive_integrate(Integrand(f=lambda x: 0.0 * x, g=lambda x: x), -3.0, math.inf)
    spans = 3 + adaptive.TAIL_SPANS
    assert res == QuadResult(0j, spans, 12 * spans, "converged")


def test_tail_whose_f_underflows_converges():
    # the integral is (sqrt(pi)/2) e^{-1/4} + i F(1/2), F Dawson's integral;
    # U = 8 is taken against [16, 32], where f's samples underflow to 0
    integrand = Integrand(f=lambda x: np.exp(-x ** 2), g=lambda x: x)
    grid = chebyshev.grid(12)
    u, _ = adaptive._tail(integrand, 0.0, grid, AdaptiveConfig())
    assert u == 8.0 and (integrand.f(3.0 * u + u * grid.nodes) == 0.0).any()
    res = adaptive_integrate(integrand, 0.0, math.inf)
    want = math.sqrt(math.pi) / 2.0 * math.exp(-0.25) + 1j * dawsn(0.5)
    assert (res.status, res.intervals_used) == ("converged", 57)
    assert abs(res.value - want) <= 1e-11


def test_tail_with_no_oscillation_is_divergent():
    # g' = 0 fails the g' test on every pair, so a convergent tail (the
    # integral is 1) is accepted at no U and ends 'divergent' with value 0
    res = adaptive_integrate(Integrand(f=lambda x: np.exp(-x), g=lambda x: 0.0 * x),
                             0.0, math.inf)
    assert res == QuadResult(0j, 1023, 12 * 1023, "divergent")


@pytest.mark.parametrize("f, g", [(lambda x: 1.0 + 0.0 * x, lambda x: x),
                                  (lambda x: 1.0 / x, np.log)], ids=["1-x", "inv-x-log-x"])
def test_tail_that_never_settles_is_divergent(f, g):
    # p' + i g' p = f has p = -i in both, and no solution tends to 0: the
    # integrals diverge.  Every rung from [a, 2a] = [1, 2] up to the largest
    # float is tried.
    t0 = time.perf_counter()
    res = adaptive_integrate(Integrand(f=f, g=g), 1.0, math.inf)
    assert time.perf_counter() - t0 < 1.0
    assert res == QuadResult(0j, 1023, 12 * 1023, "divergent")


def test_stationary_point_beyond_the_first_doublings_is_kept():
    # g' = 2(x - 100) shrinks on [2, 8]: the spans there agree on p and |p|
    # falls, but a local solve drops the stationary point's contribution
    # (about f(100) sqrt(pi) = 1.8e-4), so U is taken past x = 100
    integrand = Integrand(f=lambda x: 1.0 / (1.0 + x * x), g=lambda x: (x - 100.0) ** 2)
    u, tail = adaptive._tail(integrand, 1.0, chebyshev.grid(12), AdaptiveConfig())
    assert tail.status == "converged" and u > 100.0
    res = adaptive_integrate(integrand, 1.0, math.inf)
    # beyond 1e4 the integral is below f/g' = 5e-13
    finite = adaptive_integrate(integrand, 1.0, 1e4)
    assert res.status == finite.status == "converged"
    assert abs(res.value - finite.value) <= 1e-11


def _expn(n, z):
    """E_n(z) by E_{m+1}(z) = (e^{-z} - z E_m(z)) / m from E_1 = exp1."""
    e = exp1(z)
    for m in range(1, n):
        e = (cmath.exp(-z) - z * e) / m
    return e


@pytest.mark.parametrize("g, want", [(np.log, 1 / (1 - 1j)), (np.sqrt, 2 * _expn(3, -1j))],
                         ids=["log-x", "sqrt-x"])
def test_tail_whose_g_prime_decays_like_a_power_converges(g, want):
    # |g'| = 1/x or 1/(2 sqrt(x)) shrinks by the same factor each doubling,
    # with no stationary point ahead; int_1^inf e^{ig}/x^2 dx is 1/(1 - i)
    # under log(x) and 2 E_3(-i) under sqrt(x) (x = t^2)
    res = adaptive_integrate(Integrand(f=lambda x: 1.0 / (x * x), g=g), 1.0, math.inf)
    assert res.status == "converged"
    assert abs(res.value - want) <= 1e-11, (res.value, want)


@pytest.mark.parametrize("f, g, u, status", [
    (lambda x: 1.0 / (1.0 + x * x), lambda x: (x - 100.0) ** 2, 128.0, "converged"),
    # g' = 1/(2 sqrt(x)) - 1/1000 shrinks ever faster toward 2.5e5
    (lambda x: 1.0 / (x * x), lambda x: np.sqrt(x) - x / 1000.0, 524288.0, "converged"),
    (lambda x: 1.0 / x, np.log, None, "divergent"),
    (lambda x: 1.0 + 0.0 * x, lambda x: x, None, "divergent"),
], ids=["x-100-squared", "sqrt-x-less-x-over-1000", "inv-x-log-x", "1-x"])
def test_steady_shrink_moves_no_other_tail(monkeypatch, f, g, u, status):
    # each run ends as it does without the steady rule, to the value bits
    integrand = Integrand(f=f, g=g)

    def run():
        res = adaptive_integrate(integrand, 1.0, math.inf)
        return (adaptive._tail(integrand, 1.0, chebyshev.grid(12), AdaptiveConfig())[0],
                res.value.real.hex(), res.value.imag.hex(), res.intervals_used,
                res.fevals, res.status)

    got = run()
    monkeypatch.setattr(adaptive, "_steady", lambda *args: False)
    assert got == run()
    assert (got[0], got[-1]) == (u, status)


@pytest.mark.parametrize("x0", [1e4, 1e6])
def test_far_stationary_point_is_not_a_steady_shrink(x0):
    # g' = 2(x - x0) shrinks by a factor that changes by about U/x0 a
    # doubling, above the rounding of the sampled g', so U is taken past x0
    integrand = Integrand(f=lambda x: 1.0 / (1.0 + x * x), g=lambda x: (x - x0) ** 2)
    u, tail = adaptive._tail(integrand, 1.0, chebyshev.grid(12), AdaptiveConfig())
    assert tail.status == "converged" and x0 < u <= 2.0 * x0


def test_tail_whose_samples_fail_is_panel_failure():
    # sqrt(10 - x) is NaN beyond 10: all but three of the 1023 rungs from
    # [1, 2] fail
    res = adaptive_integrate(Integrand(f=lambda x: np.sqrt(10.0 - x), g=lambda x: x),
                             1.0, math.inf)
    assert res == QuadResult(0j, 1023, res.fevals, "panel_failure")


@pytest.mark.parametrize("a", [4.5e307, -4.5e307, 1.7e308])
def test_a_too_large_for_a_tail_is_refused(a):
    # 4 U0 overflows (U0 = a from a >= 1/2, 2|a| below), so the tail has no
    # first pair of rungs [U0, 2U0], [2U0, 4U0] to compare
    with pytest.raises(ValueError, match=r"too large for a tail: \[U0, 4U0\] = "):
        adaptive_integrate(Integrand(f=lambda x: 1.0 / x, g=lambda x: x), a, math.inf)
    # a = 2.2e307 is taken: its three rungs from [a, 2a] are solved, and fail
    # where g' overflows; from 3e307 and 4.4e307 only the first pair is
    # finite, and both of its rungs fail
    for a, spans in ((2.2e307, 3), (3e307, 2), (4.4e307, 2)):
        res = adaptive_integrate(Integrand(f=lambda x: 1.0 / (x * x), g=lambda x: x), a,
                                 math.inf)
        assert (res.intervals_used, res.status) == (spans, "panel_failure")
