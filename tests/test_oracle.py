import cmath
import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscquad import adaptive, adaptive_gauss, gauss_rule, oracle
from oscquad import AdaptiveConfig, Integrand, adaptive_integrate
from oscquad.adaptive import accepted_pair_update
from oscquad.levin import PanelError
from oscquad.reference import oracle_integrand
from helpers import panel_bits, record_passes


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
    # a point count is an integer, also once the int rule is cached
    gauss_rule(30)
    for n in (30.0, 2.5, "30"):
        with pytest.raises(ValueError, match="must be an integer"):
            gauss_rule(n)
    np.testing.assert_array_equal(gauss_rule(np.int64(30)).nodes, gauss_rule(30).nodes)


def test_overflowing_sum_is_overflow():
    # the panels of 1e307 on [0, 30] are finite once split, their sum is not
    res = adaptive_gauss(lambda x: np.full_like(x, 1e307), 0.0, 30.0)
    assert res.status == "overflow"
    assert math.isfinite(res.value.real) and res.value.real >= 1.5e308
    assert res.value.imag == 0.0


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
    # no tail on this route: an infinite end is refused by name
    for a, b, end in ((0.0, math.inf, "b = inf"), (-math.inf, 0.0, "a = -inf")):
        with pytest.raises(ValueError, match=f"^infinite end {end}: "):
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
    # every call samples whole trios, one pass of the table per miss; no
    # interval here is rejected, only accepted or failed, and the halves
    # of a failed one are not sampled ahead, so each call is one trio
    assert res.fevals == sum(sampled)
    assert all(size % 90 == 0 for size in sampled)
    assert len(sampled) == len(trios)


def test_trio_samples_each_panel_as_mid_plus_half_times_nodes(monkeypatch):
    # a call samples the trios of a pass, but every point keeps the
    # bits of its own panel's mid + half * node: each processed trio's 90
    # points are one 90-point block of one call, and no block is sampled twice
    sampled = []
    trios = record_trios(monkeypatch)

    def f(x):
        sampled.append(x.copy())
        return np.cos(60 * x)

    res = adaptive_gauss(f, 0.1, 2.3)
    assert res.status == "converged" and len(trios) > 1
    assert type(res.value) is complex
    nodes = gauss_rule(30).nodes
    blocks = collections.Counter(block.tobytes() for xs in sampled
                                 for block in xs.reshape(-1, 90))
    wanted = collections.Counter()
    for a0, c0, b0 in trios:
        h0 = 0.5 * (b0 - a0)
        hh = 0.5 * h0
        wanted[np.concatenate(((a0 + h0) + h0 * nodes, (a0 + hh) + hh * nodes,
                               (c0 + hh) + hh * nodes)).tobytes()] += 1
    # a converged run pops every trio it sampled, each once
    assert blocks == wanted and set(wanted.values()) == {1}
    assert len(sampled) < len(trios)


def one_trio_per_call(fn, a, b, panels, tol=1e-15):
    """The evaluator without the solve-ahead table: each call of fn samples
    one trio, judged when popped; the calls' panels are recorded in ``panels``."""
    rule = gauss_rule(30)

    def solve(intervals):
        (a0, b0), = intervals
        h0 = 0.5 * (b0 - a0)
        hh = 0.5 * h0
        mids = np.array((a0 + h0, a0 + hh, 0.5 * (a0 + b0) + hh))
        halves = np.array((h0, hh, hh))
        xs = mids[:, None] + halves[:, None] * rule.nodes
        ys = np.asarray(fn(xs.ravel()), dtype=np.complex128)
        values = (halves * (ys.reshape(3, 30) @ rule.weights)).tolist()
        return [v if cmath.isfinite(v) else PanelError(f"non-finite in [{a0}, {b0}]")
                for v in values], 90

    solve = record_passes(solve, panels)

    def trio(a0, c0, b0):
        values, nevals = solve([(a0, b0)])
        if any(isinstance(v, PanelError) for v in values):
            return None, False, nevals
        return values[0], accepted_pair_update(*values, tol), nevals

    with np.errstate(all="ignore"):
        return oracle._run_worklist(trio, a, b)


def _nan_region(x):
    out = np.ones_like(x)
    out[(x > 0.3) & (x < 0.4)] = np.nan
    return out


_CATALOG_RUNS = [
    *((id, {"lambda": lam}) for id in ("I5", "I6", "I7", "I8") for lam in (1.0, 1e2, 1e4)),
    ("I21", {"kappa": 100.0, "m": 100.0, "alpha": 0.5}),
    ("I22", {"lambda": 1e3, "m": 20.0}),
]
# these runs reject no interval, and the halves of a failed one are not
# sampled ahead: they sample as much as one trio per call
_DIRECT_RUNS = [
    ("nan region", _nan_region, 0.0, 1.0, "panel_failure"),
    ("sqrt", lambda x: np.sqrt(0.3 - x), 0.0, 1.0, "panel_failure"),
    ("overflowing sum", lambda x: np.full(x.shape, 1e308), 0.0, 1.0, "panel_failure"),
]


def _same_run(monkeypatch, fn, a, b):
    """Run both evaluators; every popped interval must have the same three
    panels, to the value bits or as a PanelError, and the same outcome in
    both, and so must the run.  Returns both results and the points of each
    call of fn in each run."""
    popped, panels, sampled = [], ({}, {}), []
    run_worklist, table = oracle._run_worklist, oracle._SolveAhead

    def counted(x):
        sampled[-1].append(x.size)
        return fn(x)

    def recording(trio, *rest):
        seen = []
        popped.append(seen)
        sampled.append([])

        def recorded(*args):
            out = trio(*args)
            seen.append((args, panel_bits(out[0]), out[1]))
            return out
        return run_worklist(recorded, *rest)

    monkeypatch.setattr(oracle, "_run_worklist", recording)
    monkeypatch.setattr(oracle, "_SolveAhead",
                        lambda solve, *rest: table(record_passes(solve, panels[1]), *rest))
    old = one_trio_per_call(counted, a, b, panels[0])
    new = adaptive_gauss(counted, a, b)
    runs = [[(*pop, solved[pop[0][::2]]) for pop in seen]
            for seen, solved in zip(popped, panels)]
    assert runs[0] == runs[1]
    for res, sizes in zip((old, new), sampled):
        assert type(res.value) is complex
        assert res.fevals == sum(sizes) and all(size % 90 == 0 for size in sizes)
    assert (old.value.real.hex(), old.value.imag.hex(), old.intervals_used, old.status) \
        == (new.value.real.hex(), new.value.imag.hex(), new.intervals_used, new.status)
    return old, new, sampled


def _bounded_waste(old, new, sampled):
    # the table never holds more solved trios than the run has popped plus
    # its largest pass
    assert new.fevals <= 2 * old.fevals + max(sampled[1])


# the adaptive_gauss runs below sample ahead through the solve-ahead table
@pytest.mark.parametrize("id, params", _CATALOG_RUNS,
                         ids=[f"{id}-{params}" for id, params in _CATALOG_RUNS])
def test_lookahead_keeps_every_bit_of_a_catalog_run(monkeypatch, id, params):
    fn, (a, b) = oracle_integrand(id, params)
    old, new, _ = _same_run(monkeypatch, fn, a, b)
    # every trio sampled ahead is popped: 90 points per processed interval
    assert new.status == "converged" and new.fevals == old.fevals


@pytest.mark.parametrize("name, fn, a, b, status", _DIRECT_RUNS,
                         ids=[run[0] for run in _DIRECT_RUNS])
def test_lookahead_keeps_every_bit_of_a_failed_run(monkeypatch, name, fn, a, b, status):
    old, new, _ = _same_run(monkeypatch, fn, a, b)
    assert new.status == status and new.fevals == old.fevals


def test_lookahead_keeps_every_bit_at_the_width_floor(monkeypatch):
    # a step never converges; the floor stops it after 14 levels of splits
    monkeypatch.setattr(adaptive, "MIN_WIDTH_FACTOR", 1e-4)
    old, new, sampled = _same_run(monkeypatch, lambda x: np.where(x < 1 / 3, 0.0, 1.0),
                                  0.0, 1.0)
    assert new.status == "width_floor"
    _bounded_waste(old, new, sampled)


def test_lookahead_keeps_every_bit_within_a_budget(monkeypatch):
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", 7)
    fn, (a, b) = oracle_integrand("I7", {"lambda": 1e2})
    old, new, sampled = _same_run(monkeypatch, fn, a, b)
    assert new.status == "budget_exhausted" and new.intervals_used == 21
    _bounded_waste(old, new, sampled)


def test_solve_ahead_keeps_every_bit_when_passes_are_capped(monkeypatch):
    # two trios a call: each miss samples at most two trios
    monkeypatch.setattr(oracle, "PASS_POINTS", 2 * 90)
    fn, (a, b) = oracle_integrand("I22", {"lambda": 1e3, "m": 20.0})
    old, new, sampled = _same_run(monkeypatch, fn, a, b)
    assert new.status == "converged" and new.fevals == old.fevals
    assert max(sampled[1]) == 2 * 90


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
