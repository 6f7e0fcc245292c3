"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers next to each bound.  Tolerances are fixed here, not calibrated.
"""

import contextlib
import io
import time

import numpy as np

from oscquad import AdaptiveConfig, reference, selftest
from oscquad.cli import main as cli_main
from oscquad.linalg import EPS0


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_closed_form_accuracy():
    # I1 and I4, 200 log-spaced frequencies across [1e1, 1e7], eps=1e-12,
    # k=12: max absolute error against the closed forms <= 1e-10
    lams = 10.0 ** np.linspace(1.0, 7.0, 200)
    t_start = time.perf_counter()
    worst = {}
    medians = {}
    for id in ("I1", "I4"):
        errs = []
        times = []
        for lam in lams:
            t0 = time.perf_counter()
            res = reference.evaluate_levin(id, {"lambda": lam})
            times.append(time.perf_counter() - t0)
            assert res.status == "converged", (id, lam)
            target = reference.closed_form_value(id, {"lambda": lam})
            errs.append(abs(res.value - target))
        worst[id] = max(errs)
        medians[id] = float(np.median(times))
    elapsed = time.perf_counter() - t_start
    ok = (worst["I1"] <= 1e-10 and worst["I4"] <= 1e-10
          and elapsed <= 30.0 and max(medians.values()) <= 0.050)
    _report(1, ok, f"max_err I1={worst['I1']:.2e} I4={worst['I4']:.2e}, "
                   f"median {1e3 * max(medians.values()):.2f} ms/integral, "
                   f"sweep {elapsed:.1f}s")
    assert worst["I1"] <= 1e-10
    assert worst["I4"] <= 1e-10
    assert max(medians.values()) <= 0.050
    assert elapsed <= 30.0


def test_criterion_2_reference_comparison_table():
    # I5..I8 over four decade ranges, 20 seeded-random frequencies each:
    # collocation vs 30-point adaptive Gauss-Legendre at 1e-15, and the
    # collocation route must be the faster one on the top range
    rng = np.random.default_rng(1)
    ranges = [(1e0, 1e1), (1e1, 1e2), (1e2, 1e3), (1e3, 1e4)]
    overall = 0.0
    slow_ratio = []
    for id in ("I5", "I6", "I7", "I8"):
        for lo, hi in ranges:
            lams = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), 20)
            t_levin = 0.0
            t_gauss = 0.0
            maxdiff = 0.0
            for lam in lams:
                t0 = time.perf_counter()
                rl = reference.evaluate_levin(id, {"lambda": lam})
                t_levin += time.perf_counter() - t0
                t0 = time.perf_counter()
                ro = reference.evaluate_oracle(id, {"lambda": lam}, tol=1e-15)
                t_gauss += time.perf_counter() - t0
                maxdiff = max(maxdiff, abs(rl.value - ro.value))
            overall = max(overall, maxdiff)
            assert maxdiff <= 5e-11, (id, lo, hi, maxdiff)
            if lo >= 1e3:
                slow_ratio.append((id, t_gauss / t_levin))
    ok = overall <= 5e-11 and all(r > 1.0 for _, r in slow_ratio)
    _report(2, ok, f"max_diff={overall:.2e}, top-range gauss/levin ratios "
                   + " ".join(f"{id}={r:.1f}" for id, r in slow_ratio))
    assert overall <= 5e-11
    for id, ratio in slow_ratio:
        assert ratio > 1.0, (id, ratio)


def test_criterion_3_no_low_frequency_breakdown():
    worst = 0.0
    for lam in (1e-8, 1e-4, 1e-2, 1.0):
        rl = reference.evaluate_levin("I6", {"lambda": lam})
        ro = reference.evaluate_oracle("I6", {"lambda": lam})
        diff = abs(rl.value - ro.value)
        worst = max(worst, diff)
        assert diff <= 1e-11, (lam, diff)
    _report(3, worst <= 1e-11, f"max |levin-oracle| = {worst:.2e} over "
                               "lambda in {1e-8, 1e-4, 1e-2, 1}")


def test_criterion_4_stationary_points():
    # (a) accuracy against the reference across stationary-point orders
    worst = 0.0
    for m in range(2, 10):
        for lam in (1e2, 1e3, 1e4):
            params = {"lambda": lam, "m": float(m)}
            rl = reference.evaluate_levin("I9", params)
            ro = reference.evaluate_oracle("I9", params)
            worst = max(worst, abs(rl.value - ro.value))
    # (b) loose tolerance: interval growth is at most logarithmic
    cfg7 = AdaptiveConfig(eps=1e-7)
    n_lo = reference.evaluate_levin("I9", {"lambda": 1e2, "m": 2.0}, cfg7).intervals_used
    n_hi = reference.evaluate_levin("I9", {"lambda": 1e6, "m": 2.0}, cfg7).intervals_used
    growth = n_hi / n_lo
    # (c) tight tolerance: interval count varies only slightly with frequency
    spreads = []
    for m in (2.0, 3.0, 5.0, 9.0):
        counts = [reference.evaluate_levin("I9", {"lambda": lam, "m": m}).intervals_used
                  for lam in (1e2, 1e3, 1e4, 1e5, 1e6)]
        spreads.append(max(counts) / min(counts))
    ok = worst <= 1e-10 and growth <= 4.0 and max(spreads) <= 2.0
    _report(4, ok, f"max_err={worst:.2e}, growth(1e-7)={growth:.2f}, "
                   f"spread(1e-12)={max(spreads):.2f}")
    assert worst <= 1e-10
    assert growth <= 4.0
    assert max(spreads) <= 2.0


def test_criterion_5_many_stationary_points():
    params = {"lambda": 1e7, "m": 20.0}
    t0 = time.perf_counter()
    r12 = reference.evaluate_levin("I22", params)
    elapsed = time.perf_counter() - t0
    assert r12.status == "converged"

    rl = reference.evaluate_levin("I22", {"lambda": 1e3, "m": 20.0})
    ro = reference.evaluate_oracle("I22", {"lambda": 1e3, "m": 20.0})
    diff_oracle = abs(rl.value - ro.value)

    r9 = reference.evaluate_levin("I22", params, AdaptiveConfig(eps=1e-9))
    diff_eps = abs(r12.value - r9.value)

    ok = elapsed <= 0.5 and diff_oracle <= 1e-10 and diff_eps <= 1e-8
    _report(5, ok, f"time={1e3 * elapsed:.0f} ms, |levin-oracle|@1e3={diff_oracle:.2e}, "
                   f"|eps1e-12 - eps1e-9|@1e7={diff_eps:.2e}")
    assert elapsed <= 0.5
    assert diff_oracle <= 1e-10
    # Known-red check: at eps=1e-9 the whole-vs-halves test accepts panels
    # straddling some stationary points where the three estimates agree on
    # the stationary-phase-free value (each missing the same ~1.8e-5 local
    # contribution), so the two runs genuinely differ at the 1e-4 scale.
    # The bound is asserted as stated rather than loosened to match the
    # implementation; see the failure analysis in the project notes.
    assert diff_eps <= 1e-8


def test_criterion_6_modal_green_function():
    worst = 0.0
    for kappa in (1e2, 1e3):
        for m in (1e2, 1e3):
            params = {"kappa": kappa, "m": m, "alpha": 0.5}
            eps = EPS0 * float(np.sqrt(kappa))
            rl = reference.evaluate_levin("I21", params, AdaptiveConfig(eps=eps))
            ro = reference.evaluate_oracle("I21", params, tol=eps)
            assert rl.status == ro.status == "converged"
            worst = max(worst, abs(rl.value - ro.value))
    _report(6, worst <= 1e-9, f"max |levin-oracle| = {worst:.2e} with eps scaled "
                              "as machine-eps*sqrt(kappa)")
    assert worst <= 1e-9


def test_criterion_7_property_suites():
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        failures = selftest.run()
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    names = ("chebyshev.diff_exactness", "chebyshev.aliasing",
             "oracle.gauss_rules", "linalg.tsvd_bounds",
             "levin.solver_agreement", "levin.symmetries",
             "levin.low_frequency", "adaptive.additivity")
    present = all(f"PASS {name}" in text for name in names)
    ok = failures == 0 and elapsed < 10.0 and present
    _report(7, ok, f"{text.count('PASS')} checks in {elapsed:.1f}s, "
                   f"{failures} failures")
    assert failures == 0
    assert elapsed < 10.0
    assert present


def test_criterion_8_deterministic_output(tmp_path, capsys):
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = cli_main(["sweep", "--paper-integral", "I9", "--decades", "1:5",
                         "--count", "25", "--grid-param", "m=2,3",
                         "--eps", "1e-7", "--no-timing", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    sweep_same = outputs[0] == outputs[1]
    outputs = []
    for name in ("cmp1.csv", "cmp2.csv"):
        path = tmp_path / name
        code = cli_main(["compare", "--paper-integral", "I6",
                         "--ranges", "1e0:1e1,1e1:1e2", "--samples", "5",
                         "--seed", "7", "--no-timing", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    compare_same = outputs[0] == outputs[1]
    capsys.readouterr()
    _report(8, sweep_same and compare_same,
            f"sweep bytes identical={sweep_same}, compare bytes identical={compare_same}")
    assert sweep_same
    assert compare_same
