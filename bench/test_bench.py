"""Self-tests of the benchmark.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
from calibrate import Clock  # noqa: E402

run.import_program()

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from oscquad import reference  # noqa: E402


def one_pass(cases, evaluate=wl.evaluate):
    route = run.RouteRun(cases, Clock())
    route.full_pass(evaluate, np.random.default_rng(0))
    return route


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_workloads_repeat_for_a_seed(name):
    assert wl.make_cases(name, 5) == wl.make_cases(name, 5)
    assert wl.make_cases(name, 5) != wl.make_cases(name, 6)


def test_counts_repeat_across_runs():
    levin, oracle = wl.make_cases("closed-sweep", 1)
    cases = levin[::100] + oracle[::30]
    first, second = one_pass(cases), one_pass(cases)
    assert [run.fingerprint(r) for r in first.first] == \
        [run.fingerprint(r) for r in second.first]


def test_perturbed_result_counts_as_failed():
    levin, _ = wl.make_cases("closed-sweep", 1)
    case = levin[0]
    route = one_pass([case])
    route.call(0, wl.evaluate)
    good = route.first[0]
    assert not wl.is_failed(case, good, case.ref)
    assert wl.is_failed(case, replace(good, value=good.value + 10 * case.bound), case.ref)
    assert wl.is_failed(case, replace(good, status="budget_exhausted"), case.ref)
    assert wl.is_failed(case, replace(good, value=complex("nan")), case.ref)

    route.first[0] = replace(good, value=good.value + 10 * case.bound)
    checks, _ = run.check_routes(wl, route, run.RouteRun([], route.clock))
    # two calls of one case: counted once, so the figures do not depend on speed
    assert sum(route.calls) == 2
    assert run.tally(checks) == (1, 1)


def test_committed_refs_rederive():
    refs = wl.load_refs(1)
    assert refs is not None
    levin, oracle = wl.make_cases("stationary-deep", 1)
    for case in (levin[0], oracle[-1]):
        lam, m = case.params["lambda"], case.params["m"]
        assert abs(wl.split_route_value(lam, m) - refs[lam, m]) <= 1e-13


def test_split_refs_agree_with_gauss():
    _, oracle = wl.make_cases("stationary-deep", 1)
    refs = wl.load_refs(1)
    for case in (oracle[0], oracle[-1]):
        lam, m = case.params["lambda"], case.params["m"]
        gauss = reference.evaluate_oracle("I22", case.params, tol=1e-15)
        assert abs(gauss.value - refs[lam, m]) <= 1e-12
    params = {"lambda": 1e4, "m": 10.0}
    gauss = reference.evaluate_oracle("I22", params, tol=1e-15)
    assert abs(gauss.value - wl.split_route_value(1e4, 10.0)) <= 1e-12


def test_traced_pass_matches_untraced():
    levin, oracle = wl.make_cases("reference-table", 1)
    cases = levin[::40] + oracle[::40]
    untraced = one_pass(cases)
    originals = (reference.adaptive_integrate, reference.integrand_for)
    tracer = spans.Tracer()
    with spans.install(tracer):
        traced = one_pass(cases, tracer.wrap("bench.case", wl.evaluate))
    assert (reference.adaptive_integrate, reference.integrand_for) == originals
    assert [run.fingerprint(r) for r in traced.first] == \
        [run.fingerprint(r) for r in untraced.first]
    metrics = spans.layer_metrics(spans.layer_totals(tracer, 0, len(tracer)))
    assert set(metrics) == set(spans.UNITS) - {"trace.overhead_share"}
    n_levin = len(levin[::40])
    components = sum(2 if c.id == "I21" else 1 for c in levin[::40])
    assert metrics["adaptive.adaptive_integrate.calls"] == components
    assert metrics["oracle.adaptive_gauss.calls"] == len(oracle[::40])
    assert metrics["levin.panel_trio.calls"] == metrics["adaptive.intervals_processed"]
    assert metrics["linalg.qr_factor.calls"] == 3 * metrics["levin.panel_trio.calls"]
    assert sum(r.intervals_used for r in untraced.first[:n_levin]) == \
        3 * metrics["adaptive.intervals_processed"]


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if (BENCH.parent / "BENCHMARK.json").is_file():
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
