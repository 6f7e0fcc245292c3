"""oscquad benchmark: one command, three workloads, one closed-loop client.

Run from the root of a source checkout:

    python3 bench/run.py --workload closed-sweep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; without it the
command fails.  Workloads (see ``workloads.py``):

* ``closed-sweep``    I1..I4 at 200 log-spaced lambda in [1e1, 1e7] each,
                      against closed forms; Gauss route on I1 up to 1e4.
* ``stationary-deep`` I22, m in {10, 20}, 25 lambda in [1e5, 1e7] each,
                      against split-route references; Gauss route on I22
                      at lambda in [1e2, 1e3].
* ``reference-table`` the criterion-2 table (I5..I8, four decades, 20 lambda
                      each), criterion 3 (I6 at low lambda) and criterion 6
                      (I21); every case on both routes.

Each route makes full passes over its cases, each in a seeded random
order, one call at a time, until its share of ``--seconds`` is spent and
it has made at least 100 calls (so the 90th percentile has 10 samples
beyond it).  Counts, errors and failures are exact figures of the first
pass; every later call of a case must return the same value and counts bit
for bit.  Times are calibrated against the machine's speed at the moment
(see ``calibrate.py``); the ``run`` line before the JSON gives the wall
figures too.

``--trace 0`` prints the end-to-end metrics.  ``max_error_digits`` is
-log10 of the largest Levin error (the error itself, whose largest value
swings by half between seeds, is on the ``run`` line).  ``setup_s`` is
the median time of seven fresh processes that start Python, import the program, fill
the Chebyshev-grid and Gauss-rule caches, generate the workload and load
its references.  ``--trace 1`` makes one untraced pass, then traced passes
for ``--seconds`` (see ``spans.py``); it reports per-layer counts and self
times per pass, checks that traced answers equal untraced ones bit for
bit, and writes the spans to ``bench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts the
distinct cases of both routes and ``failed`` those whose answer did not
converge or missed its accuracy bound, so both depend on the seed alone;
such answers are failures of the program, not of the run.  ``correct`` is false when
the run itself cannot be trusted: a repeated call gave a different answer,
a traced answer differed from the untraced one, or a reference was not
finite.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported (here or in set-up
# processes, which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import Clock  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
MIN_CALLS = 100

END_TO_END_UNITS = {
    "setup_s": "s", "integrals_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "panels_per_integral": "count",
    "fevals_per_integral": "count", "max_error_digits": "digits",
    "correct_fraction": "share", "peak_rss_mb": "MB",
    "oracle_integrals_per_s": "1/s", "oracle_latency_p50_ms": "ms",
    "oracle_latency_p90_ms": "ms",
}


def import_program():
    """Import oscquad from this checkout's src/, or raise ImportError."""
    if not (SRC / "oscquad" / "__init__.py").is_file():
        raise ImportError(f"no oscquad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import oscquad
    if Path(oscquad.__file__).resolve().parent != SRC / "oscquad":
        raise ImportError(f"oscquad imported from {oscquad.__file__}, not {SRC}")
    return oscquad


def fingerprint(result):
    v = complex(result.value)
    return (v.real.hex(), v.imag.hex(), result.intervals_used, result.fevals,
            result.status)


class RouteRun:
    """Closed-loop calls of one route's cases and what they returned."""

    def __init__(self, cases, clock):
        self.cases = cases
        self.clock = clock
        self.first = [None] * len(cases)
        self.calls = [0] * len(cases)
        self.started = []
        self.latencies = []
        self.passes = []            # index into latencies where each full pass ends
        self.repeats_differ = 0

    def call(self, i, evaluate, expected=None):
        """Time one call; count it as differing if it does not repeat ``expected``
        (by default the case's first answer) bit for bit."""
        t0 = perf_counter()
        result = evaluate(self.cases[i])
        dt = perf_counter() - t0
        self.clock.tick()
        self.started.append(t0)
        self.latencies.append(dt)
        self.calls[i] += 1
        if self.first[i] is None:
            self.first[i] = result
        if fingerprint(result) != fingerprint(expected or self.first[i]):
            self.repeats_differ += 1

    def full_pass(self, evaluate, order_rng, expected=None):
        for i in order_rng.permutation(len(self.cases)):
            i = int(i)
            self.call(i, evaluate, None if expected is None else expected[i])
        self.passes.append(len(self.latencies))

    def calibrated(self) -> np.ndarray:
        """Calibrated latency of every call, in seconds."""
        lat = np.asarray(self.latencies)
        return lat * self.clock.scale(np.asarray(self.started) + 0.5 * lat)


def run_route(route, evaluate, budget_s, order_rng, min_calls=MIN_CALLS):
    """Make full passes over the cases until the budget is spent and at least
    ``min_calls`` calls were made, so every case is called equally often."""
    t_start = perf_counter()
    while route.cases and not (len(route.latencies) >= min_calls
                               and perf_counter() - t_start >= budget_s):
        route.full_pass(evaluate, order_rng)


def check_routes(wl, levin, oracle):
    """(reference, error, failed) per case of each route, from the first answers.

    A Levin case without its own reference is checked against the oracle
    answer to the same case."""
    def checks(run, other):
        out = []
        for i, case in enumerate(run.cases):
            ref = case.ref
            if ref is None and case.route == "levin":
                ref = complex(other.first[i].value)
            res = run.first[i]
            err = None if ref is None else wl.answer_error(res, ref)
            out.append((ref, err, wl.is_failed(case, res, ref)))
        return out
    return checks(levin, oracle), checks(oracle, levin)


def tally(*checks):
    """(attempted, failed) over distinct cases, so both are fixed by the seed.

    Calls beyond a case's first must repeat its answer bit for bit (else the
    run is not ``correct``), so they add no new answers to count; counting
    calls would make both figures depend on how fast the machine ran."""
    return (sum(len(c) for c in checks),
            sum(bad for c in checks for _, _, bad in c))


def refs_finite(*checks):
    return all(ref is None or math.isfinite(abs(ref)) for c in checks for ref, _, _ in c)


def latency_metrics(prefix, lat):
    p90 = float(np.percentile(lat, 90))
    beyond = int(np.count_nonzero(lat > p90))
    if beyond < 10:
        raise RuntimeError(f"only {beyond} {prefix or 'levin_'}samples beyond p90")
    return {f"{prefix}integrals_per_s": lat.size / float(lat.sum()),
            f"{prefix}latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            f"{prefix}latency_p90_ms": 1e3 * p90}


def measure_setup(workload, seed, clock):
    """Median calibrated and wall time of fresh set-up processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times, mids = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            clock.sample()
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        mids.append(t0 + 0.5 * times[-1])
        for _ in range(3):
            clock.sample()
    calibrated = np.asarray(times) * clock.scale(mids)
    return statistics.median(calibrated), statistics.median(times)


def provenance():
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


def run_untraced(wl, workload, seconds, order_rng, clock):
    levin, oracle = RouteRun(workload.levin, clock), RouteRun(workload.oracle, clock)
    run_route(levin, wl.evaluate, seconds * workload.levin_share, order_rng)
    run_route(oracle, wl.evaluate, seconds * (1.0 - workload.levin_share), order_rng)
    levin_checks, oracle_checks = check_routes(wl, levin, oracle)

    n_failed = sum(bad for _, _, bad in levin_checks)
    max_error = max(err for _, err, _ in levin_checks)
    metrics = latency_metrics("", levin.calibrated())
    metrics.update(latency_metrics("oracle_", oracle.calibrated()))
    metrics.update({
        "panels_per_integral": float(np.mean([r.intervals_used for r in levin.first])),
        "fevals_per_integral": float(np.mean([r.fevals for r in levin.first])),
        "max_error_digits": -math.log10(max_error),
        "correct_fraction": 1.0 - n_failed / len(levin.cases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    correct = (refs_finite(levin_checks, oracle_checks)
               and levin.repeats_differ == 0 and oracle.repeats_differ == 0)
    wall = latency_metrics("", np.asarray(levin.latencies))
    info = {"levin_cases": len(levin.cases), "levin_failed_cases": n_failed,
            "max_abs_error": max_error,
            "levin_calls": len(levin.latencies), "levin_passes": len(levin.passes),
            "oracle_cases": len(oracle.cases),
            "oracle_failed_cases": sum(bad for _, _, bad in oracle_checks),
            "oracle_calls": len(oracle.latencies),
            "repeats_differ": levin.repeats_differ + oracle.repeats_differ,
            "wall_integrals_per_s": wall["integrals_per_s"],
            "wall_latency_p50_ms": wall["latency_p50_ms"],
            "kernel_samples": len(clock.took),
            "kernel_median_ms": 1e3 * statistics.median(clock.took)}
    counts = tally(levin_checks, oracle_checks)
    return correct, counts, metrics, info


def run_traced(wl, workload, seconds, order_rng, clock, spans_path):
    """One untraced pass, then traced passes until ``seconds`` have passed."""
    import spans

    base = [RouteRun(workload.levin, clock), RouteRun(workload.oracle, clock)]
    for run in base:
        run.full_pass(wl.evaluate, order_rng)

    tracer = spans.Tracer()
    traced = [RouteRun(workload.levin, clock), RouteRun(workload.oracle, clock)]
    roots = [tracer.wrap("bench.levin", wl.evaluate), tracer.wrap("bench.oracle", wl.evaluate)]
    bounds = []
    t_start = perf_counter()
    with spans.install(tracer):
        while not bounds or perf_counter() - t_start < seconds:
            lo = len(tracer)
            for run, ref_run, root in zip(traced, base, roots):
                run.full_pass(root, order_rng, expected=ref_run.first)
            bounds.append((lo, len(tracer)))

    def pass_times(runs, k):
        """Wall and calibrated busy seconds of pass k over both routes."""
        wall = cal = 0.0
        for run in runs:
            if run.cases:
                lo = run.passes[k - 1] if k else 0
                wall += sum(run.latencies[lo:run.passes[k]])
                cal += float(run.calibrated()[lo:run.passes[k]].sum())
        return wall, cal

    base_wall, base_cal = pass_times(base, 0)
    per_pass, overheads = [], []
    for k, (lo, hi) in enumerate(bounds):
        wall, cal = pass_times(traced, k)
        per_pass.append(spans.layer_metrics(spans.layer_totals(tracer, lo, hi),
                                            scale=cal / wall))
        overheads.append(cal / base_cal - 1.0)

    def counts_only(m):
        return {k: v for k, v in m.items() if not k.endswith("self_ms")}

    metrics = dict(per_pass[0])
    for key in metrics:
        if key.endswith("self_ms"):
            metrics[key] = statistics.median(m[key] for m in per_pass)
    metrics["trace.overhead_share"] = statistics.median(overheads)

    checks = check_routes(wl, *base)
    correct = (all(counts_only(m) == counts_only(per_pass[0]) for m in per_pass)
               and refs_finite(*checks)
               and all(run.repeats_differ == 0 for run in base + traced))
    tracer.save(spans_path, {"workload": workload.name, "seed": workload.seed,
                             "passes": bounds})
    info = {"spans": len(tracer), "traced_passes": len(bounds),
            "untraced_pass_s": base_wall, "untraced_pass_calibrated_s": base_cal,
            "repeats_differ": sum(run.repeats_differ for run in base + traced)}
    counts = tally(*checks)
    return correct, counts, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-sweep", "stationary-deep", "reference-table"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.setup_only:
        wl.prepare(args.workload, args.seed)
        return 0

    wl.ensure_refs(args.workload, args.seed)
    workload = wl.prepare(args.workload, args.seed)
    order_rng = np.random.default_rng([args.seed, 1])
    clock = Clock()
    if args.trace:
        import spans
        correct, counts, metrics, info = run_traced(
            wl, workload, args.seconds, order_rng, clock,
            OUT_DIR / f"spans-{args.workload}.npz")
        units = spans.UNITS
    else:
        setup_s, setup_wall = measure_setup(args.workload, args.seed, clock)
        correct, counts, metrics, info = run_untraced(wl, workload, args.seconds,
                                                      order_rng, clock)
        metrics["setup_s"] = setup_s
        info["wall_setup_s"] = setup_wall
        units = END_TO_END_UNITS
    print("provenance " + json.dumps(provenance()))
    print("run " + json.dumps(info))
    print(json.dumps({"correct": bool(correct), "attempted": counts[0], "failed": counts[1],
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
