"""Compare per-case answers and CLI output of the work tree with a parent commit.

Run from the root of the repository:

    python3 tools/fingerprints.py --parent <commit>

Every case of both routes of every workload in ``bench/workloads.py``, and
every Levin case of ``reference-table`` once more with ``solver="svd"``
(route ``levin-svd``), at seeds 1 and 7, is evaluated once in the work tree
and once in a ``git archive`` of the parent (extracted to a temporary directory), each side in
its own process with its own ``src/`` and ``bench/`` (nothing is written
there).  A case's fingerprint is the real and imaginary value bits,
``intervals_used``, ``fevals`` and the status.  The two sides run at the
same time, one process each.

Then each command of CLI_RUNS runs as ``python -W error -m oscquad.cli``
against each side's ``src/``, the two sides at the same time, and its
stdout and exit code are compared.  Each side runs with an address space
of CLI_ADDRESS_SPACE bytes, and one still running CLI_TIMEOUT seconds
after its output is first read is killed.  A side that times out or is
refused memory (a MemoryError) counts as a difference.

The tool prints the number of cases and commands compared, then three
groups of differing cases: each case whose ``intervals_used`` or status
differs, or whose value bits and ``fevals`` both differ; per workload and
route, the cases that differ only in ``fevals`` (how many, their ids and
the ``fevals`` totals before and after); and per workload and route, the
cases that differ only in value bits (how many, their ids and the largest
relative |change in value|).  Last it prints each command whose stdout or
exit code differs, or that ran out of time or memory (with the last
stderr line of each side).  It exits 1 if any case or command differs.
"""

import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
CLI_TIMEOUT = 60.0  # seconds; the longest CLI_RUNS command takes about 2
CLI_ADDRESS_SPACE = 2 ** 30  # bytes; every CLI_RUNS command runs under 2 ** 28

# The README examples (to stdout), the criterion-8 commands, other output
# paths, every kind of expression error, and bad input.  Each command that
# prints a time gets --no-timing.
CLI_RUNS = [
    ["integrate", "--f", "1/(1+x^2)", "--g", "lambda*atan(x)", "--kernel", "cos",
     "--a", "-1", "--b", "1", "--param", "lambda=100", "--no-timing"],
    ["integrate", "--paper-integral", "I9", "--param", "lambda=1e4", "--param", "m=3",
     "--no-timing"],
    ["sweep", "--paper-integral", "I1", "--decades", "1:7", "--count", "200", "--no-timing"],
    ["sweep", "--paper-integral", "I9", "--decades", "1:7", "--count", "200",
     "--grid-param", "m=2,3,4,5", "--eps", "1e-7", "--no-timing"],
    ["compare", "--paper-integral", "I6", "--ranges", "1e0:1e1,1e1:1e2,1e2:1e3,1e3:1e4",
     "--samples", "20", "--oracle-tol", "1e-15", "--no-timing"],
    ["selftest", "--filter", "chebyshev"],
    ["sweep", "--paper-integral", "I9", "--decades", "1:5", "--count", "25",
     "--grid-param", "m=2,3", "--eps", "1e-7", "--no-timing"],
    ["compare", "--paper-integral", "I6", "--ranges", "1e0:1e1,1e1:1e2", "--samples", "5",
     "--seed", "7", "--no-timing"],
    ["integrate", "--paper-integral", "I21", "--param", "kappa=100", "--param", "m=50",
     "--param", "alpha=0.5", "--eps-scale", "sqrt-kappa", "--no-timing"],
    ["integrate", "--f", "cos(x)", "--f-imag", "sin(x)", "--g", "50*x", "--a", "0",
     "--b", "1", "--kernel", "sin", "--no-timing"],
    ["integrate", "--f", "1/x", "--g", "1", "--a", "0", "--b", "1", "--no-timing"],
    ["compare", "--paper-integral", "I1", "--ranges", "1e0:1e2,1e5:1e6", "--samples", "3",
     "--max-oracle-lambda", "30", "--no-timing"],
    ["compare", "--paper-integral", "I1", "--ranges", "1:10", "--samples", "2",
     "--max-oracle-lambda", "inf", "--no-timing"],
    *(["integrate", "--f", f, "--g", "x", "--a", "0", "--b", "1", "--param", "m=0",
       "--no-timing"]
      for f in ("sin(", "x $ 2", "(x", "frob(x)", "sin(x, 1)", "1 + 2)", "2 x", "a*x",
                "2^2000", "x + 1/0", "1/m*x", "-2^2*x", "2^3^2*x")),
    ["integrate", "--f", "1e308", "--g", "x", "--a", "0", "--b", "1", "--no-timing"],
    ["integrate", "--f", "1e308", "--g", "x", "--a", "0", "--b", "1", "--solver", "svd",
     "--no-timing"],
    ["sweep", "--paper-integral", "I1", "--decades=-400:-399", "--count", "2",
     "--no-timing"],
    ["sweep", "--paper-integral", "I1", "--decades", "300:400", "--count", "2",
     "--no-timing"],
    ["compare", "--paper-integral", "I1", "--ranges", "1:10", "--max-oracle-lambda", "nan"],
    ["sweep", "--paper-integral", "I1", "--decades", "2:1"],
    ["integrate", "--paper-integral", "I2", "--param", "lambda=-1"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=nan"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--k", "3"],
    ["sweep", "--paper-integral", "I1", "--param", "lambda=5", "--decades", "1:2",
     "--count", "2"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=5", "--kernel", "exp"],
    ["integrate", "--f", "exp(-x^2)", "--g", "0", "--a=-1e308", "--b=1e308"],
    ["integrate", "--f", "+".join(["x"] * 1000), "--g", "x", "--a", "0", "--b", "1",
     "--no-timing"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--k", "201",
     "--no-timing"],
    ["sweep", "--paper-integral", "I1", "--count", "2", "--out",
     str(ROOT / "no-such-dir" / "x.csv"), "--no-timing"],
    # An integrand of magnitude 1e6: accepted at the roundoff of its values.
    ["integrate", "--f", "1e6*exp(x)", "--g", "10*x", "--a", "0", "--b", "1", "--no-timing"],
    # The closed-form column of I5 and I6, across the series/erf switch at 1.
    *(["sweep", "--paper-integral", id, "--decades=-8:4", "--count", "13", "--no-timing"]
      for id in ("I5", "I6")),
    # I7's closed-form column up to 1e15, and its Gauss values in the top
    # criterion-2 range.
    ["sweep", "--paper-integral", "I7", "--decades=-8:15", "--count", "24", "--no-timing"],
    ["compare", "--paper-integral", "I7", "--ranges", "1e3:1e4", "--samples", "3",
     "--oracle-tol", "1e-15", "--no-timing"],
    # Runs that stop: at the width floor (an endpoint singularity under a
    # phase that oscillates) and at a panel failure (invalid right of 0.3).
    ["integrate", "--f", "1/sqrt(x)", "--g", "100*x", "--a", "0", "--b", "1", "--no-timing"],
    ["integrate", "--f", "sqrt(0.3-x)", "--g", "x", "--a", "0", "--b", "1", "--no-timing"],
    # A failed interval whose rounded left half is below the width floor
    # while its computed half-width is not: 'panel_failure' on both solvers.
    *(["integrate", "--f", "sqrt(4.808191-x)", "--g", "3*x", "--a", "3.218", "--b", "6.358",
       *solver, "--no-timing"] for solver in ([], ["--solver", "svd"])),
    # Converged runs on the SVD route.
    ["sweep", "--paper-integral", "I9", "--decades", "1:5", "--count", "25",
     "--grid-param", "m=2,3", "--eps", "1e-7", "--solver", "svd", "--no-timing"],
    ["integrate", "--paper-integral", "I22", "--param", "lambda=1e4", "--param", "m=10",
     "--solver", "svd", "--no-timing"],
    # Estimates that overflow, in the same passes as good spans.
    *(["integrate", "--f", "1e308*max(x-0.5,0)", "--g", "40*x", "--a", "0", "--b", "1",
       "--solver", solver, "--no-timing"] for solver in ("qr", "svd")),
    # The paper's low-frequency case: every panel keeps rank 11 of 12 on
    # both solvers, so a converged run goes through each truncated apply.
    *(["integrate", "--f", "1+x^2", "--g", "1e-8*x^2", "--a", "-1", "--b", "1",
       "--solver", solver, "--no-timing"] for solver in ("qr", "svd")),
    # Semi-infinite domains, closed by a Levin tail: I3's integrand on both
    # solvers, a cos-kernel tail, a stationary point beyond the first
    # doublings, two tails that never settle, one whose samples fail, and
    # an infinite lower end and an a too large for a tail, both refused;
    # then 1/x^2 under phases whose |g'| decays like a power (log x and
    # sqrt x) and under one whose |g'| shrinks toward a stationary point;
    # then a tail whose f underflows to 0 and one with no oscillation
    # (g' = 0), which ends 'divergent' though it converges; then a complex
    # f under the cos and sin kernels, whose tail takes the end terms of the
    # second solve against conj(f); last a tail whose |g'| grows from its
    # first rung [1, 2], so that it reaches down toward the stationary
    # point at 0, and one whose |g'| does not grow and keeps that rung.
    *(["integrate", "--f", "2/x", "--g", "lambda*x", "--a", "1", "--b", "inf",
       "--param", "lambda=10", "--solver", solver, "--no-timing"] for solver in ("qr", "svd")),
    ["integrate", "--f", "1/x", "--g", "10*x", "--kernel", "cos", "--a", "1", "--b", "inf",
     "--no-timing"],
    *(["integrate", "--f", f, "--g", g, "--a", "1", "--b", "inf", "--no-timing"]
      for f, g in (("1/(1+x^2)", "(x-100)^2"), ("1", "x"), ("1/x", "log(x)"),
                   ("sqrt(10-x)", "x"))),
    *(["integrate", "--f", "1/x", "--g", "x", a, "--b", "inf", "--no-timing"]
      for a in ("--a=-inf", "--a=1e308")),
    *(["integrate", "--f", "1/x^2", "--g", g, "--a", "1", "--b", "inf", "--no-timing"]
      for g in ("log(x)", "sqrt(x)", "sqrt(x)-x/1000")),
    *(["integrate", "--f", f, "--g", g, "--a", "0", "--b", "inf", "--no-timing"]
      for f, g in (("exp(-(x^2))", "x"), ("exp(0-x)", "0"))),
    *(["integrate", "--f", "1/x", "--f-imag", "2/x", "--g", "10*x", "--a", "1", "--b", "inf",
       "--kernel", kernel, "--no-timing"] for kernel in ("cos", "sin")),
    *(["integrate", "--f", f, "--g", g, "--a", "0", "--b", "inf", "--no-timing"]
      for f, g in (("1", "1000*x^2"), ("exp(0-x)", "1000*x"))),
    # Refused before any work.  A commit without the [1, 1000000] bound
    # asks for 8 GB of lambda values (sweep) or a million integrals per
    # range (compare); there the address-space cap refuses the first and
    # the timeout ends the second, and both show as differences.
    ["sweep", "--paper-integral", "I1", "--count", "1000000000", "--no-timing"],
    ["compare", "--paper-integral", "I1", "--ranges", "1:10", "--samples", "1000001",
     "--no-timing"],
]

# Evaluates every case in the checkout named by argv[1], and reference-table's
# Levin cases again on the SVD solver, and prints one JSON list of
# [workload, seed, route, index, id, params, fingerprint] rows.
WORKER = """
import dataclasses, json, sys
from pathlib import Path
checkout = Path(sys.argv[1])
sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
import oscquad, workloads
assert Path(oscquad.__file__).resolve().parent == (checkout / "src" / "oscquad").resolve()
rows = []
for name in workloads.WORKLOADS:
    for seed in map(int, sys.argv[2:]):
        levin, oracle = workloads.make_cases(name, seed)
        svd = [dataclasses.replace(case, config=oscquad.AdaptiveConfig(eps=case.eps,
                                                                       solver="svd"))
               for case in levin] if name == "reference-table" else []
        for route, cases in (("levin", levin), ("oracle", oracle), ("levin-svd", svd)):
            for i, case in enumerate(cases):
                r = workloads.evaluate(case)
                v = complex(r.value)
                rows.append([name, seed, route, i, case.id, case.params,
                             [v.real.hex(), v.imag.hex(), r.intervals_used, r.fevals,
                              r.status]])
print(json.dumps(rows))
"""


def relative_change(old, new):
    """|new value - old value| / |old value| of two fingerprints."""
    before, after = (complex(float.fromhex(fp[0]), float.fromhex(fp[1])) for fp in (old, new))
    return abs(after - before) / abs(before) if before else abs(after - before)


def cap_address_space():
    """Run in the child before it execs: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))


def finish(proc):
    """(exit code, stdout, stderr) of a CLI run; the code is 'timeout' for a
    run killed after CLI_TIMEOUT seconds and 'out of memory' for one
    refused memory."""
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return "timeout", out, err
    return ("out of memory" if "MemoryError" in err else proc.returncode), out, err


def compare_cli(parent_root, env):
    """The CLI_RUNS entries whose stdout or exit code differ between the sides,
    or where either side ran out of time or memory."""
    differ = []
    for argv in CLI_RUNS:
        procs = [subprocess.Popen([sys.executable, "-B", "-W", "error", "-m", "oscquad.cli",
                                   *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=dict(env, PYTHONPATH=str(root / "src")), text=True,
                                  preexec_fn=cap_address_space)
                 for root in (parent_root, ROOT)]
        (old, old_out, old_err), (new, new_out, new_err) = map(finish, procs)
        if (old, old_out) != (new, new_out) or isinstance(old, str) or isinstance(new, str):
            last = [(err.strip().splitlines() or ["(none)"])[-1] for err in (old_err, new_err)]
            differ.append((argv, old, new, old_out != new_out, last))
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    args = parser.parse_args(argv)

    parent = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        procs = {side: subprocess.Popen([sys.executable, "-B", "-c", WORKER, str(path),
                                         *map(str, SEEDS)],
                                        stdout=subprocess.PIPE, env=env, text=True)
                 for side, path in (("parent", tmp), ("change", ROOT))}
        outs = {side: proc.communicate()[0] for side, proc in procs.items()}
        cli_differ = compare_cli(Path(tmp), env)
    for side, proc in procs.items():
        if proc.returncode != 0:
            sys.exit(f"{side} run failed with exit code {proc.returncode}")
    rows = {side: json.loads(out) for side, out in outs.items()}
    if [r[:6] for r in rows["parent"]] != [r[:6] for r in rows["change"]]:
        sys.exit("the two sides evaluated different cases")
    differ = [(old, new) for old, new in zip(rows["parent"], rows["change"])
              if old[6] != new[6]]
    counted, fevals_only, value_only = [], {}, {}  # the dicts keyed by (workload, route)
    for old, new in differ:
        (re0, im0, n0, fe0, st0), (re1, im1, n1, fe1, st1) = old[6], new[6]
        same_value = (re0, im0) == (re1, im1)
        if (n0, st0) != (n1, st1) or not (same_value or fe0 == fe1):
            counted.append((old, new))
        else:
            group = fevals_only if same_value else value_only
            group.setdefault((old[0], old[2]), []).append((old, new))
    print(f"{len(rows['change'])} cases compared against {parent[:12]}, "
          f"{len(differ)} differ")
    print(f"{len(counted)} differ in intervals_used or status, or in value bits "
          f"and fevals")
    for old, new in counted:
        name, seed, route, i, id_, params = old[:6]
        print(f"  {name} seed {seed} {route} #{i} {id_} {params}: "
              f"parent {old[6]} change {new[6]}")
    print(f"{sum(map(len, fevals_only.values()))} differ only in fevals")
    for (name, route), pairs in fevals_only.items():
        ids = sorted({old[4] for old, _ in pairs})
        before, after = (sum(pair[k][6][3] for pair in pairs) for k in (0, 1))
        print(f"  {name} {route}: {len(pairs)} cases ({', '.join(ids)}), "
              f"fevals {before} -> {after}")
    print(f"{sum(map(len, value_only.values()))} differ only in value bits")
    for (name, route), pairs in value_only.items():
        ids = sorted({old[4] for old, _ in pairs})
        worst = max(relative_change(old[6], new[6]) for old, new in pairs)
        print(f"  {name} {route}: {len(pairs)} cases ({', '.join(ids)}), "
              f"largest relative |change in value| {worst:.2g}")
    print(f"{len(CLI_RUNS)} CLI commands compared, {len(cli_differ)} differ")
    for argv, old, new, stdout_differs, (old_err, new_err) in cli_differ:
        print(f"oscquad {shlex.join(argv)}: exit {old} -> {new}"
              f"{', stdout differs' if stdout_differs else ''}\n"
              f"    parent stderr: {old_err}\n    change stderr: {new_err}")
    return 1 if differ or cli_differ else 0


if __name__ == "__main__":
    sys.exit(main())
