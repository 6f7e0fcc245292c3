"""Compare per-case answers of the work tree with those of a parent commit.

Run from the root of the repository:

    python3 tools/fingerprints.py --parent <commit>

Every case of both routes of every workload in ``bench/workloads.py``, at
seeds 1 and 7, is evaluated once in the work tree and once in a ``git
archive`` of the parent (extracted to a temporary directory), each side in
its own process with its own ``src/`` and ``bench/`` (nothing is written
there).  A case's fingerprint is the real and imaginary value bits,
``intervals_used``, ``fevals`` and the status.  The two sides run at the
same time, one process each.  The tool prints the number of cases
compared and each case whose fingerprint differs, and exits 1 if any
does.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)

# Evaluates every case in the checkout named by argv[1] and prints one JSON
# list of [workload, seed, route, index, id, params, fingerprint] rows.
WORKER = """
import json, sys
from pathlib import Path
checkout = Path(sys.argv[1])
sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
import oscquad, workloads
assert Path(oscquad.__file__).resolve().parent == (checkout / "src" / "oscquad").resolve()
rows = []
for name in workloads.WORKLOADS:
    for seed in map(int, sys.argv[2:]):
        levin, oracle = workloads.make_cases(name, seed)
        for route, cases in (("levin", levin), ("oracle", oracle)):
            for i, case in enumerate(cases):
                r = workloads.evaluate(case)
                v = complex(r.value)
                rows.append([name, seed, route, i, case.id, case.params,
                             [v.real.hex(), v.imag.hex(), r.intervals_used, r.fevals,
                              r.status]])
print(json.dumps(rows))
"""


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
    for side, proc in procs.items():
        if proc.returncode != 0:
            sys.exit(f"{side} run failed with exit code {proc.returncode}")
    rows = {side: json.loads(out) for side, out in outs.items()}
    if [r[:6] for r in rows["parent"]] != [r[:6] for r in rows["change"]]:
        sys.exit("the two sides evaluated different cases")
    differ = [(old, new) for old, new in zip(rows["parent"], rows["change"])
              if old[6] != new[6]]
    print(f"{len(rows['change'])} cases compared against {parent[:12]}, "
          f"{len(differ)} differ")
    for old, new in differ:
        name, seed, route, i, id_, params = old[:6]
        print(f"{name} seed {seed} {route} #{i} {id_} {params}: "
              f"parent {old[6]} change {new[6]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
