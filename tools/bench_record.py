"""Record a BENCH_<n>.json: the benchmark on a parent commit and on the work tree.

Run from the root of the repository:

    python3 tools/bench_record.py --parent <commit> --out BENCH_<n>.json

For each workload at seed ``SEED`` it makes ``RUNS`` untraced
``bench/run.py`` runs of the default length on the parent (a ``git
archive`` of the commit in a temporary directory) and as many on the work
tree, alternating which side goes first, then one traced run on the work
tree.  The file holds every run's result (the last line of
``bench/run.py``, with its ``run`` line), the medians of each side's
end-to-end metrics, the traced per-layer metrics, the ``provenance`` line
and the parent commit hash.  Runs go one at a time.

For each end-to-end metric of ``BENCHMARK.json`` the file also records,
per workload, the change/parent median ratio, the metric's bound and
whether the change stays within it: no worse than the parent's median by
more than ``bound`` times that median, in the metric's ``better``
direction.  After writing the file the tool prints every metric outside
its bound to stderr and exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
RUNS = 3
SEED = 1


def bench(checkout, workload, trace):
    """One bench/run.py run: (result, run info, provenance)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    lines = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
             for line in out[:-1] if line.startswith(("provenance ", "run "))}
    return json.loads(out[-1]), lines["run"], lines["provenance"]


def medians(results):
    return {name: statistics.median(r["metrics"][name]["value"] for r in results)
            for name in results[0]["metrics"]}


def bound_check(parent, change):
    """Per end-to-end metric: change/parent ratio, bound and whether it holds."""
    checks = {}
    for metric in SPEC["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        old, new = parent[name], change[name]
        within = (new <= old * (1 + bound) if better == "lower"
                  else new >= old * (1 - bound))
        checks[name] = {"ratio": new / old if old else None, "bound": bound,
                        "better": better, "within": within}
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    parent = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    doc = {"parent": parent, "seed": SEED, "runs_per_side": RUNS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"parent": Path(tmp), "change": ROOT}
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for i in range(RUNS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result, info, doc["provenance"] = bench(sides[side], workload, 0)
                    runs[side].append(dict(result, run=info))
                    print(workload, side, i, json.dumps(result["metrics"]["integrals_per_s"]),
                          file=sys.stderr)
            traced, info, _ = bench(ROOT, workload, 1)
            entry = {side: {"runs": runs[side], "median": medians(runs[side])}
                     for side in runs}
            entry["change_traced"] = dict(traced, run=info)
            entry["bounds"] = bound_check(entry["parent"]["median"],
                                          entry["change"]["median"])
            doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    outside = [(workload, name, check) for workload, entry in doc["workloads"].items()
               for name, check in entry["bounds"].items() if not check["within"]]
    for workload, name, check in outside:
        print(f"{workload}: {name} is outside its bound: change/parent = {check['ratio']}, "
              f"bound {check['bound']}, {check['better']} is better", file=sys.stderr)
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
