"""The benchmark's workloads: their cases, references and answer checks.

A workload is two lists of cases, one per route.  The Levin route calls
``reference.evaluate_levin`` and the oracle route calls
``reference.evaluate_oracle`` (adaptive Gauss-Legendre).  Every frequency
comes from the seed: each sampled range is cut into equal cells in
log10(lambda) and one lambda is drawn uniformly (in log10) inside each
cell, so every seed covers the range evenly.

Each case carries its accuracy bound and, where one exists before the run,
its reference value:

* ``closed-sweep``: closed forms (``reference.closed_form_value`` for I1,
  I2 and I4; ``2*E1(-i*lambda)`` for I3, computed here).
* ``stationary-deep``: the stationary-point-split route, I22 summed over
  the pieces [j/m, (j+1)/m] with ``adaptive_integrate`` at eps=1e-14.  The
  values are computed once per seed and kept in ``refs/``.
* ``reference-table``: none; a Levin answer is checked against the oracle
  answer to the same case from the same run, as in acceptance criteria 2,
  3 and 6, and an oracle answer must have converged.

The accuracy bounds are those of the acceptance criteria the cases come
from.  No case is left out for being wrong.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import exp1

from oscquad import AdaptiveConfig, adaptive_integrate, chebyshev, reference
from oscquad.linalg import EPS0
from oscquad.oracle import gauss_rule

WORKLOADS = ("closed-sweep", "stationary-deep", "reference-table")
REFS_DIR = Path(__file__).resolve().parent / "refs"
SPLIT_EPS = 1e-14

# Share of a run's measuring time that goes to the Levin route; the oracle
# route gets the rest.
LEVIN_SHARE = {"closed-sweep": 0.85, "stationary-deep": 0.85, "reference-table": 0.5}


@dataclass(frozen=True)
class Case:
    """One integral to evaluate on one route.

    ``eps`` is the Levin tolerance or the Gauss tolerance.  ``ref`` is None
    when the reference is the other route's answer to the case with the
    same index (``reference-table``).
    """

    route: str
    id: str
    params: dict
    eps: float
    bound: float
    ref: complex | None = None
    config: AdaptiveConfig | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    levin: list
    oracle: list
    levin_share: float


def log_grid(lo: float, hi: float, n: int, rng) -> np.ndarray:
    """n points, one drawn in each of n equal cells of [log10 lo, log10 hi)."""
    a, b = math.log10(lo), math.log10(hi)
    return 10.0 ** (a + (b - a) * (np.arange(n) + rng.uniform(size=n)) / n)


def _levin(id, params, eps, bound, ref=None):
    return Case("levin", id, params, eps, bound, ref, AdaptiveConfig(eps=eps))


def _oracle(id, params, tol, bound, ref=None):
    return Case("oracle", id, params, tol, bound, ref)


def i3_value(lam: float) -> complex:
    """I3 = 2 * int_1^inf exp(i*lam*u)/u du = 2*E1(-i*lam)."""
    return complex(2.0 * exp1(-1j * lam))


def _closed_sweep(rng):
    levin, oracle = [], []
    for id in ("I1", "I2", "I3", "I4"):
        for lam in log_grid(1e1, 1e7, 200, rng):
            params = {"lambda": float(lam)}
            ref = i3_value(lam) if id == "I3" else complex(
                reference.closed_form_value(id, params))
            levin.append(_levin(id, params, 1e-12, 1e-10, ref))
            # The Gauss route is affordable on I1 up to lambda=1e4 and is
            # checked against the same closed form.
            if id == "I1" and lam <= 1e4:
                oracle.append(_oracle(id, params, 1e-15, 1e-10, ref))
    return levin, oracle


def _stationary_deep(rng):
    levin = [_levin("I22", {"lambda": float(lam), "m": m}, 1e-12, 1e-10)
             for m in (10.0, 20.0) for lam in log_grid(1e5, 1e7, 25, rng)]
    # Gauss is affordable only at low frequency; these cases also check the
    # split route against an independent integrator.
    oracle = [_oracle("I22", {"lambda": float(lam), "m": m}, 1e-15, 1e-10)
              for m in (10.0, 20.0) for lam in log_grid(1e2, 1e3, 32, rng)]
    return levin, oracle


def _reference_table(rng):
    levin, oracle = [], []

    def pair(id, params, eps, tol, bound):
        levin.append(_levin(id, params, eps, bound))
        oracle.append(_oracle(id, params, tol, bound))

    # criterion 2: I5..I8 over four decade ranges, 20 frequencies each
    for id in ("I5", "I6", "I7", "I8"):
        for lo, hi in ((1e0, 1e1), (1e1, 1e2), (1e2, 1e3), (1e3, 1e4)):
            for lam in log_grid(lo, hi, 20, rng):
                pair(id, {"lambda": float(lam)}, 1e-12, 1e-15, 5e-11)
    # criterion 3: low frequency
    for lam in (1e-8, 1e-4, 1e-2, 1.0):
        pair("I6", {"lambda": lam}, 1e-12, 1e-15, 1e-11)
    # criterion 6: modal Green's function, eps scaled as EPS0*sqrt(kappa)
    for kappa in (1e2, 1e3):
        for m in (1e2, 1e3):
            eps = EPS0 * math.sqrt(kappa)
            pair("I21", {"kappa": kappa, "m": m, "alpha": 0.5}, eps, eps, 1e-9)
    return levin, oracle


_BUILDERS = {"closed-sweep": _closed_sweep, "stationary-deep": _stationary_deep,
             "reference-table": _reference_table}


def make_cases(name: str, seed: int):
    """The (levin, oracle) case lists of a workload, without split references."""
    return _BUILDERS[name](np.random.default_rng(seed))


# --- stationary-point-split references ------------------------------------

def split_route_value(lam: float, m: float, eps: float = SPLIT_EPS) -> complex:
    """I22 summed over the pieces between its stationary points x = j/m."""
    components, _ = reference.integrand_for("I22", {"lambda": lam, "m": m})
    (weight, integrand), = components
    n = int(m)
    total = 0.0 + 0.0j
    for j in range(-n, n):
        res = adaptive_integrate(integrand, j / m, (j + 1) / m, AdaptiveConfig(eps=eps))
        if res.status != "converged":
            raise RuntimeError(f"split route did not converge for I22 lambda={lam} m={m}"
                               f" on piece {j}: {res.status}")
        total += res.value
    return complex(weight * total)


def refs_path(seed: int) -> Path:
    return REFS_DIR / f"stationary-deep-seed{seed}.json"


def _split_keys(seed: int):
    levin, oracle = make_cases("stationary-deep", seed)
    return [(c.params["lambda"], c.params["m"]) for c in levin + oracle]


def compute_refs(seed: int) -> dict:
    """Split-route references for every stationary-deep case of a seed."""
    rows = []
    for lam, m in _split_keys(seed):
        value = split_route_value(lam, m)
        rows.append([lam, m, value.real, value.imag])
    return {"workload": "stationary-deep", "seed": seed, "eps": SPLIT_EPS,
            "route": "adaptive_integrate on [j/m, (j+1)/m], summed",
            "columns": ["lambda", "m", "re", "im"], "cases": rows}


def write_refs(data: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


def load_refs(seed: int) -> dict | None:
    """{(lambda, m): value} from the refs file, or None if missing or stale."""
    path = refs_path(seed)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data.get("eps") != SPLIT_EPS:
        return None
    refs = {(lam, m): complex(re, im) for lam, m, re, im in data["cases"]}
    if any(key not in refs for key in _split_keys(seed)):
        return None
    return refs


def ensure_refs(name: str, seed: int):
    """Compute and store the split references of a seed if they are missing."""
    if name == "stationary-deep" and load_refs(seed) is None:
        write_refs(compute_refs(seed), refs_path(seed))


# --- set-up and checks ----------------------------------------------------

def prepare(name: str, seed: int) -> Workload:
    """Set-up: fill the grid and rule caches, build cases, load references."""
    chebyshev.grid(12)
    gauss_rule(30)
    levin, oracle = make_cases(name, seed)
    if name == "stationary-deep":
        refs = load_refs(seed)
        if refs is None:
            raise FileNotFoundError(f"no split references for seed {seed}; "
                                    f"run bench/make_refs.py --seed {seed}")
        levin, oracle = ([replace(c, ref=refs[c.params["lambda"], c.params["m"]]) for c in cases]
                         for cases in (levin, oracle))
    return Workload(name, seed, levin, oracle, LEVIN_SHARE[name])


def evaluate(case: Case):
    """The timed call: one integral through the public API."""
    if case.route == "levin":
        return reference.evaluate_levin(case.id, case.params, case.config)
    return reference.evaluate_oracle(case.id, case.params, tol=case.eps)


def answer_error(result, ref) -> float:
    """|value - ref|, or inf when the value is not finite."""
    err = abs(result.value - ref)
    return err if math.isfinite(err) else math.inf


def is_failed(case: Case, result, ref) -> bool:
    """A failed answer: not converged, not finite, or outside its bound."""
    if result.status != "converged" or not np.isfinite(result.value):
        return True
    return ref is not None and not answer_error(result, ref) <= case.bound
