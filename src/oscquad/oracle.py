"""Independent reference integrator: adaptive Gauss-Legendre quadrature.

Cross-validation for the collocation-based integrator.  Panels are plain
30-point Gauss-Legendre estimates, and each interval is judged by the
whole-vs-halves comparison of the Levin route, in the same solve-ahead
table, with the unsplit panel value accumulated on acceptance.  One call
of ``fn`` per miss of the table samples the three panels of each interval
of its pass, and one (3m, 30) x 30 product sums them, each to the bits of
a trio sampled on its own; only the table groups the panels into trios
and judges them.  Nothing numeric is shared with the Levin panels beyond
the worklist logic and that table, so agreement between the two is
meaningful evidence of correctness.

Being oblivious to the oscillator, the cost grows linearly with frequency;
callers should keep it away from very high frequencies (the benchmark
harness caps it at lambda <= 1e4 by default).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adaptive import QuadResult, _run_worklist, _SolveAhead
from .levin import PanelError, check_domain

_MAX_POINTS = 200
_POINTS = 30  # Gauss-Legendre points per adaptive_gauss panel
PASS_POINTS = 2 ** 12  # fn points a pass, 45 trios: a product too small for BLAS threads


@dataclass(frozen=True)
class GaussRule:
    """Gauss-Legendre rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.cache
def gauss_rule(n: int) -> GaussRule:
    """Build (and cache) the n-point Gauss-Legendre rule.

    Nodes are the roots of the degree-n Legendre polynomial, found by
    Newton iteration from the Chebyshev-angle initial guesses; weights are
    2 / ((1 - x^2) P_n'(x)^2).  The rule is exact for polynomials of
    degree 2n - 1 and the grid is symmetrized about 0.
    """
    if not (hasattr(n, "__index__") and 1 <= n <= _MAX_POINTS):
        raise ValueError(f"point count must be an integer in [1, {_MAX_POINTS}], got {n!r}")
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        pn, dpn = _legendre(n, x)
        dx = pn / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Legendre root iteration did not converge")
    dpn = _legendre(n, x)[1]  # one clean-up pass for the weights, then symmetrize
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    x, w = x[order], w[order]
    rule = GaussRule(nodes=0.5 * (x - x[::-1]), weights=0.5 * (w + w[::-1]))
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def adaptive_gauss(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   tol: float = 1e-15) -> QuadResult:
    """Adaptively integrate a (possibly complex-valued) function over [a, b].

    ``fn`` must accept a float ndarray.  The default tolerance of 1e-15 is
    deliberately tighter than typical targets for the main integrator so
    the reference value does not limit comparisons.  The interval budget
    and width floor are those of the collocation driver.

    Each call of ``fn`` samples 90 points per trio for the trios of one
    pass of the solve-ahead table (``adaptive._SolveAhead``), one pass per
    miss, at most PASS_POINTS points; each panel's points are
    mid + half * node, as for a trio sampled on its own.  A non-finite
    sample or estimate fails its panel alone, and the table fails the
    panel's trio.  ``fevals`` counts every sampled point: 90 per processed
    interval in a converged run (22.80M a pass over the benchmark's
    reference table at seed 1), and in a run that stops, also the trios
    sampled ahead and never popped.
    """
    check_domain(a, b)
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ValueError("tol must be finite and > 0")
    n = _POINTS
    nodes, weights = gauss_rule(n).nodes, gauss_rule(n).weights

    def solve(intervals):
        lo, hi = np.array(intervals).T
        h0 = 0.5 * (hi - lo)
        hh = 0.5 * h0
        # each point is mid + half * node, for a trio's whole, then its halves,
        # the right half's mid taken from the driver's 0.5 * (a0 + b0)
        mids = np.stack((lo + h0, lo + hh, 0.5 * (lo + hi) + hh), axis=1).ravel()
        halves = np.stack((h0, hh, hh), axis=1).ravel()
        xs = mids[:, None] + halves[:, None] * nodes
        ys = np.asarray(fn(xs.ravel()), dtype=np.complex128)
        # the weights are positive, so a non-finite sample makes its sum non-finite
        values = halves * (ys.reshape(-1, n) @ weights)
        bad = np.nonzero(~np.isfinite(values))[0].tolist()
        values, nevals = values.tolist(), xs.size
        for i in bad:
            values[i] = PanelError("non-finite sample or estimate on the panel of"
                                   f" mid {mids[i]} and half-width {halves[i]}")
        return values, nevals

    ahead = _SolveAhead(solve, a, b, tol, max(1, PASS_POINTS // (3 * n)))
    # fn or a weighted sum may overflow or be undefined; the check above
    # catches every non-finite result, so numpy's warnings are silenced once
    with np.errstate(all="ignore"):
        return _run_worklist(ahead.trio, a, b)
