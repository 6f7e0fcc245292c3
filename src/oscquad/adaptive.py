"""Adaptive bisection driver around the single-panel estimates.

The driver keeps a worklist of intervals, initially just [a, b].  For each
popped interval it computes the panel estimate for the whole interval and
for its two halves; if the whole-interval estimate agrees with the sum of
the half estimates to within the absolute tolerance, the *unsplit*
estimate is added to the running total, otherwise both halves go back on
the worklist.  The worklist is a LIFO stack, so runs are deterministic and
memory stays proportional to the subdivision depth.

Safety rails absent from the basic scheme, both fixed and reported
through ``QuadResult.status``: a budget of MAX_INTERVALS processed
intervals per run ('budget_exhausted') and a width floor, an interval
narrower than MIN_WIDTH_FACTOR * max(|a|, |b|, 1) ('width_floor').  A
panel that cannot be estimated (non-finite samples) is split; one that
still fails at the floor stops the run ('panel_failure').  The adaptive
Gauss-Legendre reference runs through the same driver and rails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebyshev, linalg
from .levin import Integrand, PanelError, check_domain, panel_trio

MAX_INTERVALS = 2 ** 20
MIN_WIDTH_FACTOR = 16.0 * linalg.EPS0


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of the adaptive integrator.

    eps
        Absolute acceptance tolerance of the whole-vs-halves test.
    k
        Collocation order per panel.
    solver
        'qr' (rank-revealing QR, the fast path) or 'svd' (truncated SVD,
        the verification path).  Both produce the same estimates to well
        below eps.
    """

    eps: float = 1e-12
    k: int = 12
    solver: str = "qr"

    def __post_init__(self):
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise ValueError("eps must be finite and > 0")
        if self.k < 4:
            raise ValueError("collocation order must be >= 4")
        if self.solver not in linalg.SOLVERS:
            raise ValueError(f"solver must be one of {linalg.SOLVERS}, got {self.solver!r}")


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive run.

    ``intervals_used`` counts three panels per processed interval, a
    failed one included; ``fevals`` counts every point at which the
    integrand was sampled.  ``value`` is the partial sum when the status is
    not 'converged'.
    """

    value: complex
    intervals_used: int
    fevals: int
    status: str


def accepted_pair_update(val0: complex, val_l: complex, val_r: complex,
                         eps: float) -> bool:
    """Whole-vs-halves acceptance test.

    True (accept, accumulate the unsplit val0) iff |val0 - (val_l + val_r)|
    is strictly below eps; a difference of exactly eps splits.
    """
    return abs(val0 - (val_l + val_r)) < eps


def _run_worklist(trio, a: float, b: float, eps: float) -> QuadResult:
    """Generic whole-vs-halves driver over a panel-trio evaluator.

    ``trio(a0, c0, b0)`` returns (val0, val_l, val_r, nevals) and may raise
    PanelError; a failing interval still counts its three panels and the
    error's ``nevals``, and is split until the width floor, at which point
    the run stops with status 'panel_failure'.  The budget and the floor
    are read from MAX_INTERVALS and MIN_WIDTH_FACTOR once per run.
    """
    max_intervals = MAX_INTERVALS
    floor = MIN_WIDTH_FACTOR * max(abs(a), abs(b), 1.0)
    stack = [(a, b)]
    val = 0.0 + 0.0j
    pops = 0
    panels = 0
    fevals = 0
    status = "converged"
    while stack:
        if pops >= max_intervals:
            status = "budget_exhausted"
            break
        a0, b0 = stack.pop()
        pops += 1
        if (b0 - a0) < floor:
            status = "width_floor"
            break
        c0 = 0.5 * (a0 + b0)
        panels += 3
        try:
            v0, vl, vr, ne = trio(a0, c0, b0)
        except PanelError as exc:
            fevals += exc.nevals
            if 0.5 * (b0 - a0) < floor:
                status = "panel_failure"
                break
            stack.append((c0, b0))
            stack.append((a0, c0))
            continue
        fevals += ne
        if accepted_pair_update(v0, vl, vr, eps):
            val += v0
        else:
            stack.append((c0, b0))
            stack.append((a0, c0))
    return QuadResult(value=val, intervals_used=panels, fevals=fevals, status=status)


def adaptive_integrate(integrand: Integrand, a: float, b: float,
                       config: AdaptiveConfig | None = None) -> QuadResult:
    """Adaptively evaluate the integral of f * kernel(g) over [a, b]."""
    check_domain(a, b)
    if config is None:
        config = AdaptiveConfig()
    grid = chebyshev.grid(config.k)

    def trio(a0, c0, b0):
        return panel_trio(integrand, a0, c0, b0, grid, config.solver)

    return _run_worklist(trio, a, b, config.eps)
