"""Independent reference integrator: adaptive Gauss-Legendre quadrature.

Cross-validation for the collocation-based integrator.  Panels are plain
30-point Gauss-Legendre estimates and the adaptive acceptance is the same
whole-vs-halves comparison used by the main driver, with the unsplit
panel value accumulated on acceptance.  Nothing numeric
is shared with the Levin panels beyond the worklist logic, so agreement
between the two is meaningful evidence of correctness.

Being oblivious to the oscillator, the cost grows linearly with frequency;
callers should keep it away from very high frequencies (the benchmark
harness caps it at lambda <= 1e4 by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adaptive import QuadResult, _run_worklist
from .levin import PanelError

_MAX_POINTS = 200
_POINTS = 30  # Gauss-Legendre points per adaptive_gauss panel


@dataclass(frozen=True)
class GaussRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


_RULES: dict[int, GaussRule] = {}


def gauss_rule(n: int) -> GaussRule:
    """Build (and cache) the n-point Gauss-Legendre rule.

    Nodes are the roots of the degree-n Legendre polynomial, found by
    Newton iteration from the Chebyshev-angle initial guesses; weights are
    2 / ((1 - x^2) P_n'(x)^2).  The rule is exact for polynomials of
    degree 2n - 1 and the grid is symmetrized about 0.
    """
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f"point count must be in [1, {_MAX_POINTS}], got {n}")
    rule = _RULES.get(n)
    if rule is not None:
        return rule
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dpn = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Legendre root iteration did not converge")
    # one clean-up pass for the weights, then symmetrize
    p0 = np.ones_like(x)
    p1 = x.copy()
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    dpn = n * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    x = x[order]
    w = w[order]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    if n % 2 == 1:
        x[n // 2] = 0.0
    rule = GaussRule(n=n, nodes=x, weights=w)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    _RULES[n] = rule
    return rule


def adaptive_gauss(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   tol: float = 1e-15) -> QuadResult:
    """Adaptively integrate a (possibly complex-valued) function over [a, b].

    ``fn`` must accept a float ndarray.  The default tolerance of 1e-15 is
    deliberately tighter than typical targets for the main integrator so
    the reference value does not limit comparisons.  The interval budget
    and width floor are those of the collocation driver.
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    n = _POINTS
    rule = gauss_rule(n)
    nodes = rule.nodes
    weights = rule.weights

    def trio(a0, c0, b0):
        h0 = 0.5 * (b0 - a0)
        hh = 0.5 * h0
        xs = np.concatenate((
            (a0 + h0) + h0 * nodes,
            (a0 + hh) + hh * nodes,
            (c0 + hh) + hh * nodes,
        ))
        with np.errstate(all="ignore"):
            ys = np.asarray(fn(xs), dtype=np.complex128)
        if not np.all(np.isfinite(ys)):
            raise PanelError(f"non-finite sample in [{a0}, {b0}]")
        v0 = h0 * (weights @ ys[:n])
        vl = hh * (weights @ ys[n:2 * n])
        vr = hh * (weights @ ys[2 * n:])
        return v0, vl, vr, 3 * n

    return _run_worklist(trio, a, b, tol)
