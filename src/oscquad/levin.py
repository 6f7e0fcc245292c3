"""Single-panel collocation estimates for oscillatory integrals.

A panel estimate of ``int_a0^b0 f(x) exp(i g(x)) dx`` is obtained by
solving the first-order ODE

    p'(x) + i g'(x) p(x) = f(x)

with a k-point Chebyshev spectral collocation: sample f and g at the
mapped extremal nodes, differentiate the g samples spectrally (the caller
never supplies g'), form the collocation matrix D + i diag(g'), solve it
with a truncated SVD or rank-revealing QR, and return

    p(b0) exp(i g(b0)) - p(a0) exp(i g(a0)).

The truncation makes the solve well behaved even when the matrix is
numerically singular, which happens whenever g' is small on the panel; the
near-null direction corresponds to exp(-i g) and contributes (almost)
nothing to the antiderivative difference, so the estimate stays accurate
at arbitrarily low frequency and across stationary points of g.  No
per-panel error estimate is produced; error control belongs entirely to
the adaptive driver.

cos- and sin-kernel integrals reuse the exp-kernel machinery: for real f
they are the real and imaginary parts of the exp-kernel estimate E(g), and
for complex f a second apply against conj(f) gives E(-g) = conj(E_conj(g)),
so cos -> (E(g) + E(-g))/2 and sin -> (E(g) - E(-g))/(2i).

``panel_values`` evaluates many panels (spans) as one stacked operation;
only the truncated solve and the endpoint product run span by span.  The
product stays per span, in Python ``complex``: numpy's array complex
multiply rounds differently from its scalar multiply, while Python's
complex multiply rounds like the scalar one, so each value keeps the bits
of a plain per-span evaluation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import chebyshev, linalg

KERNELS = ("exp", "cos", "sin")

# Inward shift, as a fraction of the width of the sample's own panel, used
# to re-evaluate an endpoint whose sample came back non-finite (integrable
# endpoint singularities such as x**-0.5 at 0).
NUDGE_FACTOR = 2.0 ** -46


class PanelError(Exception):
    """No panel estimate (bad samples or solver); ``nevals`` points were sampled."""

    def __init__(self, message: str, nevals: int = 0):
        super().__init__(message)
        self.nevals = nevals


@dataclass(frozen=True)
class Integrand:
    """The pair (f, g) plus the oscillatory kernel.

    ``f`` maps a float ndarray to complex (or real) values, ``g`` maps a
    float ndarray to real values; both must accept vector arguments and be
    safe to call concurrently.  ``kernel`` selects exp(i g), cos(g) or
    sin(g).
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    kernel: str = "exp"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")


@dataclass(frozen=True)
class LevinLocalResult:
    """One panel estimate with the rank its truncated solve kept."""

    value: complex
    rank_used: int


def check_domain(a: float, b: float) -> None:
    """Reject [a, b] unless a < b and the width b - a (so a and b) is finite."""
    if not (float(a) < float(b) and np.isfinite(float(b) - float(a))):
        raise ValueError(f"need finite a < b with a finite width b - a, got [{a}, {b}]")


def panel_values(integrand: Integrand, spans, grid: chebyshev.ChebGrid, solver: str):
    """Panel estimates over each (a, b) in ``spans`` from one sampling pass.

    The grid is mapped onto every span at once, with each span's first and
    last nodes set to exactly a and b, and f and g are each evaluated in a
    single vectorized call over all of them.  A node where f or g is
    non-finite is re-evaluated once, shifted toward the interior of its own
    span by NUDGE_FACTOR times that span's width; a sample still non-finite
    raises PanelError, as do a collocation matrix that overflows (in g' or
    D/h, before any span is factored, whatever the solver) and a non-finite
    estimate (as soon as its span is solved).  g', the matrices
    D/h + i diag(g') and the endpoint phases are each computed once over
    all spans; each span's truncated solve uses the default threshold of
    ``linalg``.  Returns (values, ranks, nevals).
    """
    if solver not in linalg.SOLVERS:
        raise ValueError(f"solver must be one of {linalg.SOLVERS}, got {solver!r}")
    factor, apply = ((linalg.qr_factor, linalg.qr_apply) if solver == "qr"
                     else (linalg.svd, linalg.tsvd_apply))
    spans = np.asarray(spans, dtype=np.float64)
    lo, hi = spans[:, 0], spans[:, 1]
    half = 0.5 * (hi - lo)
    n, k = spans.shape[0], grid.k
    xs = np.multiply.outer(half, grid.nodes)
    xs += (lo + half)[:, None]
    xs[:, :: k - 1] = spans
    xs = xs.ravel()
    # f, g, g' and D/h may overflow or be undefined; every non-finite result
    # is caught below, so numpy's warnings are silenced once for all.
    with np.errstate(all="ignore"):
        fs = np.asarray(integrand.f(xs), dtype=np.complex128)
        gs = np.asarray(integrand.g(xs), dtype=np.float64)
        nevals = xs.shape[0]
        if not (np.isfinite(fs).all() and np.isfinite(gs).all()):
            idx = np.nonzero(~(np.isfinite(fs) & np.isfinite(gs)))[0]
            span = idx // k
            step = NUDGE_FACTOR * (hi - lo)[span]
            moved = xs[idx] + np.where(xs[idx] <= 0.5 * (lo + hi)[span], step, -step)
            fs[idx] = np.asarray(integrand.f(moved), dtype=np.complex128)
            gs[idx] = np.asarray(integrand.g(moved), dtype=np.float64)
            nevals += idx.shape[0]
            if not (np.all(np.isfinite(fs[idx])) and np.all(np.isfinite(gs[idx]))):
                raise PanelError(f"non-finite sample in {spans.tolist()} after nudge", nevals)
        gs = gs.reshape(n, k, 1)
        # rounds like grid.diff @ gs[i]; gs @ grid.diff.T and einsum do not
        gprime = np.matmul(grid.diff, gs)[:, :, 0] / half[:, None]
        a = np.zeros((n, k, k), dtype=np.complex128)
        np.divide(grid.diff, half[:, None, None], out=a.real)
    # a is C-contiguous, so reshape gives a view of every diagonal
    a.reshape(n, -1).imag[:, :: k + 1] = gprime
    if not np.isfinite(a).all():
        part = "g'" if not np.isfinite(gprime).all() else "D/h"
        raise PanelError(f"non-finite {part} in {spans.tolist()}: "
                         "the collocation matrix overflows", nevals)
    fs = fs.reshape(n, k)
    phases = np.exp(1j * gs[:, :: k - 1, 0]).tolist()
    kernel = integrand.kernel
    want_conj = kernel != "exp" and bool(fs.imag.any())
    values, ranks = [], []
    try:
        for i, (ai, fi, (ea, eb)) in enumerate(zip(a, fs, phases)):
            factors = factor(ai)
            p, rank = apply(factors, fi)
            # Python complex products round like numpy's scalar ones (module doc)
            p0, p1 = p[:: k - 1].tolist()
            value = p1 * eb - p0 * ea
            if want_conj:
                pc0, pc1 = apply(factors, fi.conj())[0][:: k - 1].tolist()
                value_neg = (pc1 * eb - pc0 * ea).conjugate()
                value = 0.5 * (value + value_neg) if kernel == "cos" else (value - value_neg) / 2j
            elif kernel != "exp":
                value = complex(value.real if kernel == "cos" else value.imag)
            if not cmath.isfinite(value):
                raise PanelError(f"non-finite panel estimate on {spans[i].tolist()}", nevals)
            values.append(value)
            ranks.append(rank)
    except linalg.LinalgError as exc:
        raise PanelError(str(exc), nevals) from exc
    return values, ranks, nevals


def levin_panel(integrand: Integrand, a0: float, b0: float,
                grid: chebyshev.ChebGrid | None = None,
                solver: str = "qr") -> LevinLocalResult:
    """Estimate the integral of f * kernel(g) over a single panel [a0, b0]."""
    check_domain(a0, b0)
    if grid is None:
        grid = chebyshev.grid()
    values, ranks, _ = panel_values(integrand, ((a0, b0),), grid, solver)
    return LevinLocalResult(value=values[0], rank_used=ranks[0])


def panel_trio(integrand: Integrand, a0: float, c0: float, b0: float,
               grid: chebyshev.ChebGrid, solver: str):
    """Estimates for [a0,b0], [a0,c0] and [c0,b0]: the adaptive driver's inner loop.

    Returns (val0, val_left, val_right, nevals).
    """
    values, _, nevals = panel_values(integrand, ((a0, b0), (a0, c0), (c0, b0)),
                                     grid, solver)
    return values[0], values[1], values[2], nevals
