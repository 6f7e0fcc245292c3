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
they are the real and imaginary parts of the exp-kernel estimate, and for
complex f a second solve against conj(f) supplies the estimate for the
opposite-sign phase.
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
    """A panel estimate could not be produced (bad samples or solver)."""


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


def weighted_value(p_endpoints, g_endpoints, kernel: str, conj_p_endpoints=None) -> complex:
    """Assemble the panel value for the requested kernel.

    ``p_endpoints`` are (p(a0), p(b0)) from the exp-kernel solve and
    ``g_endpoints`` the sampled (g(a0), g(b0)); the oscillator phases are
    taken from the sampled g values, consistent with the collocation.  For
    cos/sin with real f the result is the real/imaginary part of the
    exp-kernel estimate.  For complex f, ``conj_p_endpoints`` must hold the
    endpoints of the companion solve against conj(f), from which the
    opposite-phase estimate E(-g) = conj(E_conj(g)) is assembled; then
    cos -> (E(g)+E(-g))/2 and sin -> (E(g)-E(-g))/(2i).
    """
    ea = np.exp(1j * g_endpoints[0])
    eb = np.exp(1j * g_endpoints[1])
    value = p_endpoints[1] * eb - p_endpoints[0] * ea
    if kernel == "exp":
        return complex(value)
    if conj_p_endpoints is None:
        return complex(value.real) if kernel == "cos" else complex(value.imag)
    value_neg = np.conj(conj_p_endpoints[1] * eb - conj_p_endpoints[0] * ea)
    if kernel == "cos":
        return complex(0.5 * (value + value_neg))
    return complex((value - value_neg) / 2j)


def _solve_panel(fs, gprime, diff, half, solver, want_conj):
    """Collocation solve on one panel given its f samples and finite g'.

    ``diff`` is the reference differentiation matrix and ``half`` the panel
    half-width; the mapped matrix is diff/half.  Directions below EPS0 times
    the matrix-norm proxy (the leading R-diagonal entry or singular value)
    are dropped.  Returns (p, p_conj_or_None, rank).
    """
    a = (diff / half).astype(np.complex128)
    k = a.shape[0]
    # a is C-contiguous, so reshape gives a view; a.flat would be slower
    a.reshape(-1)[:: k + 1] += 1j * gprime
    try:
        if solver == "qr":
            factors = linalg.qr_factor(a)
            norm_proxy, apply = factors.rdiag[0], linalg.qr_apply
        elif solver == "svd":
            factors = linalg.svd(a)
            norm_proxy, apply = factors.sigma[0], linalg.tsvd_apply
        else:
            raise ValueError(f"solver must be 'qr' or 'svd', got {solver!r}")
        thr = linalg.EPS0 * float(norm_proxy)
        if thr <= 0.0:
            thr = np.finfo(np.float64).tiny
        p, rank = apply(factors, fs, thr)
        pc = apply(factors, np.conj(fs), thr)[0] if want_conj else None
    except linalg.LinalgError as exc:
        raise PanelError(str(exc)) from exc
    return p, pc, rank


def panel_values(integrand: Integrand, spans, grid: chebyshev.ChebGrid, solver: str):
    """Panel estimates over each (a, b) in ``spans`` from one sampling pass.

    The grid is mapped onto every span at once, with each span's first and
    last nodes set to exactly a and b, and f and g are each evaluated in a
    single vectorized call over all of them.  A node where f or g is
    non-finite is re-evaluated once, shifted toward the interior of its own
    span by NUDGE_FACTOR times that span's width; a sample still non-finite
    raises PanelError, as do a g' that overflows (before any span is
    factored, whatever the solver) and a non-finite estimate.  Returns
    (values, ranks, nevals).
    """
    spans = np.asarray(spans, dtype=np.float64)
    lo, hi = spans[:, 0], spans[:, 1]
    half = 0.5 * (hi - lo)
    k = grid.k
    xs = grid.nodes * half[:, None] + (lo + half)[:, None]
    xs[:, 0] = lo
    xs[:, -1] = hi
    xs = xs.ravel()
    # f, g and g' may overflow or be undefined at a node; every non-finite
    # result is caught below, so numpy's warnings are silenced once for all.
    with np.errstate(all="ignore"):
        fs = np.asarray(integrand.f(xs), dtype=np.complex128)
        gs = np.asarray(integrand.g(xs), dtype=np.float64)
        nevals = xs.shape[0]
        bad = ~(np.isfinite(fs) & np.isfinite(gs))
        if bad.any():
            idx = np.nonzero(bad)[0]
            span = idx // k
            step = NUDGE_FACTOR * (hi - lo)[span]
            moved = xs[idx] + np.where(xs[idx] <= 0.5 * (lo + hi)[span], step, -step)
            fs[idx] = np.asarray(integrand.f(moved), dtype=np.complex128)
            gs[idx] = np.asarray(integrand.g(moved), dtype=np.float64)
            nevals += idx.shape[0]
            if not (np.all(np.isfinite(fs[idx])) and np.all(np.isfinite(gs[idx]))):
                raise PanelError(f"non-finite sample in {spans.tolist()} after nudge")
        gs = gs.reshape(-1, k)
        gprime = np.empty_like(gs)
        for i, h in enumerate(half):
            gprime[i] = (grid.diff @ gs[i]) / h
    if not np.isfinite(gprime).all():
        raise PanelError(f"non-finite g' in {spans.tolist()}: "
                         "the collocation matrix overflows")
    want_conj = integrand.kernel != "exp" and bool(np.any(fs.imag))
    values, ranks = [], []
    for i in range(spans.shape[0]):
        p, pc, rank = _solve_panel(fs[i * k:(i + 1) * k], gprime[i], grid.diff,
                                   half[i], solver, want_conj)
        pc_ends = (pc[0], pc[-1]) if pc is not None else None
        value = weighted_value((p[0], p[-1]), (gs[i, 0], gs[i, -1]),
                               integrand.kernel, pc_ends)
        if not cmath.isfinite(value):
            raise PanelError(f"non-finite panel estimate on {spans[i].tolist()}")
        values.append(value)
        ranks.append(rank)
    return values, ranks, nevals


def levin_panel(integrand: Integrand, a0: float, b0: float,
                grid: chebyshev.ChebGrid | None = None,
                solver: str = "qr") -> LevinLocalResult:
    """Estimate the integral of f * kernel(g) over a single panel [a0, b0]."""
    if not (np.isfinite(a0) and np.isfinite(b0) and a0 < b0):
        raise ValueError(f"need finite a0 < b0, got [{a0}, {b0}]")
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
