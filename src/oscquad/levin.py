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

``panel_values`` evaluates many panels (spans) as one stacked operation,
for ``levin_panel`` or for a pass of the adaptive driver's solve-ahead
table.  Sampling, g', the stack of collocation matrices, the endpoint
phases and, on the QR route, every span's rank test and the place of p(a)
and p(b) in its pivoted solution run once per pass.  Per span run only
the factorization, the solve (LAPACK alone for a full-rank QR span) and
the endpoint product, and a failed span fails alone.  The product stays
per span, in Python ``complex``: numpy's array complex multiply rounds
unlike its scalar one, while Python's complex multiply rounds like the
scalar one, so each value keeps the bits of a plain per-span evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import chebyshev, linalg

KERNELS = {"exp": lambda g: np.exp(1j * g), "cos": np.cos, "sin": np.sin}

# Inward shift, as a fraction of the width of the sample's own panel, used
# to re-evaluate an endpoint whose sample came back non-finite (integrable
# endpoint singularities such as x**-0.5 at 0).
NUDGE_FACTOR = 2.0 ** -46


class PanelError(Exception):
    """No panel estimate (bad samples or solver)."""


@dataclass(frozen=True)
class Integrand:
    """The pair (f, g) plus the oscillatory kernel.

    ``f`` maps a float ndarray to complex (or real) values, ``g`` maps a
    float ndarray to real values; both must accept vector arguments and be
    safe to call concurrently.  ``kernel`` selects exp(i g), cos(g) or
    sin(g).  Calling it gives f(x) * kernel(g(x)), the direct form that
    ``adaptive_gauss`` integrates.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    kernel: str = "exp"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {tuple(KERNELS)}, got {self.kernel!r}")

    def __call__(self, x):
        return self.f(x) * KERNELS[self.kernel](self.g(x))


@dataclass(frozen=True)
class LevinLocalResult:
    """One panel estimate with the rank its truncated solve kept."""

    value: complex
    rank_used: int


def check_domain(a: float, b: float) -> None:
    """Reject [a, b] unless a < b and the width b - a (so a and b) is finite.

    The message names an infinite end: only ``adaptive_integrate`` takes
    one, b = inf with a finite a, which it closes with a Levin tail.
    """
    if not (float(a) < float(b) and np.isfinite(float(b) - float(a))):
        ends = [f"{name} = {end}" for name, end in (("a", a), ("b", b))
                if math.isinf(float(end))]
        why = (f"infinite end {' and '.join(ends)}: only adaptive_integrate takes one, b = inf"
               " with a finite a" if ends else "need finite a < b with a finite width b - a")
        raise ValueError(f"{why}, got [{a}, {b}]")


def panel_values(integrand: Integrand, spans, grid: chebyshev.ChebGrid, solver: str,
                 end_terms: bool = False):
    """Panel estimates over each (a, b) in ``spans`` from one sampling pass.

    The grid is mapped onto every span at once, with each span's first and
    last nodes set to exactly a and b, and f and g are each evaluated in a
    single vectorized call over all of them.  A node where f or g is
    non-finite is re-evaluated once, shifted toward the interior of its own
    span by NUDGE_FACTOR times that span's width.  g', the matrices
    D/h + i diag(g') (one stack) and the endpoint phases are each computed
    once over all spans.  Then each live span is factored by one call, a
    QR factorization in place in the stack.  The spans that keep every
    direction under ``linalg``'s truncation rule (``linalg.retained``,
    default threshold) are found at once, with the place of p(a) and p(b)
    in their pivoted solutions, and solved by ``linalg.qr_solve``; the
    rank-deficient rest go through ``linalg.qr_apply``, as every span of
    the SVD route goes through ``linalg.tsvd_apply``.

    A sample still non-finite after the nudge, a collocation matrix that
    overflows (in g' or D/h, whatever the solver), a LinalgError or a
    non-finite estimate fails its span alone: the span's value is that
    PanelError, it is solved no further, and every other span keeps its
    estimate.  The second apply against conj(f) of a cos or sin kernel is
    decided per span too, so no value bit depends on which spans share the
    pass.  Returns (values, ranks, nevals); a failed span's rank
    is None, and nevals counts every point the pass sampled.

    With ``end_terms``, a span's value is instead (T(a), T(b), P(a), P(b),
    G, g), for the tail of a semi-infinite domain: T is the kernel's part of
    p e^{ig}, so the panel estimate is T(b) - T(a), P holds p from each
    solve, (p,) or, with the second solve against conj(f), (p, p_c), and G
    and g are the span's rows of g' and g samples.
    """
    if solver not in linalg.SOLVERS:
        raise ValueError(f"solver must be one of {linalg.SOLVERS}, got {solver!r}")
    qr = solver == "qr"
    apply = linalg.qr_apply if qr else linalg.tsvd_apply
    spans = np.asarray(spans, dtype=np.float64)
    lo, hi = spans[:, 0], spans[:, 1]
    half = 0.5 * (hi - lo)
    n, k = spans.shape[0], grid.k
    xs = np.multiply.outer(half, grid.nodes)
    xs += (lo + half)[:, None]
    xs[:, :: k - 1] = spans
    xs = xs.ravel()
    failed = {}  # span -> why it has no estimate
    # f, g, g', D/h and the phases may overflow or be undefined; every
    # non-finite result is caught, so numpy's warnings are silenced once.
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
            for i in span[~(np.isfinite(fs[idx]) & np.isfinite(gs[idx]))].tolist():
                failed[i] = f"non-finite sample in {spans[i:i + 1].tolist()} after nudge"
        gs = gs.reshape(n, k, 1)
        # rounds like grid.diff @ gs[i]; gs @ grid.diff.T and einsum do not
        gprime = np.matmul(grid.diff, gs)[:, :, 0] / half[:, None]
        # at[i] is span i's matrix transposed, so mats[i] is Fortran-ordered
        # and a QR factorization overwrites it
        at = np.zeros((n, k, k), dtype=np.complex128)
        np.divide(grid.diff.T, half[:, None, None], out=at.real)
        phases = np.exp(1j * gs[:, :: k - 1, 0]).tolist()
    # at is C-contiguous, so reshape gives a view of every diagonal
    at.reshape(n, -1).imag[:, :: k + 1] = gprime
    if not np.isfinite(at).all():
        for i in np.nonzero(~np.isfinite(at).all(axis=(1, 2)))[0].tolist():
            part = "g'" if not np.isfinite(gprime[i]).all() else "D/h"
            failed.setdefault(i, f"non-finite {part} in {spans[i:i + 1].tolist()}"
                                 ": the collocation matrix overflows")
    mats = at.transpose(0, 2, 1)
    factors = [None] * n
    for i in range(n):
        if i not in failed:
            # overwrite_a goes by position, which wrappers taking *args pass on
            try:
                factors[i] = linalg.qr_factor(mats[i], True) if qr else linalg.svd(mats[i])
            except linalg.LinalgError as exc:
                failed[i] = str(exc)
    # span -> where p(a) and p(b) sit in its pivoted solution, for every
    # QR-factored span that passes the default full-rank test; the
    # diagonals of those spans' mats are their R factors' (real) diagonals
    ends = {}
    live = [i for i, fi in enumerate(factors) if fi is not None] if qr else []
    if live:
        full = linalg.retained(np.abs(mats.diagonal(0, 1, 2)[live])).all(axis=1).tolist()
        # each row of the argsort is an inverse permutation: its first and
        # last entries are where pivots 1 and k sit
        pos = np.array([factors[i].jpvt for i in live]).argsort(axis=1)[:, :: k - 1]
        ends = {i: j for i, j, ok in zip(live, pos.tolist(), full) if ok}

    def endpoints(i, y):
        """p(a), p(b) and the rank of span i's truncated solve against y."""
        j = ends.get(i)
        if j is not None:
            z = linalg.qr_solve(factors[i], y)
            return z.item(j[0]), z.item(j[1]), k
        p, rank = apply(factors[i], y)
        return p.item(0), p.item(k - 1), rank

    fs = fs.reshape(n, k)
    kernel = integrand.kernel

    def kernel_part(e, e_conj):
        """The kernel's part of the exp-kernel value e = E(g), given
        E_conj(g) = conj(E(-g)) for a complex f, else None."""
        if e_conj is not None:
            e_neg = e_conj.conjugate()
            return 0.5 * (e + e_neg) if kernel == "cos" else (e - e_neg) / 2j
        return e if kernel == "exp" else complex(e.real if kernel == "cos" else e.imag)

    conj = fs.imag.any(axis=1).tolist() if kernel != "exp" else [False] * n
    values, ranks = [None] * n, [None] * n
    for i, (fi, (ea, eb), want_conj) in enumerate(zip(fs, phases, conj)):
        if i in failed:
            continue
        try:
            # Python complex products round like numpy's scalar ones (module
            # doc); ta, tb are p e^{ig} at a and b, and ca, cb p_c e^{ig}
            p0, p1, ranks[i] = endpoints(i, fi)
            ta, tb = p0 * ea, p1 * eb
            ca = cb = None
            if want_conj:
                pc0, pc1, _ = endpoints(i, fi.conj())
                ca, cb = pc0 * ea, pc1 * eb
            if end_terms:
                ps = ((p0, pc0), (p1, pc1)) if want_conj else ((p0,), (p1,))
                value = (kernel_part(ta, ca), kernel_part(tb, cb), *ps, gprime[i], gs[i, :, 0])
                finite = all(map(cmath.isfinite, value[:2] + ps[0] + ps[1]))
            else:
                value = tb - ta
                if kernel != "exp":
                    value = kernel_part(value, cb - ca if want_conj else None)
                finite = cmath.isfinite(value)
            if not finite:
                failed[i] = f"non-finite panel estimate on {spans[i].tolist()}"
            values[i] = value
        except linalg.LinalgError as exc:
            failed[i] = str(exc)
    for i, why in failed.items():
        values[i], ranks[i] = PanelError(why), None
    return values, ranks, nevals


def levin_panel(integrand: Integrand, a0: float, b0: float,
                grid: chebyshev.ChebGrid | None = None,
                solver: str = "qr") -> LevinLocalResult:
    """Estimate the integral of f * kernel(g) over a single panel [a0, b0]."""
    check_domain(a0, b0)
    if grid is None:
        grid = chebyshev.grid()
    values, ranks, _ = panel_values(integrand, ((a0, b0),), grid, solver)
    if isinstance(values[0], PanelError):
        raise values[0]
    return LevinLocalResult(value=values[0], rank_used=ranks[0])

