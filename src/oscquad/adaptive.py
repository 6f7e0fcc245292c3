"""Adaptive bisection driver around the single-panel estimates.

The driver keeps a worklist of intervals, initially just [a, b].  Each
popped interval is judged on the panel estimates of the whole interval and
of its two halves: if the whole-interval estimate agrees with the sum of
the half estimates to within the absolute tolerance (or, for values so
large that the tolerance is below their rounding, to within 16 machine
epsilons of their magnitude), the *unsplit* estimate is added to the
running total, otherwise both halves go back on the worklist.  The
worklist is a LIFO stack, so runs are deterministic.

Both routes solve trios ahead of the driver, in a run-local table: a
popped interval whose trio is not solved yet (a miss) is solved together
with the leftmost intervals the driver is certain to pop next (the halves
of rejected intervals), in one pass of the route's evaluator (a
panel_values call, or one Gauss call of the integrand) per miss.  A pass
returns panels, three per interval, and fails a panel alone; only the
table groups them into trios, fails the trio that holds a failed panel
and judges each trio, once.  A pop takes the whole panel's value and the
decision from the table (``panel_trio`` on the Levin route), so the
driver applies only the rails and the sum.  Each trio keeps the value
bits of a pass of its own.  The table never holds more solved trios than
the run has popped, so memory is bounded by the run's pops, not by the
subdivision depth; the samples of a pass count in ``fevals`` when taken,
so a run that stops counts those of trios solved but never popped.

Safety rails absent from the basic scheme, both fixed and reported
through ``QuadResult.status``: a budget of MAX_INTERVALS processed
intervals per run ('budget_exhausted') and a width floor, an interval
narrower than MIN_WIDTH_FACTOR * max(|a|, |b|, 1) ('width_floor').  A
panel that cannot be estimated (non-finite samples) is split; a failed
interval whose halves would fall below the floor stops the run
('panel_failure'), as does an accepted value that would overflow the sum
('overflow').  The adaptive Gauss-Legendre reference runs through the
same driver and rails.

A semi-infinite domain [a, inf) is closed with a Levin tail: p, the
antiderivative factor of a panel, tends to 0 where the integral converges,
so the integral over [U, inf) is -p(U) e^{ig(U)} from the panel [U, 2U]
(Levin, Math. Comp. 38, 1982).  ``_tail`` doubles U, from a when
a >= 1/2, until two doublings agree on p, |p| falls and |g'| does not
shrink, or shrinks by a steady factor per doubling (no stationary point
ahead); where |g'| grows across the first two, one more pass of rungs
below the first lets U move down toward the stationary point behind it.
``_tail`` returns the tail as a QuadResult of its own; the finite part
[a, U] then runs through the driver as any finite domain and is added to
it once, and is empty when U = a.  A tail accepted at no U before 4U
overflows ends the run as 'divergent', or as 'panel_failure' if most of
its spans failed; an a whose first pair of rungs already overflows is
refused.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import chebyshev, linalg
from .levin import Integrand, PanelError, check_domain, panel_values

MAX_INTERVALS = 2 ** 20
ROUNDOFF = 16.0 * linalg.EPS0  # unit of the width floor and the acceptance floor
MIN_WIDTH_FACTOR = ROUNDOFF
# Collocation-matrix entries per panel_values pass of the solve-ahead
# table (at least one trio a pass): 2 MB of matrices, whatever k is.
PASS_ENTRIES = 2 ** 17
TAIL_SPANS = 3  # rungs per panel_values pass of a semi-infinite domain's tail


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of the adaptive integrator.

    eps
        Absolute acceptance tolerance of the whole-vs-halves test,
        floored at 16 machine epsilons of the panel values' magnitude.
    k
        Collocation order per panel, an integer in [5, 200].  Below 5 the
        whole-vs-halves test can accept unresolved panels: at k = 4, I4 at
        lambda = 10 ends 'converged' 3.0e-10 off.
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
        # an integer (what operator.index takes); k x k arrays cap it at 200
        if not (hasattr(self.k, "__index__") and 5 <= self.k <= 200):
            raise ValueError(
                f"collocation order must be an integer in [5, 200], got {self.k!r}")
        if self.solver not in linalg.SOLVERS:
            raise ValueError(f"solver must be one of {linalg.SOLVERS}, got {self.solver!r}")


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive run.

    ``intervals_used`` counts three panels per processed interval, a
    failed one included, plus one per span of a semi-infinite domain's
    tail; ``fevals`` counts every point at which the integrand was sampled.
    ``value`` is the partial sum when the status is not 'converged' (0 when
    a semi-infinite domain's tail closed at no U).
    """

    value: complex
    intervals_used: int
    fevals: int
    status: str


def accepted_pair_update(val0: complex, val_l: complex, val_r: complex,
                         eps: float) -> bool:
    """Whole-vs-halves acceptance test.

    True (accept, accumulate the unsplit val0) iff |val0 - (val_l + val_r)|
    is strictly below max(eps, ROUNDOFF * max(|val0|, |val_l| + |val_r|));
    a difference of exactly that splits.  The second term floors eps at
    the roundoff of the panel values, so an integrand of large magnitude
    is not split until its panels agree to below their own rounding.
    """
    diff = abs(val0 - (val_l + val_r))
    return diff < eps or diff < ROUNDOFF * max(abs(val0), abs(val_l) + abs(val_r))


def _run_worklist(trio, a: float, b: float) -> QuadResult:
    """Generic bisection driver over an interval evaluator that judges.

    ``trio(a0, c0, b0)`` returns (v0, accepted, nevals): the whole
    interval's panel value, or None if one of its panels failed, whether
    the route accepts v0, and the samples taken.  Every processed interval
    counts three panels and its samples.  An accepted value is summed
    unless it would overflow the sum ('overflow'); any other interval is
    split, and a failed one whose halves would fall below the width floor
    stops the run ('panel_failure').  The budget and the floor are read
    from MAX_INTERVALS and MIN_WIDTH_FACTOR once per run.
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
        v0, accepted, ne = trio(a0, c0, b0)
        fevals += ne
        if accepted:
            if not cmath.isfinite(val + v0):
                status = "overflow"
                break
            val += v0
            continue
        if v0 is None and (c0 - a0 < floor or b0 - c0 < floor):
            status = "panel_failure"
            break
        stack.append((c0, b0))
        stack.append((a0, c0))
    return QuadResult(value=val, intervals_used=panels, fevals=fevals, status=status)


class _SolveAhead:
    """A run's trios solved and judged before the driver pops them, on either route.

    ``solve(intervals)`` is the route's pass: the panel values of each
    (a0, b0), whole, left half and right half, one after another, each a
    value or a PanelError, and the samples taken.  ``pending`` holds,
    leftmost last, the unsolved intervals the LIFO driver is certain to pop
    unless the run stops: the halves of a rejected interval (never a failed
    one) when both pass the width floor of [a, b].  ``solved`` maps an
    interval to (v0, accepted), the whole panel's value and the
    whole-vs-halves decision on its trio, or to (None, False) if one of its
    three panels is a PanelError.  A pass solves ``per_pass`` trios at most.
    """

    def __init__(self, solve, a: float, b: float, eps: float, per_pass: int):
        self.solve = solve
        self.eps = eps
        self.floor = MIN_WIDTH_FACTOR * max(abs(a), abs(b), 1.0)
        self.per_pass = per_pass
        self.pending: list[tuple[float, float]] = []
        self.solved: dict = {}
        self.popped = 0

    def trio(self, a0, c0, b0):
        """(v0 or None, accepted, nevals) of [a0, b0], which the driver pops
        now, with the samples this call took.

        An unsolved [a0, b0] (a miss) is the leftmost interval the driver
        holds, so it is ``pending[-1]`` if pending at all.  A miss makes one
        pass of ``solve`` over the leftmost pending intervals, [a0, b0]
        among them, as many as leave the table no more trios than the run
        has popped; the pass queues the halves of the trios it rejects.
        """
        self.popped += 1
        pending, solved = self.pending, self.solved
        out = solved.pop((a0, b0), None)
        if out is not None:
            return (*out, 0)
        if not (pending and pending[-1] == (a0, b0)):
            pending.append((a0, b0))
        n = min(self.popped - len(solved), len(pending), self.per_pass)
        batch = pending[-n:]
        del pending[-n:]
        values, nevals = self.solve(batch)
        trios = zip(values[::3], values[1::3], values[2::3])
        # right to left, so the halves keep pending leftmost last
        for (lo, hi), trio in zip(batch, trios):
            for v in trio:
                if isinstance(v, PanelError):
                    solved[lo, hi] = (None, False)
                    break
            else:
                accepted = accepted_pair_update(*trio, self.eps)
                solved[lo, hi] = (trio[0], accepted)
                mid = 0.5 * (lo + hi)
                if not accepted and mid - lo >= self.floor and hi - mid >= self.floor:
                    pending += ((mid, hi), (lo, mid))
        return (*solved.pop((a0, b0)), nevals)


def panel_trio(ahead: _SolveAhead, a0: float, c0: float, b0: float):
    """The Levin route's call per processed interval, looked up by name on each pop."""
    return ahead.trio(a0, c0, b0)


def _least(span, turn: float, grid: chebyshev.ChebGrid):
    """(m, r): the least turn * g' on a solved tail span (lo, hi, terms)
    and the rounding of that sample relative to m, or None unless m > 0.

    A sampled g', the product of D/h with the g samples, is off by about
    EPS0 (|D| |g|)/h at its node, far more than EPS0 |g'| where |g| is
    large against h |g'|.
    """
    lo, hi, (*_, gprime, g) = span
    j = int(np.argmin(turn * gprime))
    m = turn * gprime[j]
    if not m > 0:
        return None
    return m, linalg.EPS0 * (np.abs(grid.diff[j]) @ np.abs(g)) / (0.5 * (hi - lo) * m)


def _steady(ladder, turn: float, grid: chebyshev.ChebGrid) -> bool:
    """Whether |g'| shrinks across the last two of three consecutive tail
    spans by no larger factor than across the first two, each span given as
    (lo, hi, terms or a PanelError) and g' of sign ``turn`` on all three.

    The factors, quotients of the spans' least turn * g', are compared to
    within ROUNDOFF and the rounding of those samples (``_least``).
    """
    least = [None if span is None or isinstance(span[2], PanelError)
             else _least(span, turn, grid) for span in ladder]
    if None in least:
        return False
    (m0, r0), (m1, r1), (m2, r2) = least
    return m2 / m1 >= (m1 / m0) * (1.0 - (ROUNDOFF + r0 + 2.0 * r1 + r2))


def _holds(older, prev, this, grid: chebyshev.ChebGrid, eps: float) -> bool:
    """The tail's pair test: whether the tail may start at the left end of
    ``prev``, the span below ``this``, with ``older`` the span below
    ``prev`` or None; each span is (lo, hi, terms or a PanelError)."""
    if isinstance(prev[2], PanelError) or isinstance(this[2], PanelError):
        return False
    (_, _, p0, p1, g0, _), (_, _, q1, q2, g1, _) = prev[2], this[2]
    sizes = [sum(map(abs, p)) for p in (p0, p1, q1, q2)]
    turn = 1.0 if g0[0] > 0 else -1.0
    least = (turn * g0).min()
    return (sizes[1] <= (1.0 - ROUNDOFF) * sizes[0]
            and sizes[3] <= (1.0 - ROUNDOFF) * sizes[2]
            and all(accepted_pair_update(x, y, 0j, eps) for x, y in zip(p1, q1))
            and least > 0 and ((turn * g1).min() >= least
                               or _steady((older, prev, this), turn, grid)))


def _grows(prev, this, grid: chebyshev.ChebGrid) -> bool:
    """Whether the least |g'| grows from tail span ``prev`` to ``this``, on
    both of which g' keeps one sign, by more than the rounding of its
    samples (``_least``)."""
    turn = 1.0 if prev[2][4][0] > 0 else -1.0
    (m0, r0), (m1, r1) = _least(prev, turn, grid), _least(this, turn, grid)
    return m1 > m0 * (1.0 + ROUNDOFF + r0 + r1)


def _tail(integrand: Integrand, a: float, grid: chebyshev.ChebGrid, config: AdaptiveConfig):
    """(U, tail): where the finite part of [a, inf) ends, and the Levin
    tail beyond it as a QuadResult, whose ``intervals_used`` counts the
    spans solved and ``fevals`` the samples taken.  U is None if no U is
    accepted before 4U overflows; the tail's value is then 0 and its
    status says why.  An a whose first pair of rungs overflows, so that
    4U0 is inf, is a ValueError naming [U0, 4U0].

    The rungs [U0, 2U0], [2U0, 4U0], ..., with U0 = a when a >= 1/2 and
    U0 = max(2|a|, 1) otherwise, are solved TAIL_SPANS to a
    ``panel_values`` pass, for their end terms: p, T, the kernel's part of
    p e^{ig}, and the g' and g samples.  U is accepted when [U, 2U] and
    [2U, 4U] give the same p(2U) by ``accepted_pair_update`` (eps, with its
    roundoff floor; for each solve of a complex f under cos or sin), |p|
    falls across both rungs by more than ROUNDOFF, and g' keeps one sign on
    both, its least size on [2U, 4U] no smaller than on [U, 2U], or, when
    [U/2, U] is solved too, smaller by no larger factor than from [U/2, U]
    to [U, 2U] (``_steady``); that is ``_holds``.  p then tends to 0, and
    the integral over [U, inf) is -T(U) from [U, 2U].  U = a leaves no
    finite part.

    When U0 itself is accepted and the least |g'| grows from [U0, 2U0] to
    [2U0, 4U0] by more than the rounding of its samples, the stationary
    point that growth comes from is at or below U0, and the ladder reaches
    down: one more pass solves up to TAIL_SPANS rungs [U0/2, U0],
    [U0/4, U0/2], ... (the last clipped at a when a > 0), and U moves down
    to the left end of each that passes the same test with the rung above.

    The g' test is what the tail assumes of the phase beyond U: a local
    solve drops the term C e^{-ig} that a stationary point further out
    contributes, so |g'| must not shrink toward one.  Toward one it shrinks
    by a larger factor each doubling, as 2(100 - x) does below 100; a |g'|
    that decays like a power, as under g = log(x) or sqrt(x), shrinks by
    the same factor each doubling and is accepted.  A stationary point so
    far beyond 4U that the factor changes across [U/2, 4U] by less than the
    rounding of the sampled g' is not seen.

    With no U accepted the status is 'panel_failure' when most spans
    failed, so that the tail's samples or solves stopped it, and
    'divergent' when most were solved: p never settled, or g' turned, was
    0 (so a convergent tail too) or shrank ever faster on every pair.  (The
    last few spans often fail, where g' or p e^{ig} overflows.)
    """
    spans = nevals = failed = 0

    def solve(rungs):
        nonlocal spans, nevals, failed
        values, _, ne = panel_values(integrand, rungs, grid, config.solver, end_terms=True)
        spans += len(rungs)
        nevals += ne
        failed += sum(isinstance(v, PanelError) for v in values)
        return [(lo, hi, v) for (lo, hi), v in zip(rungs, values)]

    def ascend(lo):
        """The solved rungs [lo, 2 lo], [2 lo, 4 lo], ... while 4 lo is finite."""
        while 2.0 * lo < math.inf:
            rungs = []
            while len(rungs) < TAIL_SPANS and 2.0 * lo < math.inf:
                rungs.append((lo, 2.0 * lo))
                lo *= 2.0
            yield from solve(rungs)

    u0 = a if a >= 0.5 else max(2.0 * abs(a), 1.0)
    if not 4.0 * u0 < math.inf:
        raise ValueError(f"a = {a} is too large for a tail: [U0, 4U0] = [{u0}, inf] overflows")
    older = prev = None  # the last two rungs solved, lowest first
    for this in ascend(u0):
        if prev is not None and _holds(older, prev, this, grid, config.eps):
            break
        older, prev = prev, this
    else:
        status = "panel_failure" if 2 * failed > spans else "divergent"
        return None, QuadResult(0j, spans, nevals, status)
    if older is None and a < u0 and _grows(prev, this, grid):
        ends = [u0]
        while len(ends) <= TAIL_SPANS and ends[-1] > a:
            ends.append(max(0.5 * ends[-1], a))
        below = solve(list(zip(ends[1:], ends)))
        for new, under in zip(below, below[1:] + [None]):
            if not _holds(under, new, prev, grid, config.eps):
                break
            prev = new
    return prev[0], QuadResult(-prev[2][0], spans, nevals, "converged")


def adaptive_integrate(integrand: Integrand, a: float, b: float,
                       config: AdaptiveConfig | None = None) -> QuadResult:
    """Adaptively evaluate the integral of f * kernel(g) over [a, b].

    b may be inf when a is finite: the Levin tail beyond U (``_tail``) is
    then the result, with [a, U] integrated as a finite domain and added
    to it first (none when U = a); a sum that overflows keeps the finite
    part's value as 'overflow'.  A tail accepted at no U ends the run, with
    value 0, as 'divergent', or as 'panel_failure' when most of its spans
    failed; an a so large that the tail's first pair of rungs
    [U0, 2U0], [2U0, 4U0] overflows is a ValueError.
    """
    if config is None:
        config = AdaptiveConfig()
    grid = chebyshev.grid(config.k)
    if b == math.inf and math.isfinite(a):
        u, tail = _tail(integrand, a, grid, config)
        if u is None or u == a:
            return tail
        res = adaptive_integrate(integrand, a, u, config)
        value, status = res.value + tail.value, res.status
        if not cmath.isfinite(value):
            value, status = res.value, "overflow"
        return QuadResult(value, res.intervals_used + tail.intervals_used,
                          res.fevals + tail.fevals, status)
    check_domain(a, b)

    def solve(intervals):
        spans = []
        for lo, hi in intervals:
            mid = 0.5 * (lo + hi)
            spans += ((lo, hi), (lo, mid), (mid, hi))
        values, _, nevals = panel_values(integrand, spans, grid, config.solver)
        return values, nevals

    ahead = _SolveAhead(solve, a, b, config.eps, max(1, PASS_ENTRIES // (3 * config.k ** 2)))
    return _run_worklist(lambda *t: panel_trio(ahead, *t), a, b)
