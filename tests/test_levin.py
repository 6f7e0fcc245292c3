import math
import warnings

import numpy as np
import pytest

from oscquad import Integrand, PanelError, adaptive_gauss, chebyshev, levin_panel, linalg
from oscquad.levin import NUDGE_FACTOR, panel_values


def const_one(x):
    return np.ones_like(x)


def test_flat_integrand_exercises_truncation():
    # g == 0 makes the collocation matrix singular (constants in its
    # nullspace); the truncated solve must still recover the width
    for solver in ("svd", "qr"):
        res = levin_panel(Integrand(f=const_one, g=lambda x: 0.0 * x), -1.0, 1.0,
                          solver=solver)
        assert abs(res.value - 2.0) <= 1e-12
    res = levin_panel(Integrand(f=const_one, g=lambda x: 0.0 * x), -1.0, 1.0,
                      solver="svd")
    assert res.rank_used < 12


def test_linear_phase_closed_form():
    lam = 100.0
    res = levin_panel(Integrand(f=const_one, g=lambda x: lam * x), -1.0, 1.0)
    want = 2.0 * math.sin(lam) / lam
    assert abs(res.value - want) <= 1e-14


def test_panel_matches_reference_integrator():
    lam = 1e3
    integrand = Integrand(f=lambda x: np.cos(x) / (1 + x * x),
                          g=lambda x: lam * x * x)
    res = levin_panel(integrand, 0.5, 0.6)
    ref = adaptive_gauss(integrand, 0.5, 0.6, tol=1e-15)
    assert ref.status == "converged"
    assert abs(res.value - ref.value) <= 1e-12


def test_weighted_value_real_f():
    lam = 50.0
    for kernel, pick in (("cos", np.real), ("sin", np.imag)):
        res = levin_panel(Integrand(f=const_one, g=lambda x: lam * x, kernel=kernel),
                          -1.0, 1.0)
        assert res.value.imag == 0.0
        exp_res = levin_panel(Integrand(f=const_one, g=lambda x: lam * x), -1.0, 1.0)
        assert abs(res.value.real - pick(exp_res.value)) <= 1e-15
    want = 2.0 * math.sin(lam) / lam
    res = levin_panel(Integrand(f=const_one, g=lambda x: lam * x, kernel="cos"),
                      -1.0, 1.0)
    assert abs(res.value - want) <= 1e-14


def test_complex_f_cos_kernel_against_two_phase_average():
    # int f*cos(g) for complex f must equal (E(g) + E(-g))/2, and int
    # f*sin(g) must equal (E(g) - E(-g))/(2i), with E(g) and E(-g)
    # computed as exp-kernel panels
    def f(x):
        return np.exp(-x) + 1j * x

    def g(x):
        return 40.0 * x + 3.0 * x ** 2

    e_pos = levin_panel(Integrand(f=f, g=g), -1.0, 1.0).value
    e_neg = levin_panel(Integrand(f=f, g=lambda x: -g(x)), -1.0, 1.0).value
    for kernel, want in (("cos", 0.5 * (e_pos + e_neg)), ("sin", (e_pos - e_neg) / 2j)):
        res = levin_panel(Integrand(f=f, g=g, kernel=kernel), -1.0, 1.0)
        assert abs(res.value - want) <= 1e-12, kernel


def test_conjugation_symmetry():
    def f(x):
        return np.cos(x) / (1 + x * x) + 0.5j * x

    def g(x):
        return 25.0 * x + 4.0 * x ** 3

    base = levin_panel(Integrand(f=f, g=g), -1.0, 1.0)
    conj = levin_panel(Integrand(f=lambda x: np.conj(f(x)), g=lambda x: -g(x)),
                       -1.0, 1.0)
    assert abs(conj.value - np.conj(base.value)) <= 1e-13


def test_affine_invariance():
    def f(x):
        return np.exp(-x) * x

    def g(x):
        return 200.0 * x * x

    a0, b0 = 0.25, 0.75
    direct = levin_panel(Integrand(f=f, g=g), a0, b0).value
    w = b0 - a0
    pulled = levin_panel(
        Integrand(f=lambda t: w * f(a0 + w * t), g=lambda t: g(a0 + w * t)),
        0.0, 1.0).value
    assert abs(direct - pulled) <= 1e-12 * (1 + abs(direct))


def test_zero_integrand_forces_zero():
    res = levin_panel(Integrand(f=lambda x: 0.0 * x, g=lambda x: 7.0 * x), -1.0, 1.0)
    assert res.value == 0.0


def test_low_frequency_continuity():
    # no breakdown as the frequency goes to zero: the single-panel error is
    # bounded and does not grow as lam -> 0.  At lam=1 the k=12 panel sits
    # at its spectral resolution limit (~2e-8; k=16 reaches 1e-11), so the
    # tight bound is asserted at k=16 and the k=12 run gets the resolution
    # bound.
    f = lambda x: 1.0 + x * x
    errs = {}
    for lam in (1e-8, 1e-4, 1.0):
        integrand = Integrand(f=f, g=lambda x, lam=lam: lam * x * x)
        ref = adaptive_gauss(integrand, -1.0, 1.0, tol=1e-15)
        errs[lam] = abs(levin_panel(integrand, -1.0, 1.0).value - ref.value)
        err16 = abs(levin_panel(integrand, -1.0, 1.0,
                                grid=chebyshev.grid(16)).value - ref.value)
        assert err16 <= 1e-10, (lam, err16)
    assert errs[1e-8] <= 1e-10
    assert errs[1e-4] <= 1e-10
    assert errs[1.0] <= 1e-7
    assert errs[1e-8] <= errs[1.0] + 1e-12
    assert errs[1e-4] <= errs[1.0] + 1e-12


def test_stationary_point_tolerance():
    # quadratic phase centered in the panel, lam*delta^2 <= 0.1
    f = lambda x: 1.0 + x * x
    for lam, delta in ((1e6, 3e-4), (1e2, 0.03), (1e8, 2e-5)):
        assert lam * delta ** 2 <= 0.1
        integrand = Integrand(f=f, g=lambda x, lam=lam: lam * x * x)
        res = levin_panel(integrand, -delta, delta)
        ref = adaptive_gauss(integrand, -delta, delta, tol=1e-15)
        assert abs(res.value - ref.value) <= 1e-10, (lam, delta)


def test_endpoint_nudge_repairs_singular_sample():
    def f(x):
        with np.errstate(all="ignore"):
            return 1.0 / np.sqrt(x)

    integrand = Integrand(f=f, g=lambda x: 0.0 * x)
    res = levin_panel(integrand, 0.0, 1e-3)
    assert np.isfinite(res.value)


def test_nudge_counts_extra_evaluations():
    calls = {"n": 0}

    def f(x):
        calls["n"] += np.size(x)
        with np.errstate(all="ignore"):
            return 1.0 / np.sqrt(x)

    integrand = Integrand(f=f, g=lambda x: 0.0 * x)
    values, _, nevals = panel_values(integrand, ((0.0, 1.0),), chebyshev.grid(12), "qr")
    assert nevals == 13  # 12 samples + 1 nudged endpoint
    assert calls["n"] == 13
    assert np.isfinite(values[0])


def test_trio_nudges_each_sample_inside_its_own_span():
    # the midpoint 0 is sampled twice, as the left half's right end and the
    # right half's left end; each copy moves into its own half
    resampled = []

    def f(x):
        if np.size(x) < 36:
            resampled.append(np.array(x))
        return np.sin(x) / x

    integrand = Integrand(f=f, g=lambda x: 3.0 * x)
    grid = chebyshev.grid(12)
    (_, left, right), _, nevals = panel_values(
        integrand, ((-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)), grid, "qr")
    assert nevals == 38
    step = NUDGE_FACTOR * 1.0  # both halves have width 1
    assert len(resampled) == 1
    np.testing.assert_array_equal(resampled[0], [-step, step])
    assert left == levin_panel(integrand, -1.0, 0.0).value
    assert right == levin_panel(integrand, 0.0, 1.0).value


def test_nonfinite_matrix_is_panel_failure():
    # g' = 1.7e308 overflows the collocation matrix on either solver, which
    # rejects it before factoring, with the same message and no warning
    integrand = Integrand(f=const_one, g=lambda x: 1.7e308 * x)
    messages = set()
    for solver in ("qr", "svd"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PanelError, match="non-finite g' in ") as failure:
                levin_panel(integrand, 0.0, 1.0, solver=solver)
        messages.add(str(failure.value))
    assert len(messages) == 1


def test_overflowing_d_over_h_is_panel_failure():
    # a span of width 1e-310 overflows D/h while g' = 1 stays finite
    integrand = Integrand(f=const_one, g=lambda x: x)
    for solver in ("qr", "svd"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PanelError) as failure:
                levin_panel(integrand, 0.0, 1e-310, solver=solver)
        assert str(failure.value) == ("non-finite D/h in [[0.0, 1e-310]]: "
                                      "the collocation matrix overflows")


def test_interior_nan_is_panel_failure():
    def f(x):
        out = np.ones_like(x)
        out[(x > 0.4) & (x < 0.6)] = np.nan
        return out

    with pytest.raises(PanelError):
        levin_panel(Integrand(f=f, g=lambda x: 0.0 * x), 0.0, 1.0)


def test_phase_overflowing_to_inf_is_panel_failure():
    # g = exp(1000 x) overflows to inf at x = 1, nudged or not: the span
    # fails before its endpoint phase exp(i g) would warn on 0 * inf
    integrand = Integrand(f=const_one, g=lambda x: np.exp(1000.0 * x))
    for solver in ("qr", "svd"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PanelError, match="non-finite sample in "):
                levin_panel(integrand, 0.0, 1.0, solver=solver)


def _bad_on_region(x):
    return (x > 0.3) & (x < 0.4)


def _raising(fn, marked):
    """``fn``, raising LinalgError on the arguments that ``marked`` picks."""

    def wrapper(*args):
        if marked(*args):
            raise linalg.LinalgError("injected failure")
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("solver", ("qr", "svd"))
@pytest.mark.parametrize("f, g, why, raises", [
    (lambda x: np.where(_bad_on_region(x), np.nan, 1.0), lambda x: 40.0 * x,
     "non-finite sample in [[{}, {}]] after nudge", None),
    # g overflows to inf on the region, endpoint phases included
    (const_one, lambda x: 40.0 * x + np.exp(np.where(_bad_on_region(x), 1000.0, 0.0)),
     "non-finite sample in [[{}, {}]] after nudge", None),
    # finite samples and matrices, but the estimate overflows
    (lambda x: np.where(_bad_on_region(x), 1e308, 1.0), lambda x: 40.0 * x,
     "non-finite panel estimate on [{}, {}]", None),
    # the factorization raises where g jumps by 1 on the region, so that
    # g', the imaginary diagonal of the matrix, is far from 40
    (const_one, lambda x: 40.0 * x + np.where(_bad_on_region(x), 1.0, 0.0),
     "injected failure",
     (("qr_factor", "svd"), lambda a, *_: np.abs(a.diagonal().imag - 40.0).max() > 1.0)),
    # the solve raises where f is 2
    (lambda x: np.where(_bad_on_region(x), 2.0, 1.0), lambda x: 40.0 * x,
     "injected failure",
     (("qr_solve", "qr_apply", "tsvd_apply"), lambda factors, y, *_: (y == 2.0).any())),
], ids=("nan-f", "inf-g", "overflowing-estimate", "factorization-raises", "solve-raises"))
def test_failed_span_leaves_every_other_span_of_its_pass(monkeypatch, f, g, why, raises,
                                                         solver):
    if raises is not None:
        names, marked = raises
        for name in names:
            monkeypatch.setattr(linalg, name, _raising(getattr(linalg, name), marked))
    integrand = Integrand(f=f, g=g)
    grid = chebyshev.grid(12)
    # a bad span between good ones in one trio slot, an all-good trio, an all-bad one
    spans = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75),
             (0.5, 0.75), (0.5, 0.625), (0.625, 0.75),
             (0.25, 0.5), (0.25, 0.375), (0.375, 0.5))
    bad = (1, 6, 7, 8)
    kept = [i for i in range(len(spans)) if i not in bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, ranks, nevals = panel_values(integrand, spans, grid, solver)
        alone, alone_ranks, alone_nevals = panel_values(
            integrand, [spans[i] for i in kept], grid, solver)
    for i in bad:
        assert isinstance(values[i], PanelError)
        assert str(values[i]) == why.format(*spans[i]) and ranks[i] is None
    assert [ranks[i] for i in kept] == alone_ranks
    assert [(values[i].real.hex(), values[i].imag.hex()) for i in kept] == \
        [(v.real.hex(), v.imag.hex()) for v in alone]
    assert alone_nevals == 12 * len(kept)
    if why.startswith("non-finite sample"):
        assert nevals > 12 * len(spans)  # the bad spans' nudges count too
    else:
        assert nevals == 12 * len(spans)


def test_solver_agreement_quadratic_phase_sweep():
    f = lambda x: 1.0 + x * x
    for lam in 10.0 ** np.linspace(0, 3, 20):
        integrand = Integrand(f=f, g=lambda x, lam=lam: lam * x * x)
        for (a, b) in ((-1.0, 1.0), (0.0, 1.0), (-0.7, -0.2)):
            v_qr = levin_panel(integrand, a, b, solver="qr").value
            v_svd = levin_panel(integrand, a, b, solver="svd").value
            assert abs(v_qr - v_svd) <= 1e-11 * (1.0 + abs(v_qr)), (lam, a, b)


def test_rejects_bad_interval_and_kernel():
    with pytest.raises(ValueError):
        levin_panel(Integrand(f=const_one, g=const_one), 1.0, 0.0)
    with pytest.raises(ValueError):
        Integrand(f=const_one, g=const_one, kernel="tan")
    # only adaptive_integrate closes an infinite end, with a Levin tail
    for a, b in ((0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="^infinite end "):
            levin_panel(Integrand(f=const_one, g=const_one), a, b)
    # the driver validates its solver in AdaptiveConfig; levin_panel passes its own
    with pytest.raises(ValueError, match="solver must be one of"):
        levin_panel(Integrand(f=const_one, g=const_one), 0.0, 1.0, solver="lu")


def reference_panel_values(integrand, spans, grid, solver):
    """Plain per-span panel estimates: (values, ranks) of each span on its own."""
    k = grid.k
    values, ranks = [], []
    for lo, hi in spans:
        half = 0.5 * (hi - lo)
        x = grid.nodes * half + (lo + half)
        x[0], x[-1] = lo, hi
        with np.errstate(all="ignore"):
            f = np.asarray(integrand.f(x), dtype=complex)
            g = np.asarray(integrand.g(x), dtype=float)
        for j in np.nonzero(~(np.isfinite(f) & np.isfinite(g)))[0]:
            step = NUDGE_FACTOR * (hi - lo)
            moved = np.array([x[j] + (step if x[j] <= 0.5 * (lo + hi) else -step)])
            f[j], g[j] = integrand.f(moved)[0], integrand.g(moved)[0]
        a = (grid.diff / half).astype(complex)
        a[np.diag_indices(k)] += 1j * (grid.diff @ g / half)
        if solver == "qr":
            factors, apply = linalg.qr_factor(a), linalg.qr_apply
            thr = linalg.EPS0 * factors.rdiag[0]
        else:
            factors, apply = linalg.svd(a), linalg.tsvd_apply
            thr = linalg.EPS0 * factors.sigma[0]
        ea, eb = np.exp(1j * g[[0, -1]])
        p, rank = apply(factors, f, thr)
        value = p[-1] * eb - p[0] * ea
        if integrand.kernel != "exp" and np.any(f.imag):
            pc, _ = apply(factors, np.conj(f), thr)
            value_neg = np.conj(pc[-1] * eb - pc[0] * ea)
            value = (0.5 * (value + value_neg) if integrand.kernel == "cos"
                     else (value - value_neg) / 2j)
        elif integrand.kernel != "exp":
            value = value.real if integrand.kernel == "cos" else value.imag
        values.append(complex(value))
        ranks.append(rank)
    return values, ranks


def inv_sqrt(x):
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(x) + 0.25j * x


def mixed_f(x):
    return np.exp(-x) + 1j * np.maximum(x, 0.0)


def inv_sqrt_abs(x):
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(np.abs(x)) + 0.25j * x


def flat_left(x):
    return np.where(x < -0.5, 0.0, 1e3 * x * x)


# one pass of three kinds of trio: a flat phase (rank < k), a high
# frequency (full rank) and an endpoint nudged off f(0) = inf
THREE_KINDS = ((-1.0, -0.6), (-1.0, -0.8), (-0.8, -0.6),
               (0.2, 0.8), (0.2, 0.5), (0.5, 0.8),
               (0.0, 1e-3), (0.0, 5e-4), (5e-4, 1e-3))


@pytest.mark.parametrize("solver", ("qr", "svd"))
@pytest.mark.parametrize("f, g, kernel, spans", [
    (lambda x: np.exp(-x) + 1j * x, lambda x: 40.0 * x + 3.0 * x ** 2, "exp",
     ((-1.0, 1.0), (-1.0, 0.25), (0.25, 1.0))),
    (lambda x: np.cos(x) / (1 + x * x), lambda x: 1e3 * x * x, "cos",
     ((0.5, 0.6), (0.5, 0.55), (0.55, 0.6))),
    (lambda x: np.cos(x) / (1 + x * x), lambda x: 1e3 * x * x, "sin",
     ((-0.3, 0.2), (-0.3, -0.05), (-0.05, 0.2))),
    (lambda x: np.exp(-x) + 1j * x, lambda x: 40.0 * x + 3.0 * x ** 2, "cos",
     ((-1.0, 1.0), (0.0, 0.125))),
    (lambda x: np.exp(-x) + 1j * x, lambda x: 40.0 * x + 3.0 * x ** 2, "sin",
     ((-1.0, 1.0), (0.0, 0.125))),
    (lambda x: np.cos(3 * x) + 1j / (2 + x), lambda x: 1e4 * x * x, "exp",
     tuple(zip(np.linspace(-1, 1, 25)[:-1].tolist(), np.linspace(-1, 1, 25)[1:].tolist()))),
    # a nudged endpoint sample (f(0) = inf) and, with a flat phase, rank < k
    (inv_sqrt, lambda x: 0.0 * x, "exp", ((0.0, 1e-3), (0.0, 5e-4), (5e-4, 1e-3))),
    (inv_sqrt, lambda x: 0.0 * x, "cos", ((0.0, 1.0),)),
    # f is real left of 0 and complex right of it: only the complex-f spans
    # take the second apply against conj(f), whichever spans share the pass
    *((mixed_f, lambda x: 40.0 * x + 3.0 * x ** 2, kernel,
       ((-1.0, -0.25), (0.25, 1.0), (-0.6, -0.1), (-0.25, 0.5), (-1.0, -0.6)))
      for kernel in ("cos", "sin")),
    *((inv_sqrt_abs, flat_left, kernel, THREE_KINDS) for kernel in ("exp", "cos")),
], ids=("exp", "real-f-cos", "real-f-sin", "complex-f-cos", "complex-f-sin",
        "exp-24-spans", "nudged-flat", "nudged-flat-cos", "mixed-f-cos", "mixed-f-sin",
        "three-kinds-exp", "three-kinds-cos"))
def test_panel_values_match_per_span_reference(f, g, kernel, spans, solver):
    # bit for bit: the stacked evaluation may not change a single value bit;
    # an odd k puts a zero on the diagonal of D (the middle node)
    integrand = Integrand(f=f, g=g, kernel=kernel)
    for k in (12, 7):
        grid = chebyshev.grid(k)
        values, ranks, _ = panel_values(integrand, spans, grid, solver)
        want_values, want_ranks = reference_panel_values(integrand, spans, grid, solver)
        assert ranks == want_ranks
        assert [(v.real.hex(), v.imag.hex()) for v in values] == \
            [(v.real.hex(), v.imag.hex()) for v in want_values]
        if g(np.ones(1))[0] == 0.0:
            assert min(ranks) < k
        if spans is THREE_KINDS:
            assert max(ranks[:3]) < k and ranks[3:6] == [k] * 3


@pytest.mark.parametrize("solver", ["qr", "svd"])
@pytest.mark.parametrize("kernel, f", [("exp", lambda x: 1 / (1 + x * x)),
                                       ("cos", lambda x: 1 / (1 + x * x)),
                                       ("sin", lambda x: np.exp(x) + 1j * x)])
def test_end_terms_give_each_span_its_value(kernel, f, solver):
    # T(b) - T(a) is the panel value (bit for bit where it is one
    # subtraction), P holds p of each solve, G and g the g' and g samples
    # from a to b, and every span keeps its rank
    integrand = Integrand(f=f, g=lambda x: 30.0 * x * x, kernel=kernel)
    spans = [(-1.0, 0.0), (0.0, 0.5), (1.0, 3.0)]
    grid = chebyshev.grid(12)
    values, ranks, nevals = panel_values(integrand, spans, grid, solver)
    terms, end_ranks, end_nevals = panel_values(integrand, spans, grid, solver, end_terms=True)
    assert (end_ranks, end_nevals) == (ranks, nevals)
    for (a, b), value, (ta, tb, pa, pb, gp, gs) in zip(spans, values, terms):
        assert len(pa) == len(pb) == (2 if kernel == "sin" else 1)
        assert len(gp) == len(gs) == 12
        assert abs(gp[0] - 60.0 * a) <= 1e-11 and abs(gp[-1] - 60.0 * b) <= 1e-11
        assert (gs[0], gs[-1]) == (30.0 * a * a, 30.0 * b * b)
        if kernel == "sin":
            assert abs((tb - ta) - value) <= 1e-15 * abs(value)
        else:
            assert tb - ta == value
