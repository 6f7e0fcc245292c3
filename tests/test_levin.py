import math
import warnings

import numpy as np
import pytest

from oscquad import (Integrand, PanelError, adaptive_gauss, chebyshev, levin_panel,
                     weighted_value)
from oscquad.levin import NUDGE_FACTOR, panel_trio, panel_values


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
    ref = adaptive_gauss(
        lambda x: np.cos(x) / (1 + x * x) * np.exp(1j * lam * x * x),
        0.5, 0.6, tol=1e-15)
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


def test_weighted_value_assembly():
    pa, pb = 0.3 + 0.1j, -0.2 + 0.4j
    ga, gb = 0.7, 2.1
    ea, eb = np.exp(1j * ga), np.exp(1j * gb)
    e_val = pb * eb - pa * ea
    assert weighted_value((pa, pb), (ga, gb), "exp") == pytest.approx(e_val)
    assert weighted_value((pa, pb), (ga, gb), "cos") == pytest.approx(e_val.real)
    assert weighted_value((pa, pb), (ga, gb), "sin") == pytest.approx(e_val.imag)
    # complex-f path: conjugate-solve endpoints supply E(-g)
    qa, qb = 0.5 - 0.2j, 0.1 + 0.9j
    e_neg = np.conj(qb * eb - qa * ea)
    got = weighted_value((pa, pb), (ga, gb), "cos", (qa, qb))
    assert got == pytest.approx(0.5 * (e_val + e_neg))
    got = weighted_value((pa, pb), (ga, gb), "sin", (qa, qb))
    assert got == pytest.approx((e_val - e_neg) / 2j)


def test_complex_f_cos_kernel_against_two_phase_average():
    # int f*cos(g) for complex f must equal (E(g) + E(-g))/2 with both
    # sides computed as exp-kernel panels
    def f(x):
        return np.exp(-x) + 1j * x

    def g(x):
        return 40.0 * x + 3.0 * x ** 2

    res = levin_panel(Integrand(f=f, g=g, kernel="cos"), -1.0, 1.0)
    e_pos = levin_panel(Integrand(f=f, g=g), -1.0, 1.0).value
    e_neg = levin_panel(Integrand(f=f, g=lambda x: -g(x)), -1.0, 1.0).value
    assert abs(res.value - 0.5 * (e_pos + e_neg)) <= 1e-12


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
        ref = adaptive_gauss(lambda x, lam=lam: (1 + x * x) * np.exp(1j * lam * x * x),
                             -1.0, 1.0, tol=1e-15)
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
        res = levin_panel(Integrand(f=f, g=lambda x, lam=lam: lam * x * x),
                          -delta, delta)
        ref = adaptive_gauss(lambda x, lam=lam: (1 + x * x) * np.exp(1j * lam * x * x),
                             -delta, delta, tol=1e-15)
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
    _, left, right, nevals = panel_trio(integrand, -1.0, 0.0, 1.0, grid, "qr")
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


def test_interior_nan_is_panel_failure():
    def f(x):
        out = np.ones_like(x)
        out[(x > 0.4) & (x < 0.6)] = np.nan
        return out

    with pytest.raises(PanelError):
        levin_panel(Integrand(f=f, g=lambda x: 0.0 * x), 0.0, 1.0)


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
