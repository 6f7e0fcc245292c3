import cmath
import math
import sys

import numpy as np
import pytest

from oscquad import adaptive, adaptive_gauss
from oscquad import reference
from oscquad.reference import (GAMMA_5_4, closed_form_value, evaluate_levin,
                               evaluate_oracle, integrand_for)


def test_gamma_constant_cross_check():
    from scipy.special import gamma
    assert abs(GAMMA_5_4 - gamma(0.25) / 4.0) <= 1e-16
    assert abs(GAMMA_5_4 - gamma(1.25)) <= 1e-16


def test_closed_form_arctan_phase():
    assert closed_form_value("I1", {"lambda": 2.0}) == pytest.approx(1.0, abs=1e-15)
    assert abs(closed_form_value("I1", {"lambda": 4.0})) <= 1e-15


def test_closed_form_fresnel_power():
    lam = 1.0
    want = cmath.exp(1j * math.pi / 8.0) * 2.0 * GAMMA_5_4
    assert closed_form_value("I2", {"lambda": lam}) == pytest.approx(want, rel=1e-15)


def test_closed_form_exponential_phase():
    lam = 3.0
    got = closed_form_value("I4", {"lambda": lam})
    want = (1j / lam) * (cmath.exp(1j * lam) - cmath.exp(1j * lam * math.exp(10.0)))
    assert got == pytest.approx(want, rel=1e-12)


def test_closed_form_unsupported():
    with pytest.raises(ValueError):
        closed_form_value("I8", {"lambda": 1.0})
    with pytest.raises(KeyError):
        closed_form_value("I99", {"lambda": 1.0})


def test_catalog_fields():
    entry = reference.CATALOG["I9"]
    assert entry.f_expr == "cos(x)/(1+x^2)"
    assert entry.phases == ("lambda*x^m",)
    assert entry.domain == (-1.0, 1.0)
    assert entry.kernel == "exp"
    entry = reference.CATALOG["I22"]
    assert entry.f_expr == "1/(1+x^2)"
    assert entry.phases == ("lambda*cos(pi/2*m*x)^2",)
    assert entry.domain == (-1.0, 1.0)
    entry = reference.CATALOG["I5"]
    assert entry.f_expr == "exp(-x)*x"
    assert entry.phases == ("lambda*x^2",)
    assert entry.domain == (0.0, 1.0)


def test_integrand_components():
    comps, (a, b) = integrand_for("I9", {"lambda": 10.0, "m": 2.0})
    assert len(comps) == 1
    assert comps[0][0] == 1.0
    assert (a, b) == (-1.0, 1.0)
    comps, (a, b) = integrand_for("I21", {"kappa": 5.0, "m": 3.0, "alpha": 0.5})
    assert len(comps) == 2
    assert comps[0][0] == pytest.approx(1.0 / (8 * math.pi ** 2))
    assert (a, b) == (-math.pi, math.pi)
    with pytest.raises(ValueError):
        integrand_for("I9", {"lambda": 10.0})  # missing m


def test_unknown_parameter_rejected_on_every_route():
    for params, message in (
            ({"lambda": 5.0, "mu": 3.0}, "I1 has no parameter 'mu'; it takes lambda"),
            ({"lambda": math.nan}, "I1 needs a finite lambda, got nan"),
            ({"lambda": -math.inf}, "I1 needs a finite lambda, got -inf")):
        for route in (integrand_for, evaluate_levin, evaluate_oracle, closed_form_value):
            with pytest.raises(ValueError) as exc:
                route("I1", params)
            assert str(exc.value) == message, route.__name__


def test_i21_needs_alpha_inside_minus_one_one(monkeypatch):
    # refused before any work: neither integrator is reached
    for name in ("adaptive_integrate", "adaptive_gauss"):
        monkeypatch.setattr(reference, name, None)
    for alpha in (1.0, -1.0, 2.0, -1.5, 1e300):
        params = {"kappa": 100.0, "m": 5.0, "alpha": alpha}
        for route in (integrand_for, evaluate_levin, evaluate_oracle,
                      reference.oracle_integrand):
            with pytest.raises(ValueError) as exc:
                route("I21", params)
            assert str(exc.value) == f"I21 needs -1 < alpha < 1, got {alpha}", route.__name__
    monkeypatch.undo()
    params = {"kappa": 100.0, "m": 5.0, "alpha": -0.999}
    assert len(integrand_for("I21", params)[0]) == 2
    assert reference.oracle_integrand("I21", params)[1] == (-math.pi, math.pi)


@pytest.mark.parametrize(
    "id", [id for id, entry in reference.CATALOG.items() if entry.closed_form is not None])
def test_closed_forms_need_positive_lambda(id):
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError) as exc:
            closed_form_value(id, {"lambda": lam})
        assert str(exc.value) == f"{id} needs lambda > 0"


def test_closed_forms_refuse_subnormal_lambda():
    # at a subnormal lambda I1's 2/lam overflows and I4 and I7 turn
    # invalid; from the smallest normal float on every form is right
    for id in ("I1", "I2", "I3", "I4", "I5", "I6", "I7"):
        for lam in (1e-310, 5e-324):
            with pytest.raises(ValueError) as exc:
                closed_form_value(id, {"lambda": lam})
            assert str(exc.value) == (f"{id} needs lambda >= 2.2250738585072014e-308 "
                                      f"(the smallest normal float), got {lam!r}")
    tiny = {"lambda": sys.float_info.min}
    assert closed_form_value("I1", tiny) == pytest.approx(math.pi / 2, rel=1e-15)
    assert closed_form_value("I4", tiny) == pytest.approx(math.exp(10) - 1, rel=1e-15)
    assert closed_form_value("I7", tiny) == pytest.approx(8.0, rel=1e-15)
    assert closed_form_value("I5", tiny) == pytest.approx(1 - 2 / math.e, rel=1e-15)
    assert closed_form_value("I6", tiny) == pytest.approx(8 / 3, rel=1e-15)


@pytest.mark.parametrize(
    "id", [id for id, entry in reference.CATALOG.items() if entry.closed_form is not None])
def test_closed_forms_are_finite_or_refuse_lambda(id):
    # across the normal floats each form returns a finite value or raises
    # ValueError, never a warning (which the test settings make an error)
    for lam in (sys.float_info.min, 1.0, 1e300, 8e303, 9e303, sys.float_info.max):
        try:
            value = closed_form_value(id, {"lambda": lam})
        except ValueError as exc:
            assert id == "I4" and lam > 8.2e303
            assert str(exc) == ("I4 needs lambda * exp(10) finite, so lambda <= "
                                f"8.161514205725033e+303, got {lam!r}")
        else:
            assert cmath.isfinite(value), (id, lam)


def test_nonconverged_component_status_is_passed_on(monkeypatch):
    # with a budget of one interval neither I21 component can converge
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", 1)
    res = evaluate_levin("I21", {"kappa": 30.0, "m": 7.0, "alpha": 0.5})
    assert res.status == "budget_exhausted"
    assert res.intervals_used == 6


def test_semi_infinite_domains_take_positive_lambda():
    assert integrand_for("I2", {"lambda": 10.0})[1] == (0.0, math.inf)
    assert integrand_for("I3", {"lambda": 100.0})[1] == (1.0, math.inf)
    for id in ("I2", "I3"):
        for lam in (0.0, -1.0):
            for route in (integrand_for, evaluate_levin, evaluate_oracle):
                with pytest.raises(ValueError) as exc:
                    route(id, {"lambda": lam})
                assert str(exc.value) == f"{id} needs lambda > 0", route.__name__
        # the Gauss route has no tail
        with pytest.raises(ValueError) as exc:
            evaluate_oracle(id, {"lambda": 10.0})
        assert str(exc.value).startswith("infinite end b = inf: ")


@pytest.mark.parametrize(
    "id", [id for id, entry in reference.CATALOG.items() if entry.closed_form is not None])
def test_levin_matches_every_closed_form(id):
    # 57 log-spaced frequencies over seven decades
    for lam in np.logspace(0, 7, 57):
        res = evaluate_levin(id, {"lambda": lam})
        assert res.status == "converged", (id, lam)
        err = abs(res.value - closed_form_value(id, {"lambda": lam}))
        assert err <= 1e-10, (id, lam, err)


@pytest.mark.parametrize("k", [5, 8, 16, 24])
@pytest.mark.parametrize("id, lam", [*(("I1", lam) for lam in (10.0, 1e3, 1e5)),
                                     *(("I4", lam) for lam in (10.0, 1e3, 1e5)),
                                     ("I3", 10.0)])
def test_closed_forms_at_other_collocation_orders(k, id, lam):
    # Criterion 1's bound at orders other than its k = 12, down to the
    # lowest accepted one; I3 runs through the tail.  At eps 1e-12 the
    # largest error of this grid is 1.8e-11 (I4 at lambda = 10, k = 5; 1.6e-12
    # from k = 8 up), and intervals fall as k grows (I1 at lambda = 100:
    # 21 / 21 / 9 at k = 12 / 16 / 24; I3: 84 / 12 / 6; I4 at 1e3:
    # 45 / 9 / 3).  k = 4 is refused: I4 is 3.9e-11 off at lambda = 1e3 and
    # 3.0e-10 off at lambda = 10 (in 567,801 intervals), both reported
    # 'converged'.
    res = evaluate_levin(id, {"lambda": lam}, adaptive.AdaptiveConfig(eps=1e-12, k=k))
    assert res.status == "converged"
    assert abs(res.value - closed_form_value(id, {"lambda": lam})) <= 1e-10


def test_fresnel_closed_form_vs_gauss():
    for lam in (1.0, 10.0, 100.0, 1e3):
        res = adaptive_gauss(lambda x: np.exp(1j * lam * x * x), -4.0, 4.0)
        assert res.status == "converged"
        assert abs(res.value - closed_form_value("I7", {"lambda": lam})) <= 1e-13, lam


def test_fresnel_closed_form_vs_50_digit_erf_form():
    # from the smallest normal float to the largest: across the switch
    # from the series at 1/16 and across 16 * lambda overflowing
    mpmath = pytest.importorskip("mpmath")
    lams = [sys.float_info.min, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-8, 1e-4, 1e-2,
            math.nextafter(0.0625, 0.0), 0.0625, 0.1, 0.5, 1.0, 3.0, 10.0, 1e2, 1e4, 1e6,
            1e10, 1e15, 1e30, 1e100, 1e300, 1.1e307, 1.2e307, sys.float_info.max]
    with mpmath.workdps(50):
        for lam in lams:
            s = mpmath.sqrt(mpmath.mpf(lam))
            rot = mpmath.expjpi(mpmath.mpf(1) / 4)
            want = complex(mpmath.sqrt(mpmath.pi) / s * rot * mpmath.erf(4 * s / rot))
            got = closed_form_value("I7", {"lambda": lam})
            assert abs(got - want) <= 1e-15 * abs(want), (lam, got, want)


@pytest.mark.parametrize("id", ["I5", "I6"])
def test_quadratic_phase_closed_forms_vs_gauss(id):
    # both sides of lambda = 1, where the forms switch from the power
    # series to the error-function form
    for lam in (1e-8, 1e-4, 1e-2, 0.5, 1.0, 2.0, 1e2, 1e4):
        params = {"lambda": lam}
        res = evaluate_oracle(id, params, tol=1e-15)
        assert res.status == "converged"
        assert abs(res.value - closed_form_value(id, params)) <= 1e-13, (id, lam)


def test_reciprocal_sqrt_phase_vs_oracle():
    # compare collocation and reference quadrature on a finite piece
    # [1, u_max] of the transformed integral (the reference integrator has
    # no tail, and its cost grows with the width)
    from oscquad import Integrand, adaptive_integrate
    from oscquad import expr as exprmod

    for lam in (1.0, 31.6, 1000.0):
        u_max = 1.0 + 1.2e4 / lam
        f = exprmod.compile_fn("2/x")
        integrand = Integrand(f=f, g=lambda x, lam=lam: lam * x)
        res = adaptive_integrate(integrand, 1.0, u_max)
        ref = adaptive_gauss(integrand, 1.0, u_max, tol=1e-15)
        assert res.status == ref.status == "converged"
        assert abs(res.value - ref.value) <= 1e-9, lam


def test_oracle_route_matches_levin_route():
    params = {"lambda": 50.0}
    res_l = evaluate_levin("I6", params)
    res_o = evaluate_oracle("I6", params)
    assert abs(res_l.value - res_o.value) <= 5e-11


def test_modal_component_routes_agree():
    params = {"kappa": 30.0, "m": 7.0, "alpha": 0.5}
    res_l = evaluate_levin("I21", params)
    res_o = evaluate_oracle("I21", params)
    assert res_l.status == res_o.status == "converged"
    assert abs(res_l.value - res_o.value) <= 1e-10


def test_cos_kernel_entry_is_real():
    res = evaluate_levin("I1", {"lambda": 2.0})
    assert res.value.imag == 0.0
    assert res.value.real == pytest.approx(1.0, abs=1e-12)


def test_solver_paths_agree_across_catalog():
    from oscquad import AdaptiveConfig

    cases = {
        "I1": {"lambda": 30.0},
        "I2": {"lambda": 50.0},
        "I3": {"lambda": 200.0},
        "I4": {"lambda": 20.0},
        "I5": {"lambda": 300.0},
        "I6": {"lambda": 300.0},
        "I7": {"lambda": 300.0},
        "I8": {"lambda": 300.0},
        "I9": {"lambda": 300.0, "m": 3.0},
        "I21": {"kappa": 100.0, "m": 40.0, "alpha": 0.5},
        "I22": {"lambda": 300.0, "m": 4.0},
    }
    for id, params in cases.items():
        v_qr = evaluate_levin(id, params, AdaptiveConfig(solver="qr")).value
        v_svd = evaluate_levin(id, params, AdaptiveConfig(solver="svd")).value
        assert abs(v_qr - v_svd) <= 1e-11, (id, abs(v_qr - v_svd))
