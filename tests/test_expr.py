import math

import numpy as np
import pytest

from oscquad import expr


def ev(src, x=0.0, **params):
    fn = expr.compile_fn(src, params or None)
    with np.errstate(all="ignore"):
        return float(fn(np.array([x]))[0])


def test_basic_arithmetic():
    assert ev("1/(1+x^2)", x=1.0) == 0.5
    assert ev("x^2", x=-3.0) == 9.0
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("7/2") == 3.5


def test_parameters_and_constants():
    assert ev("lambda*cos(pi/2*m*x)^2", x=0.0, **{"lambda": 1.0, "m": 2.0}) == 1.0
    assert ev("pi") == math.pi
    assert ev("e") == math.e


def test_functions():
    assert ev("sech(x)", x=0.0) == 1.0
    assert ev("exp(x)", x=10.0) == math.exp(10.0)
    assert abs(ev("erf(1)") - math.erf(1.0)) <= 2e-16  # scipy vs libm: 1 ulp
    assert ev("atan2(1, 1)") == math.atan(1.0)
    assert ev("pow(2, 10)") == 1024.0
    assert ev("min(3, x)", x=-1.0) == -1.0
    assert ev("max(3, x)", x=-1.0) == 3.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_binds_before_power():
    # factor := unary ('^' factor)?  puts the sign inside the base
    assert ev("-2^2") == 4.0
    assert ev("0-2^2") == -4.0


def test_syntax_error_offset():
    with pytest.raises(expr.ParseError) as exc:
        expr.compile_fn("sin(")
    assert exc.value.offset == 4
    assert "offset 4" in str(exc.value)


def test_unknown_function_and_arity():
    with pytest.raises(expr.ParseError):
        expr.compile_fn("frob(x)")
    with pytest.raises(expr.ParseError):
        expr.compile_fn("sin(x, 1)")
    with pytest.raises(expr.ParseError):
        expr.compile_fn("atan2(x)")


def test_trailing_garbage_rejected():
    with pytest.raises(expr.ParseError):
        expr.compile_fn("1 + 2)")
    with pytest.raises(expr.ParseError):
        expr.compile_fn("2 x")


def test_unbound_parameter():
    with pytest.raises(expr.EvalError):
        ev("a*x", x=1.0)
    with pytest.raises(expr.EvalError):
        expr.compile_fn("a*x")


def test_syntax_error_before_unbound_name():
    # "a" is unbound, but the missing operand after "+" is found first
    with pytest.raises(expr.ParseError) as exc:
        expr.compile_fn("a*x +")
    assert exc.value.offset == 5


def test_first_unbound_name_in_source_order():
    with pytest.raises(expr.EvalError, match="'b'"):
        expr.compile_fn("b*x + sin(a) + c")
    with pytest.raises(expr.EvalError, match="'a'"):
        expr.compile_fn("pow(a, b)")


def test_nonfinite_results_returned():
    assert ev("1/x", x=0.0) == math.inf
    assert math.isnan(ev("(0-2)^0.5"))
    assert math.isnan(ev("sqrt(0-1)"))


def test_compiled_matches_hand_closures():
    rng = np.random.default_rng(8)
    cases = [
        ("1/(1+x^2)", {}, lambda x: 1 / (1 + x ** 2)),
        ("lambda*atan(x)", {"lambda": 3.5}, lambda x: 3.5 * np.arctan(x)),
        ("exp(-x)*x", {}, lambda x: np.exp(-x) * x),
        ("lambda*x^2", {"lambda": 250.0}, lambda x: 250.0 * x ** 2),
        ("1/(0.01+x^4)", {}, lambda x: 1 / (0.01 + x ** 4)),
        ("cos(x)/(1+x^2)", {}, lambda x: np.cos(x) / (1 + x ** 2)),
        ("lambda*x^m", {"lambda": 40.0, "m": 3.0}, lambda x: 40.0 * x ** 3),
        ("lambda*cos(pi/2*m*x)^2", {"lambda": 2.0, "m": 5.0},
         lambda x: 2.0 * np.cos(np.pi / 2 * 5.0 * x) ** 2),
        ("1/sqrt(1-alpha*cos(x))", {"alpha": 0.5},
         lambda x: 1 / np.sqrt(1 - 0.5 * np.cos(x))),
        ("m*x - kappa*sqrt(1-alpha*cos(x))", {"m": 7.0, "kappa": 11.0, "alpha": 0.5},
         lambda x: 7.0 * x - 11.0 * np.sqrt(1 - 0.5 * np.cos(x))),
        ("lambda*exp(x)", {"lambda": 9.0}, lambda x: 9.0 * np.exp(x)),
        ("-m*x - kappa*sqrt(1-alpha*cos(x))", {"m": 7.0, "kappa": 11.0, "alpha": 0.5},
         lambda x: -7.0 * x - 11.0 * np.sqrt(1 - 0.5 * np.cos(x))),
        ("min(1, max(x, -1))", {}, lambda x: np.minimum(1, np.maximum(x, -1))),
    ]
    xs = rng.uniform(-1.0, 1.0, 1000)
    for src, params, closure in cases:
        fn = expr.compile_fn(src, params)
        got = fn(xs)
        want = closure(xs)
        scale = np.maximum(np.abs(want), 1e-300)
        assert np.max(np.abs(got - want) / scale) <= 1e-15, src
        x0 = float(xs[17])
        assert ev(src, x0, **params) == pytest.approx(
            float(closure(np.float64(x0))), rel=1e-15, abs=0.0)


def test_compiled_constant_broadcasts():
    fn = expr.compile_fn("2")
    out = fn(np.zeros(7))
    assert out.shape == (7,)
    assert np.all(out == 2.0)


def test_scientific_notation_literals():
    assert ev("1e6") == 1e6
    assert ev("2.5e-3") == 2.5e-3
    assert ev(".5") == 0.5
