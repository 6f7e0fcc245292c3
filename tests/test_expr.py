import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from oscquad import Integrand, adaptive_integrate, expr


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
    assert ev("-(2^2)") == -4.0


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


def test_bad_character_and_unclosed_paren():
    for src, offset, message in (("x $ 2", 2, "unexpected character '$'"),
                                 ("(x", 2, "expected ')'")):
        with pytest.raises(expr.ParseError) as exc:
            expr.compile_fn(src)
        assert exc.value.offset == offset
        assert str(exc.value) == f"syntax error at offset {offset}: {message}"


def test_constant_division_by_zero_is_ieee():
    # a constant subexpression is computed once, at compile time, as a float
    assert ev("x + 1/0", x=0.5) == math.inf
    fn = expr.compile_fn("1/m*x", {"m": 0.0})
    with np.errstate(all="ignore"):
        out = fn(np.array([2.0, 0.0]))
    assert out[0] == math.inf
    assert math.isnan(out[1])


# The tree oracle: operators and functions by their own table, not expr's,
# so a wrong entry in either shows.
LITERALS = ("0", "1", "2", "0.5", ".75", "3.25", "1e-3", "2.5e2")
NAMES = {"pi": math.pi, "e": math.e, "a": 0.75, "m": 0.0, "lam": -2.5}
OPERATORS = {"+": (1, np.add), "-": (1, np.subtract), "*": (2, np.multiply),
             "/": (2, np.divide), "^": (3, np.power)}
CALLS = {
    "sin": (np.sin, 1), "cos": (np.cos, 1), "tan": (np.tan, 1), "atan": (np.arctan, 1),
    "atan2": (np.arctan2, 2), "exp": (np.exp, 1), "log": (np.log, 1),
    "sqrt": (np.sqrt, 1), "abs": (np.abs, 1), "tanh": (np.tanh, 1),
    "cosh": (np.cosh, 1), "sinh": (np.sinh, 1), "sech": (lambda v: 1.0 / np.cosh(v), 1),
    "erf": (erf, 1), "pow": (np.power, 2), "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}
UNARY_LEVEL, ATOM_LEVEL = 4, 5
GRID = np.array([-2.5, -1.0, -0.3, -0.0, 0.0, 0.2, 0.5, 1.0, 3.0])


def _trees(depth=3):
    """Trees of at most ``depth`` operator, minus and call levels."""
    leaves = st.one_of(st.just(("x",)),
                       st.sampled_from(LITERALS).map(lambda t: ("num", t)),
                       st.sampled_from(sorted(NAMES)).map(lambda n: ("name", n)))
    if depth == 0:
        return leaves
    children = _trees(depth - 1)

    def call(name):
        arity = CALLS[name][1]
        return st.lists(children, min_size=arity, max_size=arity).map(
            lambda args: ("call", name, *args))

    kinds = {
        "op": st.tuples(st.just("op"), st.sampled_from(sorted(OPERATORS)),
                        children, children),
        "neg": children.map(lambda c: ("neg", c)),
        "call": st.sampled_from(sorted(CALLS)).flatmap(call),
        "leaf": leaves,
    }
    # operators weighted up: precedence is what is tested
    return st.sampled_from(("op", "op", "op", "neg", "call", "leaf")).flatmap(kinds.get)


def _full(tree):
    """Source with every operator node in parentheses."""
    kind = tree[0]
    if kind == "neg":
        return f"(-{_full(tree[1])})"
    if kind == "op":
        return f"({_full(tree[2])} {tree[1]} {_full(tree[3])})"
    if kind == "call":
        return f"{tree[1]}({', '.join(_full(t) for t in tree[2:])})"
    return tree[-1]


def _minimal(tree):
    """(source with only the parentheses the grammar needs, its level)."""
    kind = tree[0]
    if kind == "neg":  # '-' takes a unary, so any operator under it needs parentheses
        text, level = _minimal(tree[1])
        return "-" + (text if level >= UNARY_LEVEL else f"({text})"), UNARY_LEVEL
    if kind == "op":
        op = tree[1]
        level = OPERATORS[op][0]
        (lhs, lhs_level), (rhs, rhs_level) = _minimal(tree[2]), _minimal(tree[3])
        right = op == "^"  # the only right-associative operator
        if lhs_level < level or (lhs_level == level and right):
            lhs = f"({lhs})"
        if rhs_level < level or (rhs_level == level and not right):
            rhs = f"({rhs})"
        return f"{lhs}{op}{rhs}", level
    if kind == "call":
        return f"{tree[1]}({','.join(_minimal(t)[0] for t in tree[2:])})", ATOM_LEVEL
    return tree[-1], ATOM_LEVEL


def _oracle(tree, x):
    """Each node applies its ufunc to its children's results."""
    kind = tree[0]
    if kind == "x":
        return x
    if kind == "num":
        return float(tree[1])
    if kind == "name":
        return NAMES[tree[1]]
    if kind == "neg":
        return np.negative(_oracle(tree[1], x))
    if kind == "op":
        return OPERATORS[tree[1]][1](_oracle(tree[2], x), _oracle(tree[3], x))
    return CALLS[tree[1]][0](*(_oracle(t, x) for t in tree[2:]))


def _same_bits(got, want):
    return bool(np.all((got.view(np.uint64) == want.view(np.uint64))
                       | (np.isnan(got) & np.isnan(want))))


def test_oracle_tables_cover_the_language():
    assert set(CALLS) == set(expr.FUNCTIONS)
    assert all(CALLS[name][1] == arity for name, (_fn, arity) in expr.FUNCTIONS.items())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_trees())
def test_compiled_trees_match_ufunc_oracle_bit_for_bit(tree):
    params = {name: value for name, value in NAMES.items() if name not in ("pi", "e")}
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(_oracle(tree, GRID), dtype=np.float64),
                               GRID.shape)
        for src in (_full(tree), _minimal(tree)[0]):
            got = expr.compile_fn(src, params)(GRID)
            assert got.shape == GRID.shape, src
            assert _same_bits(np.asarray(got, dtype=np.float64), want), src


@pytest.mark.parametrize("src", ["(" * 400 + "x" + ")" * 400, "x^" * 2000 + "x",
                                 "-" * 1000 + "x"], ids=["parentheses", "powers", "minus"])
def test_too_deep_to_parse_is_a_parse_error(src):
    with pytest.raises(expr.ParseError, match="nested too deeply"):
        expr.compile_fn(src)


def test_too_deep_to_evaluate_is_an_eval_error():
    # a 1000-term sum parses in a loop but evaluates as 1000 nested closures
    f = expr.compile_fn("+".join(["x"] * 1000))
    with pytest.raises(expr.EvalError, match="nested too deeply"):
        adaptive_integrate(Integrand(f=f, g=lambda x: x), 0.0, 1.0)
