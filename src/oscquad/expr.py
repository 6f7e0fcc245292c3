"""Tiny arithmetic expression language for integrand definitions.

The CLI accepts f(x) and g(x) as strings in a small real-valued language:
numeric literals, the variable ``x``, named parameters, the constants
``pi`` and ``e``, the operators ``+ - * / ^`` (with ``^`` binding tighter
and associating to the right), unary minus, and a fixed set of functions.
Unary minus binds before ``^``: ``-2^2`` is 4 and ``exp(-x^2)`` is
exp(+x^2), so -x^2 is written ``0-x^2`` or ``-(x^2)``.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

There is no implicit multiplication.  Evaluation follows IEEE double
semantics; non-finite results (1/0, (-2)^0.5, ...) are returned as inf/nan
rather than raised, and it is the integrator's sampling policy that deals
with them.

``compile_fn(source, params)`` is the whole API: the parser builds the
result while it reads the source, with every parameter bound to a float,
and raises ParseError (with the offset of the offending token) or
EvalError (an unbound name).  A node is a float when it holds no ``x``
(computed once, by the same ufunc) and a closure x -> ndarray otherwise.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.special import erf as _erf


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(ValueError):
    pass


# name -> (implementation, arity)
FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "tan": (np.tan, 1),
    "atan": (np.arctan, 1),
    "atan2": (np.arctan2, 2),
    "exp": (np.exp, 1),
    "log": (np.log, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
    "tanh": (np.tanh, 1),
    "cosh": (np.cosh, 1),
    "sinh": (np.sinh, 1),
    "sech": (lambda v: 1.0 / np.cosh(v), 1),
    "erf": (_erf, 1),
    "pow": (np.power, 2),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}

# operator -> (precedence, implementation); a higher level binds tighter
_OPERATORS = {
    "+": (1, np.add),
    "-": (1, np.subtract),
    "*": (2, np.multiply),
    "/": (2, np.divide),
    "^": (3, np.power),
}

CONSTANTS = {"pi": np.pi, "e": np.e}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(source: str):
    """(kind, text, offset) of each token, then ("eof", "", len(source))."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(source)))
    return tokens


def _node(fn, *args):
    """``fn`` applied to one or two nodes: a float if every argument is one."""
    if all(isinstance(arg, float) for arg in args):
        return float(fn(*args))
    if len(args) == 1:
        (sub,) = args
        return lambda x: fn(sub(x))
    lhs, rhs = args
    if isinstance(lhs, float):
        return lambda x: fn(lhs, rhs(x))
    if isinstance(rhs, float):
        return lambda x: fn(lhs(x), rhs)
    return lambda x: fn(lhs(x), rhs(x))


class _Parser:
    """Precedence climbing over _OPERATORS; each rule returns a node.

    A node is a float (a subexpression without ``x``) or a closure x ->
    ndarray.  A name that is neither ``x``, a constant nor a parameter is
    remembered (the first one in source order) and read as 0.0 instead of
    raised, so that a syntax error anywhere in the source is reported first.
    """

    def __init__(self, source: str, params):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.params = params or {}
        self.unbound = None

    def peek(self):
        return self.tokens[self.pos]

    def accept(self, op: str) -> bool:
        """Consume the next token if it is the operator ``op``."""
        found = self.peek()[1] == op  # only an op token has such a text
        self.pos += found
        return found

    def expect_op(self, op: str):
        if not self.accept(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def expr(self, prec: int = 1):
        """Unary operands joined by operators of level ``prec`` or higher."""
        node = self.unary()
        while (op := self.peek()[1]) in _OPERATORS and _OPERATORS[op][0] >= prec:
            self.pos += 1
            level, fn = _OPERATORS[op]
            # '^' associates to the right: its right operand may hold another '^'
            node = _node(fn, node, self.expr(level if op == "^" else level + 1))
        return node

    def unary(self):
        if self.accept("-"):
            return _node(np.negative, self.unary())
        return self.atom()

    def atom(self):
        kind, text, off = self.peek()
        self.pos += 1
        if kind == "num":
            return float(text)
        if kind == "ident":
            if self.accept("("):
                return self.call(text, off)
            return (lambda x: x) if text == "x" else self.lookup(text)
        if text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected an expression", off)

    def call(self, name: str, off: int):
        args = [self.expr()]
        while self.accept(","):
            args.append(self.expr())
        self.expect_op(")")
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", off)
        fn, arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}", off)
        return _node(fn, *args)

    def lookup(self, name: str) -> float:
        if name in CONSTANTS:
            return CONSTANTS[name]
        if name in self.params:
            return float(self.params[name])
        if self.unbound is None:
            self.unbound = name
        return 0.0


def compile_fn(source: str, params=None):
    """Compile expression source into a vectorized callable ndarray -> ndarray.

    Parameters are bound from ``params`` at compile time.  A syntax error
    raises ParseError; otherwise the first name in source order that is
    not ``x``, a constant or a parameter raises EvalError.  A constant
    expression is broadcast to the shape of the argument.  Source nested
    too deeply for Python's recursion limit raises ParseError if it is too
    deep to parse, and the compiled function raises EvalError if it is too
    deep to evaluate.
    """
    parser = _Parser(source, params)
    try:
        # constant nodes are computed here; inf and nan are values, not errors
        with np.errstate(all="ignore"):
            body = parser.expr()
    except RecursionError:
        offset = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise ParseError("expression nested too deeply", offset) from None
    kind, text, off = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {text!r}", off)
    if parser.unbound is not None:
        raise EvalError(f"unbound parameter {parser.unbound!r}")
    if isinstance(body, float):
        return lambda x: np.full(np.shape(x), body)

    def fn(x):
        try:
            return body(x)
        except RecursionError:
            raise EvalError("expression nested too deeply to evaluate") from None

    return fn
