"""Tiny arithmetic expression language for integrand definitions.

The CLI accepts f(x) and g(x) as strings in a small real-valued language:
numeric literals, the variable ``x``, named parameters, the constants
``pi`` and ``e``, the operators ``+ - * / ^`` (with ``^`` binding tighter
and associating to the right), unary minus, and a fixed set of functions.

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
vectorized closure directly while it reads the source, with every
parameter bound to a float at that point, and raises ParseError (with the
offset of the offending token) or EvalError (an unbound name).
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


def _sech(v):
    return 1.0 / np.cosh(v)


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
    "sech": (_sech, 1),
    "erf": (_erf, 1),
    "pow": (np.power, 2),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}

CONSTANTS = {"pi": np.pi, "e": np.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            off = len(source) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


def _binary(op: str, lhs, rhs):
    """The closure applying ``op`` to two operand closures, left one first."""
    if op == "+":
        return lambda x: lhs(x) + rhs(x)
    if op == "-":
        return lambda x: lhs(x) - rhs(x)
    if op == "*":
        return lambda x: lhs(x) * rhs(x)
    if op == "/":
        return lambda x: lhs(x) / rhs(x)
    return lambda x: np.power(lhs(x), rhs(x))


class _Parser:
    """Recursive descent; each grammar rule returns a closure x -> value.

    A name that is neither ``x``, a constant nor a parameter is remembered
    (the first one in source order) instead of raised, so that a syntax
    error anywhere in the source is reported first.
    """

    def __init__(self, source: str, params):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.params = params or {}
        self.unbound = None

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str):
        """Consume the next token if it is one of the operators ``ops``; return it."""
        kind, text, _off = self.peek()
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect_op(self, op: str):
        if not self.accept(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def expr(self):
        node = self.term()
        while op := self.accept("+-"):
            node = _binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while op := self.accept("*/"):
            node = _binary(op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.accept("^"):
            return _binary("^", node, self.factor())
        return node

    def unary(self):
        if self.accept("-"):
            sub = self.unary()
            return lambda x: -sub(x)
        return self.atom()

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            v = float(text)
            return lambda x: v
        if kind == "ident":
            if self.accept("("):
                return self.call(text, off)
            if text == "x":
                return lambda x: x
            v = self.lookup(text)
            return lambda x: v
        if kind == "op" and text == "(":
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
        if arity == 1:
            (sub,) = args
            return lambda x: fn(sub(x))
        sub0, sub1 = args
        return lambda x: fn(sub0(x), sub1(x))

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
    expression is broadcast to the shape of the argument.
    """
    parser = _Parser(source, params)
    body = parser.expr()
    kind, text, off = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {text!r}", off)
    if parser.unbound is not None:
        raise EvalError(f"unbound parameter {parser.unbound!r}")

    def fn(x):
        out = body(x)
        if np.ndim(out) == 0:
            return np.full(np.shape(x), float(out))
        return out

    return fn
