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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


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
        off = m.start("num") if m.group("num") else (
            m.start("ident") if m.group("ident") else m.start("op"))
        if m.group("num"):
            tokens.append(("num", m.group("num"), off))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), off))
        else:
            tokens.append(("op", m.group("op"), off))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        self.next()

    def expr(self):
        node = self.term()
        while True:
            kind, text, _off = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _off = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, text, _off = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return BinOp("^", node, self.factor())
        return node

    def unary(self):
        kind, text, _off = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            pk, pt, _po = self.peek()
            if pk == "op" and pt == "(":
                self.next()
                args = [self.expr()]
                while True:
                    k2, t2, _o2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off)
                if len(args) != FUNCTIONS[text][1]:
                    raise ParseError(
                        f"{text} takes {FUNCTIONS[text][1]} argument(s), got {len(args)}",
                        off)
                return Call(text, tuple(args))
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected an expression", off)


def parse(source: str):
    """Parse a source string into an expression tree."""
    parser = _Parser(source)
    node = parser.expr()
    kind, text, off = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {text!r}", off)
    return node


def _lookup(name: str, params):
    if name in CONSTANTS:
        return CONSTANTS[name]
    if params and name in params:
        return float(params[name])
    raise EvalError(f"unbound parameter {name!r}")


def compile_fn(expr, params=None):
    """Compile an expression into a vectorized callable ndarray -> ndarray.

    All parameters are bound at compile time; unknown names raise
    EvalError here rather than per call.
    """
    body = _compile_node(expr, params)

    def fn(x):
        out = body(x)
        if np.ndim(out) == 0:
            return np.full(np.shape(x), float(out))
        return out

    return fn


def _compile_node(node, params):
    if isinstance(node, Num):
        v = node.value
        return lambda x: v
    if isinstance(node, Var):
        if node.name == "x":
            return lambda x: x
        v = _lookup(node.name, params)
        return lambda x: v
    if isinstance(node, Neg):
        sub = _compile_node(node.operand, params)
        return lambda x: -sub(x)
    if isinstance(node, BinOp):
        lhs = _compile_node(node.left, params)
        rhs = _compile_node(node.right, params)
        op = node.op
        if op == "+":
            return lambda x: lhs(x) + rhs(x)
        if op == "-":
            return lambda x: lhs(x) - rhs(x)
        if op == "*":
            return lambda x: lhs(x) * rhs(x)
        if op == "/":
            return lambda x: lhs(x) / rhs(x)
        return lambda x: np.power(lhs(x), rhs(x))
    fn = FUNCTIONS[node.name][0]
    args = [_compile_node(arg, params) for arg in node.args]
    if len(args) == 1:
        sub = args[0]
        return lambda x: fn(sub(x))
    sub0, sub1 = args
    return lambda x: fn(sub0(x), sub1(x))


def to_source(expr) -> str:
    """Render an expression tree back to parseable source (fully parenthesized)."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_source(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_source(expr.left)} {expr.op} {to_source(expr.right)})"
    return f"{expr.name}({', '.join(to_source(a) for a in expr.args)})"
