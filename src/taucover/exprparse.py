"""Tiny recursive-descent parser for algebraic expressions.

One grammar serves field elements ("a+1"), polynomials ("t^2 + 2*t + 1") and
localized ring elements ("(t+a)/(t+1)").  The caller supplies the arithmetic,
so the same parser evaluates into any of the three structures:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Multiplication must be explicit (write 2*t, not 2t).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping

from .errors import MalformedInput

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z_]\w*)|([()+\-*/^]))")


def tokenize(text: str) -> list[tuple[str, Any]]:
    if not isinstance(text, str):
        raise MalformedInput(f"expected an expression string, got {text!r}")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise MalformedInput(f"bad character {text[pos]!r} in {text!r}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class ExprOps:
    """Arithmetic callbacks the parser evaluates with."""

    def __init__(
        self,
        from_int: Callable[[int], Any],
        add: Callable[[Any, Any], Any],
        sub: Callable[[Any, Any], Any],
        mul: Callable[[Any, Any], Any],
        div: Callable[[Any, Any], Any],
        neg: Callable[[Any], Any],
        pow_int: Callable[[Any, int], Any],
        atoms: Mapping[str, Any],
    ):
        self.from_int = from_int
        self.add = add
        self.sub = sub
        self.mul = mul
        self.div = div
        self.neg = neg
        self.pow_int = pow_int
        self.atoms = dict(atoms)


class _Parser:
    def __init__(self, tokens: list[tuple[str, Any]], ops: ExprOps, text: str):
        self.tokens = tokens
        self.ops = ops
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, val = self.take()
        if kind != "op" or val != symbol:
            raise MalformedInput(f"expected {symbol!r} in {self.text!r}")

    def parse(self):
        value = self.expr()
        if self.i != len(self.tokens):
            raise MalformedInput(f"trailing input in {self.text!r}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = self.ops.add(value, rhs) if val == "+" else self.ops.sub(value, rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                value = self.ops.mul(value, rhs) if val == "*" else self.ops.div(value, rhs)
            else:
                return value

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.factor()
            return inner if val == "+" else self.ops.neg(inner)
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise MalformedInput(f"exponent must be an integer in {self.text!r}")
            value = self.ops.pow_int(value, exp)
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.ops.from_int(val)
        if kind == "name":
            if val not in self.ops.atoms:
                raise MalformedInput(f"unknown symbol {val!r} in {self.text!r}")
            return self.ops.atoms[val]
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise MalformedInput(f"cannot parse {self.text!r}")


def evaluate(text: str, ops: ExprOps):
    """Parse `text` and fold it through the supplied arithmetic."""
    tokens = tokenize(text)
    if not tokens:
        raise MalformedInput("empty expression")
    return _Parser(tokens, ops, text).parse()
