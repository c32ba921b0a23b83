"""Tiny recursive-descent parser for algebraic expressions.

One grammar serves field elements ("a+1"), polynomials ("t^2 + 2*t + 1") and
localized ring elements ("(t+a)/(t+1)").  The caller supplies the integer
constants and the named atoms; the parser folds them with the values' own
``+ - * **`` and unary minus, and divides with ``div`` (true division unless
the caller passes another, as polynomials do to allow only exact quotients),
so the same parser evaluates into any of the three structures:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Multiplication must be explicit (write 2*t, not 2t).

Two caps keep the cost of an expression bounded by its length, and a breach
raises MalformedInput before any arithmetic runs:

- nesting (parentheses and unary signs together) is at most MAX_DEPTH deep;
- the degree bound of every subexpression is at most MAX_DEGREE, where a
  name counts 1, an integer 0, a sum takes the larger bound, a product or
  quotient adds the bounds, and x^k multiplies the bound of x by k.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Mapping

from .errors import MalformedInput

MAX_DEPTH = 100
MAX_DEGREE = 1024

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
            try:
                tokens.append(("int", int(m.group(1))))
            except ValueError:  # more digits than int() converts
                raise MalformedInput(f"integer literal too long in {text!r}") from None
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Folds tokens into values; each rule returns (value, degree bound)."""

    def __init__(
        self,
        tokens: list[tuple[str, Any]],
        from_int: Callable[[int], Any],
        atoms: Mapping[str, Any],
        div: Callable[[Any, Any], Any],
        text: str,
    ):
        self.tokens = tokens
        self.from_int = from_int
        self.atoms = atoms
        self.div = div
        self.text = text
        self.i = 0
        self.depth = 0

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

    def bounded(self, degree: int) -> int:
        if degree > MAX_DEGREE:
            raise MalformedInput(
                f"degree bound {degree} exceeds {MAX_DEGREE} in {self.text!r}"
            )
        return degree

    def nested(self, rule):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise MalformedInput(
                f"expression nests deeper than {MAX_DEPTH} levels in {self.text!r}"
            )
        result = rule()
        self.depth -= 1
        return result

    def parse(self):
        value, _ = self.expr()
        if self.i != len(self.tokens):
            raise MalformedInput(f"trailing input in {self.text!r}")
        return value

    def expr(self):
        value, degree = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs, rdeg = self.term()
                value = value + rhs if val == "+" else value - rhs
                degree = max(degree, rdeg)
            else:
                return value, degree

    def term(self):
        value, degree = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs, rdeg = self.factor()
                degree = self.bounded(degree + rdeg)
                value = value * rhs if val == "*" else self.div(value, rhs)
            else:
                return value, degree

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner, degree = self.nested(self.factor)
            return (inner if val == "+" else -inner), degree
        value, degree = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise MalformedInput(f"exponent must be an integer in {self.text!r}")
            degree = self.bounded(degree * exp)
            value = value**exp
        return value, degree

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.from_int(val), 0
        if kind == "name":
            if val not in self.atoms:
                raise MalformedInput(f"unknown symbol {val!r} in {self.text!r}")
            return self.atoms[val], 1
        if kind == "op" and val == "(":
            value = self.nested(self.expr)
            self.expect_op(")")
            return value
        raise MalformedInput(f"cannot parse {self.text!r}")


def evaluate(
    text: str,
    from_int: Callable[[int], Any],
    atoms: Mapping[str, Any],
    div: Callable[[Any, Any], Any] = operator.truediv,
):
    """Parse `text` into a value built from `from_int` constants and `atoms`."""
    tokens = tokenize(text)
    if not tokens:
        raise MalformedInput("empty expression")
    return _Parser(tokens, from_int, atoms, div, text).parse()
