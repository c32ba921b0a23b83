"""Tiny recursive-descent parser for algebraic expressions.

One grammar serves field elements ("a+1"), polynomials ("t^2 + 2*t + 1") and
localized ring elements ("(t+a)/(t+1)").  The caller supplies the integer
constants and the named atoms; the parser folds them with the values' own
``+ - * **`` and unary minus, and divides with ``div`` (true division unless
the caller passes another, as polynomials do to allow only exact quotients),
so the same parser evaluates into any of the three structures.  The value of
each parenthesised group passes through ``lift`` (the identity unless the
caller passes another): a chart ring evaluates in F_q[t] and lifts each group
into the ring, so that a power of a group is taken in unit-core form.  The
grammar:

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

# One scan: a token after optional whitespace; failing that, whitespace and
# the character no token starts with, or the trailing whitespace.
_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z_]\w*)|([()+\-*/^]))|(\s*\S|\s+)")
_END = (None, None)


def tokenize(text: str) -> list[tuple[str, Any]]:
    if not isinstance(text, str):
        raise MalformedInput(f"expected an expression string, got {text!r}")
    tokens = []
    for digits, name, op, rest in _TOKEN.findall(text):
        if op:
            tokens.append(("op", op))
        elif name:
            tokens.append(("name", name))
        elif digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError:  # more digits than int() converts
                raise MalformedInput(f"integer literal too long in {text!r}") from None
        elif not rest.isspace():
            raise MalformedInput(f"bad character {rest[0]!r} in {text!r}")
    return tokens


class _Parser:
    """Folds tokens into values; each rule returns (value, degree bound).

    The token list ends with the sentinel _END, so a rule reads the current
    token without a bounds check.
    """

    def __init__(
        self,
        tokens: list[tuple[str, Any]],
        from_int: Callable[[int], Any],
        atoms: Mapping[str, Any],
        div: Callable[[Any, Any], Any],
        lift: Callable[[Any], Any],
        text: str,
    ):
        self.tokens = [*tokens, _END]
        self.from_int = from_int
        self.atoms = atoms
        self.div = div
        self.lift = lift
        self.text = text
        self.i = 0
        self.depth = 0

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
        if self.tokens[self.i] is not _END:
            raise MalformedInput(f"trailing input in {self.text!r}")
        return value

    def expr(self):
        value, degree = self.term()
        tokens = self.tokens
        while True:
            kind, val = tokens[self.i]
            if kind != "op" or val not in "+-":
                return value, degree
            self.i += 1
            rhs, rdeg = self.term()
            value = value + rhs if val == "+" else value - rhs
            if rdeg > degree:
                degree = rdeg

    def term(self):
        value, degree = self.factor()
        tokens = self.tokens
        while True:
            kind, val = tokens[self.i]
            if kind != "op" or val not in "*/":
                return value, degree
            self.i += 1
            rhs, rdeg = self.factor()
            degree = self.bounded(degree + rdeg)
            value = value * rhs if val == "*" else self.div(value, rhs)

    def factor(self):
        kind, val = self.tokens[self.i]
        if kind == "op" and val in "+-":
            self.i += 1
            inner, degree = self.nested(self.factor)
            return (inner if val == "+" else -inner), degree
        value, degree = self.atom()
        if self.tokens[self.i] == ("op", "^"):
            kind, exp = self.tokens[self.i + 1]
            self.i += 2
            if kind != "int":
                raise MalformedInput(f"exponent must be an integer in {self.text!r}")
            degree = self.bounded(degree * exp)
            value = value**exp
        return value, degree

    def atom(self):
        kind, val = self.tokens[self.i]
        self.i += 1
        if kind == "int":
            return self.from_int(val), 0
        if kind == "name":
            if val not in self.atoms:
                raise MalformedInput(f"unknown symbol {val!r} in {self.text!r}")
            return self.atoms[val], 1
        if kind == "op" and val == "(":
            value, degree = self.nested(self.expr)
            if self.tokens[self.i] != ("op", ")"):
                raise MalformedInput(f"expected ')' in {self.text!r}")
            self.i += 1
            return self.lift(value), degree
        raise MalformedInput(f"cannot parse {self.text!r}")


def _identity(value):
    return value


def evaluate(
    text: str,
    from_int: Callable[[int], Any],
    atoms: Mapping[str, Any],
    div: Callable[[Any, Any], Any] = operator.truediv,
    lift: Callable[[Any], Any] = _identity,
):
    """Parse `text` into a value built from `from_int` constants and `atoms`;
    the value of each parenthesised group passes through `lift`."""
    tokens = tokenize(text)
    if not tokens:
        raise MalformedInput("empty expression")
    return _Parser(tokens, from_int, atoms, div, lift, text).parse()
