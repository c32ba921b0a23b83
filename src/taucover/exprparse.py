"""The expression grammar, read and written: a recursive-descent parser.

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

A caller that reads many texts over the same constants and atoms may pass
one ``memo`` dict to every ``evaluate`` call; a bundle read does, so that its
polynomial texts are each folded once.  Its key is the token tuple of a whole
text or of the inside of a parenthesised group, so the text "t + 1" and the
group "(t + 1)" share an entry; a whole text is also stored under the text
itself, so a text read again is not even tokenized.  A span's value is
stored only when it is of the constants' own type (a polynomial, for a chart
ring: no group of it was lifted) and the span holds no '/' (a division means
something else to each caller), and only once the span has parsed.  Each
entry keeps the span's degree bound and how deep it nests, so a hit passes
the caps exactly as evaluating it again would; a hit still passes through
``lift``.

Every printed element, vector and form name is written by three rules: a
factor whose text is a sum is parenthesised (``_grouped``), ``name^k`` is
empty at k = 0 and the bare name at k = 1 (``_power``), and ``c*name`` is
the name alone when c is 1 and c alone when there is no name (``_term``).
An error quotes the input it refuses in 80 characters at most (``_excerpt``).
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
_CLOSE = ("op", ")")


def tokenize(text: str) -> tuple[list[tuple[str, Any]], dict[int, int]]:
    """The tokens of text, and the index of the matching ')' of each '('
    that has one."""
    if not isinstance(text, str):
        raise MalformedInput(f"expected an expression string, got {_excerpt(text)}")
    tokens, closes, opened = [], {}, []
    for digits, name, op, rest in _TOKEN.findall(text):
        if op:
            if op == "(":
                opened.append(len(tokens))
            elif op == ")" and opened:
                closes[opened.pop()] = len(tokens)
            tokens.append(("op", op))
        elif name:
            tokens.append(("name", name))
        elif digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError:  # more digits than int() converts
                raise MalformedInput(f"integer literal too long in {_excerpt(text)}") from None
        elif not rest.isspace():
            raise MalformedInput(f"bad character {rest[-1]!r} in {_excerpt(text)}")
    return tokens, closes


class _Parser:
    """Folds tokens into values; each rule returns (value, degree bound).

    The token list ends with the sentinel _END, so a rule reads the current
    token without a bounds check.  ``peak`` is the deepest nesting reached
    and ``divisions`` the number of '/' folded so far, which tell a span's
    memo entry its depth and whether it may be stored.
    """

    def __init__(
        self,
        tokens: list[tuple[str, Any]],
        closes: dict[int, int],
        from_int: Callable[[int], Any],
        atoms: Mapping[str, Any],
        div: Callable[[Any, Any], Any],
        lift: Callable[[Any], Any],
        text: str,
        memo: dict,
    ):
        self.tokens = [*tokens, _END]
        self.from_int = from_int
        self.atoms = atoms
        self.div = div
        self.lift = lift
        self.text = text
        self.memo = memo
        self.plain = type(from_int(0))
        self.closes = closes
        self.i = 0
        self.depth = 0
        self.peak = 0
        self.divisions = 0

    def bounded(self, degree: int) -> int:
        if degree > MAX_DEGREE:
            raise MalformedInput(
                f"degree bound {degree} exceeds {MAX_DEGREE} in {_excerpt(self.text)}"
            )
        return degree

    def reach(self, depth: int) -> None:
        if depth > MAX_DEPTH:
            raise MalformedInput(
                f"expression nests deeper than {MAX_DEPTH} levels in {_excerpt(self.text)}"
            )
        if depth > self.peak:
            self.peak = depth

    def nested(self, rule):
        self.reach(self.depth + 1)
        self.depth += 1
        result = rule()
        self.depth -= 1
        return result

    def keep(self, keys: tuple, value, degree: int, base: int, divisions: int) -> None:
        """Store a parsed span evaluated at depth ``base``, under each of
        its keys, when it may be shared: of the constants' type, with no
        division in it."""
        if divisions == self.divisions and type(value) is self.plain:
            entry = (value, degree, self.peak - base)
            for key in keys:
                self.memo[key] = entry

    def parse(self):
        key = tuple(self.tokens[:-1])
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        value, degree = self.expr()
        if self.tokens[self.i] is not _END:
            raise MalformedInput(f"trailing input in {_excerpt(self.text)}")
        self.keep((key, self.text), value, degree, 0, 0)
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
            if val == "*":
                value = value * rhs
            else:
                self.divisions += 1
                value = self.div(value, rhs)

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
                raise MalformedInput(f"exponent must be an integer in {_excerpt(self.text)}")
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
                raise MalformedInput(f"unknown symbol {_excerpt(val)} in {_excerpt(self.text)}")
            return self.atoms[val], 1
        if kind == "op" and val == "(":
            return self.group()
        raise MalformedInput(f"cannot parse {_excerpt(self.text)}")

    def group(self):
        """The group whose '(' was just read, lifted; a stored one is skipped
        over once its depth has passed the cap."""
        close = self.closes.get(self.i - 1)
        key = tuple(self.tokens[self.i : close]) if close else None
        hit = self.memo.get(key)
        if hit is not None:
            value, degree, depth = hit
            self.reach(self.depth + 1 + depth)
            self.i = close + 1
            return self.lift(value), degree
        base, divisions, outer_peak = self.depth + 1, self.divisions, self.peak
        self.peak = 0
        value, degree = self.nested(self.expr)
        if self.tokens[self.i] != _CLOSE:
            raise MalformedInput(f"expected ')' in {_excerpt(self.text)}")
        self.i += 1
        self.keep((key,), value, degree, base, divisions)
        self.peak = max(self.peak, outer_peak)
        return self.lift(value), degree


def _identity(value):
    return value


def evaluate(
    text: str,
    from_int: Callable[[int], Any],
    atoms: Mapping[str, Any],
    div: Callable[[Any, Any], Any] = operator.truediv,
    lift: Callable[[Any], Any] = _identity,
    memo: dict | None = None,
):
    """Parse `text` into a value built from `from_int` constants and `atoms`;
    the value of each parenthesised group passes through `lift`.  Spans
    already in `memo` are not evaluated again, and a whole text already in
    it is not tokenized (see the module docstring)."""
    if memo is None:
        memo = {}
    elif isinstance(text, str):
        hit = memo.get(text)
        if hit is not None:
            return hit[0]
    tokens, closes = tokenize(text)
    if not tokens:
        raise MalformedInput("empty expression")
    return _Parser(tokens, closes, from_int, atoms, div, lift, text, memo).parse()


# -- writing


def _grouped(text: str) -> str:
    """text as a factor: parenthesised when it is a sum."""
    return f"({text})" if " " in text or "+" in text else text


def _power(name: str, k: int) -> str:
    """name^k for k >= 0: empty at k = 0, the bare name at k = 1."""
    return "" if not k else name if k == 1 else f"{name}^{k}"


def _term(coeff: str, name: str) -> str:
    """The term coeff*name, coeff grouped: the name alone when coeff is "1",
    coeff alone when there is no name."""
    if not name:
        return coeff
    return name if coeff == "1" else f"{_grouped(coeff)}*{name}"


def _excerpt(value) -> str:
    """repr(value), cut to its first 77 characters and "..." when it is
    longer than 80, so an error quotes a hostile input of any size briefly."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
