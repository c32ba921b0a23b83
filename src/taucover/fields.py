"""Small finite fields F_q, q = p^e <= 256, with table-driven arithmetic.

F_q is F_p[a]/(m(a)) for a fixed monic irreducible modulus m of degree e.
The modulus for each (p, e) is the lexicographically smallest monic
irreducible of degree e over F_p (coefficients enumerated by base-p value),
so serialized elements are stable across runs.  For e = 1 the modulus is a
and elements are plain residues.

Every element is one int, its *code*, in [0, q): the base-p value of its
power-basis coefficient vector (c_0, ..., c_(e-1)), so the code of
sum c_i a^i is sum c_i p^i.  This is the order of `elements()`; 0 and 1 are
the codes of zero and one, and the code of an integer n is n mod p.  The
coefficient vector, used for printing, is read off the code's base-p digits.

Each field builds its tables once, when it is built, each of size O(q): the
antilog table of a primitive element g (exp[k] = g^k, stored twice over so a
sum of two logs needs no reduction) and the log table, which make every
product and inverse two lookups.  Addition is XOR when p = 2 and integer
addition mod p when e = 1; odd-characteristic extensions add through Zech
logarithms, zech[k] = log(1 + g^k).  `FqElem` is the public scalar: a thin
(field, code) pair, whose operators take an element of the same field only;
an int, a coefficient vector or a text becomes one through `_FqField.elem`.
Polynomial loops (`polys`) read the tables directly.

Text syntax: prime-field elements are decimal digits; extension elements are
polynomials in the generator symbol a, highest power first and joined by "+"
with no spaces, e.g. "a^2+2*a+1", written by the rules of ``exprparse``.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .errors import DivisionByZero, FieldMismatch, MalformedInput
from .exprparse import _excerpt, _power, _term, evaluate

_MAX_Q = 256
_MAX_P = 97


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@functools.lru_cache(maxsize=None)
def modulus_coeffs(p: int, e: int) -> tuple[int, ...]:
    """Canonical monic irreducible of degree e over F_p, low degree first."""
    if e == 1:
        return (0, 1)
    from .polys import Poly  # polys imports this module

    prime_field = FqField(p, 1)
    for value in range(p**e):
        coeffs = [0] * (e + 1)
        v = value
        for i in range(e):
            coeffs[i] = v % p
            v //= p
        coeffs[e] = 1
        if Poly(prime_field, coeffs).is_irreducible():
            return tuple(coeffs)
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


@functools.lru_cache(maxsize=None)
def FqField(p: int, e: int = 1) -> "_FqField":
    """Interned finite field with p^e elements."""
    return _FqField(p, e)


def draws_below(rng, n: int, count: int) -> list[int]:
    """[rng.randrange(n) for _ in range(count)], for a random.Random rng.

    randrange(n) takes n.bit_length() bits from getrandbits and draws again
    while they reach n; this draws the same way, so the stream is the same,
    without two calls per number.  tests/test_rng_stream.py pins the guards'
    stream.
    """
    bits, k = rng.getrandbits, n.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r)
    return out


class _FqField:
    """The field F_q; owns the modulus, the tables and all element arithmetic.

    The arithmetic methods act on codes.  `exp`, `log` and, for odd-p
    extensions, `zech` are built together with the field.
    """

    def __init__(self, p: int, e: int):
        # the range check comes first: trial division of a huge p never ends
        if not (2 <= p <= _MAX_P) or _prime_divisors(p) != [p]:
            raise ValueError(f"characteristic must be a prime in [2, {_MAX_P}], got {p}")
        if e < 1:
            raise ValueError(f"extension degree e must be at least 1, got {e}")
        # p^e >= 2^e, so a large e is refused before p^e is computed
        if e >= _MAX_Q.bit_length() or p**e > _MAX_Q:
            raise ValueError(f"field size p^e must be at most {_MAX_Q}, got {p}^{e}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus_coeffs(p, e)
        self.zero = FqElem(self, 0)
        self.one = FqElem(self, 1)
        self._build_tables()

    # -- tables

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        digits = [self.digits(c) for c in range(q)]

        def times(x: int, y: int) -> int:
            # Power-basis product, used only to list the powers of g.
            conv = [0] * (2 * e - 1)
            for i, a in enumerate(digits[x]):
                for j, b in enumerate(digits[y]):
                    conv[i + j] += a * b
            for k in range(2 * e - 2, e - 1, -1):  # a^e = -(m_0 + ... )
                c = conv[k] % p
                for i in range(e):
                    conv[k - e + i] -= c * self.modulus[i]
            return sum((c % p) * p**i for i, c in enumerate(conv[:e]))

        powers = [1]  # F_2: the only unit, 1, generates
        for g in range(2, q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = times(x, g)
            if len(powers) == q - 1:
                break
        log = [0] * q
        for k, c in enumerate(powers):
            log[c] = k
        self.exp = powers + powers
        self.log = log
        if p > 2 and e > 1:
            # 1 + g^k: add one to the constant digit; -1 where g^k = -1.
            self.zech = [
                -1 if c == p - 1 else log[c - c % p + (c % p + 1) % p] for c in powers
            ]
        else:
            self.zech = None

    def digits(self, code: int) -> tuple[int, ...]:
        """The power-basis coefficient vector (c_0, ..., c_(e-1)) of a code."""
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(code % p)
            code //= p
        return tuple(out)

    # -- construction

    def elem(self, value) -> "FqElem":
        """Coerce an int, coefficient vector, string or FqElem into the field."""
        if isinstance(value, FqElem):
            if value.field is not self:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, value % self.p)
        if isinstance(value, str):
            return self.parse(value)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.e:
            raise ValueError("coefficient vector longer than the extension degree")
        return FqElem(self, sum(c * self.p**i for i, c in enumerate(coeffs)))

    @property
    def gen(self) -> "FqElem":
        """Image of a, the power-basis generator.  Extension fields only."""
        if self.e == 1:
            raise ValueError("prime field has no extension generator")
        return FqElem(self, self.p)

    def elements(self) -> Iterator["FqElem"]:
        """All q elements, by code."""
        for code in range(self.q):
            yield FqElem(self, code)

    def random_elem(self, rng) -> "FqElem":
        """A random element.  One draw per power-basis coefficient, lowest
        first: seeded reports depend on it."""
        return FqElem(self, self.random_codes(rng, 1)[0])

    def random_codes(self, rng, count: int) -> list[int]:
        """count codes, drawn as count calls of random_elem draw them."""
        p, e = self.p, self.e
        if e == 1:
            return draws_below(rng, p, count)
        # each digit as draws_below draws it, summed into its code as drawn
        bits, k = rng.getrandbits, p.bit_length()
        codes = []
        for _ in range(count):
            code, weight = 0, 1
            for _ in range(e):
                r = bits(k)
                while r >= p:
                    r = bits(k)
                code += r * weight
                weight *= p
            codes.append(code)
        return codes

    def random_nonzero(self, rng) -> "FqElem":
        while True:
            x = self.random_elem(rng)
            if x.code:
                return x

    # -- arithmetic on codes

    def _add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self.e == 1:
            return (x + y) % self.p
        if not x:
            return y
        if not y:
            return x
        log = self.log
        lx = log[x]
        z = self.zech[log[y] - lx]  # negative indices wrap: g^(q-1) = 1
        return 0 if z < 0 else self.exp[lx + z]

    def _neg(self, x: int) -> int:
        if self.p == 2 or not x:
            return x
        if self.e == 1:
            return self.p - x
        return self.exp[self.log[x] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def _sub(self, x: int, y: int) -> int:
        return self._add(x, self._neg(y))

    def _mul(self, x: int, y: int) -> int:
        if not x or not y:
            return 0
        log = self.log
        return self.exp[log[x] + log[y]]

    def _inv(self, x: int) -> int:
        if not x:
            raise DivisionByZero("inverse of zero in F_q")
        return self.exp[self.q - 1 - self.log[x]]

    # -- parsing and printing

    def parse(self, text: str) -> "FqElem":
        atoms = {}
        if self.e > 1:
            atoms["a"] = self.gen
        value = evaluate(text, self.elem, atoms)
        if not isinstance(value, FqElem):
            raise MalformedInput(f"{_excerpt(text)} is not a field element")
        return value

    def format(self, code: int) -> str:
        if self.e == 1:
            return str(code)
        terms = [_term(str(c), _power("a", d)) for d, c in enumerate(self.digits(code)) if c]
        return "+".join(reversed(terms)) or "0"

    def __repr__(self):
        return f"F_{self.q}" if self.e == 1 else f"F_{self.q}=F_{self.p}(a)"


class FqElem:
    """Immutable element of an _FqField: the field and the element's code."""

    __slots__ = ("field", "code")

    def __init__(self, field: _FqField, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Power-basis coefficient vector, low degree first."""
        return self.field.digits(self.code)

    def _check(self, other) -> "FqElem":
        if not isinstance(other, FqElem):
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatch("elements of different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._add(self.code, other.code))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._sub(self.code, other.code))

    def __neg__(self):
        return FqElem(self.field, self.field._neg(self.code))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._mul(self.code, other.code))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._mul(self.code, self.field._inv(other.code)))

    def __pow__(self, k: int):
        field = self.field
        if k < 0:
            return self.inv() ** (-k)
        if not self.code:
            return self if k else field.one
        return FqElem(field, field.exp[field.log[self.code] * k % (field.q - 1)])

    def inv(self) -> "FqElem":
        return FqElem(self.field, self.field._inv(self.code))

    def frobenius_inverse(self) -> "FqElem":
        """The inverse automorphism: x^(p^(e-1)); its p-th power is x."""
        return self ** (self.field.p ** (self.field.e - 1))

    def is_zero(self) -> bool:
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def __eq__(self, other):
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.field is other.field and self.code == other.code

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.code))

    def __str__(self):
        return self.field.format(self.code)

    __repr__ = __str__
