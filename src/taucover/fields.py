"""Small finite fields F_q, q = p^e <= 256, with exact arithmetic.

Elements are coefficient vectors in the power basis 1, a, ..., a^(e-1) of
F_p[a]/(m(a)) where m is a fixed monic irreducible modulus.  The modulus for
each (p, e) is the lexicographically smallest monic irreducible of degree e
over F_p (coefficients enumerated by base-p value), so serialized elements
are stable across runs.  For e = 1 the modulus is a and elements are plain
residues.

Text syntax: prime-field elements are decimal digits; extension elements are
polynomials in the generator symbol a, e.g. "a+1".
"""

from __future__ import annotations

import functools
from typing import Iterator

from .errors import DivisionByZero, FieldMismatch, MalformedInput
from .exprparse import ExprOps, evaluate

_MAX_Q = 256
_MAX_P = 97


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


class _FqField:
    """The field F_q; owns the modulus and all element arithmetic."""

    def __init__(self, p: int, e: int):
        if not _is_prime(p) or not (2 <= p <= _MAX_P):
            raise ValueError(f"characteristic must be a prime in [2, {_MAX_P}], got {p}")
        if e < 1 or p**e > _MAX_Q:
            raise ValueError(f"field size p^e must be at most {_MAX_Q}, got {p}^{e}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus_coeffs(p, e)
        # reduction table: a^k for k in [e, 2e-2] as coefficient tuples
        self._apow: list[tuple[int, ...]] = []
        if e > 1:
            cur = tuple((-c) % p for c in self.modulus[:e])  # a^e
            self._apow.append(cur)
            for _ in range(e - 2):
                shifted = (0,) + cur
                head = shifted[:e]
                if shifted[e]:
                    lead = shifted[e]
                    head = tuple((head[i] - lead * self.modulus[i]) % p for i in range(e))
                cur = head
                self._apow.append(cur)
        self.zero = FqElem(self, (0,) * e)
        self.one = FqElem(self, (1,) + (0,) * (e - 1))

    # -- construction

    def elem(self, value) -> "FqElem":
        """Coerce an int, coefficient tuple, string or FqElem into the field."""
        if isinstance(value, FqElem):
            if value.field is not self:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, (value % self.p,) + (0,) * (self.e - 1))
        if isinstance(value, str):
            return self.parse(value)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.e:
            raise ValueError("coefficient vector longer than the extension degree")
        coeffs = coeffs + (0,) * (self.e - len(coeffs))
        return FqElem(self, coeffs)

    @property
    def gen(self) -> "FqElem":
        """Image of a, the power-basis generator.  Extension fields only."""
        if self.e == 1:
            raise ValueError("prime field has no extension generator")
        return FqElem(self, (0, 1) + (0,) * (self.e - 2))

    def elements(self) -> Iterator["FqElem"]:
        """All q elements, by base-p counter order."""
        for value in range(self.q):
            coeffs = []
            v = value
            for _ in range(self.e):
                coeffs.append(v % self.p)
                v //= self.p
            yield FqElem(self, tuple(coeffs))

    def random_elem(self, rng) -> "FqElem":
        return FqElem(self, tuple(rng.randrange(self.p) for _ in range(self.e)))

    def random_nonzero(self, rng) -> "FqElem":
        while True:
            x = self.random_elem(rng)
            if x.coeffs != self.zero.coeffs:
                return x

    # -- arithmetic on coefficient tuples

    def _add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def _sub(self, x, y):
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def _neg(self, x):
        p = self.p
        return tuple((-a) % p for a in x)

    def _mul(self, x, y):
        p, e = self.p, self.e
        if e == 1:
            return (x[0] * y[0] % p,)
        conv = [0] * (2 * e - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    conv[i + j] += a * b
        out = [c % p for c in conv[:e]]
        for k in range(e, 2 * e - 1):
            c = conv[k] % p
            if c:
                red = self._apow[k - e]
                for i in range(e):
                    out[i] = (out[i] + c * red[i]) % p
        return tuple(out)

    def _pow(self, x, k: int):
        result = self.one.coeffs
        base = x
        while k:
            if k & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            k >>= 1
        return result

    def _inv(self, x):
        if not any(x):
            raise DivisionByZero("inverse of zero in F_q")
        return self._pow(x, self.q - 2)

    # -- parsing and printing

    def parse(self, text: str) -> "FqElem":
        atoms = {}
        if self.e > 1:
            atoms["a"] = self.gen
        ops = ExprOps(
            from_int=self.elem,
            add=lambda x, y: x + y,
            sub=lambda x, y: x - y,
            mul=lambda x, y: x * y,
            div=lambda x, y: x / y,
            neg=lambda x: -x,
            pow_int=lambda x, k: x**k,
            atoms=atoms,
        )
        value = evaluate(text, ops)
        if not isinstance(value, FqElem):
            raise MalformedInput(f"{text!r} is not a field element")
        return value

    def format(self, x: "FqElem") -> str:
        if self.e == 1:
            return str(x.coeffs[0])
        terms = []
        for d in range(self.e - 1, -1, -1):
            c = x.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                var = "a" if d == 1 else f"a^{d}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"F_{self.q}" if self.e == 1 else f"F_{self.q}=F_{self.p}(a)"

    def __reduce__(self):
        return (FqField, (self.p, self.e))


class FqElem:
    """Immutable element of an _FqField, a coefficient tuple in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: _FqField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "FqElem":
        if isinstance(other, int):
            return self.field.elem(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatch("elements of different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._check(other)
        return FqElem(self.field, self.field._sub(other.coeffs, self.coeffs))

    def __neg__(self):
        return FqElem(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._mul(self.coeffs, self.field._inv(other.coeffs)))

    def __rtruediv__(self, other):
        other = self._check(other)
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return FqElem(self.field, self.field._pow(self.coeffs, k))

    def inv(self) -> "FqElem":
        return FqElem(self.field, self.field._inv(self.coeffs))

    def frobenius(self) -> "FqElem":
        """The arithmetic Frobenius x -> x^p."""
        return self ** self.field.p

    def frobenius_inverse(self) -> "FqElem":
        """The inverse automorphism: x^(p^(e-1)); its p-th power is x."""
        return self ** (self.field.p ** (self.field.e - 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __str__(self):
        return self.field.format(self)

    def __repr__(self):
        return self.field.format(self)
