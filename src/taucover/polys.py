"""Dense univariate polynomials over a small finite field.

Coefficients are stored low degree first with no trailing zeros; the empty
tuple is the zero polynomial.  The coefficient field makes F_q[t] Euclidean,
so division with remainder, gcd and exact division are all available.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import DivisionByZero, FieldMismatch, MalformedInput
from .exprparse import ExprOps, evaluate
from .fields import FqElem, _FqField


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: _FqField, coeffs: Iterable = ()):
        cs = [field.elem(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def const(cls, c: FqElem) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def parse(cls, field, text: str) -> "Poly":
        """Parse "c_k*t^k + ... + c_0"; division is allowed only when exact."""

        def div(x: "Poly", y: "Poly") -> "Poly":
            q, r = x.divmod(y)
            if not r.is_zero():
                raise MalformedInput(f"non-exact division in polynomial {text!r}")
            return q

        atoms = {"t": cls.x(field)}
        if field.e > 1:
            atoms["a"] = cls.const(field.gen)
        ops = ExprOps(
            from_int=lambda n: cls(field, (n,)),
            add=lambda x, y: x + y,
            sub=lambda x, y: x - y,
            mul=lambda x, y: x * y,
            div=div,
            neg=lambda x: -x,
            pow_int=lambda x, k: x**k,
            atoms=atoms,
        )
        return evaluate(text, ops)

    # -- structure

    @property
    def deg(self) -> int:
        """Degree, with deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self) -> FqElem:
        if not self.coeffs:
            raise DivisionByZero("leading coefficient of zero")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __getitem__(self, i: int) -> FqElem:
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    def _check(self, other) -> "Poly":
        if isinstance(other, FqElem):
            other = Poly.const(other)
        if isinstance(other, int):
            other = Poly(self.field, (other,))
        if not isinstance(other, Poly):
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatch("polynomials over different fields")
        return other

    # -- arithmetic

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[i] - other[i] for i in range(n)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Poly(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: FqElem) -> "Poly":
        return Poly(self.field, (c * a for a in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.deg
        inv_lead = other.lc().inv()
        quo = [self.field.zero] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd:
            if rem[-1].is_zero():
                rem.pop()
                continue
            factor = rem[-1] * inv_lead
            shift = len(rem) - 1 - dd
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            rem.pop()
        return Poly(self.field, quo), Poly(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def divides(self, other: "Poly") -> bool:
        """True when self divides other (self nonzero)."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.lc().inv())

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, self._check(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(g, s, u) with g = s*self + u*other, g monic."""
        a, b = self, self._check(other)
        s0, s1 = Poly.one(self.field), Poly.zero(self.field)
        t0, t1 = Poly.zero(self.field), Poly.one(self.field)
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a.is_zero():
            return a, s0, t0
        lead = a.lc().inv()
        return a.scale(lead), s0.scale(lead), t0.scale(lead)

    def derivative(self) -> "Poly":
        return Poly(
            self.field,
            (self.coeffs[i] * i for i in range(1, len(self.coeffs))),
        )

    def multiplicity(self, pi: "Poly") -> tuple[int, "Poly"]:
        """Largest k with pi^k dividing self, and the cofactor self / pi^k."""
        if self.is_zero():
            raise ValueError("multiplicity in the zero polynomial")
        k = 0
        cur = self
        while True:
            q, r = cur.divmod(pi)
            if not r.is_zero():
                return k, cur
            k += 1
            cur = q

    def is_irreducible(self) -> bool:
        """Trial division; intended for the desk-scale degrees used here."""
        if self.deg < 1:
            return False
        if self.deg == 1:
            return True
        field = self.field
        elems = list(field.elements())
        # monic divisors of degree 1 .. deg//2, over all lower coefficients
        for d in range(1, self.deg // 2 + 1):
            for lower in itertools.product(elems, repeat=d):
                if Poly(field, (*lower, field.one)).divides(self):
                    return False
        return True

    # -- comparisons, hashing, printing

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly(self.field, (other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for d in range(self.deg, -1, -1):
            c = self[d]
            if c.is_zero():
                continue
            cs = str(c)
            if d == 0:
                terms.append(cs)
                continue
            var = "t" if d == 1 else f"t^{d}"
            if c == self.field.one:
                terms.append(var)
            elif "+" in cs:
                terms.append(f"({cs})*{var}")
            else:
                terms.append(f"{cs}*{var}")
        return " + ".join(terms)

    def __repr__(self):
        return str(self)

