"""Dense univariate polynomials over a small finite field.

A `Poly` holds its field and a tuple of coefficient codes (see `fields`: one
int in [0, q) per coefficient), low degree first with no trailing zeros; the
empty tuple is the zero polynomial.  The coefficient field makes F_q[t]
Euclidean, so division with remainder, gcd and exact division are all
available.

The operators take a polynomial over the same field only: `Poly.const`
makes one of a field code, and any other operand is left to its own
type's reflected operator (a chart ring's parser adds ring elements to
polynomials that way).  Every operation works on the codes and builds one
`Poly` per result.  A product with the unit polynomial 1, a scaling by 1 and
a sum with 0 return the other operand, and a product by t is a shift.  The
hot loops, products, sums and division with remainder, take one branch per
field: over a prime field they use integer arithmetic and reduce mod p once
per output coefficient; over other fields they multiply through the field's
log and antilog tables and add by XOR when p = 2, or through the field's
`_add` (Zech logarithms) otherwise.  Negation, scaling and derivatives use
the field's code methods and tables directly; indexing hands out a
coefficient's code.  A polynomial prints by the rules of ``exprparse``,
highest term first: "t^2 + (a+1)*t + 1".
"""

from __future__ import annotations

import operator
from typing import Iterable

from .errors import DivisionByZero, FieldMismatch, MalformedInput
from .exprparse import _excerpt, _power, _term, evaluate
from .fields import _FqField, _prime_divisors


def _mul_codes(field: _FqField, a, b) -> list[int]:
    """Product of two code sequences, possibly with trailing zeros."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    p = field.p
    if field.e == 1 and p > 2:
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return [c % p for c in out]
    exp, log = field.exp, field.log
    low = [(j, log[y]) for j, y in enumerate(b) if y]
    if p == 2:
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in low:
                    out[i + j] ^= exp[lx + ly]
        return out
    add = field._add
    for i, x in enumerate(a):
        if x:
            lx = log[x]
            for j, ly in low:
                out[i + j] = add(out[i + j], exp[lx + ly])
    return out


def _divmod_codes(field: _FqField, a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (b nonzero, last code nonzero)."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    rem = list(a)
    quo = [0] * (len(a) - db)
    p = field.p
    if field.e == 1 and p > 2:
        inv = pow(b[-1], -1, p)
        low = [(i, c) for i, c in enumerate(b[:db]) if c]
        for s in range(len(a) - 1 - db, -1, -1):
            f = rem[s + db] % p * inv % p
            if f:
                quo[s] = f
                for i, c in low:
                    rem[s + i] -= f * c
        return quo, [c % p for c in rem[:db]]
    exp, log = field.exp, field.log
    n1 = field.q - 1
    lead = log[b[-1]]
    low = [(i, log[c]) for i, c in enumerate(b[:db]) if c]
    if p == 2:
        for s in range(len(a) - 1 - db, -1, -1):
            r = rem[s + db]
            if r:
                lf = log[r] - lead
                if lf < 0:
                    lf += n1
                quo[s] = exp[lf]
                for i, li in low:
                    rem[s + i] ^= exp[lf + li]
        return quo, rem[:db]
    add, half = field._add, n1 // 2  # -1 = g^half
    for s in range(len(a) - 1 - db, -1, -1):
        r = rem[s + db]
        if r:
            lf = log[r] - lead
            if lf < 0:
                lf += n1
            quo[s] = exp[lf]
            lf = (lf + half) % n1
            for i, li in low:
                rem[s + i] = add(rem[s + i], exp[lf + li])
    return quo, rem[:db]


def _trim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _gcd_codes(field: _FqField, a, b):
    """A greatest common divisor of two code sequences free of trailing
    zeros, by Euclid's algorithm; not made monic."""
    while b:
        a, b = b, _trim(_divmod_codes(field, a, b)[1])
    return a


def _square_and_multiply(base, k: int, one, mul=operator.mul):
    """base^k for k >= 0, from one, under the product mul: one product per
    set bit of k and one squaring per bit below the top one, none after it.
    The powers of ``Poly`` and ``covers.CoverElem`` take it with the plain
    product, and Rabin's test with the product modulo f."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _grammar_constants(field: _FqField) -> tuple:
    """What the grammar of ``exprparse`` reads as a constant over field: the
    integer literal n as the constant n mod p, and the atoms t and, past the
    prime field, a.  Both parsers take them, in ``evaluate``'s order."""
    p = field.p
    atoms = {"t": Poly.x(field)}
    if field.e > 1:
        atoms["a"] = Poly.const(field, p)
    return lambda n: Poly.const(field, n % p), atoms


def _trimmed(field: _FqField, codes: list[int]) -> "Poly":
    """A polynomial from codes already free of trailing zeros."""
    out = object.__new__(Poly)
    out.field = field
    out.coeffs = tuple(codes)
    return out


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: _FqField, coeffs: Iterable[int] = ()):
        """A polynomial from coefficient codes, low degree first."""
        cs = tuple(coeffs)
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        self.field = field
        self.coeffs = cs if n == len(cs) else cs[:n]

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
    def const(cls, field, code: int) -> "Poly":
        return cls(field, (code,))

    @classmethod
    def parse(cls, field, text: str, memo: dict | None = None) -> "Poly":
        """Parse "c_k*t^k + ... + c_0"; division is allowed only when exact.
        A ``memo`` shared with other parses over the field folds each text
        and group once (see ``exprparse``)."""

        def div(x: "Poly", y: "Poly") -> "Poly":
            q, r = x.divmod(y)
            if not r.is_zero():
                raise MalformedInput(f"non-exact division in polynomial {_excerpt(text)}")
            return q

        return evaluate(text, *_grammar_constants(field), div, memo=memo)

    # -- structure

    @property
    def deg(self) -> int:
        """Degree, with deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        """The code of the t^i coefficient, 0 past the degree."""
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def _check(self, other: "Poly") -> "Poly":
        """other, once it is known to be a polynomial over this field."""
        if not isinstance(other, Poly):
            raise TypeError(f"expected a polynomial, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatch("polynomials over different fields")
        return other

    # -- arithmetic

    def __add__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatch("polynomials over different fields")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return self if a is self.coeffs else other
        field = self.field
        p = field.p
        if p == 2:
            out = [x ^ y for x, y in zip(a, b)]
        elif field.e == 1:
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            out = list(map(field._add, a, b))
        if len(a) > len(b):
            # the longer summand's leading code survives
            return _trimmed(field, out + list(a[len(b):]))
        return _trimmed(field, _trim(out))

    def __sub__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, map(self.field._neg, self.coeffs))

    def __mul__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatch("polynomials over different fields")
        a, b = self.coeffs, other.coeffs
        if a == (1,):
            return other
        if b == (1,):
            return self
        if b == (0, 1) and a:
            return _trimmed(self.field, (0, *a))
        # Over a field the product of two trimmed polynomials has a nonzero
        # leading code.
        return _trimmed(self.field, _mul_codes(self.field, a, b))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return _square_and_multiply(self, k, Poly.one(self.field))

    def scale(self, code: int) -> "Poly":
        """The product with the constant of this field code; by 1 it is self."""
        if code == 1:
            return self
        field = self.field
        if not code:
            return Poly(field)
        exp, log = field.exp, field.log
        lc = log[code]
        return _trimmed(field, [exp[lc + log[x]] if x else 0 for x in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly(self.field), self
        quo, rem = _divmod_codes(self.field, self.coeffs, other.coeffs)
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
        cs = self.coeffs
        if not cs or cs[-1] == 1:
            return self
        return self.scale(self.field._inv(cs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        other = self._check(other)
        return Poly(self.field, _gcd_codes(self.field, self.coeffs, other.coeffs)).monic()

    def derivative(self) -> "Poly":
        field = self.field
        p, cs = field.p, self.coeffs
        # i * c for the integer i: c times the prime-field code i mod p
        exp, log = field.exp, field.log
        return Poly(
            field,
            [
                exp[log[cs[i]] + log[i % p]] if cs[i] and i % p else 0
                for i in range(1, len(cs))
            ],
        )

    def multiplicity(self, pi: "Poly") -> tuple[int, "Poly"]:
        """Largest k with pi^k dividing self, and the cofactor self / pi^k.

        k is read in base p by dividing by pi^(p^j) = sum c_i^(p^j) t^(i p^j),
        which is as sparse as pi.  Going up, pi, pi^p, pi^(p^2), ... divide
        once each while they do; coming down, each digit takes at most p - 1
        divisions that succeed and one that fails.  A power is built only
        when its degree fits the cofactor, so when deg self < p deg pi only
        pi divides, as often as it goes.  At pi = t the multiplicity is the
        number of low zero coefficients.
        """
        if self.is_zero():
            raise ValueError("multiplicity in the zero polynomial")
        if pi.coeffs == (0, 1) and pi.field is self.field:
            cs = self.coeffs
            k = 0
            while not cs[k]:
                k += 1
            return k, (_trimmed(self.field, cs[k:]) if k else self)
        p, d = self.field.p, pi.deg
        k, cur, step, built = 0, self, 1, []
        # Up: divide by pi^step for step = 1, p, p^2, ..., each power built
        # once it fits, while it divides; what is left is below pi^step.
        while cur.deg >= step * d:
            power = pi._frobenius_power(step) if built else pi
            q, r = cur.divmod(power)
            if not r.is_zero():
                break
            built.append((step, power))
            k, cur, step = k + step, q, step * p
        # Down: each base-p digit below step is at most p - 1.
        for step, power in reversed(built):
            for _ in range(p - 1):
                if cur.deg < step * d:
                    break
                q, r = cur.divmod(power)
                if not r.is_zero():
                    break
                k, cur = k + step, q
        return k, cur

    def _frobenius_power(self, step: int) -> "Poly":
        """self^step for step a power of p: each code raised to step, and the
        exponents multiplied by step."""
        power = self.field._pow
        codes = [0] * (step * self.deg + 1)
        for i, c in enumerate(self.coeffs):
            codes[i * step] = power(c, step)
        return Poly(self.field, codes)

    def is_irreducible(self) -> bool:
        """Rabin's test (SIAM J. Comput. 9, 1980).

        f of degree d >= 1 over F_q is irreducible exactly when
        t^(q^d) = t mod f and gcd(t^(q^(d/r)) - t, f) = 1 for each prime
        r | d.  Costs O(d log q) multiplications mod f.
        """
        d = self.deg
        if d <= 1:
            return d == 1
        field, f = self.field, self.coeffs

        def mulmod(a, b):
            return _trim(_divmod_codes(field, _mul_codes(field, a, b), f)[1])

        checkpoints = {d // r for r in _prime_divisors(d)}
        x = [0, 1]  # t^(q^k) mod f, k = 0
        for k in range(1, d + 1):
            x = _square_and_multiply(x, field.q, [1], mulmod)
            if k in checkpoints:
                g = x + [0] * (2 - len(x))
                g[1] = field._sub(g[1], 1)  # t^(q^k) - t
                if len(_gcd_codes(field, f, _trim(g))) > 1:
                    return False
        return x == [0, 1]

    # -- comparisons, hashing, printing

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __str__(self):
        fmt = self.field.format
        terms = [_term(fmt(c), _power("t", d)) for d, c in enumerate(self.coeffs) if c]
        return " + ".join(reversed(terms)) or "0"

    __repr__ = __str__
