"""Small finite fields F_q, q = p^e <= 256, with table-driven arithmetic.

F_q is F_p[a]/(m(a)) for a fixed monic irreducible modulus m of degree e.
The modulus for each (p, e) is the lexicographically smallest monic
irreducible of degree e over F_p (coefficients enumerated by base-p value),
so serialized elements are stable across runs.  For e = 1 the modulus is a
and elements are plain residues.

Every element is one int, its *code*, in [0, q): the base-p value of its
power-basis coefficient vector (c_0, ..., c_(e-1)), so the code of
sum c_i a^i is sum c_i p^i.  0 and 1 are the codes of zero and one, the
code of an integer n is n mod p, and p is the code of a.  The coefficient
vector, used for printing, is read off the code's base-p digits.  The code
is the only representation of an element: callers compute on codes through
the field's methods and tables.

Each field builds its tables once, when it is built, each of size O(q): the
antilog table of a primitive element g (exp[k] = g^k, stored twice over so a
sum of two logs needs no reduction) and the log table, which make every
product and inverse two lookups.  Addition is XOR when p = 2 and integer
addition mod p when e = 1; odd-characteristic extensions add through Zech
logarithms, zech[k] = log(1 + g^k).  A power is one lookup too, `_pow`.
Polynomial loops (`polys`) read the tables directly.

Printed form: prime-field elements are decimal digits; extension elements
are polynomials in the generator symbol a, highest power first and joined by
"+" with no spaces, e.g. "a^2+2*a+1", written by the rules of ``exprparse``.
Nothing reads a field element alone: a coefficient is read inside a
polynomial text, where a is an atom of ``Poly.parse`` and ``ChartRing.parse``.
"""

from __future__ import annotations

import functools

from .errors import DivisionByZero
from .exprparse import _power, _term

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

    # -- randomness

    def random_codes(self, rng, count: int) -> list[int]:
        """count random codes.  Each code takes one draw per power-basis
        digit, lowest first, each as ``randrange(p)`` draws it: seeded reports
        depend on this stream."""
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

    def _pow(self, x: int, k: int) -> int:
        """x^k for k >= 0, read off the log table; 0^0 = 1."""
        if not x:
            return 0 if k else 1
        return self.exp[self.log[x] * k % (self.q - 1)]

    # -- printing

    def format(self, code: int) -> str:
        if self.e == 1:
            return str(code)
        terms = [_term(str(c), _power("a", d)) for d, c in enumerate(self.digits(code)) if c]
        return "+".join(reversed(terms)) or "0"

    def __repr__(self):
        return f"F_{self.q}" if self.e == 1 else f"F_{self.q}=F_{self.p}(a)"
