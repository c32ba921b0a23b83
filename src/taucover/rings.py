"""Coordinate rings of affine curve charts: F_q[t] with a finite set of
monic irreducibles inverted.

A = F_q[t][1/pi_1, ..., 1/pi_s] is a principal ideal domain whose unit group
is F_q^x  x  Z^s.  Every element is kept in unit-core form
c * core * prod(pi_j^e_j): c a constant, core monic and prime to every pi_j
(S-free), e in Z^s.  Only ``ChartRing.make`` divides inverted primes out of a
polynomial; products, inverses, unit logs, cores, divisibility and exact
division read the stored factors, since S-free times S-free is S-free.

Each inverted prime is certified once, by ``certify_prime`` (the degree cap,
monic, Rabin's test).  ``ChartRing(field, primes)`` certifies its own primes;
a bundle read from JSON certifies each distinct prime where it first appears.
A ring over primes already certified, such as an overlap ring inverting the
union of its charts' primes, is built by ``ChartRing.of_certified`` and
inherits their certificates without a second test.

Sums, derivatives and restrictions do go through ``make``, and it tests only
the primes the stored factors leave open:

  * a sum, at pi_j where the summands' exponents differ: after pi^low is
    factored out, pi_j divides exactly one side (the other side's core is
    S-free and its constant nonzero), so it does not divide the sum; when
    the exponent vectors are equal the scaled cores are added directly;
  * a derivative (f * prod(pi_j^e_j))' with f S-free, at pi_j with e_j prime
    to p: the computed numerator is e_j * f * pi_j' * (other primes) modulo
    pi_j, prime to pi_j since pi_j is separable and deg pi_j' < deg pi_j;
    a derivative that vanishes returns zero before ``make``;
  * a restriction, at the primes the source already inverts.

A num that is itself an inverted prime is found in a table of the primes, so
``make`` turns pi_j into the unit pi_j with no division; a constant num is a
unit, which no prime divides; at the prime t the multiplicity is counted off
the low zero coefficients.

``ChartRing.parse`` evaluates an expression in F_q[t]: sums, products and
powers of t, a and integers stay polynomials.  Only each parenthesised
group of degree >= 1, each side of a division and the final value meet
``make``, so a power of a group such as (t + 1)^1024 is taken in unit-core
form and costs no division, while a constant group such as (a + 1) stays a
polynomial.  A bundle read shares one memo among its parses, so each
distinct polynomial text or group is folded once per read.

``RingElem.fraction`` gives the reduced fraction, which is the printed form,
written by the rules of ``exprparse``: "(t + 1)/(t^2*(t + a))".

Outside values become ring elements (``ChartRing.coerce``) only in ``parse``
and in the ``RingElem`` operators, for the Poly operands the parser's folds
pass (its integers and the generator a are constant polynomials); an int is
refused there, and enters through ``from_int``.  Every other method takes an
element of its own ring as it is; those that read stored factors refuse
another ring's by ``check``.

Each arithmetic shortcut has one owner.  ``RingElem.__mul__`` returns the
other factor of a product by the ring's one, after its ring check, so no
caller tests for one first.  ``_unit_quotient`` puts the unit part of one
element over another's around a given core; ``exact_div`` and ``pidmod``'s
Euclidean quotient and diagonal solution all divide through it, and
``pidmod`` scales an SNF diagonal entry or a kernel column to its monic
core by the inverse unit part it gives.

Beyond ring arithmetic the chart ring provides the three operations the
geometry needs: unit factorization (`unit_log`, which returns the pair
(c, m) of a unit c * prod(pi_j^m_j) read off its stored factors, c the
constant's field code, undone by `exp_unit`), d/dt (`derive`), and the
logarithmic derivative (`dlog`).
"""

from __future__ import annotations

import contextlib
from operator import add, sub
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    MalformedInput,
    NotAUnit,
    NotIrreducible,
    RingMismatch,
)
from .exprparse import _grouped, _power, evaluate
from .fields import _FqField
from .polys import Poly, _grammar_constants


# Rabin's test costs grow quickly with the degree, so an inverted prime above
# this degree is rejected before the test runs (the parser's own degree cap
# bounds parsing only).
MAX_PRIME_DEGREE = 64

# ``ChartRing.guarding`` keeps at most this many derivatives, and as many
# draws, per ring.  Over a large field at large n the draws do not repeat:
# a one-chart F_256 ``report --samples 1000`` at n = 1024 would keep about
# 50,000 of each, for nothing, where a catalog report keeps at most 722.
GUARD_KEEP = 4096


def certify_prime(field: _FqField, pi: Poly | str) -> Poly:
    """Parse one prime to invert and certify it: over ``field``, of degree at
    most MAX_PRIME_DEGREE, monic, and irreducible by Rabin's test."""
    if isinstance(pi, str):
        pi = Poly.parse(field, pi)
    if pi.field is not field:
        raise RingMismatch("inverted polynomial over the wrong field")
    if pi.deg > MAX_PRIME_DEGREE:
        raise MalformedInput(
            f"inverted prime {pi} has degree {pi.deg} > {MAX_PRIME_DEGREE}"
        )
    if not pi.is_monic():
        raise NotIrreducible(f"{pi} is not monic")
    if not pi.is_irreducible():
        raise NotIrreducible(f"{pi} is not irreducible over F_{field.q}")
    return pi


class ChartRing:
    """F_q[t] localized at a list of distinct monic irreducibles."""

    def __init__(self, field: _FqField, inverted: Sequence[Poly | str]):
        self._invert(field, [certify_prime(field, pi) for pi in inverted])

    @classmethod
    def of_certified(cls, field: _FqField, primes: Sequence[Poly]) -> "ChartRing":
        """The ring inverting primes that certify_prime has passed; none is
        tested again."""
        ring = cls.__new__(cls)
        ring._invert(field, primes)
        return ring

    def _invert(self, field: _FqField, polys: Sequence[Poly]) -> None:
        self._prime_index = {pi.coeffs: j for j, pi in enumerate(polys)}
        if len(self._prime_index) != len(polys):
            raise MalformedInput("inverted irreducibles must be distinct")
        self.field = field
        self.inverted: tuple[Poly, ...] = tuple(polys)
        self._derivatives = tuple(pi.derivative() for pi in polys)
        self.s = len(self.inverted)
        self.zero = RingElem(self, 0, Poly.zero(field), (0,) * self.s)
        self.one = RingElem(self, 1, Poly.one(field), (0,) * self.s)
        self.t = self.make(Poly.x(field))
        # what ``guarding`` keeps: derivatives, keyed by an element's factors,
        # and drawn elements, keyed by the draw
        self._derived: dict | None = None
        self._drawn: dict | None = None

    # -- element construction

    def make(
        self, num: Poly, dens: Iterable[int] = (), *, open_primes: Iterable[int] | None = None
    ) -> "RingElem":
        """The element num / prod(pi_j^dens_j), dens in Z^s, in unit-core form.

        The one place where inverted primes are divided out of a polynomial.
        Only the primes indexed by open_primes are tested, every prime by
        default; a caller passes fewer only when the others cannot divide num
        (see the module docstring).  A num that is itself an inverted prime
        is found by lookup, with no division.
        """
        exps = [-d for d in dens] or [0] * self.s
        if len(exps) != self.s:
            raise ValueError("denominator exponent vector has wrong length")
        cs = num.coeffs
        if len(cs) < 2:
            # zero, or a constant, which no prime divides
            return RingElem(self, cs[0], self.one.core, tuple(exps)) if cs else self.zero
        j = self._prime_index.get(cs)
        if j is not None:
            exps[j] += 1
            return RingElem(self, 1, self.one.core, tuple(exps))
        inverted = self.inverted
        for j in range(self.s) if open_primes is None else open_primes:
            mult, num = num.multiplicity(inverted[j])
            exps[j] += mult
        return RingElem(self, num.coeffs[-1], num.monic(), tuple(exps))

    def from_int(self, n: int) -> "RingElem":
        # the code of the integer n is n mod p; 1 is the ring's own one, which
        # a product skips
        code = n % self.field.p
        if code == 1:
            return self.one
        return RingElem(self, code, self.one.core, self.one.exps) if code else self.zero

    def coerce(self, value) -> "RingElem":
        if isinstance(value, RingElem):
            return self.check(value)
        if isinstance(value, Poly):
            return self.make(value)
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def check(self, a: "RingElem") -> "RingElem":
        """a itself, once it is known to be an element of this ring: a method
        that reads stored factors would misread another ring's."""
        if a.ring is not self:
            raise RingMismatch("element of a different chart ring")
        return a

    def parse(self, text: str, memo: dict | None = None) -> "RingElem":
        """Evaluate text in F_q[t], lifting into the ring each parenthesised
        group of degree >= 1, both sides of each division and the result.

        A constant group stays a polynomial: no prime divides it, so lifting
        it would change no value and only turn the polynomial sums around it
        into ring sums.  A ``memo`` shared with the other parses of one
        bundle read folds each polynomial text and group once (see
        ``exprparse``); a group that a lift or a division made a ring
        element is not stored.
        """
        coerce = self.coerce

        def lift(x):
            return self.make(x) if type(x) is Poly and x.deg > 0 else x

        value = evaluate(
            text,
            *_grammar_constants(self.field),
            lambda x, y: coerce(x) / coerce(y),
            lift,
            memo,
        )
        return coerce(value)

    # -- units and cores, read off the stored factors

    def unit_log(self, a: "RingElem") -> tuple[int, tuple[int, ...]]:
        """Factor a unit as c * prod(pi_j^m_j), returned as (c, m) with c a
        field code; raises NotAUnit otherwise."""
        self.check(a)
        if not a.is_unit():
            raise NotAUnit(f"{a} is not a unit of {self}")
        return a.const, a.exps

    def exp_unit(self, constant: int, exponents: Iterable[int]) -> "RingElem":
        """Inverse of unit_log: c * prod(pi_j^m_j) from (c, m), c the code of
        a nonzero field element."""
        if not 0 < constant < self.field.q:
            raise NotAUnit(
                f"unit constant must be nonzero, a code in [1, {self.field.q}); "
                f"got {constant!r}"
            )
        return RingElem(self, constant, self.one.core, tuple(exponents))

    def divides(self, a: "RingElem", b: "RingElem") -> bool:
        """a | b in the localized ring: one division of cores at most."""
        self.check(a)
        self.check(b)
        if a.is_zero():
            return b.is_zero()
        return a.is_unit() or a.core.divides(b.core)

    def exact_div(self, b: "RingElem", a: "RingElem") -> "RingElem":
        """b / a when a divides b."""
        self.check(a)
        self.check(b)
        if a.is_zero():
            raise DivisionByZero("exact division by zero")
        if b.is_zero():
            return self.zero
        return _unit_quotient(b, a, b.core.exact_div(a.core))

    # -- calculus

    def derive(self, a: "RingElem") -> "RingElem":
        """d/dt of c * core * prod(pi_j^e_j), one factor pi^e at a time:
        (f * pi^e)' = (f' * pi + e * f * pi') * pi^(e-1).

        A factor with p | e is a p-th power, whose derivative is 0, so it is
        carried as it is and its prime is left open; every other prime
        divides the numerator not at all (see the module docstring).
        """
        self.check(a)
        if a.is_zero():
            return self.zero
        derived = self._derived
        if derived is not None:
            key = (a.const, a.core.coeffs, a.exps)
            known = derived.get(key)
            if known is not None:
                return known
        p = self.field.p
        deriv, taken = a.core.derivative(), a.core
        dens, open_primes = [], []
        last = self.s - 1
        for j, (pi, dpi, e) in enumerate(zip(self.inverted, self._derivatives, a.exps)):
            if e % p:
                # the code of the integer e is e mod p
                deriv = deriv * pi + (taken * dpi).scale(e % p)
                if j < last:  # only the later primes read taken
                    taken = taken * pi
                dens.append(1 - e)
            else:
                dens.append(-e)
                open_primes.append(j)
        if deriv.is_zero():
            out = self.zero
        else:
            out = self.make(deriv.scale(a.const), dens, open_primes=open_primes)
        if derived is not None and len(derived) < GUARD_KEEP:
            derived[key] = out
        return out

    @contextlib.contextmanager
    def guarding(self):
        """Within the block, ``derive`` differentiates each distinct element
        once, and ``random_element`` returns the element it drew before for
        the same draw.

        A guard that evaluates many random sections of one chart draws the
        same small elements, and meets the same coefficients, law after law;
        every draw is still made.  Elements are immutable, so a kept one can
        be handed out again.  At most GUARD_KEEP of each are kept, and what
        was kept goes when the outermost block ends.
        """
        if self._derived is not None:
            yield
            return
        self._derived, self._drawn = {}, {}
        try:
            yield
        finally:
            self._derived = self._drawn = None

    def dlog(self, u: "RingElem") -> "RingElem":
        """derive(u)/u for a unit u.  Additive on products; kills p-th powers."""
        self.check(u)
        if not u.is_unit():
            raise NotAUnit(f"dlog of non-unit {u}")
        return self.derive(u) * u.inv()

    # -- restriction to a larger localization (chart overlap)

    def restrict(self, a: "RingElem", target: "ChartRing") -> "RingElem":
        """Image of a under A -> A' when A' inverts a superset; only the
        primes the target adds can divide the core."""
        self.check(a)
        if target.field is not self.field or not (
            self._prime_index.keys() <= target._prime_index.keys()
        ):
            raise RingMismatch("target ring does not invert a superset")
        index = dict(target._prime_index)
        dens = [0] * target.s
        for pi, e in zip(self.inverted, a.exps):
            dens[index.pop(pi.coeffs)] = -e
        return target.make(
            a.core.scale(a.const), dens, open_primes=index.values()
        )

    # -- randomness for tests and probabilistic checks

    def random_element(self, rng, max_deg: int = 3, max_den: int = 1) -> "RingElem":
        """A numerator of at most max_deg + 1 random codes over at most
        max_den of each inverted prime.

        The size, the codes and the denominator exponents are drawn in that
        order, each number as ``randrange`` draws it (see
        ``fields.draws_below``); over a prime field the loops are inlined,
        since a guard makes hundreds of draws per chart.
        """
        field = self.field
        bits, bound = rng.getrandbits, max_deg + 2
        k = bound.bit_length()
        size = bits(k)
        while size >= bound:
            size = bits(k)
        if field.e == 1:
            bound = field.p
            k = bound.bit_length()
            codes = []
            for _ in range(size):
                r = bits(k)
                while r >= bound:
                    r = bits(k)
                codes.append(r)
        else:
            codes = field.random_codes(rng, size)
        bound = max_den + 1
        k = bound.bit_length()
        dens = []
        for _ in range(self.s):
            r = bits(k)
            while r >= bound:
                r = bits(k)
            dens.append(r)
        drawn = self._drawn
        if drawn is None:
            return self.make(Poly(field, codes), dens)
        key = (*codes, -1, *dens)  # no code is -1
        known = drawn.get(key)
        if known is None:
            known = self.make(Poly(field, codes), dens)
            if len(drawn) < GUARD_KEEP:
                drawn[key] = known
        return known

    def random_unit(self, rng, max_exp: int = 2) -> "RingElem":
        """A random unit: its constant's code, drawn again while it is 0, then
        one exponent in [-max_exp, max_exp] per inverted prime by ``randrange``."""
        constant = 0
        while not constant:
            (constant,) = self.field.random_codes(rng, 1)
        return self.exp_unit(
            constant, [rng.randrange(-max_exp, max_exp + 1) for _ in range(self.s)]
        )

    def __repr__(self):
        if not self.inverted:
            return f"F_{self.field.q}[t]"
        inv = ", ".join(str(p) for p in self.inverted)
        return f"F_{self.field.q}[t] loc({inv})"

    def to_json(self) -> dict:
        return {"inverted": [str(p) for p in self.inverted]}


def _unit_quotient(a: "RingElem", b: "RingElem", core: Poly) -> "RingElem":
    """core times the unit part of a over that of b, for nonzero a and b of
    one ring."""
    ring = a.ring
    field = ring.field
    return RingElem(
        ring, field._mul(a.const, field._inv(b.const)), core, tuple(map(sub, a.exps, b.exps))
    )


class RingElem:
    """const * core * prod(pi_j^exps_j) in a ChartRing, const a field code.

    Zero has const 0, the zero core and all exponents 0.
    """

    __slots__ = ("ring", "const", "core", "exps")

    def __init__(self, ring: ChartRing, const: int, core: Poly, exps: tuple[int, ...]):
        self.ring = ring
        self.const = const
        self.core = core
        self.exps = exps

    # -- the reduced fraction, derived from the stored factors

    def _poly(self, exps: Iterable[int], const: int | None = None) -> Poly:
        """const * core * prod(pi_j^k_j) as a polynomial, for k in N^s; the
        stored constant unless another is given."""
        out = self.core.scale(self.const if const is None else const)
        for pi, k in zip(self.ring.inverted, exps):
            if k:
                out = out * pi**k
        return out

    @property
    def num(self) -> Poly:
        """Numerator of the reduced fraction (read-only view)."""
        return self._poly(max(e, 0) for e in self.exps)

    @property
    def dens(self) -> tuple[int, ...]:
        """Denominator exponent of each inverted prime (read-only view)."""
        return tuple(max(-e, 0) for e in self.exps)

    def fraction(self) -> tuple[Poly, Poly]:
        """(numerator, denominator) of the reduced fraction; the denominator
        is the monic product prod(pi_j^dens_j), prime to the numerator."""
        return self.num, self.ring.one._poly(self.dens)

    # -- arithmetic

    def _check(self, other) -> "RingElem":
        """The other operand in this ring: a polynomial is coerced, as the
        parser's folds pass them."""
        if isinstance(other, RingElem):
            return self.ring.check(other)
        if isinstance(other, Poly):
            return self.ring.coerce(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not RingElem or other.ring is not self.ring:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.const:
            return self
        if not self.const:
            return other
        return self._plus(other, other.const)

    __radd__ = __add__

    def __neg__(self):
        const = self.ring.field._neg(self.const)
        # in characteristic 2, and at zero, the element is its own negative
        if const == self.const:
            return self
        return RingElem(self.ring, const, self.core, self.exps)

    def __sub__(self, other):
        if type(other) is not RingElem or other.ring is not self.ring:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.const:
            return self
        # d o d on a dense draw subtracts many a kept derivative from itself
        if other is self:
            return self.ring.zero
        return self._plus(other, self.ring.field._neg(other.const))

    def _plus(self, other: "RingElem", const: int) -> "RingElem":
        """self + other with other's constant replaced by the nonzero const."""
        ring = self.ring
        if not self.const:
            return RingElem(ring, const, other.core, other.exps)
        exps = self.exps
        if exps == other.exps:
            # every prime is tied, so every prime is open
            total = self.core.scale(self.const) + other.core.scale(const)
            return ring.make(total, [-e for e in exps])
        low = tuple(map(min, exps, other.exps))
        total = self._poly(map(sub, exps, low)) + other._poly(map(sub, other.exps, low), const)
        # Only a prime where the exponents agree can divide the sum.
        tied = [j for j, (e, f) in enumerate(zip(exps, other.exps)) if e == f]
        return ring.make(total, [-m for m in low], open_primes=tied)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not RingElem or other.ring is not self.ring:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        if not self.const or not other.const:
            return ring.zero
        # a product by one is the other factor, once both are in the ring
        if self is ring.one:
            return other
        if other is ring.one:
            return self
        a, b = self.exps, other.exps
        return RingElem(
            ring,
            ring.field._mul(self.const, other.const),
            self.core * other.core,
            a if not any(b) else b if not any(a) else tuple(map(add, a, b)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        const = self.ring.field._pow(self.const, k)
        return RingElem(self.ring, const, self.core**k, tuple(e * k for e in self.exps))

    def inv(self) -> "RingElem":
        """Inverse of a unit; raises NotAUnit otherwise."""
        if not self.is_unit():
            raise NotAUnit(f"{self} is not a unit of {self.ring}")
        const = self.ring.field._inv(self.const)
        return RingElem(self.ring, const, self.core, tuple(-e for e in self.exps))

    def is_zero(self) -> bool:
        return not self.const

    def is_unit(self) -> bool:
        return self.core.is_one()

    def __bool__(self):
        return bool(self.const)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.const == other.const
            and self.exps == other.exps
            and self.core.coeffs == other.core.coeffs
        )

    def __hash__(self):
        return hash((self.const, self.core.coeffs, self.exps))

    def __str__(self):
        num = str(self.num)
        parts = [
            _power(_grouped(str(pi)), m) for pi, m in zip(self.ring.inverted, self.dens) if m
        ]
        if not parts:
            return num
        den = parts[0] if len(parts) == 1 else f"({'*'.join(parts)})"
        return f"{_grouped(num)}/{den}"

    __repr__ = __str__
