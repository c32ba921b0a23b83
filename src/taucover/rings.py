"""Coordinate rings of affine curve charts: F_q[t] with a finite set of
monic irreducibles inverted.

A = F_q[t][1/pi_1, ..., 1/pi_s] is a principal ideal domain whose unit group
is F_q^x  x  Z^s.  Elements are kept in reduced normal form: a numerator
polynomial together with one denominator exponent per inverted irreducible,
with every pi_j of positive exponent coprime to the numerator.  The zero
element has all exponents zero.

Beyond ring arithmetic the chart ring provides the three operations the
geometry needs: unit factorization (`unit_log`), d/dt with the quotient rule
(`derive`), and the logarithmic derivative (`dlog`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    MalformedInput,
    NotAUnit,
    NotIrreducible,
    RingMismatch,
)
from .exprparse import evaluate
from .fields import FqElem, _FqField
from .polys import Poly


# Rabin's test costs grow quickly with the degree, so an inverted prime above
# this degree is rejected before the test runs (the parser's own degree cap
# bounds parsing only).
MAX_PRIME_DEGREE = 64


class ChartRing:
    """F_q[t] localized at a list of distinct monic irreducibles."""

    def __init__(self, field: _FqField, inverted: Sequence[Poly | str]):
        self.field = field
        polys = []
        for pi in inverted:
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
            polys.append(pi)
        if len({p.coeffs for p in polys}) != len(polys):
            raise MalformedInput("inverted irreducibles must be distinct")
        self.inverted: tuple[Poly, ...] = tuple(polys)
        self.s = len(self.inverted)
        self.zero = self._build(Poly.zero(field), (0,) * self.s)
        self.one = self._build(Poly.one(field), (0,) * self.s)
        self.t = self._build(Poly.x(field), (0,) * self.s)

    # -- element construction

    def _build(self, num: Poly, dens: tuple[int, ...]) -> "RingElem":
        return RingElem(self, num, dens)

    def make(self, num: Poly, dens: Iterable[int] = ()) -> "RingElem":
        """Normalize num / prod(pi_j^dens_j) into reduced form."""
        dens = list(dens) or [0] * self.s
        if len(dens) != self.s:
            raise ValueError("denominator exponent vector has wrong length")
        if any(d < 0 for d in dens):
            raise ValueError("denominator exponents must be nonnegative")
        if num.is_zero():
            return self._build(num, (0,) * self.s)
        for j, pi in enumerate(self.inverted):
            if dens[j] == 0:
                continue
            mult, cofactor = num.multiplicity(pi)
            cancel = min(mult, dens[j])
            if cancel:
                num = cofactor * pi ** (mult - cancel)
                dens[j] -= cancel
        return self._build(num, tuple(dens))

    def from_poly(self, num: Poly) -> "RingElem":
        return self.make(num)

    def from_int(self, n: int) -> "RingElem":
        return self.from_field(self.field.elem(n))

    def from_field(self, c: FqElem) -> "RingElem":
        return self.make(Poly.const(c))

    def coerce(self, value) -> "RingElem":
        if isinstance(value, RingElem):
            if value.ring is not self:
                raise RingMismatch("element of a different chart ring")
            return value
        if isinstance(value, Poly):
            return self.from_poly(value)
        if isinstance(value, FqElem):
            return self.from_field(value)
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def parse(self, text: str) -> "RingElem":
        atoms = {"t": self.t}
        if self.field.e > 1:
            atoms["a"] = self.from_field(self.field.gen)
        value = evaluate(text, self.from_int, atoms)
        if not isinstance(value, RingElem):
            raise MalformedInput(f"{text!r} is not a ring element")
        return value

    # -- predicates and helpers

    def is_unit(self, a: "RingElem") -> bool:
        return self.try_unit_log(a) is not None

    def unit_log(self, a: "RingElem") -> "UnitLog":
        """Factor a unit as c * prod(pi_j^m_j); raises NotAUnit otherwise."""
        log = self.try_unit_log(a)
        if log is None:
            raise NotAUnit(f"{a} is not a unit of {self}")
        return log

    def try_unit_log(self, a: "RingElem") -> "UnitLog | None":
        a = self.coerce(a)
        if a.num.is_zero():
            return None
        num = a.num
        exps = [-d for d in a.dens]
        for j, pi in enumerate(self.inverted):
            mult, num = num.multiplicity(pi)
            exps[j] += mult
        if not num.is_constant():
            return None
        return UnitLog(self, num[0], tuple(exps))

    def exp_unit(self, log: "UnitLog") -> "RingElem":
        """Inverse of unit_log."""
        num = Poly.const(log.constant)
        dens = [0] * self.s
        for j, m in enumerate(log.exponents):
            if m >= 0:
                num = num * self.inverted[j] ** m
            else:
                dens[j] = -m
        return self.make(num, dens)

    def unit_core_split(self, a: "RingElem") -> tuple["RingElem", Poly]:
        """Write a = unit * core with core monic and coprime to every pi_j.

        The core of zero is the zero polynomial; the core of a unit is 1.
        """
        a = self.coerce(a)
        if a.num.is_zero():
            return self.one, Poly.zero(self.field)
        num = a.num
        exps = [-d for d in a.dens]
        for j, pi in enumerate(self.inverted):
            mult, num = num.multiplicity(pi)
            exps[j] += mult
        lead = num.lc()
        core = num.monic()
        unit = self.exp_unit(UnitLog(self, lead, tuple(exps)))
        return unit, core

    def core(self, a: "RingElem") -> Poly:
        return self.unit_core_split(a)[1]

    def divides(self, a: "RingElem", b: "RingElem") -> bool:
        """a | b in the localized ring."""
        a, b = self.coerce(a), self.coerce(b)
        if a.num.is_zero():
            return b.num.is_zero()
        return self.core(a).divides(self.core(b))

    def exact_div(self, b: "RingElem", a: "RingElem") -> "RingElem":
        """b / a when a divides b."""
        a, b = self.coerce(a), self.coerce(b)
        if a.num.is_zero():
            raise DivisionByZero("exact division by zero")
        ua, ca = self.unit_core_split(a)
        ub, cb = self.unit_core_split(b)
        if cb.is_zero():
            return self.zero
        return self.from_poly(cb.exact_div(ca)) * ub / ua

    # -- calculus

    def derive(self, a: "RingElem") -> "RingElem":
        """d/dt via the quotient rule on the reduced representation."""
        a = self.coerce(a)
        if a.num.is_zero():
            return self.zero
        den = Poly.one(self.field)
        for j, m in enumerate(a.dens):
            den = den * self.inverted[j] ** m
        num = a.num.derivative() * den - a.num * den.derivative()
        dens = tuple(2 * m for m in a.dens)
        return self.make(num, dens)

    def dlog(self, u: "RingElem") -> "RingElem":
        """derive(u)/u for a unit u.  Additive on products; kills p-th powers."""
        u = self.coerce(u)
        if not self.is_unit(u):
            raise NotAUnit(f"dlog of non-unit {u}")
        return self.derive(u) * u.inv()

    # -- restriction to a larger localization (chart overlap)

    def is_sublocalization_of(self, other: "ChartRing") -> bool:
        if other.field is not self.field:
            return False
        mine = {p.coeffs for p in self.inverted}
        theirs = {p.coeffs for p in other.inverted}
        return mine <= theirs

    def restrict(self, a: "RingElem", target: "ChartRing") -> "RingElem":
        """Image of a under A -> A' when A' inverts a superset."""
        a = self.coerce(a)
        if not self.is_sublocalization_of(target):
            raise RingMismatch("target ring does not invert a superset")
        index = {p.coeffs: j for j, p in enumerate(target.inverted)}
        dens = [0] * target.s
        for j, m in enumerate(a.dens):
            dens[index[self.inverted[j].coeffs]] = m
        return target.make(a.num, dens)

    # -- randomness for tests and probabilistic checks

    def random_element(self, rng, max_deg: int = 3, max_den: int = 1) -> "RingElem":
        num = Poly(
            self.field,
            [self.field.random_elem(rng).code for _ in range(rng.randrange(max_deg + 2))],
        )
        dens = tuple(rng.randrange(max_den + 1) for _ in range(self.s))
        return self.make(num, dens)

    def random_unit(self, rng, max_exp: int = 2) -> "RingElem":
        log = UnitLog(
            self,
            self.field.random_nonzero(rng),
            tuple(rng.randrange(-max_exp, max_exp + 1) for _ in range(self.s)),
        )
        return self.exp_unit(log)

    # -- identity

    def same_ring(self, other: "ChartRing") -> bool:
        return (
            self.field is other.field
            and tuple(p.coeffs for p in self.inverted)
            == tuple(p.coeffs for p in other.inverted)
        )

    def __repr__(self):
        if not self.inverted:
            return f"F_{self.field.q}[t]"
        inv = ", ".join(str(p) for p in self.inverted)
        return f"F_{self.field.q}[t] loc({inv})"

    def to_json(self) -> dict:
        return {"inverted": [str(p) for p in self.inverted]}

    @classmethod
    def from_json(cls, field: _FqField, data: dict) -> "ChartRing":
        inverted = data.get("inverted") if isinstance(data, dict) else None
        if not isinstance(inverted, list) or not all(isinstance(s, str) for s in inverted):
            raise MalformedInput("chart JSON must be an object with an 'inverted' string list")
        return cls(field, inverted)


class UnitLog:
    """A unit written as constant * prod(pi_j^m_j), m_j in Z."""

    __slots__ = ("ring", "constant", "exponents")

    def __init__(self, ring: ChartRing, constant: FqElem, exponents: tuple[int, ...]):
        if constant.is_zero():
            raise NotAUnit("unit constant must be nonzero")
        self.ring = ring
        self.constant = constant
        self.exponents = tuple(exponents)

    def __eq__(self, other):
        return (
            isinstance(other, UnitLog)
            and self.ring.same_ring(other.ring)
            and self.constant == other.constant
            and self.exponents == other.exponents
        )

    def __repr__(self):
        return f"UnitLog({self.constant}, {list(self.exponents)})"


class RingElem:
    """Reduced fraction num / prod(pi_j^dens_j) in a ChartRing."""

    __slots__ = ("ring", "num", "dens")

    def __init__(self, ring: ChartRing, num: Poly, dens: tuple[int, ...]):
        self.ring = ring
        self.num = num
        self.dens = dens

    def _check(self, other) -> "RingElem":
        if isinstance(other, (int, Poly, FqElem)):
            return self.ring.coerce(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        if other.ring is not self.ring:
            if isinstance(other.ring, ChartRing) and other.ring.same_ring(self.ring):
                return self.ring.make(other.num, other.dens)
            raise RingMismatch("elements of different chart rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        lift = [max(a, b) for a, b in zip(self.dens, other.dens)]
        num_a, num_b = self.num, other.num
        for pi, top, da, db in zip(self.ring.inverted, lift, self.dens, other.dens):
            if top > da:
                num_a = num_a * pi ** (top - da)
            if top > db:
                num_b = num_b * pi ** (top - db)
        return self.ring.make(num_a + num_b, lift)

    __radd__ = __add__

    def __neg__(self):
        return self.ring._build(-self.num, self.dens)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.make(
            self.num * other.num,
            [a + b for a, b in zip(self.dens, other.dens)],
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inv(self) -> "RingElem":
        """Inverse of a unit; raises NotAUnit otherwise."""
        log = self.ring.unit_log(self)
        inverted = UnitLog(
            self.ring, log.constant.inv(), tuple(-m for m in log.exponents)
        )
        return self.ring.exp_unit(inverted)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_unit(self) -> bool:
        return self.ring.is_unit(self)

    def derivative(self) -> "RingElem":
        return self.ring.derive(self)

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Poly, FqElem)):
            other = self.ring.coerce(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            self.ring.same_ring(other.ring)
            and self.num.coeffs == other.num.coeffs
            and self.dens == other.dens
        )

    def __hash__(self):
        return hash((self.num.coeffs, self.dens))

    def __str__(self):
        num = str(self.num)
        if not any(self.dens):
            return num
        den_parts = []
        for pi, m in zip(self.ring.inverted, self.dens):
            if m == 0:
                continue
            base = str(pi)
            if " " in base or "+" in base:
                base = f"({base})"
            den_parts.append(base if m == 1 else f"{base}^{m}")
        den = "*".join(den_parts)
        if " " in num or "+" in num:
            num = f"({num})"
        return f"{num}/{den}" if len(den_parts) == 1 else f"{num}/({den})"

    def __repr__(self):
        return str(self)
