"""Coordinate rings of affine curve charts: F_q[t] with a finite set of
monic irreducibles inverted.

A = F_q[t][1/pi_1, ..., 1/pi_s] is a principal ideal domain whose unit group
is F_q^x  x  Z^s.  Every element is kept in unit-core form
c * core * prod(pi_j^e_j): c a constant, core monic and prime to every pi_j
(S-free), e in Z^s.  Only ``ChartRing.make`` divides inverted primes out of a
polynomial; products, inverses, unit logs, cores, divisibility, exact division
and restriction read the stored factors, since S-free times S-free is S-free.
``RingElem.fraction`` gives the reduced fraction, which is the printed form.

Beyond ring arithmetic the chart ring provides the three operations the
geometry needs: unit factorization (`unit_log`), d/dt (`derive`), and the
logarithmic derivative (`dlog`).
"""

from __future__ import annotations

from operator import add, sub
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
        self.zero = RingElem(self, 0, Poly.zero(field), (0,) * self.s)
        self.one = RingElem(self, 1, Poly.one(field), (0,) * self.s)
        self.t = self.make(Poly.x(field))

    # -- element construction

    def make(self, num: Poly, dens: Iterable[int] = ()) -> "RingElem":
        """The element num / prod(pi_j^dens_j), dens in Z^s, in unit-core form.

        The one place where inverted primes are divided out of a polynomial.
        """
        exps = [-d for d in dens] or [0] * self.s
        if len(exps) != self.s:
            raise ValueError("denominator exponent vector has wrong length")
        if num.is_zero():
            return self.zero
        for j, pi in enumerate(self.inverted):
            mult, num = num.multiplicity(pi)
            exps[j] += mult
        return RingElem(self, num.coeffs[-1], num.monic(), tuple(exps))

    def from_poly(self, num: Poly) -> "RingElem":
        return self.make(num)

    def from_int(self, n: int) -> "RingElem":
        return self.from_field(self.field.elem(n))

    def from_field(self, c: FqElem) -> "RingElem":
        """A constant is a unit or zero: no prime to divide out."""
        if not c.code:
            return self.zero
        return RingElem(self, c.code, self.one.core, self.one.exps)

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

    # -- units and cores, read off the stored factors

    def is_unit(self, a: "RingElem") -> bool:
        return self.coerce(a).is_unit()

    def unit_log(self, a: "RingElem") -> "UnitLog":
        """Factor a unit as c * prod(pi_j^m_j); raises NotAUnit otherwise."""
        log = self.try_unit_log(a)
        if log is None:
            raise NotAUnit(f"{a} is not a unit of {self}")
        return log

    def try_unit_log(self, a: "RingElem") -> "UnitLog | None":
        a = self.coerce(a)
        if not a.is_unit():
            return None
        return UnitLog(self, FqElem(self.field, a.const), a.exps)

    def exp_unit(self, log: "UnitLog") -> "RingElem":
        """Inverse of unit_log."""
        return RingElem(self, log.constant.code, self.one.core, log.exponents)

    def unit_core_split(self, a: "RingElem") -> tuple["RingElem", Poly]:
        """Write a = unit * core with core monic and coprime to every pi_j.

        The core of zero is the zero polynomial, with unit 1; the core of a
        unit is 1.
        """
        a = self.coerce(a)
        return RingElem(self, a.const or 1, self.one.core, a.exps), a.core

    def core(self, a: "RingElem") -> Poly:
        return self.coerce(a).core

    def divides(self, a: "RingElem", b: "RingElem") -> bool:
        """a | b in the localized ring: one division of cores at most."""
        a, b = self.coerce(a), self.coerce(b)
        if a.is_zero():
            return b.is_zero()
        return a.is_unit() or a.core.divides(b.core)

    def exact_div(self, b: "RingElem", a: "RingElem") -> "RingElem":
        """b / a when a divides b."""
        a, b = self.coerce(a), self.coerce(b)
        if a.is_zero():
            raise DivisionByZero("exact division by zero")
        if b.is_zero():
            return self.zero
        field = self.field
        return RingElem(
            self,
            field._mul(b.const, field._inv(a.const)),
            b.core.exact_div(a.core),
            tuple(map(sub, b.exps, a.exps)),
        )

    # -- calculus

    def derive(self, a: "RingElem") -> "RingElem":
        """d/dt of c * core * prod(pi_j^e_j), one factor pi^e at a time:
        (f * pi^e)' = (f' * pi + e * f * pi') * pi^(e-1)."""
        a = self.coerce(a)
        if a.is_zero():
            return self.zero
        core = a.core
        deriv, taken = core.derivative(), self.one.core
        dens = []
        for pi, e in zip(self.inverted, a.exps):
            if e:
                deriv = deriv * pi + core * taken * pi.derivative() * e
                taken = taken * pi
            dens.append(1 - e if e else 0)
        return self.make(deriv.scale(FqElem(self.field, a.const)), dens)

    def dlog(self, u: "RingElem") -> "RingElem":
        """derive(u)/u for a unit u.  Additive on products; kills p-th powers."""
        u = self.coerce(u)
        if not u.is_unit():
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
        """Image of a under A -> A' when A' inverts a superset; only the
        primes the target adds can divide the core."""
        a = self.coerce(a)
        if not self.is_sublocalization_of(target):
            raise RingMismatch("target ring does not invert a superset")
        index = {p.coeffs: j for j, p in enumerate(target.inverted)}
        dens = [0] * target.s
        for pi, e in zip(self.inverted, a.exps):
            dens[index[pi.coeffs]] = -e
        return target.make(a.core.scale(FqElem(self.field, a.const)), dens)

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

    def _poly(self, exps: Iterable[int]) -> Poly:
        """const * core * prod(pi_j^k_j) as a polynomial, for k in N^s."""
        out = self.core.scale(FqElem(self.ring.field, self.const))
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
        if isinstance(other, (int, Poly, FqElem)):
            return self.ring.coerce(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        if other.ring is not self.ring:
            if isinstance(other.ring, ChartRing) and other.ring.same_ring(self.ring):
                return RingElem(self.ring, other.const, other.core, other.exps)
            raise RingMismatch("elements of different chart rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.const:
            return other
        if not other.const:
            return self
        low = tuple(map(min, self.exps, other.exps))
        total = self._poly(map(sub, self.exps, low)) + other._poly(map(sub, other.exps, low))
        return self.ring.make(total, [-m for m in low])

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, self.ring.field._neg(self.const), self.core, self.exps)

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
        if not self.const or not other.const:
            return self.ring.zero
        return RingElem(
            self.ring,
            self.ring.field._mul(self.const, other.const),
            self.core * other.core,
            tuple(map(add, self.exps, other.exps)),
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
        const = FqElem(self.ring.field, self.const) ** k
        return RingElem(self.ring, const.code, self.core**k, tuple(e * k for e in self.exps))

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

    def derivative(self) -> "RingElem":
        return self.ring.derive(self)

    def __bool__(self):
        return bool(self.const)

    def __eq__(self, other):
        if isinstance(other, (int, Poly, FqElem)):
            other = self.ring.coerce(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring.same_ring(other.ring))
            and self.const == other.const
            and self.exps == other.exps
            and self.core.coeffs == other.core.coeffs
        )

    def __hash__(self):
        return hash((self.const, self.core.coeffs, self.exps))

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
