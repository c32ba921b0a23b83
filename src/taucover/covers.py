"""Cyclic covers of a charted curve and the torsion bundles that define them.

A torsion bundle packages, per chart, a trivializing unit u and, per overlap,
a transition unit g, subject to g^n = u_other / u_self.  Its n-th root cover
is the chart-by-chart algebra B = A[v]/(v^n - u), glued by v -> g * v.  The
glue is certified, never assumed: build_cover recomputes (g * v)^n inside the
overlap and compares it with the other chart's unit.

factor_cover splits the cover degree as n = m * p^r with m prime to the
characteristic, yielding a separable stage A[w]/(w^m - u) (with w = v^{p^r})
below a purely inseparable one; is_etale checks separability by exhibiting an
explicit inverse of the fiber derivative.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Sequence

from .errors import InvalidCocycle, MalformedInput, NotAUnit, RingMismatch
from .fields import FqField, _FqField
from .polys import Poly
from .rings import ChartRing, RingElem

# Caps on a bundle read from JSON, checked before any chart is parsed; the
# README gives the measured costs they bound.
MAX_N = 1024
MAX_CHARTS = 32


class CoverChart:
    """B = A[v]/(v^n - u) for a unit u of a single chart ring A."""

    def __init__(self, ring: ChartRing, n: int, u: RingElem):
        if n < 1:
            raise MalformedInput("cover degree must be a positive integer")
        u = ring.coerce(u)
        if not ring.is_unit(u):
            raise NotAUnit(f"{u} must be a unit to take an n-th root cover")
        self.ring = ring
        self.n = n
        self.u = u

    @property
    def zero(self) -> "CoverElem":
        return CoverElem(self, (self.ring.zero,) * self.n)

    @property
    def one(self) -> "CoverElem":
        return self.from_ring(self.ring.one)

    @property
    def v(self) -> "CoverElem":
        if self.n == 1:
            return self.from_ring(self.u)
        coeffs = [self.ring.zero] * self.n
        coeffs[1] = self.ring.one
        return CoverElem(self, tuple(coeffs))

    def v_inv(self) -> "CoverElem":
        """1/v = u^{-1} * v^{n-1}."""
        coeffs = [self.ring.zero] * self.n
        coeffs[-1] = self.u.inv()
        return CoverElem(self, tuple(coeffs))

    def from_ring(self, a) -> "CoverElem":
        a = self.ring.coerce(a)
        return CoverElem(self, (a,) + (self.ring.zero,) * (self.n - 1))

    def from_coeffs(self, coeffs: Sequence) -> "CoverElem":
        coeffs = tuple(self.ring.coerce(c) for c in coeffs)
        if len(coeffs) != self.n:
            raise MalformedInput("cover element needs one coefficient per basis power")
        return CoverElem(self, coeffs)

    def gen_power(self, j: int) -> "CoverElem":
        """v^j for any integer j, reduced into the basis 1, v, ..., v^{n-1}."""
        q, r = divmod(j, self.n)
        coeffs = [self.ring.zero] * self.n
        coeffs[r] = self.u**q if q >= 0 else self.u.inv() ** (-q)
        return CoverElem(self, tuple(coeffs))

    def coerce(self, value) -> "CoverElem":
        if isinstance(value, CoverElem):
            if value.chart is not self:
                raise RingMismatch("element of a different cover chart")
            return value
        return self.from_ring(value)

    def random_element(self, rng, max_deg: int = 2) -> "CoverElem":
        return CoverElem(
            self,
            tuple(
                self.ring.random_element(rng, max_deg=max_deg, max_den=1)
                for _ in range(self.n)
            ),
        )

    def same_chart(self, other: "CoverChart") -> bool:
        return (
            self.ring.same_ring(other.ring) and self.n == other.n and self.u == other.u
        )

    def __repr__(self):
        return f"CoverChart(v^{self.n} = {self.u} over {self.ring!r})"


class CoverElem:
    """Element of a cover chart, as coefficients of 1, v, ..., v^{n-1}."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: CoverChart, coeffs: tuple):
        self.chart = chart
        self.coeffs = coeffs

    def _check(self, other) -> "CoverElem":
        return self.chart.coerce(other)

    def __add__(self, other):
        other = self._check(other)
        return CoverElem(
            self.chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._check(other)
        return CoverElem(
            self.chart, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return CoverElem(self.chart, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (RingElem, Poly, int)):
            c = self.chart.ring.coerce(other)
            return CoverElem(self.chart, tuple(a * c for a in self.coeffs))
        other = self._check(other)
        n = self.chart.n
        ring = self.chart.ring
        u = self.chart.u
        out = [ring.zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                k = i + j
                term = a * b
                if k >= n:
                    k -= n
                    term = term * u
                out[k] = out[k] + term
        return CoverElem(self.chart, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, (RingElem, Poly, int)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative cover-element power")
        result = self.chart.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c) -> "CoverElem":
        c = self.chart.ring.coerce(c)
        return CoverElem(self.chart, tuple(a * c for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (RingElem, Poly, int)):
            other = self.chart.from_ring(other)
        if not isinstance(other, CoverElem):
            return NotImplemented
        if not self.chart.same_chart(other.chart):
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __str__(self):
        terms = []
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            power = "" if j == 0 else ("v" if j == 1 else f"v^{j}")
            astr = str(a)
            if not power:
                terms.append(astr)
            elif astr == "1":
                terms.append(power)
            else:
                if " " in astr or "+" in astr:
                    astr = f"({astr})"
                terms.append(f"{astr}*{power}")
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


class ChartedScheme:
    """Charts sharing the coordinate t, with overlap rings inverting unions."""

    def __init__(self, field: _FqField, charts: Sequence[ChartRing]):
        if not charts:
            raise MalformedInput("a charted scheme needs at least one chart")
        for c in charts:
            if c.field is not field:
                raise RingMismatch("all charts must share the base field")
        self.field = field
        self.charts = tuple(charts)
        self._overlaps: dict[tuple[int, ...], ChartRing] = {}

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def overlap(self, *indices: int) -> ChartRing:
        """Ring of the intersection of the named charts (union of inverted sets)."""
        key = tuple(sorted(set(indices)))
        if len(key) == 1:
            return self.charts[key[0]]
        if key not in self._overlaps:
            seen = []
            for i in key:
                for pi in self.charts[i].inverted:
                    if all(pi.coeffs != q.coeffs for q in seen):
                        seen.append(pi)
            self._overlaps[key] = ChartRing(self.field, seen)
        return self._overlaps[key]

    def restrict(self, chart_index: int, a: RingElem, *indices: int) -> RingElem:
        """Image of a chart element in the overlap of the named charts."""
        target = self.overlap(chart_index, *indices)
        return self.charts[chart_index].restrict(a, target)

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n_charts)
            for j in range(i + 1, self.n_charts)
        ]

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.charts]


class TorsionBundle:
    """A line bundle with a chosen trivialization of its n-th tensor power.

    Data: per chart a unit u (the local n-th power), per ordered overlap a
    transition unit g with g^n = u_j / u_i.  Unit-ness is enforced at
    construction; the algebraic identities are checked by validate(), which
    reports rather than raises.
    """

    def __init__(
        self,
        scheme: ChartedScheme,
        n: int,
        g: dict[tuple[int, int], RingElem],
        u: Sequence[RingElem],
    ):
        if n < 1:
            raise MalformedInput("bundle order must be a positive integer")
        if len(u) != scheme.n_charts:
            raise MalformedInput("one trivializing unit per chart is required")
        self.scheme = scheme
        self.n = n
        self.u = tuple(
            scheme.charts[i].coerce(x) for i, x in enumerate(u)
        )
        for i, x in enumerate(self.u):
            if not scheme.charts[i].is_unit(x):
                raise NotAUnit(f"chart {i} trivialization {x} is not a unit")
        want = set(scheme.pairs())
        got = set(g)
        if got != want:
            raise MalformedInput(
                f"transition units must cover exactly the chart pairs {sorted(want)}"
            )
        self.g = {}
        for (i, j), val in g.items():
            ovl = scheme.overlap(i, j)
            val = ovl.coerce(val)
            if not ovl.is_unit(val):
                raise NotAUnit(f"transition unit on overlap {(i, j)} is not a unit")
            self.g[(i, j)] = val

    def g_any(self, i: int, j: int) -> RingElem:
        """Transition unit for any ordered pair, with g_ii = 1 and g_ji = 1/g_ij."""
        if i == j:
            return self.scheme.overlap(i).one
        if i < j:
            return self.g[(i, j)]
        return self.g[(j, i)].inv()

    def is_degenerate(self) -> bool:
        """True when some trivializing unit has vanishing logarithmic derivative."""
        return any(
            self.scheme.charts[i].dlog(x).is_zero() for i, x in enumerate(self.u)
        )

    def validate(self) -> dict:
        """Check the compatibility and cocycle identities, returning a report."""
        checks = []
        ok = True
        for (i, j) in self.scheme.pairs():
            ovl = self.scheme.overlap(i, j)
            lhs = self.g[(i, j)] ** self.n
            rhs = self.scheme.restrict(j, self.u[j], i) * self.scheme.restrict(
                i, self.u[i], j
            ).inv()
            passed = lhs == rhs
            ok = ok and passed
            checks.append(
                {
                    "check": f"g({i},{j})^{self.n} = u{j}/u{i}",
                    "passed": passed,
                    "witness": None if passed else str(lhs * rhs.inv()),
                }
            )
        for (i, j, k) in itertools.combinations(range(self.scheme.n_charts), 3):
            triple = self.scheme.overlap(i, j, k)
            gij = self.scheme.overlap(i, j).restrict(self.g[(i, j)], triple)
            gjk = self.scheme.overlap(j, k).restrict(self.g[(j, k)], triple)
            gik = self.scheme.overlap(i, k).restrict(self.g[(i, k)], triple)
            passed = gij * gjk == gik
            ok = ok and passed
            checks.append(
                {
                    "check": f"g({i},{j})*g({j},{k}) = g({i},{k})",
                    "passed": passed,
                    "witness": None if passed else str(gij * gjk * gik.inv()),
                }
            )
        return {
            "valid": ok,
            "degenerate": self.is_degenerate(),
            "order": self.n,
            "checks": checks,
        }

    def require_valid(self) -> None:
        report = self.validate()
        if not report["valid"]:
            failed = [c["check"] for c in report["checks"] if not c["passed"]]
            raise InvalidCocycle(f"bundle data inconsistent: {failed}")

    def to_json(self) -> dict:
        return {
            "field": {"p": self.scheme.field.p, "e": self.scheme.field.e},
            "n": self.n,
            "charts": self.scheme.to_json(),
            "g": {f"({i},{j})": str(val) for (i, j), val in sorted(self.g.items())},
            "u": [str(x) for x in self.u],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TorsionBundle":
        if not isinstance(data, dict):
            raise MalformedInput("bundle JSON must be an object")
        missing = {"field", "n", "charts", "u"} - set(data)
        if missing:
            raise MalformedInput(f"bundle JSON missing keys: {sorted(missing)}")
        fdata = data["field"]
        try:
            field = FqField(_json_int(fdata["p"], "p"), _json_int(fdata.get("e", 1), "e"))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad field description: {exc}") from None
        n = _json_int(data["n"], "n")
        if not 1 <= n <= MAX_N:
            raise MalformedInput(f"n must be an integer in [1, {MAX_N}], got {n}")
        if not isinstance(data["charts"], list) or not 1 <= len(data["charts"]) <= MAX_CHARTS:
            raise MalformedInput(f"charts must be a nonempty list of at most {MAX_CHARTS}")
        charts = [ChartRing.from_json(field, c) for c in data["charts"]]
        scheme = ChartedScheme(field, charts)
        if not isinstance(data["u"], list) or len(data["u"]) != len(charts):
            raise MalformedInput("u must list one unit per chart")
        u = [charts[i].parse(s) for i, s in enumerate(data["u"])]
        g_raw = data.get("g", {})
        if not isinstance(g_raw, dict):
            raise MalformedInput("g must map chart pairs to transition units")
        g = {}
        for key, expr in g_raw.items():
            pair = _parse_pair(key)
            if pair not in scheme.pairs():
                raise MalformedInput(f"transition key {key} is not a chart pair (i,j), i<j")
            g[pair] = scheme.overlap(*pair).parse(expr)
        return cls(scheme, n, g, u)


def _json_int(value, name: str) -> int:
    """A JSON integer; rejects booleans, floats and strings."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInput(f"{name} must be an integer, got {value!r}")
    return value


def _parse_pair(key: str) -> tuple[int, int]:
    text = key.strip().strip("()")
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2:
        raise MalformedInput(f"bad transition key {key!r}; expected '(i,j)'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise MalformedInput(f"bad transition key {key!r}; expected '(i,j)'") from None


class Cover:
    """The n-th root cover of a bundle, with certified glue on each overlap."""

    def __init__(self, bundle: TorsionBundle):
        bundle.require_valid()
        self.bundle = bundle
        self.charts = tuple(
            CoverChart(ring, bundle.n, u)
            for ring, u in zip(bundle.scheme.charts, bundle.u)
        )
        self._overlap_covers: dict[tuple[int, int], CoverChart] = {}
        self.glue_certificates = self._certify_glue()

    def _certify_glue(self) -> list[dict]:
        """Recompute (g*v)^n = u_other inside each overlap's cover algebra."""
        out = []
        scheme = self.bundle.scheme
        n = self.bundle.n
        for (i, j) in scheme.pairs():
            ovl = scheme.overlap(i, j)
            u_i = scheme.restrict(i, self.bundle.u[i], j)
            u_j = scheme.restrict(j, self.bundle.u[j], i)
            overlap_cover = CoverChart(ovl, n, u_i)
            image = overlap_cover.v.scale(self.bundle.g[(i, j)]) ** n
            expected = overlap_cover.from_ring(u_j)
            if image != expected:
                raise InvalidCocycle(
                    f"glue certificate failed on overlap {(i, j)}: "
                    f"(g*v)^{n} = {image} but u{j} = {expected}"
                )
            out.append(
                {
                    "overlap": [i, j],
                    "identity": f"(g*v)^{n} = u{j}",
                    "passed": True,
                }
            )
        return out

    def transport(self, i: int, j: int, elem: CoverElem) -> CoverElem:
        """Rewrite an element of chart i's cover in chart j's coordinates.

        Both sides land in the overlap cover algebra built on v_j, using
        v_i = v_j / g_ij.
        """
        scheme = self.bundle.scheme
        target = self.overlap_cover(i, j)
        g = self.bundle.g_any(i, j)
        acc = target.zero
        for k, a in enumerate(elem.coeffs):
            if a.is_zero():
                continue
            a_ovl = scheme.restrict(i, a, j)
            acc = acc + target.gen_power(k).scale(a_ovl * g.inv() ** k)
        return acc

    @cached_property
    def partial_forms(self) -> tuple:
        """Each chart's PartialFormsChart, built once on first use."""
        from .partialforms import PartialFormsChart  # partialforms imports covers

        return tuple(PartialFormsChart(self, i) for i in range(len(self.charts)))

    def overlap_cover(self, i: int, j: int) -> CoverChart:
        """Cover algebra on the (i,j) overlap, in chart j's root coordinate."""
        if (i, j) not in self._overlap_covers:
            scheme = self.bundle.scheme
            ovl = scheme.overlap(i, j)
            u_j = scheme.restrict(j, self.bundle.u[j], i)
            self._overlap_covers[(i, j)] = CoverChart(ovl, self.bundle.n, u_j)
        return self._overlap_covers[(i, j)]

    def summary(self) -> dict:
        return {
            "order": self.bundle.n,
            "charts": [
                {"relation": f"v^{c.n} = {c.u}", "ring": c.ring.to_json()}
                for c in self.charts
            ],
            "glue": self.glue_certificates,
        }


def split_order(n: int, p: int) -> tuple[int, int]:
    """n = m * p^r with gcd(m, p) = 1; returns (m, p^r)."""
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return n, q


def is_etale(ring: ChartRing, k: int, u: RingElem) -> bool:
    """Whether A[v]/(v^k - u) is unramified over A, by explicit inverse.

    The fiber derivative is k*v^{k-1}; when gcd(k, p) = 1 its inverse must be
    k^{-1} * u^{-1} * v, and the product is recomputed to equal 1.  When p
    divides k the derivative is zero and no inverse exists.
    """
    u = ring.coerce(u)
    if k % ring.field.p == 0:
        return False
    chart = CoverChart(ring, k, u)
    k_scalar = ring.from_int(k)
    derivative = chart.gen_power(k - 1).scale(k_scalar)
    candidate = chart.v.scale(k_scalar.inv() * u.inv())
    return derivative * candidate == chart.one


def factor_cover(bundle: TorsionBundle) -> dict:
    """Split the cover as a separable stage under a purely inseparable one.

    Writes n = m * p^r with gcd(m, p) = 1.  The separable stage is the m-th
    root bundle of the same units with transitions g^{p^r}, realized inside
    the full cover by w = v^{p^r}.  Every structural identity the splitting
    relies on is recomputed in the full cover algebra.
    """
    p = bundle.scheme.field.p
    m, pr = split_order(bundle.n, p)
    stage_g = {
        pair: val**pr for pair, val in bundle.g.items()
    }
    etale_stage = TorsionBundle(bundle.scheme, m, stage_g, bundle.u)
    checks = []
    for idx, (ring, u) in enumerate(zip(bundle.scheme.charts, bundle.u)):
        full = CoverChart(ring, bundle.n, u)
        w = full.gen_power(pr)
        checks.append(
            {
                "chart": idx,
                "identity": f"(v^{pr})^{m} = u",
                "passed": w**m == full.from_ring(u),
            }
        )
        checks.append(
            {
                "chart": idx,
                "identity": f"A[w]/(w^{m} - u) is unramified",
                "passed": is_etale(ring, m, u),
            }
        )
        if pr > 1:
            checks.append(
                {
                    "chart": idx,
                    "identity": f"v^{pr} = w stage is purely inseparable",
                    "passed": not is_etale(ring, pr, u),
                }
            )
    index_map = {}
    for i in range(m):
        for j in range(pr):
            index_map[(i, j)] = i * pr + j
    bijective = sorted(index_map.values()) == list(range(bundle.n))
    checks.append(
        {
            "chart": None,
            "identity": "w^i * v^j enumerates the v-power basis",
            "passed": bijective,
        }
    )
    return {
        "order": bundle.n,
        "separable_degree": m,
        "inseparable_degree": pr,
        "etale_stage": etale_stage,
        "basis_index": {f"w^{i}*v^{j}": k for (i, j), k in sorted(index_map.items())},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
