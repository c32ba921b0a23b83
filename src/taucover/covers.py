"""Cyclic covers of a charted curve and the torsion bundles that define them.

A torsion bundle packages, per chart, a trivializing unit u and, per overlap,
a transition unit g, subject to g^n = u_other / u_self.  Its n-th root cover
is the chart-by-chart algebra B = A[v]/(v^n - u), glued by v -> g * v.  The
glue is certified, never assumed: Cover recomputes (g * v)^n inside the
overlap and compares it with the other chart's unit.

Each distinct inverted prime of a bundle read from JSON is certified once
(``rings.certify_prime``, Rabin's test included), where it first appears in
the chart list.  Overlap rings invert unions of those primes and inherit their
certificates, so they test no prime again.  Every cocycle identity among
transitions is decided in one of them, the ring of all charts' overlap.

B is graded by Z/n with wt v = 1, and a CoverElem is kept as its weight
decomposition: the nonzero coefficients a_j of sum a_j v^j, keyed by j.  So
the work of an operation follows the number of nonzero terms, not n.
Cover arithmetic takes elements of its own chart as they are; only
``ChartedScheme.per_chart`` and ``TorsionBundle.__init__`` coerce.

factor_cover splits the cover degree as n = m * p^r with m prime to the
characteristic, yielding a separable stage A[w]/(w^m - u) (with w = v^{p^r})
below a purely inseparable one; is_etale checks separability by exhibiting an
explicit inverse of the fiber derivative.  The separable stage is returned as
bundle JSON, written from the bundle's own chart list and unit texts.
"""

from __future__ import annotations

import contextlib
import itertools
from functools import cached_property
from operator import add, sub
from typing import Sequence

from .errors import InvalidCocycle, MalformedInput, NotAUnit, RingMismatch
from .exprparse import _excerpt, _power, _term
from .fields import FqField, _FqField
from .polys import Poly, _square_and_multiply
from .rings import ChartRing, RingElem, certify_prime

# Caps on a bundle read from JSON, checked before any chart is parsed; the
# README gives the measured costs they bound.
MAX_N = 1024
MAX_CHARTS = 32


class CoverChart:
    """B = A[v]/(v^n - u) for a unit u of a single chart ring A."""

    def __init__(self, ring: ChartRing, n: int, u: RingElem):
        if n < 1:
            raise MalformedInput("cover degree must be a positive integer")
        if not u.is_unit():
            raise NotAUnit(f"{u} must be a unit to take an n-th root cover")
        self.ring = ring
        self.n = n
        self.u = u

    @property
    def zero(self) -> "CoverElem":
        return CoverElem._nonzero(self, {})

    @property
    def one(self) -> "CoverElem":
        return self.from_ring(self.ring.one)

    @cached_property
    def v(self) -> "CoverElem":
        return self.gen_power(1)

    def v_inv(self) -> "CoverElem":
        """1/v = u^{-1} * v^{n-1}."""
        return self.gen_power(-1)

    def from_ring(self, a: RingElem) -> "CoverElem":
        """a as a cover element; an element of another ring raises RingMismatch."""
        return CoverElem(self, {0: self.ring.check(a)})

    def gen_power(self, j: int) -> "CoverElem":
        """v^j for any integer j, reduced into the basis 1, v, ..., v^{n-1}."""
        q, r = divmod(j, self.n)
        # the ring's own one, so that a product by v multiplies no coefficient
        return CoverElem(self, {r: self.u**q if q else self.ring.one})

    def rescaled(self, x: "CoverElem", w) -> "CoverElem":
        """x(w*v): the image of x under the change of root v_x -> w*v.

        x lives on a cover chart whose ring restricts into this chart's ring,
        so sum x_k v_x^k goes to sum x_k w^k v^k.  Glue on an overlap is the
        case w = g^{-1}, rewriting chart i's v_i = g^{-1} v_j in chart j's root.
        """
        restrict = x.chart.ring.restrict
        return CoverElem(
            self, {k: restrict(c, self.ring) * w**k for k, c in x.terms.items()}
        )

    def random_element(self, rng, max_deg: int = 2) -> "CoverElem":
        """Every coefficient is drawn, in index order, zeros included, so the
        draw does not depend on which terms an element stores."""
        draw = self.ring.random_element
        coeffs = [draw(rng, max_deg=max_deg, max_den=1) for _ in range(self.n)]
        return CoverElem(self, dict(enumerate(coeffs)))

    def __repr__(self):
        return f"CoverChart(v^{self.n} = {self.u} over {self.ring!r})"


class CoverElem:
    """Element sum a_j v^j of a cover chart, kept as its weight decomposition.

    ``terms`` maps each j in [0, n) with a_j nonzero to a_j; the term a_j v^j
    has weight j.  No element keeps a zero term, so equal elements have equal
    ``terms``.  The constructor drops zero terms.  An operation that knows
    which of its terms can vanish builds its result by ``_nonzero``, without
    that filter: a sum or difference drops a weight whose terms cancel as it
    meets it, and negation, a product by a nonzero ring element and a
    product by a one-term element have no zero term at all, since A is a
    domain and a shift by v^i sends distinct weights to distinct weights.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: CoverChart, terms: dict):
        self.chart = chart
        self.terms = {j: a for j, a in terms.items() if a.const}

    @classmethod
    def _nonzero(cls, chart: CoverChart, terms: dict) -> "CoverElem":
        """The element with these terms, none of them zero."""
        out = object.__new__(cls)
        out.chart = chart
        out.terms = terms
        return out

    def _check(self, other: "CoverElem") -> "CoverElem":
        if not isinstance(other, CoverElem) or other.chart is not self.chart:
            raise RingMismatch("operand is not an element of this cover chart")
        return other

    def _combine(self, other, op, negate: bool) -> "CoverElem":
        """self op other for op add or sub, in one pass: a weight only other
        has gets b or -b, and a weight whose terms cancel is dropped."""
        terms = dict(self.terms)
        for j, b in self._check(other).terms.items():
            if j in terms:
                c = op(terms[j], b)
                if c.const:
                    terms[j] = c
                else:
                    del terms[j]
            else:
                terms[j] = -b if negate else b
        return CoverElem._nonzero(self.chart, terms)

    def __add__(self, other):
        return self._combine(other, add, False)

    def __sub__(self, other):
        return self._combine(other, sub, True)

    def __neg__(self):
        return CoverElem._nonzero(self.chart, {j: -a for j, a in self.terms.items()})

    def __mul__(self, other):
        other = self._check(other)
        if len(other.terms) == 1:
            return self._shifted(*other.terms.items())
        if len(self.terms) == 1:
            return other._shifted(*self.terms.items())
        n, u = self.chart.n, self.chart.u
        out = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                k, term = i + j, a * b
                if k >= n:
                    k, term = k - n, term * u
                out[k] = out[k] + term if k in out else term
        return CoverElem(self.chart, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative cover-element power")
        return _square_and_multiply(self, k, self.chart.one)

    def _shifted(self, term: tuple) -> "CoverElem":
        """The product with the one term b v^i, given as (i, b)."""
        i, b = term
        chart = self.chart
        n, u = chart.n, chart.u
        out = {}
        for j, a in self.terms.items():
            a = a * b
            k = i + j
            if k < n:
                out[k] = a
            else:
                out[k - n] = a * u
        return CoverElem._nonzero(chart, out)

    def scale(self, c: RingElem) -> "CoverElem":
        if not c.const:
            return self.chart.zero
        return CoverElem._nonzero(self.chart, {j: a * c for j, a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CoverElem):
            return NotImplemented
        return self.chart is other.chart and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        terms = [_term(str(a), _power("v", j)) for j, a in sorted(self.terms.items())]
        return " + ".join(terms) or "0"

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
            primes = {pi.coeffs: pi for i in key for pi in self.charts[i].inverted}
            self._overlaps[key] = ChartRing.of_certified(self.field, list(primes.values()))
        return self._overlaps[key]

    def lift(self, units: dict[tuple[int, int], RingElem]) -> dict[tuple[int, int], RingElem]:
        """Each pair's unit restricted from its overlap into the ring of every
        chart's overlap, ``overlap(*range(m))``.  Restriction is injective and
        multiplicative, so an identity among units holds on an overlap
        exactly when it holds among their lifts."""
        whole = self.overlap(*range(self.n_charts))
        lifted = {}
        for pair, unit in units.items():
            if not unit.is_unit():
                raise NotAUnit(f"transition unit on overlap {pair} is not a unit")
            lifted[pair] = self.overlap(*pair).restrict(unit, whole)
        return lifted

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

    def per_chart(self, values: Sequence) -> list[RingElem]:
        """One value per chart, each coerced into its chart's ring."""
        if len(values) != self.n_charts:
            raise MalformedInput(
                f"one unit per chart is required: {self.n_charts} charts, "
                f"{len(values)} given"
            )
        return [chart.coerce(x) for chart, x in zip(self.charts, values)]

    def coboundary(self, values: Sequence[RingElem]) -> dict[tuple[int, int], RingElem]:
        """Čech coboundary of a 0-cochain of units, one per chart:
        x_j / x_i restricted to each overlap (i, j)."""
        return {
            (i, j): self.restrict(j, values[j], i) / self.restrict(i, values[i], j)
            for i, j in self.pairs()
        }

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.charts]

    @classmethod
    def from_json(cls, field: _FqField, data: list, memo: dict | None = None) -> "ChartedScheme":
        """The charts, each an object with an 'inverted' string list.  Each
        distinct prime is certified once, where it first appears; ``memo``
        is the parse memo of the bundle read (see ``exprparse``)."""
        certified: dict[tuple[int, ...], Poly] = {}
        charts = []
        for chart in data:
            inverted = chart.get("inverted") if isinstance(chart, dict) else None
            if not isinstance(inverted, list) or not all(isinstance(s, str) for s in inverted):
                raise MalformedInput(
                    "chart JSON must be an object with an 'inverted' string list"
                )
            primes = []
            for text in inverted:
                pi = Poly.parse(field, text, memo)
                if pi.coeffs not in certified:
                    certified[pi.coeffs] = certify_prime(field, pi)
                primes.append(certified[pi.coeffs])
            charts.append(ChartRing.of_certified(field, primes))
        return cls(field, charts)


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
        self.scheme = scheme
        self.n = n
        self.u = tuple(scheme.per_chart(u))
        for i, x in enumerate(self.u):
            if not x.is_unit():
                raise NotAUnit(f"chart {i} trivialization {x} is not a unit")
        want = set(scheme.pairs())
        got = set(g)
        if got != want:
            raise MalformedInput(
                f"transition units must cover exactly the chart pairs {sorted(want)}"
            )
        self.g = {pair: scheme.overlap(*pair).coerce(val) for pair, val in g.items()}
        # the transitions in the ring of every chart's overlap, lifted once
        # for validation and the canonical class
        self.lifted_g = scheme.lift(self.g)

    def g_any(self, i: int, j: int) -> RingElem:
        """Transition unit for any ordered pair, with g_ii = 1 and g_ji = 1/g_ij."""
        if i == j:
            return self.scheme.overlap(i).one
        if i < j:
            return self.g[(i, j)]
        return self.g[(j, i)].inv()

    def is_coprime(self) -> bool:
        """True when the order n is invertible in the field, gcd(n, p) = 1."""
        return self.n % self.scheme.field.p != 0

    @cached_property
    def u_text(self) -> tuple[str, ...]:
        """Each chart's trivializing unit as printed, formatted once."""
        return tuple(map(str, self.u))

    @cached_property
    def dlog_u(self) -> tuple[RingElem, ...]:
        """du/u of each chart's trivializing unit, as its dt coefficient."""
        return tuple(ring.dlog(x) for ring, x in zip(self.scheme.charts, self.u))

    def is_degenerate(self) -> bool:
        """True when some trivializing unit has vanishing logarithmic derivative."""
        return any(w.is_zero() for w in self.dlog_u)

    def validate(self) -> dict:
        """Check the compatibility and cocycle identities, returning a report."""
        checks = []
        ok = True
        for (i, j), rhs in self.scheme.coboundary(self.u).items():
            lhs = self.g[(i, j)] ** self.n
            passed = lhs == rhs
            ok = ok and passed
            checks.append(
                {
                    "check": f"g({i},{j})^{self.n} = u{j}/u{i}",
                    "passed": passed,
                    "witness": None if passed else str(lhs * rhs.inv()),
                }
            )
        g = self.lifted_g
        for (i, j, k) in itertools.combinations(range(self.scheme.n_charts), 3):
            passed = g[(i, j)] * g[(j, k)] == g[(i, k)]
            ok = ok and passed
            checks.append(
                {
                    "check": f"g({i},{j})*g({j},{k}) = g({i},{k})",
                    "passed": passed,
                    "witness": None if passed else self._triple_witness(i, j, k),
                }
            )
        return {
            "valid": ok,
            "degenerate": self.is_degenerate(),
            "order": self.n,
            "checks": checks,
        }

    def _triple_witness(self, i: int, j: int, k: int) -> str:
        """g_ij * g_jk / g_ik printed in the ring of the triple's overlap."""
        scheme = self.scheme
        triple = scheme.overlap(i, j, k)
        gij, gjk, gik = (
            scheme.overlap(*pair).restrict(self.g[pair], triple)
            for pair in ((i, j), (j, k), (i, k))
        )
        return str(gij * gjk * gik.inv())

    def to_json(self) -> dict:
        return _bundle_json(self.scheme, self.n, self.g, self.u_text)

    @classmethod
    def from_json(cls, data: dict) -> "TorsionBundle":
        """The bundle a JSON object describes.  Its prime lists, units and
        transitions share one parse memo, which lives only for this read, so
        each distinct polynomial text or group is folded once."""
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
        memo: dict = {}
        scheme = ChartedScheme.from_json(field, data["charts"], memo)
        charts = scheme.charts
        if not isinstance(data["u"], list) or len(data["u"]) != len(charts):
            raise MalformedInput("u must list one unit per chart")
        u = [charts[i].parse(s, memo) for i, s in enumerate(data["u"])]
        g_raw = data.get("g", {})
        if not isinstance(g_raw, dict):
            raise MalformedInput("g must map chart pairs to transition units")
        g, pairs = {}, set(scheme.pairs())
        for key, expr in g_raw.items():
            pair = _parse_pair(key)
            if pair not in pairs:
                raise MalformedInput(
                    f"transition key {_excerpt(key)} is not a chart pair (i,j), i<j"
                )
            if pair in g:
                raise MalformedInput(
                    f"transition key {_excerpt(key)} repeats the chart pair {pair}"
                )
            g[pair] = scheme.overlap(*pair).parse(expr, memo)
        return cls(scheme, n, g, u)


def _bundle_json(scheme: ChartedScheme, n: int, g: dict, u_text: Sequence[str]) -> dict:
    """The JSON of the order-n bundle on ``scheme`` with transitions g and
    units printed as ``u_text``."""
    return {
        "field": {"p": scheme.field.p, "e": scheme.field.e},
        "n": n,
        "charts": scheme.to_json(),
        "g": {f"({i},{j})": str(val) for (i, j), val in sorted(g.items())},
        "u": list(u_text),
    }


def _json_int(value, name: str) -> int:
    """A JSON integer; rejects booleans, floats and strings."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInput(f"{name} must be an integer, got {_excerpt(value)}")
    return value


def _parse_pair(key: str) -> tuple[int, int]:
    text = key.strip().strip("()")
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2:
        raise MalformedInput(f"bad transition key {_excerpt(key)}; expected '(i,j)'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise MalformedInput(f"bad transition key {_excerpt(key)}; expected '(i,j)'") from None


class Cover:
    """The n-th root cover of a bundle, with certified glue on each overlap.

    ``validation`` is the bundle's ``validate()`` report the cover was
    certified on; a bundle that fails it raises InvalidCocycle.
    """

    def __init__(self, bundle: TorsionBundle):
        self.validation = bundle.validate()
        if not self.validation["valid"]:
            failed = [c["check"] for c in self.validation["checks"] if not c["passed"]]
            raise InvalidCocycle(f"bundle data inconsistent: {failed}")
        self.bundle = bundle
        self.charts = tuple(
            CoverChart(ring, bundle.n, u)
            for ring, u in zip(bundle.scheme.charts, bundle.u)
        )
        self._overlap_covers: dict[tuple[int, int], CoverChart] = {}
        self.glue_certificates = self._certify_glue()

    @contextlib.contextmanager
    def guarding(self):
        """``ChartRing.guarding`` on every chart's ring, so that guards run
        one after another within the block share what they keep."""
        with contextlib.ExitStack() as stack:
            for chart in self.charts:
                stack.enter_context(chart.ring.guarding())
            yield

    def _certify_glue(self) -> list[dict]:
        """Recompute (g*v)^n = u_other inside each overlap's cover algebra."""
        out = []
        scheme = self.bundle.scheme
        n = self.bundle.n
        for (i, j) in scheme.pairs():
            overlap_cover = self.overlap_cover(j, i)
            u_j = scheme.restrict(j, self.bundle.u[j], i)
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
        """Rewrite an element of chart i's cover in chart j's coordinates,
        in the overlap cover algebra built on v_j, by v_i = v_j / g_ij."""
        return self.overlap_cover(i, j).rescaled(elem, self.bundle.g_any(i, j).inv())

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
                {"relation": f"v^{c.n} = {u}", "ring": c.ring.to_json()}
                for c, u in zip(self.charts, self.bundle.u_text)
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
    divides k the derivative is zero and no inverse exists.  At k = 1 the
    algebra A[v]/(v - u) is A itself and the derivative is 1, so no cover
    chart is built.
    """
    if k == 1:
        return True
    if k % ring.field.p == 0:
        return False
    chart = CoverChart(ring, k, u)
    k_scalar = ring.from_int(k)
    derivative = chart.gen_power(k - 1).scale(k_scalar)
    candidate = chart.v.scale(k_scalar.inv() * u.inv())
    return derivative * candidate == chart.one


def factor_cover(cover: Cover) -> dict:
    """Split the cover as a separable stage under a purely inseparable one.

    Writes n = m * p^r with gcd(m, p) = 1.  The separable stage is the m-th
    root bundle of the same units with transitions g^{p^r}, realized inside
    the full cover by w = v^{p^r}.  Every structural identity the splitting
    relies on is recomputed in the cover's own chart algebras.

    ``etale_stage`` is that bundle's JSON, as ``TorsionBundle.to_json``
    writes it, from the bundle's charts and unit texts; no bundle is built.
    """
    bundle = cover.bundle
    p = bundle.scheme.field.p
    m, pr = split_order(bundle.n, p)
    stage_g = {pair: val**pr for pair, val in bundle.g.items()}
    checks = []
    for idx, full in enumerate(cover.charts):
        ring, u = full.ring, full.u
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
        "etale_stage": _bundle_json(bundle.scheme, m, stage_g, bundle.u_text),
        "basis_index": {f"w^{i}*v^{j}": k for (i, j), k in sorted(index_map.items())},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
