"""Differential forms on a chart and on its cyclic cover.

On the base chart A everything is t-based: one-forms are f*dt, two-forms
vanish, and the Cartier operator acts on f*dt through the coefficients of
t^(p-1) inside p-th power blocks.

On a cover chart B = A[v]/(v^n - u), forms are carried in the coordinates
(dt, dv).  The B-modules of one- and two-forms are finitely presented over A
with the v-power basis: the single relation d(v^n - u) = n v^{n-1} dv - u' dt,
multiplied through by v^j, gives the relation columns.  The exterior
derivative and wedge product act on explicit representatives; equality of
classes is delegated to the presented modules.

B is graded by Z/n with wt v = 1 and wt A = 0, so wt dt = 0 and wt dv = 1;
this is the eigensheaf splitting pi_* O_Y = sum L^(-i) of the cyclic cover,
and it holds when p | n too.  d is homogeneous of weight 0, and each relation
column is homogeneous, so the presented modules are built directly as their
weight blocks: n blocks of at most two generators, each reduced on its own.
"""

from __future__ import annotations

from .covers import Cover, CoverChart, CoverElem, TorsionBundle
from .errors import DegreeOverflow, GluingFailure, MalformedInput, RingMismatch
from .pidmod import FpmModule, GradedMatrix, PolyMatrix
from .polys import Poly
from .rings import ChartRing


class ChartForm:
    """Differential form on the base chart: degree 0, 1 (f*dt), or 2 (zero)."""

    __slots__ = ("ring", "degree", "coeff")

    def __init__(self, ring: ChartRing, degree: int, coeff):
        if degree not in (0, 1, 2):
            raise DegreeOverflow("base-chart forms live in degrees 0, 1, 2")
        coeff = ring.coerce(coeff)
        if degree == 2 and not coeff.is_zero():
            raise MalformedInput("every two-form on a one-dimensional chart is zero")
        self.ring = ring
        self.degree = degree
        self.coeff = coeff

    def _check(self, other: "ChartForm") -> "ChartForm":
        if not isinstance(other, ChartForm):
            raise TypeError("expected a chart form")
        if other.ring is not self.ring or other.degree != self.degree:
            raise RingMismatch("forms of different charts or degrees")
        return other

    def __add__(self, other):
        other = self._check(other)
        return ChartForm(self.ring, self.degree, self.coeff + other.coeff)

    def __sub__(self, other):
        other = self._check(other)
        return ChartForm(self.ring, self.degree, self.coeff - other.coeff)

    def __neg__(self):
        return ChartForm(self.ring, self.degree, -self.coeff)

    def scale(self, c) -> "ChartForm":
        return ChartForm(self.ring, self.degree, self.coeff * self.ring.coerce(c))

    def d(self) -> "ChartForm":
        if self.degree == 0:
            return ChartForm(self.ring, 1, self.ring.derive(self.coeff))
        if self.degree == 1:
            return ChartForm(self.ring, 2, self.ring.zero)
        raise DegreeOverflow("no derivative above the top degree")

    def wedge(self, other: "ChartForm") -> "ChartForm":
        if not isinstance(other, ChartForm) or other.ring is not self.ring:
            raise RingMismatch("wedge of forms on different charts")
        total = self.degree + other.degree
        if total > 2:
            raise DegreeOverflow("wedge degree exceeds the chart dimension bound")
        if total == 2 and self.degree != 0 and other.degree != 0:
            return ChartForm(self.ring, 2, self.ring.zero)
        return ChartForm(self.ring, total, self.coeff * other.coeff)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ChartForm):
            return NotImplemented
        return (
            self.ring.same_ring(other.ring)
            and self.degree == other.degree
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.degree, self.coeff))

    def __str__(self):
        if self.degree == 0:
            return str(self.coeff)
        if self.degree == 2 or self.coeff.is_zero():
            return "0"
        cs = str(self.coeff)
        if cs == "1":
            return "dt"
        if " " in cs or "+" in cs or "/" in cs:
            cs = f"({cs})"
        return f"{cs}*dt"

    __repr__ = __str__


def chart_d(ring: ChartRing, f) -> ChartForm:
    """df for a function on the base chart."""
    return ChartForm(ring, 0, f).d()


def chart_dlog(ring: ChartRing, u) -> ChartForm:
    """du/u for a unit of the base chart."""
    return ChartForm(ring, 1, ring.dlog(u))


def cartier(form: ChartForm) -> ChartForm:
    """Cartier operator on one-forms of the base chart.

    For f = N/D with denominator D a product of inverted irreducibles,
    f*dt = (N * D^(p-1)) / D^p * dt, and the operator extracts the t^(p-1)
    coefficients of the numerator inside p-th power blocks:

        C( (sum c_k t^k) dt ) = sum_s c_(ps+p-1)^(1/p) t^s dt.

    Semilinearity C(h^p w) = h C(w) then handles the 1/D factor.
    """
    if form.degree != 1:
        raise MalformedInput("the Cartier operator acts on one-forms")
    ring = form.ring
    field = ring.field
    p = field.p
    x = form.coeff
    if x.is_zero():
        return ChartForm(ring, 1, ring.zero)
    num, den = x.fraction()
    lifted = num * den ** (p - 1)
    picked = [
        lifted[k].frobenius_inverse().code for k in range(p - 1, len(lifted.coeffs), p)
    ]
    result_num = Poly(field, picked)
    return ChartForm(ring, 1, ring.from_poly(result_num) / ring.from_poly(den))


class OmegaL:
    """Per-chart logarithmic forms du/u of a bundle's trivializing units.

    On overlaps the restrictions must agree; a mismatch raises GluingFailure.
    The degenerate flag records charts where the form vanishes identically.
    """

    def __init__(self, bundle: TorsionBundle):
        scheme = bundle.scheme
        self.bundle = bundle
        self.chart_forms = tuple(
            chart_dlog(ring, u) for ring, u in zip(scheme.charts, bundle.u)
        )
        for (i, j) in scheme.pairs():
            left = scheme.restrict(i, self.chart_forms[i].coeff, j)
            right = scheme.restrict(j, self.chart_forms[j].coeff, i)
            if left != right:
                raise GluingFailure(
                    f"du/u does not glue on overlap {(i, j)}: {left} vs {right}"
                )
        self.degenerate = any(f.is_zero() for f in self.chart_forms)

    def __getitem__(self, i: int) -> ChartForm:
        return self.chart_forms[i]

    def __len__(self) -> int:
        return len(self.chart_forms)


# -- forms on a cover chart


class CoverOneForm:
    """ct*dt + cv*dv with cover-algebra coefficients."""

    __slots__ = ("chart", "ct", "cv")

    def __init__(self, chart: CoverChart, ct, cv):
        self.chart = chart
        self.ct = chart.coerce(ct)
        self.cv = chart.coerce(cv)

    def _check(self, other: "CoverOneForm") -> "CoverOneForm":
        if not isinstance(other, CoverOneForm):
            raise TypeError("expected a cover one-form")
        if other.chart is not self.chart:
            raise RingMismatch("one-forms on different cover charts")
        return other

    def __add__(self, other):
        other = self._check(other)
        return CoverOneForm(self.chart, self.ct + other.ct, self.cv + other.cv)

    def __sub__(self, other):
        other = self._check(other)
        return CoverOneForm(self.chart, self.ct - other.ct, self.cv - other.cv)

    def __neg__(self):
        return CoverOneForm(self.chart, -self.ct, -self.cv)

    def scale(self, c) -> "CoverOneForm":
        c = self.chart.coerce(c)
        return CoverOneForm(self.chart, self.ct * c, self.cv * c)

    def is_zero(self) -> bool:
        return self.ct.is_zero() and self.cv.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CoverOneForm):
            return NotImplemented
        return (
            self.chart.same_chart(other.chart)
            and self.ct == other.ct
            and self.cv == other.cv
        )

    def __hash__(self):
        return hash((self.ct, self.cv))

    def __str__(self):
        parts = []
        if not self.ct.is_zero():
            parts.append(f"({self.ct})*dt")
        if not self.cv.is_zero():
            parts.append(f"({self.cv})*dv")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class CoverTwoForm:
    """c2 * dt^dv with a cover-algebra coefficient."""

    __slots__ = ("chart", "c2")

    def __init__(self, chart: CoverChart, c2):
        self.chart = chart
        self.c2 = chart.coerce(c2)

    def __add__(self, other):
        if not isinstance(other, CoverTwoForm) or other.chart is not self.chart:
            raise RingMismatch("two-forms on different cover charts")
        return CoverTwoForm(self.chart, self.c2 + other.c2)

    def __sub__(self, other):
        if not isinstance(other, CoverTwoForm) or other.chart is not self.chart:
            raise RingMismatch("two-forms on different cover charts")
        return CoverTwoForm(self.chart, self.c2 - other.c2)

    def __neg__(self):
        return CoverTwoForm(self.chart, -self.c2)

    def scale(self, c) -> "CoverTwoForm":
        return CoverTwoForm(self.chart, self.c2 * self.chart.coerce(c))

    def is_zero(self) -> bool:
        return self.c2.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CoverTwoForm):
            return NotImplemented
        return self.chart.same_chart(other.chart) and self.c2 == other.c2

    def __hash__(self):
        return hash(self.c2)

    def __str__(self):
        return f"({self.c2})*dt^dv" if not self.c2.is_zero() else "0"

    __repr__ = __str__


def _v_power_names(n: int, suffix: str = "") -> list[str]:
    names = []
    for j in range(n):
        head = "" if j == 0 else ("v" if j == 1 else f"v^{j}")
        if head and suffix:
            names.append(f"{head}*{suffix}")
        elif head:
            names.append(head)
        else:
            names.append(suffix if suffix else "1")
    return names


def functions_module(chart: CoverChart) -> FpmModule:
    """O_Y on one chart: free over A on the v-power basis, v^j of weight j."""
    ring, n = chart.ring, chart.n
    return FpmModule(ring, n, GradedMatrix(ring, range(n), (), {}), _v_power_names(n))


def one_forms_module(chart: CoverChart) -> FpmModule:
    """Kähler one-forms of the cover chart, presented on v^j dt, v^j dv.

    Relation column j is v^j * (n v^{n-1} dv - u' dt), reduced by v^n = u:
    it touches only v^j dt and v^{j-1} dv.  With wt v^j dt = j and
    wt v^j dv = j + 1 (mod n), column j has weight j, and the block of
    weight w is the single column (-u', n u) on (v^w dt, v^{w-1} dv), with n
    in place of n u at w = 0, where v^{-1} dv is v^{n-1} dv.
    """
    ring = chart.ring
    n = chart.n
    du = ring.derive(chart.u)
    n_scalar = ring.from_int(n)
    nu = n_scalar * chart.u
    blocks = {
        w: PolyMatrix(ring, [[-du], [n_scalar if w == 0 else nu]], nrows=2, ncols=1)
        for w in range(n)
    }
    weights = list(range(n)) + [(j + 1) % n for j in range(n)]
    names = _v_power_names(n, "dt") + _v_power_names(n, "dv")
    return FpmModule(
        ring, 2 * n, GradedMatrix(ring, weights, range(n), blocks), names
    )


def two_forms_module(chart: CoverChart) -> FpmModule:
    """Kähler two-forms of the cover chart, presented on v^j dt^dv.

    Wedging the one-form relation with dv and dt gives the columns
    u' v^j and n v^{n+j-1} respectively.  With wt v^j dt^dv = j + 1 (mod n)
    the first family has weight j + 1 and the second weight j, so the block
    of weight w is the row (u', n u) on v^{w-1} dt^dv, with n in place of
    n u at w = 0.
    """
    ring = chart.ring
    n = chart.n
    du = ring.derive(chart.u)
    n_scalar = ring.from_int(n)
    nu = n_scalar * chart.u
    blocks = {
        w: PolyMatrix(ring, [[du, n_scalar if w == 0 else nu]], nrows=1, ncols=2)
        for w in range(n)
    }
    weights = [(j + 1) % n for j in range(n)]
    return FpmModule(
        ring,
        n,
        GradedMatrix(ring, weights, weights + list(range(n)), blocks),
        _v_power_names(n, "dt^dv"),
    )


def one_form_to_vec(form: CoverOneForm) -> tuple:
    return tuple(form.ct.coeffs) + tuple(form.cv.coeffs)


def vec_to_one_form(chart: CoverChart, vec) -> CoverOneForm:
    n = chart.n
    vec = list(vec)
    if len(vec) != 2 * n:
        raise MalformedInput("one-form vector needs 2n coordinates")
    return CoverOneForm(
        chart, chart.from_coeffs(vec[:n]), chart.from_coeffs(vec[n:])
    )


def two_form_to_vec(form: CoverTwoForm) -> tuple:
    return tuple(form.c2.coeffs)


def d_function(f: CoverElem) -> CoverOneForm:
    """Exterior derivative of a cover function, d(sum f_i v^i)."""
    return CoverOneForm(f.chart, _partial_t(f), _partial_v(f))


def _partial_t(x: CoverElem) -> CoverElem:
    ring = x.chart.ring
    return x.chart.from_coeffs([ring.derive(c) for c in x.coeffs])


def _partial_v(x: CoverElem) -> CoverElem:
    chart = x.chart
    ring = chart.ring
    out = [ring.zero] * chart.n
    for i in range(1, chart.n):
        out[i - 1] = ring.from_int(i) * x.coeffs[i]
    return chart.from_coeffs(out)


def d_one_form(form: CoverOneForm) -> CoverTwoForm:
    """d(ct dt + cv dv) = (d_t cv - d_v ct) dt^dv on representatives."""
    return CoverTwoForm(
        form.chart, _partial_t(form.cv) - _partial_v(form.ct)
    )


def wedge_one_one(a: CoverOneForm, b: CoverOneForm) -> CoverTwoForm:
    if a.chart is not b.chart:
        raise RingMismatch("wedge of one-forms on different cover charts")
    return CoverTwoForm(a.chart, a.ct * b.cv - a.cv * b.ct)


def pullback_function(chart: CoverChart, f) -> CoverElem:
    """sigma^* on functions: the inclusion A -> B."""
    return chart.from_ring(f)


def pullback_one_form(chart: CoverChart, form: ChartForm) -> CoverOneForm:
    """sigma^* on base one-forms: f dt -> f dt with dv-part zero."""
    if form.degree != 1:
        raise MalformedInput("pullback_one_form expects a one-form")
    if form.ring is not chart.ring:
        raise RingMismatch("form does not live on the cover's base chart")
    return CoverOneForm(chart, chart.from_ring(form.coeff), chart.zero)


def dv_over_v(chart: CoverChart) -> CoverOneForm:
    """The logarithmic root form dv/v = u^{-1} v^{n-1} dv."""
    coeffs = [chart.ring.zero] * chart.n
    coeffs[chart.n - 1] = chart.u.inv()
    return CoverOneForm(chart, chart.zero, chart.from_coeffs(coeffs))


def transport_one_form(cover: Cover, i: int, j: int, form: CoverOneForm) -> CoverOneForm:
    """Rewrite a one-form of chart i's cover in chart j's coordinates.

    Uses v_i = g^{-1} v_j, hence dv_i = (g^{-1})' v_j dt + g^{-1} dv_j, with
    every coefficient transported through the overlap cover algebra.
    """
    scheme = cover.bundle.scheme
    ovl = scheme.overlap(i, j)
    target = cover.overlap_cover(i, j)
    g = cover.bundle.g_any(i, j)
    ginv = g.inv()
    ginv_prime = ovl.derive(ginv)
    ct = cover.transport(i, j, form.ct)
    cv = cover.transport(i, j, form.cv)
    dt_part = ct + cv * target.v.scale(ginv_prime)
    dv_part = cv.scale(ginv)
    return CoverOneForm(target, dt_part, dv_part)
