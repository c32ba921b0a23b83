"""Differential forms on a chart and on its cyclic cover.

On the base chart A, Omega^1 is free of rank one on dt, so a base one-form
f*dt is its dt coefficient f, a plain RingElem: ``ChartRing.derive`` is d,
``ChartRing.dlog`` is du/u, and ``cartier`` and ``pullback_one_form`` take
and give coefficients.  Two-forms on a curve vanish, so there is no base
two-form to carry.  ``omega_l`` returns a bundle's du/u, one per chart,
once they agree on every overlap.  The Cartier operator acts on f*dt
through the coefficients of t^(p-1) inside p-th power blocks.  Whether a
bundle is degenerate (some du/u vanishes) or coprime (p does not divide n)
is decided by ``TorsionBundle.is_degenerate`` and
``TorsionBundle.is_coprime`` only.

On a cover chart B = A[v]/(v^n - u), forms are carried in the coordinates
(dt, dv).  The B-modules of one- and two-forms are finitely presented over A
with the v-power basis: the single relation d(v^n - u) = n v^{n-1} dv - u' dt,
multiplied through by v^j, gives the relation columns.  The exterior
derivative and wedge product act on explicit representatives; equality of
classes is delegated to the presented modules.  Two-forms are free of rank
one over B on dt^dv, so a cover two-form c*dt^dv is its dt^dv coefficient c,
a plain CoverElem, and ``two_form_parts`` gives its blocks.

B is graded by Z/n with wt v = 1 and wt A = 0, so wt dt = 0 and wt dv = 1;
this is the eigensheaf splitting pi_* O_Y = sum L^(-i) of the cyclic cover,
and it holds when p | n too.  d is homogeneous of weight 0, and each relation
column is homogeneous, so the presented modules split into n blocks of at
most two generators.  Blocks 1..n-1 have one presentation, so each module is
a pidmod.DirectSum of the weight-0 block, the block that weights 1..n-1
share, and n.  This module alone builds one and knows the layout: block w
holds v^w dt and v^(w-1) dv of the one-forms and v^(w-1) dt^dv of the
two-forms (v^(-1) = v^(n-1) at w = 0).  A one-form's ``parts()`` and
``two_form_parts`` of a two-form are the nonzero coefficient vectors on
those blocks, read off the coefficients' ``terms``: a term a v^j has weight
j in the dt coefficient and weight j + 1 (mod n) in the dv and dt^dv ones.
"""

from __future__ import annotations

from .covers import Cover, CoverChart, CoverElem, TorsionBundle
from .errors import GluingFailure, RingMismatch
from .exprparse import _term
from .pidmod import DirectSum, FpmModule, PolyMatrix
from .polys import Poly
from .rings import RingElem


def one_form_str(x: RingElem) -> str:
    """Text of the base one-form x*dt: ``0``, ``dt``, ``t*dt``, ``(1/t)*dt``."""
    if x.is_zero():
        return "0"
    cs = str(x)
    # a fraction is parenthesised too, unlike in the other printed terms
    return f"({cs})*dt" if "/" in cs else _term(cs, "dt")


def cartier(x: RingElem) -> RingElem:
    """Cartier operator on the base one-form x*dt, given and returned as its
    dt coefficient.

    For f = N/D with denominator D a product of inverted irreducibles,
    f*dt = (N * D^(p-1)) / D^p * dt, and the operator extracts the t^(p-1)
    coefficients of the numerator inside p-th power blocks:

        C( (sum c_k t^k) dt ) = sum_s c_(ps+p-1)^(1/p) t^s dt.

    Semilinearity C(h^p w) = h C(w) then handles the 1/D factor.
    """
    ring = x.ring
    field = ring.field
    p = field.p
    if x.is_zero():
        return ring.zero
    num, den = x.fraction()
    lifted = num * den ** (p - 1)
    # the p-th root of a code is its p^(e-1)-th power
    root, power = p ** (field.e - 1), field._pow
    picked = [power(lifted[k], root) for k in range(p - 1, len(lifted.coeffs), p)]
    return ring.make(Poly(field, picked), x.dens)


def omega_l(bundle: TorsionBundle) -> tuple[RingElem, ...]:
    """The logarithmic forms du/u of a bundle's trivializing units, each held
    as its dt coefficient: ``bundle.dlog_u``, once their restrictions agree
    on every overlap.  The first overlap where they differ raises
    GluingFailure.
    """
    scheme, forms = bundle.scheme, bundle.dlog_u
    for (i, j) in scheme.pairs():
        left = scheme.restrict(i, forms[i], j)
        right = scheme.restrict(j, forms[j], i)
        if left != right:
            raise GluingFailure(f"du/u does not glue on overlap {(i, j)}: {left} vs {right}")
    return forms


# -- forms on a cover chart


class CoverOneForm:
    """ct*dt + cv*dv with cover-algebra coefficients."""

    __slots__ = ("chart", "ct", "cv")

    def __init__(self, chart: CoverChart, ct: CoverElem, cv: CoverElem):
        self.chart, self.ct, self.cv = chart, ct, cv

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

    def scale(self, c: CoverElem) -> "CoverOneForm":
        return CoverOneForm(self.chart, self.ct * c, self.cv * c)

    def parts(self) -> dict[int, tuple]:
        """Coefficients on (v^w dt, v^(w-1) dv), the block of weight w, for
        each w where they are not both zero, in ascending weight."""
        n, zero = self.chart.n, self.chart.ring.zero
        ct, cv = self.ct.terms, self.cv.terms
        weights = sorted({*ct, *((j + 1) % n for j in cv)})
        return {w: (ct.get(w, zero), cv.get((w - 1) % n, zero)) for w in weights}

    @classmethod
    def from_parts(cls, chart: CoverChart, parts: dict) -> "CoverOneForm":
        """The one-form with these parts; a missing weight is a zero part."""
        ct = {w: a for w, (a, _) in parts.items()}
        cv = {(w - 1) % chart.n: b for w, (_, b) in parts.items()}
        return cls(chart, CoverElem(chart, ct), CoverElem(chart, cv))

    def __eq__(self, other):
        if not isinstance(other, CoverOneForm):
            return NotImplemented
        return self.chart is other.chart and self.ct == other.ct and self.cv == other.cv

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


def two_form_parts(c: CoverElem) -> dict[int, tuple]:
    """Parts of the two-form c*dt^dv: the coefficient on v^(w-1) dt^dv, the
    block of weight w, for each w where it is not zero, in ascending weight."""
    n, terms = c.chart.n, c.terms
    return {w: (terms[(w - 1) % n],) for w in sorted((j + 1) % n for j in terms)}


def _weight_blocks(chart: CoverChart, relations) -> DirectSum:
    """The DirectSum of a cover chart's forms: the weight-0 block, the block
    that weights 1..n-1 share (at n = 1, the weight-0 one again), and n.

    A block is presented by the matrix with rows relations(x): x = n u in the
    shared block, x = n in the weight-0 one.  When p | n the two matrices are
    equal.
    """
    ring = chart.ring
    n_scalar = ring.from_int(chart.n)
    rel = PolyMatrix(ring, relations(n_scalar * chart.u))
    zero = FpmModule(PolyMatrix(ring, relations(n_scalar)))
    rest = FpmModule(rel, weights=range(1, chart.n)) if chart.n > 1 else zero
    return DirectSum(zero, rest, chart.n)


def one_forms_module(chart: CoverChart) -> DirectSum:
    """Kähler one-forms of the cover chart, presented on v^j dt, v^j dv.

    Relation column j is v^j * (n v^{n-1} dv - u' dt), reduced by v^n = u:
    it touches only v^j dt and v^{j-1} dv.  With wt v^j dt = j and
    wt v^j dv = j + 1 (mod n), column j has weight j, and the block of
    weight w is the single column (-u', n u) on (v^w dt, v^{w-1} dv), with n
    in place of n u at w = 0, where v^{-1} dv is v^{n-1} dv.
    """
    minus_du = -chart.ring.derive(chart.u)
    return _weight_blocks(chart, lambda x: [[minus_du], [x]])


def two_forms_module(chart: CoverChart) -> DirectSum:
    """Kähler two-forms of the cover chart, presented on v^j dt^dv.

    Wedging the one-form relation with dv and dt gives the columns
    u' v^j and n v^{n+j-1} respectively.  With wt v^j dt^dv = j + 1 (mod n)
    the first family has weight j + 1 and the second weight j, so the block
    of weight w is the row (u', n u) on v^{w-1} dt^dv, with n in place of
    n u at w = 0.
    """
    du = chart.ring.derive(chart.u)
    return _weight_blocks(chart, lambda x: [[du, x]])


def d_function(f: CoverElem) -> CoverOneForm:
    """Exterior derivative of a cover function, d(sum f_i v^i)."""
    return CoverOneForm(f.chart, _partial_t(f), _partial_v(f))


def _partial_t(x: CoverElem) -> CoverElem:
    ring = x.chart.ring
    return CoverElem(x.chart, {j: ring.derive(c) for j, c in x.terms.items()})


def _partial_v(x: CoverElem) -> CoverElem:
    """d(a v^j)/dv = j a v^(j-1); the term vanishes when p | j."""
    ring = x.chart.ring
    return CoverElem(
        x.chart, {j - 1: ring.from_int(j) * c for j, c in x.terms.items() if j}
    )


def d_one_form(form: CoverOneForm) -> CoverElem:
    """d(ct dt + cv dv) = (d_t cv - d_v ct) dt^dv on representatives, given
    as its dt^dv coefficient."""
    return _partial_t(form.cv) - _partial_v(form.ct)


def wedge_one_one(a: CoverOneForm, b: CoverOneForm) -> CoverElem:
    """The dt^dv coefficient of a^b."""
    if a.chart is not b.chart:
        raise RingMismatch("wedge of one-forms on different cover charts")
    return a.ct * b.cv - a.cv * b.ct


def pullback_one_form(chart: CoverChart, f: RingElem) -> CoverOneForm:
    """sigma^* on base one-forms: f dt -> f dt with dv-part zero.  A
    coefficient f of another chart ring raises RingMismatch."""
    return CoverOneForm(chart, chart.from_ring(f), chart.zero)


def dv_over_v(chart: CoverChart) -> CoverOneForm:
    """The logarithmic root form dv/v = u^{-1} v^{n-1} dv."""
    return CoverOneForm(chart, chart.zero, chart.v_inv())


def rescale_root(target: CoverChart, w, form: CoverOneForm) -> CoverOneForm:
    """Image of a one-form under the change of root v_form -> w*v on ``target``.

    Coefficients move by ``target.rescaled``, and d(w*v) = w' v dt + w dv
    moves the dv part.
    """
    ct = target.rescaled(form.ct, w)
    cv = target.rescaled(form.cv, w)
    return CoverOneForm(
        target, ct + cv * target.v.scale(target.ring.derive(w)), cv.scale(w)
    )


def transport_one_form(cover: Cover, i: int, j: int, form: CoverOneForm) -> CoverOneForm:
    """Rewrite a one-form of chart i's cover in chart j's coordinates, by the
    root change v_i = g^{-1} v_j on the overlap."""
    return rescale_root(cover.overlap_cover(i, j), cover.bundle.g_any(i, j).inv(), form)
