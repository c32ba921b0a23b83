"""The kernel's fast paths against the generic forms they shortcut.

A polynomial sum, a chart-ring sum or difference, and a cover-element
product or difference must equal, term for term, the generic references in
``oracle``.  Rings: the chart and overlap rings of every catalog fixture, and
F_q[t] inverting t and t + 1 for p = 2, 3, 5 and e = 1, 2, 3, which takes each
of the three field branches of the polynomial loops.  Every operation that
skips the zero-term filter must still leave no zero term.
"""

from hypothesis import given, settings, strategies as st
from oracle import cover_difference, cover_product, poly_add, ring_sum

from taucover.catalog import fixture_names, load_fixture
from taucover.covers import Cover, CoverElem
from taucover.fields import FqField
from taucover.polys import Poly
from taucover.rings import ChartRing

CATALOG_COVERS = [Cover(load_fixture(name).bundle()) for name in fixture_names()]
CATALOG_CHARTS = [chart for cover in CATALOG_COVERS for chart in cover.charts]
GRID_RINGS = [
    ChartRing(FqField(p, e), ["t", "t + 1"]) for p in (2, 3, 5) for e in (1, 2, 3)
]
RINGS = [
    *GRID_RINGS,
    *(chart.ring for chart in CATALOG_CHARTS),
    *(
        cover.bundle.scheme.overlap(i, j)
        for cover in CATALOG_COVERS
        for i, j in cover.bundle.scheme.pairs()
    ),
]
FIELDS = sorted({ring.field for ring in RINGS}, key=lambda f: (f.p, f.e))


@st.composite
def polys(draw, field):
    return Poly(field, draw(st.lists(st.integers(0, field.q - 1), max_size=5)))


@st.composite
def ring_elements(draw, ring):
    """num / prod(pi_j^d_j) with num of degree < 5 and d_j <= 2."""
    dens = draw(st.lists(st.integers(0, 2), min_size=ring.s, max_size=ring.s))
    return ring.make(draw(polys(ring.field)), dens)


@st.composite
def cover_elements(draw, chart, max_terms=None):
    """Elements with at most max_terms terms, n by default."""
    ring = chart.ring
    weights = draw(
        st.lists(st.integers(0, chart.n - 1), unique=True, max_size=max_terms or chart.n)
    )
    return CoverElem(chart, {j: draw(ring_elements(ring)) for j in weights})


def assert_same(x, y):
    assert (x.const, x.core.coeffs, x.exps) == (y.const, y.core.coeffs, y.exps)


def assert_no_zero_term(x):
    assert all(a.const for a in x.terms.values())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(polys(f), polys(f))))
def test_poly_sum_matches_the_generic_sum(pair):
    f, g = pair
    assert (f + g).coeffs == poly_add(f, g).coeffs
    assert (f - g).coeffs == poly_add(f, -g).coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(ring_elements(r), ring_elements(r))))
def test_ring_sum_matches_the_generic_sum(pair):
    x, y = pair
    assert_same(x + y, ring_sum(x, y))
    assert_same(x - y, ring_sum(x, -y))
    assert_same(x + x, ring_sum(x, x))
    assert (x - x).is_zero()


@st.composite
def chart_and_elements(draw):
    chart = draw(st.sampled_from(CATALOG_CHARTS))
    return (
        chart,
        draw(cover_elements(chart)),
        draw(cover_elements(chart)),
        draw(cover_elements(chart, max_terms=1)),
        draw(ring_elements(chart.ring)),
    )


@settings(max_examples=200, deadline=None)
@given(chart_and_elements())
def test_cover_arithmetic_matches_the_generic_forms_and_keeps_no_zero_term(case):
    chart, x, y, term, c = case
    for out, reference in [
        (x * y, cover_product(x, y)),
        (x * term, cover_product(x, term)),
        (term * x, cover_product(term, x)),
        (x * chart.v, cover_product(x, chart.v)),
        (x - y, cover_difference(x, y)),
        (x - x, chart.zero),
        (-x, cover_difference(chart.zero, x)),
        (x.scale(c), cover_product(x, chart.from_ring(c))),
    ]:
        assert_no_zero_term(out)
        assert out.terms.keys() == reference.terms.keys()
        for j, a in out.terms.items():
            assert_same(a, reference.terms[j])
