"""Form tests: base-chart calculus, Cartier operator, cover form modules."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from fixtures import FIXTURES, degenerate, twochart, zerotorsion
from oracle import cover_elem, dense_coeffs, graded_cut

from taucover import pidmod
from taucover.covers import Cover, CoverChart, ChartedScheme, TorsionBundle
from taucover.errors import CertificateFailure, GluingFailure, RingMismatch
from taucover.fields import FqField
from taucover.forms import (
    CoverOneForm,
    cartier,
    d_function,
    d_one_form,
    dv_over_v,
    omega_l,
    one_form_str,
    one_forms_module,
    pullback_one_form,
    rescale_root,
    transport_one_form,
    two_form_parts,
    two_forms_module,
    wedge_one_one,
)
from taucover.pidmod import PolyMatrix
from taucover.polys import Poly
from taucover.rings import ChartRing

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)
A2 = ChartRing(F2, ["t"])
A3 = ChartRing(F3, ["t"])
A5 = ChartRing(F5, ["t", "t+4"])


# -- base one-forms, held as their dt coefficients


def test_one_form_str():
    assert one_form_str(A3.parse("1/t")) == "(1/t)*dt"
    assert one_form_str(A3.one) == "dt"
    assert one_form_str(A3.zero) == "0"
    assert one_form_str(A3.t) == "t*dt"


# -- Cartier operator: pinned values


def test_cartier_fixes_dlog_t():
    for ring in (A2, A5):
        form = ring.parse("1/t")
        assert cartier(form) == form


def test_cartier_of_t_dt_char2():
    assert cartier(A2.t) == A2.one


def test_cartier_kills_dt():
    for ring in (A2, A3, A5):
        assert cartier(ring.one).is_zero()


def test_cartier_uses_inverse_frobenius():
    F4 = FqField(2, 2)
    A4 = ChartRing(F4, ["t"])
    form = A4.parse("a*t")
    assert cartier(form) == A4.parse("a+1")


# -- Cartier operator: identities


def _is_exact_derivative(poly: Poly) -> bool:
    """f = g' iff f has no coefficients in degrees = p-1 mod p."""
    p = poly.field.p
    return all(
        not c for k, c in enumerate(poly.coeffs) if k % p == p - 1
    )


@pytest.mark.parametrize("ring", [A2, A3, A5], ids=["F2", "F3", "F5"])
def test_cartier_defect_is_exact_derivative(ring):
    rng = random.Random(31)
    p = ring.field.p
    for _ in range(30):
        f = Poly(ring.field, ring.field.random_codes(rng, rng.randrange(1, 8)))
        c = cartier(ring.make(f))
        assert not c.dens or all(m == 0 for m in c.dens)
        defect = f - c.num ** p * Poly.x(ring.field) ** (p - 1)
        assert _is_exact_derivative(defect)


@pytest.mark.parametrize("ring", [A2, A3, A5], ids=["F2", "F3", "F5"])
def test_cartier_additive_and_semilinear(ring):
    rng = random.Random(37)
    for _ in range(20):
        w1 = ring.random_element(rng, max_deg=3, max_den=1)
        w2 = ring.random_element(rng, max_deg=3, max_den=1)
        assert cartier(w1 + w2) == cartier(w1) + cartier(w2)
        h = ring.random_element(rng, max_deg=2, max_den=1)
        p = ring.field.p
        assert cartier(w1 * h**p) == cartier(w1) * h


@pytest.mark.parametrize("ring", [A2, A3, A5], ids=["F2", "F3", "F5"])
def test_cartier_fixes_dlog_of_units(ring):
    rng = random.Random(41)
    for _ in range(20):
        u = ring.random_unit(rng, max_exp=3)
        form = ring.dlog(u)
        assert cartier(form) == form


# -- the bundle's logarithmic form


def test_omega_l_glues_on_two_charts():
    bundle = twochart()
    omega = omega_l(bundle)
    assert omega is bundle.dlog_u
    assert not bundle.is_degenerate()
    assert omega[0] == omega[0].ring.parse("1/t")
    assert omega[1] == omega[1].ring.parse("1/t")


def test_omega_l_degenerate_flag():
    bundle = degenerate()
    omega = omega_l(bundle)
    assert bundle.is_degenerate()
    assert omega[0].is_zero()


def test_omega_l_gluing_failure():
    # order 1 bundle with u1 = u0 * t^3: dlog u1 = 0 in char 3, dlog u0 = 1/t
    field = FqField(3)
    chart = ChartRing(field, ["t"])
    chart_b = ChartRing(field, ["t"])
    scheme = ChartedScheme(field, [chart, chart_b])
    g = scheme.overlap(0, 1).parse("t^2")
    bundle = TorsionBundle(scheme, 1, {(0, 1): g}, [chart.t, chart_b.parse("t^3")])
    assert bundle.validate()["valid"]
    with pytest.raises(GluingFailure, match=r"on overlap \(0, 1\): 1/t vs 0$"):
        omega_l(bundle)


def test_cartier_fixes_omega_l_on_fixtures():
    for name, make in FIXTURES.items():
        bundle = make()
        for form in omega_l(bundle):
            assert cartier(form) == form, name


# -- cover form modules: pinned presentations


def dense_one_form_relations(chart):
    """Column j is v^j * (n v^{n-1} dv - u' dt), reduced by v^n = u."""
    ring, n = chart.ring, chart.n
    du, nn = ring.derive(chart.u), ring.from_int(n)
    cols = []
    for j in range(n):
        col = [ring.zero] * (2 * n)
        col[j] = -du
        col[n + (j - 1) % n] = nn if j == 0 else nn * chart.u
        cols.append(col)
    return PolyMatrix.from_columns(ring, cols, 2 * n)


def dense_two_form_relations(chart):
    """Columns u' v^j dt^dv, then n v^{n+j-1} dt^dv reduced by v^n = u."""
    ring, n = chart.ring, chart.n
    du, nn = ring.derive(chart.u), ring.from_int(n)
    cols = []
    for j in range(n):
        col = [ring.zero] * n
        col[j] = du
        cols.append(col)
    for j in range(n):
        col = [ring.zero] * n
        col[(j - 1) % n] = nn if j == 0 else nn * chart.u
        cols.append(col)
    return PolyMatrix.from_columns(ring, cols, n)


def one_form(chart, vec):
    """The one-form with coefficients vec on v^j dt, then on v^j dv."""
    n = chart.n
    return CoverOneForm(chart, cover_elem(chart, vec[:n]), cover_elem(chart, vec[n:]))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_form_modules_are_the_weight_blocks_of_the_dense_presentation(name):
    for chart in Cover(FIXTURES[name]()).charts:
        n = chart.n
        shift = [(j + 1) % n for j in range(n)]
        basis1 = [one_form(chart, [int(i == k) for i in range(2 * n)]) for k in range(2 * n)]
        basis2 = [chart.gen_power(j) for j in range(n)]
        for module, dense, weights, col_weights, basis, parts in (
            (one_forms_module(chart), dense_one_form_relations(chart),
             list(range(n)) + shift, list(range(n)), basis1, CoverOneForm.parts),
            (two_forms_module(chart), dense_two_form_relations(chart),
             shift, shift + list(range(n)), basis2, two_form_parts),
        ):
            # each dense generator's parts lie in its weight alone
            assert [list(parts(form)) for form in basis] == [[w] for w in weights]
            # the dense matrix is block diagonal for these weights, weights
            # 1..n-1 with one block (the cut asserts both), and its two blocks
            # are the module's
            cut = graded_cut(dense, weights, col_weights, n)
            assert (cut.zero.relations, cut.rest.relations) == (
                module.zero.relations, module.rest.relations
            )


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_form_modules_reduce_each_distinct_block_matrix_once(name, monkeypatch):
    calls = []
    snf = pidmod.smith_normal_form
    monkeypatch.setattr(pidmod, "smith_normal_form", lambda M: calls.append(1) or snf(M))
    for chart in Cover(FIXTURES[name]()).charts:
        for module in (one_forms_module(chart), two_forms_module(chart)):
            calls.clear()
            assert module.rank <= module.n_gens
            assert all(c.is_monic() for c in module.torsion)
            for w in range(chart.n):
                module.is_zero({w: (chart.ring.one,) * module.block(w).n_gens})
            blocks = {id(module.block(w)) for w in range(chart.n)}
            # when p | n, or at n = 1, one block module serves every weight
            shared = chart.n == 1 or chart.n % chart.ring.field.p == 0
            assert len(calls) == len(blocks) == (1 if shared else 2)


def test_one_forms_module_gm_p2():
    cover = Cover(FIXTURES["GM_P2"]())
    chart = cover.charts[0]
    mod = one_forms_module(chart)
    assert mod.n_gens == 4
    # p | n, so one block module serves every weight
    assert mod.rest is mod.zero
    assert (mod.n, mod.rest.weights) == (chart.n, range(chart.n))
    assert mod.rank == 2
    assert mod.torsion == []
    # both dt generators die; the dv block is free
    assert mod.is_zero(one_form(chart, [1, 0, 0, 0]).parts())
    assert mod.is_zero(one_form(chart, [0, 1, 0, 0]).parts())
    assert not mod.is_zero(one_form(chart, [0, 0, 1, 0]).parts())


@pytest.mark.parametrize(
    "name, weights",
    [("MIXED", "weights 0..5"), ("GM_P2", "weights 0..1"), ("COPRIME", "weight 1")],
)
def test_a_failed_certificate_of_the_shared_block_names_its_weights(name, weights, monkeypatch):
    class Corrupted(pidmod.SNFResult):
        __slots__ = ()

        def __init__(self, matrix, U, U_inv, D, V, V_inv, diag):
            wrong = PolyMatrix.zeros(matrix.ring, U_inv.nrows, U_inv.ncols)
            super().__init__(matrix, U, wrong, D, V, V_inv, diag)

    chart = Cover(FIXTURES[name]()).charts[0]
    module = one_forms_module(chart)
    # p | n in MIXED and GM_P2, so their shared block is every weight's
    shared = chart.n % chart.ring.field.p == 0
    assert module.rest.weights == range(0 if shared else 1, chart.n)
    monkeypatch.setattr(pidmod, "SNFResult", Corrupted)
    one = chart.ring.one
    with pytest.raises(CertificateFailure) as info:
        module.is_zero({chart.n // 2: (one, one)})
    assert str(info.value).endswith(f", in the block of {weights}")


def test_one_forms_module_zerotorsion():
    cover = Cover(zerotorsion())
    mod = one_forms_module(cover.charts[0])
    assert mod.n_gens == 10
    assert mod.rank == 5
    assert [str(c) for c in mod.torsion] == ["t + 2"] * 5


def test_one_forms_module_coprime():
    cover = Cover(FIXTURES["COPRIME"]())
    chart = cover.charts[0]
    mod = one_forms_module(chart)
    assert mod.rank == 2
    assert mod.torsion == []
    ring = chart.ring
    # relation columns: 2 e_{dv,1} - e_{dt,0} and 2t e_{dv,0} - e_{dt,1}
    vec = [ring.from_int(-1), ring.zero, ring.zero, ring.from_int(2)]
    assert mod.is_zero(one_form(chart, vec).parts())
    vec = [ring.zero, ring.from_int(-1), ring.parse("2*t"), ring.zero]
    assert mod.is_zero(one_form(chart, vec).parts())


def test_one_forms_module_mixed_kills_dt_block():
    cover = Cover(FIXTURES["MIXED"]())
    chart = cover.charts[0]
    mod = one_forms_module(chart)
    assert mod.n_gens == 12
    assert mod.rank == 6
    for j in range(6):
        vec = [chart.ring.zero] * 12
        vec[j] = chart.ring.one
        assert mod.is_zero(one_form(chart, vec).parts())


def test_one_forms_module_degenerate_is_free():
    cover = Cover(degenerate())
    chart = cover.charts[0]
    mod = one_forms_module(chart)
    assert mod.rank == 4
    assert mod.torsion == []
    assert not mod.is_zero(one_form(chart, [1, 0, 0, 0]).parts())


def test_two_forms_module_vanishes_for_gm_p2_and_coprime():
    for name in ("GM_P2", "COPRIME"):
        cover = Cover(FIXTURES[name]())
        mod = two_forms_module(cover.charts[0])
        assert mod.rank == 0 and not mod.torsion, name


def test_two_forms_module_zerotorsion_pure_torsion():
    cover = Cover(zerotorsion())
    mod = two_forms_module(cover.charts[0])
    assert mod.rank == 0
    assert [str(c) for c in mod.torsion] == ["t + 2"] * 5


# -- exterior derivative and wedge on the cover


def test_d_of_relation_is_consistent():
    for name, make in FIXTURES.items():
        cover = Cover(make())
        chart = cover.charts[0]
        mod = one_forms_module(chart)
        # d(v^n) computed two ways: as d(u*1) and as n v^{n-1} dv
        left = d_function(chart.from_ring(chart.u))
        right = d_function(chart.gen_power(1)) if chart.n == 1 else None
        n_form = CoverOneForm(
            chart,
            chart.zero,
            chart.gen_power(chart.n - 1).scale(chart.ring.from_int(chart.n)),
        )
        assert mod.is_zero((left - n_form).parts()), name


def test_d_function_leibniz_random():
    # products reduce v^n to u, so Leibniz holds as classes, not as tuples
    rng = random.Random(43)
    for name in ("MIXED", "GM_P3", "ZEROTORSION"):
        cover = Cover(FIXTURES[name]())
        chart = cover.charts[0]
        mod = one_forms_module(chart)
        for _ in range(15):
            f = chart.random_element(rng, max_deg=1)
            g = chart.random_element(rng, max_deg=1)
            lhs = d_function(f * g)
            rhs = d_function(f).scale(g) + d_function(g).scale(f)
            assert mod.is_zero((lhs - rhs).parts()), name


CATALOG_CHARTS = [
    (name, chart)
    for name in sorted(FIXTURES)
    for chart in Cover(FIXTURES[name]()).charts
]


@st.composite
def cover_elements(draw, chart):
    """Elements of a cover chart with coefficients of degree <= 3 over pi^<=2."""
    ring = chart.ring
    coeffs = []
    for _ in range(chart.n):
        codes = draw(st.lists(st.integers(0, ring.field.q - 1), max_size=4))
        dens = draw(st.lists(st.integers(0, 2), min_size=ring.s, max_size=ring.s))
        coeffs.append(ring.make(Poly(ring.field, codes), dens))
    return cover_elem(chart, coeffs)


@st.composite
def chart_and_pair(draw):
    name, chart = draw(st.sampled_from(CATALOG_CHARTS))
    return name, chart, draw(cover_elements(chart)), draw(cover_elements(chart))


@settings(max_examples=200, deadline=None)
@given(chart_and_pair())
def test_d_function_product_rule_on_every_catalog_chart(case):
    # the generator certificates of the connection and dga laws rest on this
    name, chart, f, g = case
    lhs = d_function(f * g)
    rhs = d_function(f).scale(g) + d_function(g).scale(f)
    assert one_forms_module(chart).is_zero((lhs - rhs).parts()), name


def test_d_squared_is_zero_on_representatives():
    rng = random.Random(47)
    for name in ("GM_P3", "ZEROTORSION", "TWOCHART"):
        cover = Cover(FIXTURES[name]())
        for chart in cover.charts:
            for _ in range(10):
                f = chart.random_element(rng, max_deg=2)
                assert d_one_form(d_function(f)).is_zero()


@st.composite
def chart_and_two_one_forms(draw):
    name, chart = draw(st.sampled_from(CATALOG_CHARTS))
    a = CoverOneForm(chart, draw(cover_elements(chart)), draw(cover_elements(chart)))
    b = CoverOneForm(chart, draw(cover_elements(chart)), draw(cover_elements(chart)))
    return name, a, b


@settings(max_examples=200, deadline=None)
@given(chart_and_two_one_forms())
def test_wedge_antisymmetry_random(case):
    # with the product rule, this makes d o d a derivation, which dga_check
    # decides on the algebra generators t and v
    name, a, b = case
    assert wedge_one_one(a, b) == -wedge_one_one(b, a), name
    assert wedge_one_one(a, a).is_zero(), name


def test_pullback_commutes_with_d():
    rng = random.Random(59)
    cover = Cover(FIXTURES["ZEROTORSION"]())
    chart = cover.charts[0]
    ring = chart.ring
    for _ in range(15):
        f = ring.random_element(rng, max_deg=2, max_den=1)
        lhs = pullback_one_form(chart, ring.derive(f))
        rhs = d_function(chart.from_ring(f))
        assert lhs == rhs


def test_pullback_rejects_a_coefficient_of_another_chart_ring():
    chart = Cover(FIXTURES["ZEROTORSION"]()).charts[0]
    other = ChartRing(chart.ring.field, ["t"])
    with pytest.raises(RingMismatch):
        pullback_one_form(chart, other.t)


def test_dv_over_v_times_v_is_dv():
    for name, make in FIXTURES.items():
        cover = Cover(make())
        chart = cover.charts[0]
        form = dv_over_v(chart).scale(chart.v)
        assert form == CoverOneForm(chart, chart.zero, chart.one), name


def test_transport_one_form_keeps_dt():
    cover = Cover(twochart())
    chart0 = cover.charts[0]
    target = cover.overlap_cover(0, 1)
    form = CoverOneForm(chart0, chart0.one, chart0.zero)
    moved = transport_one_form(cover, 0, 1, form)
    assert moved == CoverOneForm(target, target.one, target.zero)


def test_transport_one_form_matches_d_of_transport():
    rng = random.Random(61)
    cover = Cover(twochart())
    chart0 = cover.charts[0]
    for _ in range(10):
        f = chart0.random_element(rng, max_deg=1)
        lhs = transport_one_form(cover, 0, 1, d_function(f))
        rhs = d_function(cover.transport(0, 1, f))
        assert lhs == rhs


def test_rescale_root_commutes_with_d_and_inverts():
    # The root change v' -> w*v from the chart of u*w^n onto the chart of u.
    rng = random.Random(71)
    for name, make in FIXTURES.items():
        for chart in Cover(make()).charts:
            ring = chart.ring
            for _ in range(10):
                w = ring.random_unit(rng)
                source = CoverChart(ring, chart.n, chart.u * w**chart.n)
                f = source.random_element(rng, max_deg=2)
                moved = rescale_root(chart, w, d_function(f))
                assert moved == d_function(chart.rescaled(f, w)), name
                form = CoverOneForm(
                    source,
                    source.random_element(rng, max_deg=2),
                    source.random_element(rng, max_deg=2),
                )
                back = rescale_root(source, w.inv(), rescale_root(chart, w, form))
                assert back == form, name


def test_parts_round_trip():
    cover = Cover(FIXTURES["GM_P3"]())
    chart = cover.charts[0]
    rng = random.Random(67)
    form = one_form(chart, [chart.ring.random_element(rng, max_deg=1) for _ in range(6)])
    assert CoverOneForm.from_parts(chart, form.parts()) == form
    two = wedge_one_one(form, dv_over_v(chart))
    parts = two_form_parts(two)
    zero = (chart.ring.zero,)
    coeffs = tuple(parts.get((j + 1) % chart.n, zero)[0] for j in range(chart.n))
    assert coeffs == dense_coeffs(two)


# the fields of the grading-certificate sweep, prime and not
SWEEP_FIELDS = [
    FqField(p, e) for p, e in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 8))
]


def random_prime(field, rng, chosen) -> Poly:
    """A monic irreducible of degree 1 or 2 that is not in chosen."""
    while True:
        degree = rng.randrange(1, 3)
        pi = Poly(field, [rng.randrange(field.q) for _ in range(degree)] + [1])
        if pi not in chosen and pi.is_irreducible():
            return pi


def test_random_form_modules_pass_the_grading_certificate():
    """A chart's two form blocks share one torsion chain, whatever the field,
    n and unit, so ``torsion`` never refuses one; degenerate units (p-th
    powers, du/u = 0) included."""
    rng = random.Random(33)
    with_torsion = 0
    for _ in range(300):
        field = rng.choice(SWEEP_FIELDS)
        primes = [Poly.x(field)]
        for _ in range(rng.randrange(3)):
            primes.append(random_prime(field, rng, primes))
        ring = ChartRing(field, primes)
        u = ring.random_unit(rng)
        if rng.random() < 0.3:
            u = u**field.p
        chart = CoverChart(ring, rng.choice([*range(1, 13), field.p**2]), u)
        for module in (one_forms_module(chart), two_forms_module(chart)):
            chain = module.torsion
            assert len(chain) % chart.n == 0
            with_torsion += bool(chain)
    assert with_torsion
