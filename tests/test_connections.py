"""Connection layer: Leibniz, flatness, gluing, degeneration, class triviality."""

import random

import pytest
from fixtures import FIXTURES, coprime, twochart

from taucover import connections, forms, pidmod
from taucover.covers import ChartedScheme, Cover, TorsionBundle
from taucover.connections import (
    ClassicalConnection,
    TauConnection,
    cech_class,
    classical_connection,
    coboundary_class,
    coprime_degeneration_check,
    is_trivial_class,
)
from taucover.errors import NotCoprime, TauCoverError
from taucover.fields import FqField
from taucover.partialforms import dga_check
from taucover.rings import ChartRing


def build(name):
    return Cover(FIXTURES[name]())


def coprime_two_chart_bundle():
    field = FqField(3)
    chart0 = ChartRing(field, ["t"])
    chart1 = ChartRing(field, ["t+1"])
    scheme = ChartedScheme(field, [chart0, chart1])
    overlap = scheme.overlap(0, 1)
    g = {(0, 1): overlap.parse("(t+1)/t")}
    u = [chart0.parse("t^2"), chart1.parse("(t+1)^2")]
    return TorsionBundle(scheme, 2, g, u)


def quartic_coprime_bundle():
    field = FqField(3)
    ring = ChartRing(field, ["t"])
    scheme = ChartedScheme(field, [ring])
    return TorsionBundle(scheme, 4, {}, [ring.parse("t")])


# -- the tau-connection


def test_connection_coords_and_form():
    conn = TauConnection(build("GM_P2"))
    ring = conn.charts[0].ring
    assert conn.connection_coords(0) == (ring.zero, -ring.one)
    assert str(conn.connection_form(0)) == "(1/t*v)*dv"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_leibniz_on_random_sections(name):
    cover = build(name)
    report = TauConnection(cover).leibniz_check(seed=5, samples=30)
    assert report["passed"], (name, report)
    p = cover.bundle.scheme.field.p
    for chart_report in report["charts"]:
        assert chart_report["stays_partial"]
        assert chart_report["matches_formula"]
        if cover.bundle.n % p == 0:
            assert chart_report["matches_classical"] is None
        else:
            assert chart_report["matches_classical"] is True


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_wrong_connection_form_fails_the_certificate_without_samples(name, monkeypatch):
    def no_root_term(self, index):
        ring = self.charts[index].ring
        return (ring.zero, ring.zero)  # drops -dv/v, wrong at lambda = 1

    monkeypatch.setattr(TauConnection, "connection_coords", no_root_term)
    report = TauConnection(build(name)).leibniz_check(samples=0)
    assert not report["passed"], name
    for chart_report in report["charts"]:
        assert chart_report["stays_partial"]
        assert not chart_report["matches_formula"]


def _break_product_rule_above_degree_one(monkeypatch):
    """Make d add each coefficient whose numerator has degree 2 or more.

    The mutant d is right on every generator the certificates use, so only a
    sampled section of higher degree can expose its broken product rule.
    """
    partial_t, partial_v = forms._partial_t, forms._partial_v

    def extra(x, shift):
        ring = x.chart.ring
        out = [ring.zero] * x.chart.n
        for i, c in enumerate(x.coeffs):
            if c.num.deg >= 2 and 0 <= i - shift:
                out[i - shift] = c
        return x.chart.from_coeffs(out)

    monkeypatch.setattr(forms, "_partial_t", lambda x: partial_t(x) + extra(x, 0))
    monkeypatch.setattr(forms, "_partial_v", lambda x: partial_v(x) + extra(x, 1))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_product_rule_mutant_of_d_fails_the_leibniz_sample_guard(name, monkeypatch):
    _break_product_rule_above_degree_one(monkeypatch)
    report = TauConnection(build(name)).leibniz_check()
    assert not report["passed"], name
    assert not all(c["matches_formula"] for c in report["charts"])


@pytest.mark.parametrize("name", ["DEGENERATE", "ZEROTORSION"])
def test_product_rule_mutant_of_d_fails_the_dga_sample_guard(name, monkeypatch):
    # the other fixtures have u' a unit, so their two-forms are all zero
    _break_product_rule_above_degree_one(monkeypatch)
    assert not dga_check(build(name))["passed"], name


def test_leibniz_side_that_leaves_the_partial_forms_fails_the_formula(monkeypatch):
    # t*dv is not partial on GM_P2, so v*d(lambda/v) leaves the partial
    # forms, while the formula side lies in them: the two cannot match
    exact = connections.d_function_times_v

    def plus_t_dv(chart, elem):
        form = exact(chart, elem)
        return forms.CoverOneForm(chart, form.ct, form.cv + chart.from_ring(chart.ring.t))

    monkeypatch.setattr(connections, "d_function_times_v", plus_t_dv)
    report = TauConnection(build("GM_P2")).leibniz_check()
    assert not report["passed"]
    (chart_report,) = report["charts"]
    assert chart_report["stays_partial"] is False
    assert chart_report["matches_formula"] is False


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_flatness(name):
    report = TauConnection(build(name)).flatness_check()
    assert report["passed"], (name, report)
    for chart_report in report["charts"]:
        assert chart_report["d_omega_zero"]
        assert chart_report["omega_wedge_omega_zero"]


def test_cocycle_rule_across_charts():
    report = TauConnection(Cover(twochart())).cocycle_check()
    assert report["passed"], report
    assert report["overlaps"][0]["overlap"] == [0, 1]


def test_cocycle_rule_on_coprime_two_chart_bundle():
    report = TauConnection(Cover(coprime_two_chart_bundle())).cocycle_check()
    assert report["passed"], report


def test_full_connection_report():
    report = TauConnection(build("GM_P3")).report(samples=20)
    assert report["passed"]
    assert set(report) == {"leibniz", "flatness", "cocycle", "passed"}


# -- the classical averaged connection


def test_classical_connection_requires_invertible_order():
    with pytest.raises(NotCoprime):
        classical_connection(FIXTURES["GM_P2"]())


def test_classical_eta_pinned():
    conn = classical_connection(coprime())
    ring = conn.bundle.scheme.charts[0]
    assert conn.eta[0] == ring.parse("2/t")


def test_classical_delta_condition_two_charts():
    conn = classical_connection(coprime_two_chart_bundle())
    chart0 = conn.bundle.scheme.charts[0]
    chart1 = conn.bundle.scheme.charts[1]
    assert conn.eta[0] == chart0.parse("1/t")
    assert conn.eta[1] == chart1.parse("1/(t+1)")
    report = conn.report()
    assert report["passed"], report
    assert report["delta_condition"]["overlaps"][0]["passed"]
    assert report["curvature"]["passed"]


# -- degeneration when the order is invertible


def test_coprime_degeneration_single_chart():
    report = coprime_degeneration_check(Cover(coprime()))
    assert report["passed"], report
    chart = report["charts"][0]
    assert chart["partial_equals_pullback"]
    assert chart["root_form_equals_classical"]
    assert chart["connection_coords_agree"]


def test_coprime_degeneration_quartic():
    report = coprime_degeneration_check(Cover(quartic_coprime_bundle()))
    assert report["passed"], report


def test_coprime_degeneration_two_charts():
    report = coprime_degeneration_check(Cover(coprime_two_chart_bundle()))
    assert report["passed"], report
    assert report["delta_condition"]["passed"]


def test_coprime_degeneration_rejects_shared_characteristic():
    with pytest.raises(NotCoprime):
        coprime_degeneration_check(build("MIXED"))


# -- the obstruction class


def test_cech_class_two_charts():
    report = cech_class(Cover(twochart()))
    assert report["passed"], report
    assert list(report["transitions"]) == ["(0,1)"]
    assert all(c["closed"] for c in report["charts"])


NONTRIVIAL = ["DEGENERATE", "GM_P2", "GM_P3", "MIXED", "TWOCHART", "ZEROTORSION"]


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_canonical_class_obstructed_by_functional(name):
    verdict = is_trivial_class(build(name))
    assert not verdict["trivial"]
    assert verdict["obstruction"] == "s-functional"
    assert verdict["details"]["s_value"] == "1"
    assert verdict["s_kills_coboundaries"] is True
    assert verdict["witness"] is None


def test_canonical_class_trivial_for_coprime():
    verdict = is_trivial_class(Cover(coprime()))
    assert verdict["trivial"]
    assert verdict["obstruction"] is None
    assert verdict["witness"] == {"units": ["t^2"]}
    assert verdict["witness_verified"]


def test_canonical_class_trivial_for_coprime_two_charts():
    verdict = is_trivial_class(Cover(coprime_two_chart_bundle()))
    assert verdict["trivial"], verdict
    units = verdict["witness"]["units"]
    assert units == ["t", "t + 1"]


def test_degenerate_coprime_canonical_class_vanishes():
    # v^2 = t^3 in characteristic 3: the relation 2v dv = d(t^3) = 0 kills
    # v dv, so dv/v is the zero class and the witness is the constant unit.
    field = FqField(3)
    ring = ChartRing(field, ["t"])
    scheme = ChartedScheme(field, [ring])
    bundle = TorsionBundle(scheme, 2, {}, [ring.parse("t^3")])
    verdict = is_trivial_class(Cover(bundle))
    assert verdict["trivial"]
    assert verdict["witness"] == {"units": ["1"]}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_coboundaries_round_trip(name):
    cover = build(name)
    scheme = cover.bundle.scheme
    rng = random.Random(hash(name) % 10**6)
    for _ in range(8):
        units = [scheme.charts[i].random_unit(rng) for i in range(len(scheme.charts))]
        cochain = coboundary_class(cover, units)
        verdict = is_trivial_class(cover, cochain)
        assert verdict["trivial"], (name, [str(u) for u in units], verdict)
        assert verdict["witness_verified"]


def test_round_trip_witness_satisfies_both_identities():
    cover = Cover(twochart())
    scheme = cover.bundle.scheme
    rng = random.Random(9)
    units = [scheme.charts[i].random_unit(rng) for i in range(2)]
    cochain = coboundary_class(cover, units)
    verdict = is_trivial_class(cover, cochain)
    found = [scheme.charts[i].parse(s) for i, s in enumerate(verdict["witness"]["units"])]
    li = scheme.restrict(0, found[0], 1)
    lj = scheme.restrict(1, found[1], 0)
    assert lj * li.inv() == cochain["transitions"][(0, 1)]
    for i in (0, 1):
        assert scheme.charts[i].dlog(found[i]) == scheme.charts[i].dlog(units[i])


def test_dlog_image_obstruction():
    cover = Cover(coprime())
    ring = cover.bundle.scheme.charts[0]
    cochain = {
        "transitions": {},
        "chart_coords": [(ring.parse("1/t^2"), ring.zero)],
    }
    verdict = is_trivial_class(cover, cochain)
    assert not verdict["trivial"]
    assert verdict["obstruction"] == "dlog-image"
    assert verdict["details"]["chart"] == 0


def test_transition_lattice_obstruction():
    bundle = coprime_two_chart_bundle()
    cover = Cover(bundle)
    scheme = bundle.scheme
    overlap = scheme.overlap(0, 1)
    cochain = {
        "transitions": {(0, 1): overlap.parse("t+1")},
        "chart_coords": [
            (scheme.charts[0].zero, scheme.charts[0].zero),
            (scheme.charts[1].zero, scheme.charts[1].zero),
        ],
    }
    verdict = is_trivial_class(cover, cochain)
    assert not verdict["trivial"]
    assert verdict["obstruction"] == "transitions"


def test_zero_cochain_is_trivial():
    cover = Cover(coprime_two_chart_bundle())
    scheme = cover.bundle.scheme
    overlap = scheme.overlap(0, 1)
    cochain = {
        "transitions": {(0, 1): overlap.one},
        "chart_coords": [
            (scheme.charts[0].zero, scheme.charts[0].zero),
            (scheme.charts[1].zero, scheme.charts[1].zero),
        ],
    }
    verdict = is_trivial_class(cover, cochain)
    assert verdict["trivial"]


# -- root absorption against its closed form

ABSORPTION_PRIMES = {
    (2, 1): ["t + 1", "t^2 + t + 1", "t^3 + t + 1"],
    (2, 2): ["t + 1", "t + a", "t^3 + t + 1"],
    (3, 1): ["t + 1", "t + 2", "t^2 + 1"],
    (5, 1): ["t + 1", "t + 3", "t^2 + 2"],
}


def absorption_charts():
    """(chart, u, n) over the catalog and generated one-chart covers.

    Generated units are c*t*h^n, the benchmark's shape, with p | n and
    without, and c*t^i*pi1^j*pi2^k with small exponents, whose u' can have a
    nonunit core.
    """
    rng = random.Random(11)
    covers = [build(name) for name in sorted(FIXTURES)]
    for (p, e), pool in sorted(ABSORPTION_PRIMES.items()):
        field = FqField(p, e)
        for n in (p, 2 * p, p + 1):
            for root_shape in (True, False):
                for _ in range(3):
                    primes = rng.sample(pool, 2)
                    if root_shape:
                        exps = [1] + [n * rng.randint(0, 2) for _ in primes]
                    else:
                        exps = [rng.randint(1, 3) for _ in range(3)]
                    ring = ChartRing(field, ["t", *primes])
                    factors = "*".join(
                        f"({pi})^{k}" for pi, k in zip(["t", *primes], exps)
                    )
                    u = ring.parse(f"{rng.randrange(1, p)}*{factors}")
                    scheme = ChartedScheme(field, [ring])
                    covers.append(Cover(TorsionBundle(scheme, n, {}, [u])))
    for cover in covers:
        for pfc in cover.partial_forms:
            yield pfc, cover.bundle.u[pfc.index], cover.bundle.n


def test_root_absorption_matches_the_closed_form():
    # The partial one-forms are A*dt + A*dv/v modulo the one relation
    # (u', -n*u), since n*u*dv/v = n*v^(n-1)*dv = u'*dt.  So (a, b) becomes
    # (c, 0) iff p does not divide n or b = 0, with c = a + b*u'/(n*u) when
    # p does not divide n, and c is unique modulo I = (u') when p | n and
    # u' != 0, modulo I = 0 otherwise.
    rng = random.Random(12)
    cases = 0
    for pfc, u, n in absorption_charts():
        ring = pfc.ring
        divisible = n % ring.field.p == 0
        du = ring.derive(u)
        expected_modulus = ring.core(du) if divisible and not du.is_zero() else None
        a = ring.random_element(rng, max_deg=3, max_den=1)
        b = ring.random_element(rng, max_deg=2, max_den=1)
        for coords in [(a, ring.zero), (a, b), (ring.zero, ring.one), (b, a)]:
            cases += 1
            reduction = connections._absorb_root_component(pfc, coords)
            x, y = coords
            if divisible and not y.is_zero():
                assert reduction is None, (ring, str(u), n, coords)
                continue
            c, modulus = reduction
            assert modulus == expected_modulus, (ring, str(u), n)
            if not divisible:
                assert c == x + y * du / (u * ring.from_int(n)), (ring, str(u), n)
            elif modulus is None:
                assert c == x
            else:
                assert modulus.divides((c - x).num), (ring, str(u), n, str(c))
    assert cases >= 300


def test_nonzero_s_after_sigma_turns_s_kills_coboundaries_false():
    cover = build("GM_P2")
    assert is_trivial_class(cover)["s_kills_coboundaries"] is True
    pfc = cover.partial_forms[0]
    ring = pfc.ring
    # a mutant pullback that also hits dv/v, so s o sigma = 1
    pfc.sigma1_map = pidmod.ModuleMap(
        pfc.base_one_forms,
        pfc.presentation1,
        pidmod.PolyMatrix(ring, [[ring.one], [ring.one]]),
        "pullback",
    )
    verdict = is_trivial_class(cover)
    assert verdict["obstruction"] == "s-functional"
    assert verdict["s_kills_coboundaries"] is False


def test_cochain_that_passes_s_outside_the_pullback_image_raises(monkeypatch):
    cover = build("GM_P2")
    ring = cover.partial_forms[0].ring
    cochain = coboundary_class(cover, [ring.t])
    assert is_trivial_class(cover, cochain)["trivial"] is True
    # the absorption cannot fail on a real chart, so break the helper
    monkeypatch.setattr(connections, "_absorb_root_component", lambda pfc, coords: None)
    with pytest.raises(TauCoverError, match="outside the image of the pullback sigma"):
        is_trivial_class(cover, cochain)


def test_reports_are_json_serializable():
    import json

    cover = Cover(twochart())
    conn = TauConnection(cover)
    for payload in (
        conn.report(samples=4),
        cech_class(cover),
        is_trivial_class(cover),
        ClassicalConnection(coprime_two_chart_bundle()).report(),
        coprime_degeneration_check(Cover(coprime())),
    ):
        json.dumps(payload, sort_keys=True)


# -- cost that does not grow with the order


def one_chart_f2_bundle(n):
    field = FqField(2)
    ring = ChartRing(field, ["t", "t^2+t+1"])
    return TorsionBundle(
        ChartedScheme(field, [ring]), n, {}, [ring.parse(f"t*(t^2+t+1)^{n}")]
    )


def test_class_decisions_reduce_blocks_whose_size_does_not_grow_with_n(monkeypatch):
    # Each Smith normal form is one weight block of a chart module, so the
    # largest matrix reduced is the same at n = 8 and n = 32.  No clock.
    largest = {}
    reduce_block = pidmod.smith_normal_form
    for n in (8, 32):
        dims = []

        def recording(matrix):
            dims.append(max(matrix.nrows, matrix.ncols))
            return reduce_block(matrix)

        monkeypatch.setattr(pidmod, "smith_normal_form", recording)
        cover = Cover(one_chart_f2_bundle(n))
        canonical = is_trivial_class(cover)
        assert canonical["trivial"] is False
        assert canonical["obstruction"] == "s-functional"
        assert canonical["details"]["s_value"] == "1"
        ring = cover.bundle.scheme.charts[0]
        coboundary = is_trivial_class(
            cover, coboundary_class(cover, [ring.parse("t^2/(t^2+t+1)")])
        )
        assert coboundary["trivial"] is True
        assert coboundary["witness_verified"] is True
        largest[n] = max(dims)
    assert largest[8] == largest[32]
