"""Cover-algebra tests: root charts, bundle validation, glue, factorization."""

import random

import pytest
from fixtures import FIXTURES, twochart
from oracle import cover_elem

from taucover.covers import (
    ChartedScheme,
    Cover,
    CoverChart,
    CoverElem,
    TorsionBundle,
    factor_cover,
    is_etale,
    split_order,
)
from taucover.errors import InvalidCocycle, MalformedInput, NotAUnit
from taucover.fields import FqField
from taucover.forms import CoverOneForm, _partial_v
from taucover.polys import Poly
from taucover.rings import ChartRing

F2 = FqField(2)
F3 = FqField(3)
A2 = ChartRing(F2, ["t"])
A3 = ChartRing(F3, ["t"])


# -- cover chart arithmetic


def test_root_power_reduces_to_unit():
    chart = CoverChart(A3, 2, A3.t)
    assert chart.v**2 == chart.from_ring(A3.t)
    assert chart.v**5 == chart.gen_power(5)


@pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (8, 4), (13, 6)])
def test_power_skips_the_squaring_after_the_top_bit(monkeypatch, k, products):
    chart = CoverChart(A3, 4, A3.parse("2*t"))
    x = chart.v + chart.one
    calls = []
    mul = CoverElem.__mul__
    monkeypatch.setattr(CoverElem, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    power = x**k
    monkeypatch.undo()
    expected = chart.one
    for _ in range(k):
        expected = expected * x
    assert power == expected
    assert len(calls) == products


@pytest.mark.parametrize("kind", ["Poly", "CoverElem"])
def test_every_power_takes_one_product_per_set_bit_and_one_squaring_per_lower_bit(
    monkeypatch, kind
):
    chart = CoverChart(A3, 4, A3.parse("2*t"))
    x = Poly.parse(F3, "t + 2") if kind == "Poly" else chart.v + chart.one
    one = Poly.one(F3) if kind == "Poly" else chart.one
    expected = [one]
    for _ in range(40):
        expected.append(expected[-1] * x)
    cls, calls = type(x), []
    mul = cls.__mul__
    monkeypatch.setattr(cls, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for k in range(41):
        calls.clear()
        assert x**k == expected[k]
        assert len(calls) == (k.bit_count() + k.bit_length() - 1 if k else 0), k


def test_root_is_invertible():
    chart = CoverChart(A3, 4, A3.parse("2*t"))
    assert chart.v * chart.v_inv() == chart.one
    assert chart.gen_power(-1) == chart.v_inv()


def test_cover_ring_axioms_random():
    rng = random.Random(3)
    chart = CoverChart(A3, 3, A3.t)
    for _ in range(25):
        x = chart.random_element(rng)
        y = chart.random_element(rng)
        z = chart.random_element(rng)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_degree_one_cover_is_the_base_ring():
    chart = CoverChart(A3, 1, A3.parse("t^2"))
    assert chart.v == chart.from_ring(A3.parse("t^2"))


def test_nonreduced_cover_keeps_root_invertible():
    # v^2 = 1 in characteristic 2 makes B non-reduced, but v stays a unit
    chart = CoverChart(A2, 2, A2.one)
    assert chart.v * chart.v == chart.one
    assert chart.v_inv() == chart.v
    nilpotent = chart.v - chart.one
    assert nilpotent * nilpotent == chart.zero


def test_cover_element_str():
    chart = CoverChart(A3, 3, A3.t)
    elem = cover_elem(chart, ["1", "t", "2"])
    assert str(elem) == "1 + t*v + 2*v^2"


# -- canonical form: an element stores only its nonzero terms


def test_cover_elements_store_no_zero_term():
    chart = CoverChart(A3, 4, A3.parse("2*t"))
    v = chart.v
    assert (v - v).terms == {}
    # d(v^3)/dv = 3 v^2 vanishes in characteristic 3
    assert _partial_v(chart.gen_power(3)).terms == {}
    assert _partial_v(chart.gen_power(3) + v).terms == {0: A3.one}
    assert chart.random_element(random.Random(5)).scale(A3.zero).terms == {}
    zero = A3.zero
    form = CoverOneForm.from_parts(chart, {0: (zero, zero), 2: (A3.t, zero)})
    assert form.ct.terms == {2: A3.t}
    assert form.cv.terms == {}
    non_reduced = CoverChart(A2, 2, A2.one)
    nilpotent = non_reduced.v - non_reduced.one
    assert (nilpotent * nilpotent).terms == {}


def test_equal_cover_elements_built_different_ways_hash_equal():
    chart = CoverChart(A3, 4, A3.parse("2*t"))
    pairs = [
        (chart.gen_power(4), chart.from_ring(chart.u)),
        (chart.v * chart.v_inv(), chart.one),
        (chart.v + chart.v + chart.v, chart.zero),
        (cover_elem(chart, ["0", "t", "0", "0"]), chart.v.scale(A3.t)),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
        assert x.terms == y.terms


def test_non_unit_root_target_rejected():
    with pytest.raises(NotAUnit):
        CoverChart(A3, 2, A3.parse("t+1"))


# -- bundle validation


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_catalog_bundles_validate(name):
    bundle = FIXTURES[name]()
    report = bundle.validate()
    assert report["valid"]
    assert report["degenerate"] == (name == "DEGENERATE")
    assert all(c["passed"] for c in report["checks"])


def test_validation_report_is_deterministic():
    bundle = twochart()
    assert bundle.validate() == bundle.validate()


def test_perturbed_transition_fails_compatibility():
    bundle = twochart()
    ovl = bundle.scheme.overlap(0, 1)
    bad_g = {(0, 1): bundle.g[(0, 1)] * ovl.t}
    bad = TorsionBundle(bundle.scheme, 2, bad_g, bundle.u)
    report = bad.validate()
    assert not report["valid"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed and failed[0]["witness"] is not None
    with pytest.raises(InvalidCocycle):
        Cover(bad)


def one_transitions(scheme, **given):
    """g = 1 on every chart pair except the ones given, keyed like g01."""
    return {
        (i, j): scheme.overlap(i, j).parse(given.get(f"g{i}{j}", "1"))
        for i, j in scheme.pairs()
    }


def test_failed_checks_and_their_witnesses_are_pinned():
    # (a) every pair check passes and only the triple fails: 1 * 1 != 6
    F7 = FqField(7)
    rings = [ChartRing(F7, ["t"]) for _ in range(3)]
    scheme = ChartedScheme(F7, rings)
    a = TorsionBundle(scheme, 2, one_transitions(scheme, g02="6"), [r.t for r in rings])
    # (b) the triple (1,2,3) witness is printed in its overlap's prime order,
    # t before t + 1, though chart 0 lists t + 1 first
    rings = [ChartRing(F3, ["t + 1"])] + [ChartRing(F3, ["t", "t + 1"]) for _ in range(3)]
    scheme = ChartedScheme(F3, rings)
    g = one_transitions(scheme, g12="1/t", g23="1/(t + 1)")
    b = TorsionBundle(scheme, 3, g, [r.one for r in rings])
    failed = {
        name: [(c["check"], c["witness"]) for c in bundle.validate()["checks"] if not c["passed"]]
        for name, bundle in (("a", a), ("b", b))
    }
    assert failed == {
        "a": [("g(0,1)*g(1,2) = g(0,2)", "6")],
        "b": [
            ("g(1,2)^3 = u2/u1", "1/t^3"),
            ("g(2,3)^3 = u3/u2", "1/(t + 1)^3"),
            ("g(0,1)*g(1,2) = g(0,2)", "1/t"),
            ("g(0,2)*g(2,3) = g(0,3)", "1/(t + 1)"),
            ("g(1,2)*g(2,3) = g(1,3)", "1/(t*(t + 1))"),
        ],
    }


def test_coboundary_is_the_quotient_of_restrictions_on_each_overlap():
    bundle = twochart()
    scheme = bundle.scheme
    delta = scheme.coboundary(bundle.u)
    assert list(delta) == scheme.pairs() == [(0, 1)]
    u0 = scheme.restrict(0, bundle.u[0], 1)
    u1 = scheme.restrict(1, bundle.u[1], 0)
    assert delta[(0, 1)] * u0 == u1
    assert delta[(0, 1)] == bundle.g[(0, 1)] ** bundle.n
    assert ChartedScheme(F3, [A3]).coboundary([A3.t]) == {}


def test_non_unit_trivialization_rejected():
    with pytest.raises(NotAUnit):
        TorsionBundle(ChartedScheme(F3, [A3]), 2, {}, [A3.parse("t+1")])


def test_transition_keys_must_match_pairs():
    scheme = ChartedScheme(F3, [A3])
    with pytest.raises(MalformedInput):
        TorsionBundle(scheme, 2, {(0, 1): A3.one}, [A3.t])


# -- cover construction and glue


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_covers_build_with_certified_glue(name):
    cover = Cover(FIXTURES[name]())
    assert all(c["passed"] for c in cover.glue_certificates)
    assert len(cover.charts) == cover.bundle.scheme.n_charts


def test_transport_of_root_picks_up_transition():
    cover = Cover(twochart())
    ovl_cover = cover.overlap_cover(0, 1)
    g = cover.bundle.g[(0, 1)]
    moved = cover.transport(0, 1, cover.charts[0].v)
    assert moved == ovl_cover.v.scale(g.inv())


def test_transport_is_multiplicative():
    rng = random.Random(5)
    cover = Cover(twochart())
    for _ in range(10):
        x = cover.charts[0].random_element(rng, max_deg=1)
        y = cover.charts[0].random_element(rng, max_deg=1)
        assert cover.transport(0, 1, x * y) == cover.transport(0, 1, x) * cover.transport(
            0, 1, y
        )


def test_transport_round_trip_fixes_elements():
    rng = random.Random(7)
    cover = Cover(twochart())
    ovl01 = cover.overlap_cover(0, 1)
    for _ in range(10):
        x = cover.charts[0].random_element(rng, max_deg=1)
        moved = cover.transport(0, 1, x)
        back = ovl01.zero
        g = cover.bundle.g_any(1, 0)
        # undo v0 = g10^{-1} v1 coefficientwise on the overlap
        for k, a in moved.terms.items():
            back = back + ovl01.gen_power(k).scale(a)
        assert moved == back  # transport output already lives on the overlap
        direct = ovl01.zero
        for k, a in x.terms.items():
            a_ovl = cover.bundle.scheme.restrict(0, a, 1)
            direct = direct + ovl01.gen_power(k).scale(
                a_ovl * cover.bundle.g[(0, 1)].inv() ** k
            )
        assert moved == direct
        assert g == cover.bundle.g[(0, 1)].inv()


# -- factorization into separable and inseparable stages


def test_split_order():
    assert split_order(6, 2) == (3, 2)
    assert split_order(6, 3) == (2, 3)
    assert split_order(8, 2) == (1, 8)
    assert split_order(5, 3) == (5, 1)


def test_etale_detection():
    F4 = FqField(2, 2)
    A4 = ChartRing(F4, ["t"])
    assert is_etale(A4, 3, A4.t)
    assert not is_etale(A4, 2, A4.t)
    assert is_etale(A3, 2, A3.t)
    assert not is_etale(A3, 3, A3.t)
    assert is_etale(A3, 1, A3.t)


def test_mixed_factorization():
    report = factor_cover(Cover(FIXTURES["MIXED"]()))
    assert report["passed"]
    assert report["separable_degree"] == 3
    assert report["inseparable_degree"] == 2
    assert report["etale_stage"]["n"] == 3
    index = report["basis_index"]
    assert index["w^0*v^0"] == 0
    assert index["w^1*v^1"] == 3
    assert index["w^2*v^1"] == 5
    assert sorted(index.values()) == list(range(6))


def test_factorization_of_tame_cover_is_trivial_inseparable():
    report = factor_cover(Cover(FIXTURES["COPRIME"]()))
    assert report["passed"]
    assert report["separable_degree"] == 2
    assert report["inseparable_degree"] == 1


def test_factorization_of_wild_cover_is_trivial_separable():
    report = factor_cover(Cover(FIXTURES["GM_P2"]()))
    assert report["passed"]
    assert report["separable_degree"] == 1
    assert report["inseparable_degree"] == 2
    assert report["etale_stage"]["n"] == 1


def test_two_chart_factorization_restricts_transitions():
    report = factor_cover(Cover(twochart()))
    assert report["passed"]
    stage = report["etale_stage"]
    assert stage["n"] == 1
    assert TorsionBundle.from_json(stage).validate()["valid"]


# -- JSON round trip


def test_bundle_json_round_trip():
    bundle = twochart()
    data = bundle.to_json()
    again = TorsionBundle.from_json(data)
    assert again.to_json() == data
    assert again.validate()["valid"]


def test_bundle_json_rejects_malformed():
    good = twochart().to_json()
    for mutate in [
        lambda d: d.pop("field"),
        lambda d: d.pop("u"),
        lambda d: d.update(n=0),
        lambda d: d.update(n="2"),
        lambda d: d.update(u=d["u"][:1]),
        lambda d: d.update(charts=[]),
        lambda d: d.update(g={"bogus": "t"}),
        lambda d: d.update(g={"(1,0)": "t"}),
    ]:
        data = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v) for k, v in good.items()}
        mutate(data)
        with pytest.raises(MalformedInput):
            TorsionBundle.from_json(data)


def test_bundle_json_rejects_non_unit():
    data = twochart().to_json()
    data["u"] = ["t+a", data["u"][1]]
    with pytest.raises(NotAUnit):
        TorsionBundle.from_json(data)
