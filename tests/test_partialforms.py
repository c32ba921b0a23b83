"""Partial-form sheaf tests: presentations, sequences, dga laws, gluing."""

import gc
import random
import re
import weakref

import pytest
from fixtures import FIXTURES, coprime, degenerate, twochart, zerotorsion

from taucover import partialforms
from taucover.catalog import load_fixture
from taucover.cli import fixture_report
from taucover.covers import Cover, TorsionBundle
from taucover.errors import CertificateFailure, StabilityFailure
from taucover.forms import CoverOneForm, dv_over_v
from taucover.partialforms import (
    PartialFormsChart,
    atiyah_cocycle_check,
    basis_independence_check,
    dga_check,
    rank_torsion_report,
    verify_sequence,
)
from taucover.pidmod import PolyMatrix, Submodule


def build(name):
    return Cover(FIXTURES[name]())


# -- presentations and invariants


EXPECTED_INVARIANTS = {
    # name: (rank, torsion, ambient_rank, degree2_rank, degree2_torsion)
    "GM_P2": (1, [], 2, 0, []),
    "GM_P3": (1, [], 3, 0, []),
    "ZEROTORSION": (1, ["t + 2"], 5, 0, ["t + 2"]),
    "COPRIME": (1, [], 2, 0, []),
    "MIXED": (1, [], 6, 0, []),
    "TWOCHART": (1, [], 2, 0, []),
    "DEGENERATE": (2, [], 4, 1, []),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_INVARIANTS))
def test_partial_one_form_invariants(name):
    report = rank_torsion_report(build(name))
    rank, torsion, ambient, d2rank, d2torsion = EXPECTED_INVARIANTS[name]
    for chart_report in report["charts"]:
        assert chart_report["rank"] == rank
        assert chart_report["torsion"] == torsion
        assert chart_report["ambient_rank"] == ambient
        assert chart_report["degree2_rank"] == d2rank
        assert chart_report["degree2_torsion"] == d2torsion
        assert chart_report["strict_witness"] == "dv"
    assert report["strict_everywhere"]


def test_ambient_rank_equals_order_when_du_nonzero():
    for name, make in FIXTURES.items():
        bundle = make()
        report = rank_torsion_report(Cover(bundle))
        for chart_report in report["charts"]:
            if name == "DEGENERATE":
                assert chart_report["ambient_rank"] == 2 * bundle.n
            else:
                assert chart_report["ambient_rank"] == bundle.n


# -- one partial-forms context per cover


def test_full_report_builds_each_chart_once(monkeypatch):
    builds = []
    original = PartialFormsChart.__init__

    def counting_init(self, cover, index):
        builds.append(index)
        original(self, cover, index)

    monkeypatch.setattr(PartialFormsChart, "__init__", counting_init)
    report = fixture_report(load_fixture("TWOCHART"), samples=5)
    assert report["fixture"] == "TWOCHART"
    assert sorted(builds) == [0, 1]


def test_cover_hands_out_the_same_chart_structures():
    cover = Cover(twochart())
    assert len(cover.partial_forms) == len(cover.charts)
    for i, pfc in enumerate(cover.partial_forms):
        assert pfc.index == i
        assert cover.partial_forms[i] is cover.partial_forms[i]


def test_sequence_maps_are_built_once_per_chart():
    pfc = Cover(twochart()).partial_forms[1]
    for name in (
        "corrected_tail",
        "mul_omega_map",
        "sigma1_map",
        "s1_map",
        "sigma2_map",
        "s2_literal_map",
        "s2_corrected_map",
    ):
        assert getattr(pfc, name) is getattr(pfc, name), name
    assert pfc.s1_map is pfc.s1_map
    assert pfc.s1_map.kernel is pfc.s1_map.kernel
    assert pfc.s2_corrected_map.target is pfc.corrected_tail


def test_cover_with_cached_maps_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        cover = Cover(twochart())
        assert verify_sequence(cover, 1)["charts"]
        assert verify_sequence(cover, 2, corrected=True)["charts"]
        ref = weakref.ref(cover)
        del cover
        assert ref() is None
    finally:
        gc.enable()


def test_cover_with_built_charts_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        cover = Cover(twochart())
        assert cover.partial_forms
        ref = weakref.ref(cover)
        del cover
        assert ref() is None
    finally:
        gc.enable()


def test_gm_p2_pullback_dies_inside():
    pfc = PartialFormsChart(build("GM_P2"), 0)
    dt, root_form = pfc.generators1
    assert pfc.omega1_ambient.is_zero(dt.parts())
    assert not pfc.omega1_ambient.is_zero(root_form.parts())


def dv(chart):
    """dv, of weight 1: outside the weight-0 block of the partial forms."""
    return CoverOneForm(chart, chart.zero, chart.one)


def test_generator_outside_weight_zero_fails_the_grading_certificate(monkeypatch):
    # put in place of dv/v, dv leaves the weight-0 block
    monkeypatch.setattr(partialforms, "dv_over_v", dv)
    with pytest.raises(
        CertificateFailure,
        match=r"grading certificate failed: generator dv/v over .* part in weight 1, not 0",
    ):
        PartialFormsChart(build("GM_P2"), 0)


def test_coprime_partial_forms_equal_pullback_forms():
    pfc = PartialFormsChart(build("COPRIME"), 0)
    pullback_only = Submodule(
        pfc.sub1.ambient,
        PolyMatrix.from_columns(pfc.ring, [pfc.sub1.gens.col(0)], 2),
    )
    ok, witness = pfc.sub1.equals(pullback_only)
    assert ok, witness


def test_s_well_defined_exactly_when_order_shares_characteristic():
    for name, make in FIXTURES.items():
        bundle = make()
        cover = Cover(bundle)
        p = bundle.scheme.field.p
        for i in range(len(cover.charts)):
            pfc = PartialFormsChart(cover, i)
            expected = bundle.n % p == 0
            assert pfc.s1_map.is_well_defined == expected, name


# -- degree-1 sequences


EXACT_DEGREE1 = ["GM_P2", "GM_P3", "MIXED", "TWOCHART", "ZEROTORSION"]


@pytest.mark.parametrize("name", EXACT_DEGREE1)
def test_degree1_sequence_exact(name):
    report = verify_sequence(build(name), 1)
    assert report["exact"], report
    for chart_report in report["charts"]:
        assert [j["at"] for j in chart_report["junctions"]] == [
            "O_X",
            "Omega1_X",
            "Omega1_L",
            "O_X",
        ]
        assert all(j["exact"] for j in chart_report["junctions"])


def test_degree1_sequence_degenerate_fails_left_only():
    report = verify_sequence(Cover(degenerate()), 1)
    assert not report["exact"]
    junctions = report["charts"][0]["junctions"]
    assert not junctions[0]["exact"]
    assert junctions[0]["witness"] == "1"
    assert all(j["exact"] for j in junctions[1:])


def test_degree1_sequence_coprime_fails_with_injective_pullback():
    report = verify_sequence(Cover(coprime()), 1)
    assert not report["exact"]
    junctions = {j["at"]: j for j in report["charts"][0]["junctions"]}
    assert not junctions["Omega1_X"]["exact"]
    assert junctions["Omega1_X"]["note"] == "image not annihilated by the next map"


# -- degree-2 sequences, literal and corrected


def test_degree2_literal_fails_gm_p2_with_dt_witness():
    report = verify_sequence(build("GM_P2"), 2, corrected=False)
    assert not report["exact"]
    junctions = report["charts"][0]["junctions"]
    noted = [j for j in junctions if j.get("note") == "ill-defined map"]
    assert noted
    assert noted[0]["detail"]["image"] == "dt"


def test_degree2_literal_fails_zerotorsion_with_torsion_witness():
    report = verify_sequence(Cover(zerotorsion()), 2, corrected=False)
    assert not report["exact"]
    junctions = report["charts"][0]["junctions"]
    noted = [j for j in junctions if j.get("note") == "ill-defined map"]
    assert noted
    assert noted[0]["detail"]["image"] == "(t + 2)*dt"


def test_degree2_literal_exact_for_degenerate():
    report = verify_sequence(Cover(degenerate()), 2, corrected=False)
    assert report["exact"], report


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_degree2_corrected_exact_everywhere(name):
    report = verify_sequence(build(name), 2, corrected=True)
    assert report["exact"], (name, report)
    for chart_report in report["charts"]:
        assert [j["at"] for j in chart_report["junctions"]] == [
            "Omega2_X",
            "Omega2_L",
            "tail",
        ]


def test_corrected_tail_invariants():
    pfc = PartialFormsChart(Cover(zerotorsion()), 0)
    tail = pfc.corrected_tail
    assert tail.rank == 0
    assert [str(c) for c in tail.torsion] == ["t + 2"]
    pfc2 = PartialFormsChart(build("GM_P2"), 0)
    tail2 = pfc2.corrected_tail
    assert tail2.rank == 0 and not tail2.torsion
    pfc3 = PartialFormsChart(Cover(degenerate()), 0)
    assert pfc3.corrected_tail.rank == 1


# -- the relative derivative


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_root_form_is_closed(name):
    cover = build(name)
    for i in range(len(cover.charts)):
        pfc = PartialFormsChart(cover, i)
        coords = pfc.d1((pfc.ring.zero, pfc.ring.one))
        assert pfc.sub2.presentation.is_zero_elem(coords)


def test_d1_is_stable_on_random_sections():
    rng = random.Random(71)
    for name in ("ZEROTORSION", "DEGENERATE", "TWOCHART"):
        cover = build(name)
        for i in range(len(cover.charts)):
            pfc = PartialFormsChart(cover, i)
            for _ in range(10):
                a = pfc.ring.random_element(rng, max_deg=2, max_den=1)
                b = pfc.ring.random_element(rng, max_deg=2, max_den=1)
                pfc.d1((a, b))  # must not raise


def test_d1_raises_when_target_is_artificially_shrunk():
    pfc = PartialFormsChart(Cover(degenerate()), 0)
    pfc.sub2 = Submodule(pfc.sub2.ambient, PolyMatrix.zeros(pfc.ring, 1, 0))
    message = "d of t^3*dv/v left the partial two-forms: (v)*dt^dv"
    with pytest.raises(StabilityFailure, match=re.escape(message)):
        pfc.d1((pfc.ring.zero, pfc.ring.parse("t^3")))


# -- differential graded structure


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_dga_laws(name):
    cover = build(name)
    report = dga_check(cover, seed=17, samples=12)
    assert report["passed"], (name, report)
    p = cover.bundle.scheme.field.p
    for chart_report in report["charts"]:
        laws = chart_report["laws"]
        assert laws["pullback_intertwines_d"] is True
        assert laws["d_squared_zero"] is True
        assert laws["leibniz"] is True
        if cover.bundle.n % p == 0:
            assert laws["s_anticommutes_representatives"] is True
            assert laws["s_anticommutes_corrected"] is True
        else:
            assert laws["s_anticommutes_representatives"] is None
            assert laws["s_anticommutes_corrected"] is None


class _StubLaw:
    """A law on integers that fails exactly at ``failing``, and whose sides
    leave the partial forms at ``leaving``, counting its draws and recording
    each argument it evaluates."""

    def __init__(self, draws, failing=(), leaving=()):
        self.draws = iter(draws)
        self.failing = set(failing)
        self.leaving = set(leaving)
        self.drawn = 0
        self.evaluated = []

    def draw(self):
        self.drawn += 1
        return (next(self.draws),)

    def sides(self, x):
        self.evaluated.append(x)
        if x in self.leaving:
            raise StabilityFailure(f"{x} left the partial forms")
        return x, x + (x in self.failing)

    def run(self, generators, samples):
        return partialforms._law(
            lambda lhs, rhs: lhs == rhs, self.sides, generators, self.draw, samples
        )


def test_law_draws_every_sample_and_evaluates_each_distinct_argument_once():
    law = _StubLaw([2, 3, 2, 2, 4, 3, 5])
    assert law.run([(1,)], samples=7) is None
    assert law.drawn == 7
    assert law.evaluated == [1, 2, 3, 4, 5]


def test_law_does_not_evaluate_a_drawn_generator_again():
    law = _StubLaw([1, 0, 1, 0])
    assert law.run([(0,), (1,)], samples=4) is None
    assert law.drawn == 4
    assert law.evaluated == [0, 1]


def test_law_returns_the_first_failing_draw_after_a_passing_repeat():
    law = _StubLaw([2, 3, 2, 5, 7, 5], failing={5, 7})
    assert law.run([(1,)], samples=6) == (5,)
    assert law.drawn == 4
    assert law.evaluated == [1, 2, 3, 5]


def test_law_fails_at_the_first_draw_whose_side_leaves_the_partial_forms():
    law = _StubLaw([2, 3, 2, 5, 7], failing={7}, leaving={5})
    assert law.run([(1,)], samples=5) == (5,)
    assert law.drawn == 4
    assert law.evaluated == [1, 2, 3, 5]


# -- gluing checks


def test_atiyah_cocycle_on_two_charts():
    report = atiyah_cocycle_check(Cover(twochart()))
    assert report["passed"]
    assert report["overlaps"][0]["overlap"] == [0, 1]


def test_basis_independence_two_charts():
    report = basis_independence_check(twochart(), ["t", "1"])
    assert report["passed"], report
    for chart_report in report["charts"]:
        assert chart_report["forward_membership"]
        assert chart_report["backward_membership"]
        assert chart_report["s_values_match"] is True


def test_basis_independence_single_chart():
    report = basis_independence_check(FIXTURES["GM_P3"](), ["t"])
    assert report["passed"], report


def test_basis_independence_coprime_skips_s():
    report = basis_independence_check(coprime(), ["t"])
    assert report["passed"]
    assert report["charts"][0]["s_values_match"] is None


@pytest.mark.parametrize(
    "image, forward, backward, s_match",
    [(dv, False, False, True), (dv_over_v, True, True, False)],
    ids=["dv-leaves-the-partial-forms", "dv-over-v-moves-s"],
)
def test_basis_independence_reports_a_wrong_root_change(
    monkeypatch, image, forward, backward, s_match
):
    monkeypatch.setattr(partialforms, "rescale_root", lambda target, w, form: image(target))
    report = basis_independence_check(FIXTURES["GM_P3"](), ["t"])
    [chart] = report["charts"]
    assert chart["forward_membership"] is forward
    assert chart["backward_membership"] is backward
    assert chart["s_values_match"] is s_match
    assert chart["passed"] is False
    assert report["passed"] is False


def test_atiyah_cocycle_on_rescaled_bundle():
    report = basis_independence_check(twochart(), ["t", "1"])
    rescaled = TorsionBundle.from_json(report["rescaled_bundle"])
    assert rescaled.validate()["valid"]
    atiyah = atiyah_cocycle_check(Cover(rescaled))
    assert atiyah["passed"], atiyah


# -- report shapes stay serialization-friendly


def test_reports_are_json_serializable():
    import json

    cover = Cover(twochart())
    for payload in (
        verify_sequence(cover, 1),
        verify_sequence(cover, 2, corrected=True),
        rank_torsion_report(cover),
        dga_check(cover, samples=4),
        atiyah_cocycle_check(cover),
        basis_independence_check(twochart(), ["t", "1"]),
    ):
        json.dumps(payload, sort_keys=True)
