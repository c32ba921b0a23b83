"""End-to-end guarantees, one test per headline criterion.

Every check is exact: equalities hold in the coefficient field or not at
all.  Criteria run against the shipped catalog plus a few purpose-built
bundles, and the final test replays the full pipeline under its time budget.
"""

import itertools
import json
import random
import time

from fixtures import FIXTURES
from oracle import frac_of_ring_elem, fraction_field_rank
from test_connections import coprime_two_chart_bundle, quartic_coprime_bundle
from test_pidmod import random_matrix

from taucover.cli import main
from taucover.connections import (
    ClassicalConnection,
    TauConnection,
    coboundary_class,
    coprime_degeneration_check,
    is_trivial_class,
)
from taucover.covers import Cover
from taucover.fields import FqField
from taucover.forms import cartier, omega_l
from taucover.partialforms import dga_check, rank_torsion_report, verify_sequence
from taucover.pidmod import smith_normal_form
from taucover.rings import ChartRing

NON_DEGENERATE = ["COPRIME", "GM_P2", "GM_P3", "MIXED", "TWOCHART", "ZEROTORSION"]
ROOT_OF_UNITY_DEGENERATE = ["DEGENERATE", "GM_P2", "GM_P3", "MIXED", "TWOCHART", "ZEROTORSION"]
SEQUENCE_ONE_EXACT = ["GM_P2", "GM_P3", "MIXED", "TWOCHART", "ZEROTORSION"]


def build(name):
    return Cover(FIXTURES[name]())


def run_cli(capsys, *args):
    code = main(list(args))
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_degree_one_sequence_exact_on_catalog(capsys):
    for name in SEQUENCE_ONE_EXACT:
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", "--fixture", name, "--sequence", "2.7")
        elapsed = time.perf_counter() - start
        assert code == 0, name
        assert out["exact"] is True, name
        for chart in out["report"]["charts"]:
            assert all(j["exact"] for j in chart["junctions"]), name
        assert elapsed < 1.0, (name, elapsed)
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--fixture", "DEGENERATE", "--sequence", "2.7")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out["exact"] is False
    assert out["failures"] == [
        {
            "chart": 0,
            "at": "O_X",
            "witness": "1",
            "note": "kernel element outside the image",
            "image": None,
        }
    ]
    assert elapsed < 1.0


def test_criterion_2_cartier_fixes_the_log_form_and_it_glues():
    for name in NON_DEGENERATE:
        bundle = FIXTURES[name]()
        assert not bundle.is_degenerate(), name
        for form in omega_l(bundle):
            assert cartier(form) == form, name
    bundle = FIXTURES["TWOCHART"]()
    omega = omega_l(bundle)
    scheme = bundle.scheme
    left = scheme.restrict(0, omega[0], 1)
    right = scheme.restrict(1, omega[1], 0)
    assert left == right


def test_criterion_3_rank_torsion_ambient_and_strictness():
    reports = {name: rank_torsion_report(build(name)) for name in sorted(FIXTURES)}
    for chart in reports["ZEROTORSION"]["charts"]:
        assert chart["torsion"] == ["t + 2"]
    for name in ("GM_P2", "COPRIME"):
        for chart in reports[name]["charts"]:
            assert chart["torsion"] == []
    for name in NON_DEGENERATE:
        for chart in reports[name]["charts"]:
            assert chart["rank"] == 1, name
    for chart in reports["DEGENERATE"]["charts"]:
        assert chart["rank"] == 2
    for name, report in reports.items():
        n = FIXTURES[name]().n
        expected_ambient = 2 * n if name == "DEGENERATE" else n
        for chart in report["charts"]:
            assert chart["ambient_rank"] == expected_ambient, name
            assert chart["strict_witness"] is not None, name
        assert report["strict_everywhere"], name


def test_criterion_4_differential_graded_laws_hold_exactly():
    s_laws = ("s_anticommutes_representatives", "s_anticommutes_corrected")
    for name in sorted(FIXTURES):
        report = dga_check(build(name), seed=11, samples=20)
        assert report["passed"], name
        for chart in report["charts"]:
            laws = chart["laws"]
            assert laws["pullback_intertwines_d"] is True, name
            assert laws["d_squared_zero"] is True, name
            assert laws["leibniz"] is True, name
            if name in ROOT_OF_UNITY_DEGENERATE:
                assert chart["s_well_defined"] is True, name
                assert all(laws[k] is True for k in s_laws), name
            else:
                assert chart["s_well_defined"] is False, name
                assert all(laws[k] is None for k in s_laws), name


def test_criterion_5_corrected_tail_exact_literal_fails_where_documented():
    for name in sorted(FIXTURES):
        assert verify_sequence(build(name), 2, corrected=True)["exact"], name

    literal = verify_sequence(build("GM_P2"), 2, corrected=False)
    assert not literal["exact"]
    notes = [
        (j["at"], j["note"], j["detail"]["image"])
        for j in literal["charts"][0]["junctions"]
        if not j["exact"]
    ]
    assert ("Omega2_L", "ill-defined map", "dt") in notes
    gm_invariants = rank_torsion_report(build("GM_P2"))["charts"][0]
    assert gm_invariants["degree2_rank"] == 0
    assert gm_invariants["degree2_torsion"] == []

    literal = verify_sequence(build("ZEROTORSION"), 2, corrected=False)
    assert not literal["exact"]
    notes = [
        (j["at"], j["note"], j["detail"]["image"])
        for j in literal["charts"][0]["junctions"]
        if not j["exact"]
    ]
    assert ("Omega2_L", "ill-defined map", "(t + 2)*dt") in notes
    zt_invariants = rank_torsion_report(build("ZEROTORSION"))["charts"][0]
    assert zt_invariants["degree2_rank"] == 0
    assert zt_invariants["degree2_torsion"] == ["t + 2"]


def test_criterion_6_leibniz_flatness_and_cocycle_conditions():
    for name in sorted(FIXTURES):
        conn = TauConnection(build(name))
        leibniz = conn.leibniz_check(seed=29, samples=200)
        assert leibniz["passed"], name
        for chart in leibniz["charts"]:
            assert chart["samples"] == 200, name
            assert chart["stays_partial"] is True, name
            assert chart["matches_formula"] is True, name
        flatness = conn.flatness_check()
        assert flatness["passed"], name
    cocycle = TauConnection(build("TWOCHART")).cocycle_check()
    assert cocycle["passed"]
    assert cocycle["overlaps"][0]["overlap"] == [0, 1]
    assert cocycle["overlaps"][0]["identity"] == "omega_j - omega_i = -dlog(g) dt"


def test_criterion_7_coprime_degeneration_and_classical_cocycle():
    for bundle in (FIXTURES["COPRIME"](), quartic_coprime_bundle()):
        report = coprime_degeneration_check(Cover(bundle))
        assert report["passed"]
        for chart in report["charts"]:
            assert chart["partial_equals_pullback"] is True
            assert chart["root_form_equals_classical"] is True
            assert chart["connection_coords_agree"] is True
    two_chart = coprime_two_chart_bundle()
    delta = ClassicalConnection(two_chart).delta_condition_check()
    assert delta["passed"]
    assert delta["overlaps"][0]["identity"] == "dlog(g) = eta_j - eta_i"
    degeneration = coprime_degeneration_check(Cover(two_chart))
    assert degeneration["passed"]
    assert degeneration["delta_condition"]["passed"]


def test_criterion_8_triviality_decision_obstruction_and_round_trip():
    covers = {name: build(name) for name in sorted(FIXTURES)}
    for name in set(ROOT_OF_UNITY_DEGENERATE) - {"DEGENERATE"}:
        verdict = is_trivial_class(covers[name])
        assert verdict["trivial"] is False, name
        assert verdict["obstruction"] == "s-functional", name
        assert verdict["s_kills_coboundaries"] is True, name
    rng = random.Random(501)
    names = itertools.cycle(sorted(FIXTURES))
    for _ in range(100):
        cover = covers[next(names)]
        scheme = cover.bundle.scheme
        units = [scheme.charts[i].random_unit(rng) for i in range(scheme.n_charts)]
        verdict = is_trivial_class(cover, coboundary_class(cover, units))
        assert verdict["trivial"] is True
        assert verdict["witness_verified"] is True
        assert verdict["witness"] is not None


def test_criterion_9_normal_form_postcondition_and_rank_oracle():
    rings = [
        ChartRing(FqField(2), ["t"]),
        ChartRing(FqField(5), ["t", "t + 4"]),
        ChartRing(FqField(2, 2), ["t", "t + a"]),
    ]
    rng = random.Random(73)
    for i in range(200):
        ring = rings[i % len(rings)]
        m = random_matrix(ring, rng, rng.randrange(0, 5), rng.randrange(0, 5))
        result = smith_normal_form(m)
        assert result.U @ m @ result.V == result.D
        seen_zero = False
        previous = None
        for d in result.diag:
            if d.is_zero():
                seen_zero = True
                continue
            assert not seen_zero, "zero entries must come last"
            core = d.core
            if previous is not None:
                _, remainder = core.divmod(previous)
                assert remainder.is_zero(), "divisibility chain broken"
            previous = core
        frac_rows = [
            [frac_of_ring_elem(m.rows[i][j]) for j in range(m.ncols)]
            for i in range(m.nrows)
        ]
        assert result.rank == fraction_field_rank(frac_rows)


def test_full_catalog_report_matches_expected_within_budget(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "report", "--all")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out["passed"] is True
    assert [f["fixture"] for f in out["fixtures"]] == sorted(FIXTURES)
    assert all(f["mismatches"] == [] for f in out["fixtures"])
    assert elapsed < 10.0, elapsed
