"""Command-line behavior: exit codes, JSON output, catalog handling."""

import hashlib
import json
import shutil
import time

import pytest

from taucover.catalog import (
    CATALOG_ENV,
    catalog_dir,
    fixture_names,
    load_all,
    load_fixture,
)
from taucover import cli
from taucover.cli import fixture_report, main, matches_expected, omega_l_report
from taucover.covers import MAX_CHARTS, MAX_N, TorsionBundle
from taucover.errors import MalformedInput

ALL_FIXTURES = [
    "COPRIME",
    "DEGENERATE",
    "GM_P2",
    "GM_P3",
    "MIXED",
    "TWOCHART",
    "ZEROTORSION",
]


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- catalog loading


def test_fixture_names_lists_the_shipped_catalog():
    assert fixture_names() == ALL_FIXTURES


def test_load_fixture_parses_bundle_and_expected_block():
    fx = load_fixture("GM_P2")
    bundle = fx.bundle()
    assert bundle.n == 2
    assert bundle.scheme.field.p == 2
    assert fx.expected["validate"] == {"valid": True, "degenerate": False}
    assert set(fx.provenance) == set(fx.expected)


def test_load_all_returns_every_fixture():
    assert [fx.name for fx in load_all()] == ALL_FIXTURES


def test_unknown_fixture_name_raises():
    with pytest.raises(MalformedInput):
        load_fixture("NOPE")


def test_catalog_dir_override(tmp_path, monkeypatch):
    shutil.copy(catalog_dir() / "GM_P2.json", tmp_path / "GM_P2.json")
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
    assert fixture_names() == ["GM_P2"]
    assert load_fixture("GM_P2").bundle().n == 2


def test_fixture_file_name_mismatch_raises(tmp_path, monkeypatch):
    data = json.loads((catalog_dir() / "GM_P2.json").read_text())
    (tmp_path / "ALT.json").write_text(json.dumps(data))
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
    with pytest.raises(MalformedInput):
        load_fixture("ALT")


def test_fixture_file_bad_json_raises(tmp_path, monkeypatch):
    (tmp_path / "BROKEN.json").write_text("{")
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
    with pytest.raises(MalformedInput):
        load_fixture("BROKEN")


# -- expected-block comparison


def test_matches_expected_allows_extra_report_keys():
    assert matches_expected({"a": 1}, {"a": 1, "b": 2})
    assert not matches_expected({"a": 1}, {"b": 2})
    assert not matches_expected({"a": 1}, {"a": 2})


def test_matches_expected_lists_compare_elementwise():
    assert matches_expected([{"x": 1}], [{"x": 1, "y": 0}])
    assert not matches_expected([{"x": 1}], [])
    assert not matches_expected([1, 2], [1, 3])


# -- subcommand exit codes and payloads


def test_validate_fixture(capsys):
    code, out = run_cli(capsys, "validate", "--fixture", "GM_P2")
    assert code == 0
    assert out["valid"] is True
    assert out["degenerate"] is False


def test_validate_degenerate_fixture_exits_zero(capsys):
    code, out = run_cli(capsys, "validate", "--fixture", "DEGENERATE")
    assert code == 0
    assert out["degenerate"] is True


def test_verify_sequence_on_fixture_matches_expected(capsys):
    code, out = run_cli(capsys, "verify", "--fixture", "GM_P2", "--sequence", "2.7")
    assert code == 0
    assert out["exact"] is True
    assert out["matches_expected"] is True


def test_verify_degenerate_failure_matches_expected(capsys):
    code, out = run_cli(capsys, "verify", "--fixture", "DEGENERATE", "--sequence", "2.7")
    assert code == 0
    assert out["exact"] is False
    assert out["failures"][0]["at"] == "O_X"
    assert out["failures"][0]["witness"] == "1"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_verify_first_sequence_matches_expected_everywhere(capsys, name):
    code, out = run_cli(capsys, "verify", "--fixture", name, "--sequence", "2.7")
    assert code == 0
    assert out["matches_expected"] is True


@pytest.mark.parametrize("name", ["GM_P2", "ZEROTORSION", "DEGENERATE", "COPRIME"])
@pytest.mark.parametrize("sequence", ["2.10", "2.11"])
def test_verify_degree_two_sequences_match_expected(capsys, name, sequence):
    code, out = run_cli(capsys, "verify", "--fixture", name, "--sequence", sequence)
    assert code == 0
    assert out["matches_expected"] is True
    assert out["corrected_exact"] is True


def test_class_fixture_reports_obstruction(capsys):
    code, out = run_cli(capsys, "class", "--fixture", "GM_P2")
    assert code == 0
    assert out["trivial"] is False
    assert out["obstruction"] == "s-functional"


def test_class_coprime_fixture_reports_witness(capsys):
    code, out = run_cli(capsys, "class", "--fixture", "COPRIME")
    assert code == 0
    assert out["trivial"] is True
    assert out["witness"] == {"units": ["t^2"]}


def test_cover_fixture(capsys):
    code, out = run_cli(capsys, "cover", "--fixture", "MIXED")
    assert code == 0
    assert out["factor"]["separable_degree"] == 3
    assert out["factor"]["inseparable_degree"] == 2
    assert out["omega_l"]["cartier_fixed"] is True


def test_omega_l_fixture_degree_one(capsys):
    code, out = run_cli(capsys, "omega-l", "--fixture", "ZEROTORSION", "--degree", "1")
    assert code == 0
    assert out["charts"][0]["torsion"] == ["t + 2"]
    assert out["strict_everywhere"] is True


def test_omega_l_fixture_degree_two(capsys):
    code, out = run_cli(capsys, "omega-l", "--fixture", "DEGENERATE", "--degree", "2")
    assert code == 0
    assert out["charts"][0]["rank"] == 1


def test_omega_l_rejects_other_degrees():
    with pytest.raises(MalformedInput):
        omega_l_report(load_fixture("GM_P2").bundle(), 3)


def test_connection_fixture(capsys):
    code, out = run_cli(
        capsys, "connection", "--fixture", "TWOCHART", "--samples", "10"
    )
    assert code == 0
    assert out["mode"] == "partial"
    assert out["passed"] is True


def test_connection_coprime_fixture_runs_classical_branch(capsys):
    code, out = run_cli(
        capsys, "connection", "--fixture", "COPRIME", "--samples", "10"
    )
    assert code == 0
    assert out["mode"] == "classical"
    assert out["classical"]["passed"] is True


def test_catalog_listing(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert [e["name"] for e in out["fixtures"]] == ALL_FIXTURES
    degenerate = {e["name"]: e["degenerate"] for e in out["fixtures"]}
    assert degenerate == {name: name == "DEGENERATE" for name in ALL_FIXTURES}


def test_report_single_fixture(capsys):
    code, out = run_cli(
        capsys, "report", "--fixture", "GM_P3", "--samples", "10"
    )
    assert code == 0
    assert out["passed"] is True
    assert out["fixtures"][0]["mismatches"] == []


def test_fixture_report_runs_each_sequence_once(monkeypatch):
    runs = []
    original = cli.verify_sequence

    def counting(cover, degree, corrected=False):
        runs.append((degree, corrected))
        return original(cover, degree, corrected=corrected)

    monkeypatch.setattr(cli, "verify_sequence", counting)
    report = fixture_report(load_fixture("TWOCHART"), samples=5)
    assert report["matches_expected"], report["mismatches"]
    assert sorted(runs) == [(1, False), (2, False), (2, True)]


def test_report_requires_a_target(capsys):
    code, out = run_cli(capsys, "report")
    assert code == 2
    assert out["kind"] == "malformed-input"


# -- user bundles


def write_bundle(tmp_path, data):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_user_bundle_verify_exits_on_corrected_tail(capsys, tmp_path):
    path = write_bundle(
        tmp_path,
        {
            "field": {"p": 2, "e": 1},
            "n": 4,
            "charts": [{"inverted": ["t"]}],
            "g": {},
            "u": ["t^3"],
        },
    )
    code, out = run_cli(capsys, "verify", "--json", path, "--sequence", "2.10")
    assert code == 0
    assert out["literal_exact"] is False
    assert out["corrected_exact"] is True


def test_user_bundle_validate_failure_exits_one(capsys, tmp_path):
    path = write_bundle(
        tmp_path,
        {
            "field": {"p": 3, "e": 1},
            "n": 2,
            "charts": [{"inverted": ["t"]}, {"inverted": ["t + 1"]}],
            "g": {"(0,1)": "t"},
            "u": ["t^2", "(t + 1)^2"],
        },
    )
    code, out = run_cli(capsys, "validate", "--json", path)
    assert code == 1
    assert out["valid"] is False
    code, out = run_cli(capsys, "cover", "--json", path)
    assert code == 1
    assert out["kind"] == "failed-verification"


def test_user_bundle_round_trips_through_serialization(tmp_path):
    fx = load_fixture("TWOCHART")
    bundle = fx.bundle()
    again = TorsionBundle.from_json(bundle.to_json())
    assert again.to_json() == bundle.to_json()


# -- malformed input paths


def test_unknown_fixture_exits_two(capsys):
    code, out = run_cli(capsys, "validate", "--fixture", "NOPE")
    assert code == 2
    assert out["kind"] == "malformed-input"


def test_both_bundle_sources_exit_two(capsys, tmp_path):
    path = write_bundle(tmp_path, {})
    code, out = run_cli(capsys, "validate", "--fixture", "GM_P2", "--json", path)
    assert code == 2


def test_missing_bundle_source_exits_two(capsys):
    code, out = run_cli(capsys, "validate")
    assert code == 2


def test_non_json_file_exits_two(capsys, tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("not json")
    code, out = run_cli(capsys, "validate", "--json", str(path))
    assert code == 2


def test_bad_bundle_shape_exits_two(capsys, tmp_path):
    path = write_bundle(
        tmp_path,
        {"field": {"p": 2, "e": 1}, "n": 0, "charts": [{"inverted": []}], "u": ["1"]},
    )
    code, out = run_cli(capsys, "validate", "--json", str(path))
    assert code == 2


ONE_CHART = {
    "field": {"p": 2, "e": 1},
    "n": 2,
    "charts": [{"inverted": ["t"]}],
    "u": ["t"],
}
TWO_CHARTS = {
    "field": {"p": 3, "e": 1},
    "n": 2,
    "charts": [{"inverted": ["t"]}, {"inverted": ["t + 1"]}],
    "u": ["t^2", "(t + 1)^2"],
}


@pytest.mark.parametrize(
    "bundle",
    [
        {**ONE_CHART, "charts": [{"inverted": ["t", "t"]}]},
        {**ONE_CHART, "u": [5]},
        {**TWO_CHARTS, "g": {"(0,1)": 7}},
        {**ONE_CHART, "charts": [{"inverted": [3]}]},
        {**ONE_CHART, "n": True},
        {**ONE_CHART, "field": {"p": True}},
        {**ONE_CHART, "field": {"p": "2"}},
        {**ONE_CHART, "field": {"p": 2.9}},
        {**ONE_CHART, "field": {"p": 2, "e": True}},
        {**ONE_CHART, "field": {"p": 2, "e": "1"}},
        {**ONE_CHART, "field": {"p": 2, "e": 1.0}},
        {**ONE_CHART, "u": ["t^100000000"]},
        {**ONE_CHART, "u": ["(" * 5000 + "t" + ")" * 5000]},
        {**ONE_CHART, "charts": [{"inverted": ["t^1021 + t^5 + 1"]}], "u": ["t^1021 + t^5 + 1"]},
        {**ONE_CHART, "charts": [{"inverted": ["t^65 + t^18 + 1"]}], "u": ["t^65 + t^18 + 1"]},
    ],
    ids=[
        "duplicate-inverted",
        "non-string-unit",
        "non-string-transition",
        "non-string-inverted",
        "boolean-order",
        "boolean-p",
        "string-p",
        "float-p",
        "boolean-e",
        "string-e",
        "float-e",
        "huge-exponent",
        "deep-nesting",
        "high-degree-inverted",
        "inverted-above-degree-cap",
    ],
)
def test_malformed_bundle_exits_two_with_one_json_document(capsys, tmp_path, bundle):
    path = write_bundle(tmp_path, bundle)
    start = time.perf_counter()
    code = main(["validate", "--json", path])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)  # raises unless exactly one document
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert elapsed < 1.0


def test_large_field_bundle_validates_within_budget(capsys, tmp_path):
    # Irreducibility over F_256 must not enumerate 256^3 cubic divisors.
    bundle = {
        "field": {"p": 2, "e": 8},
        "n": 2,
        "charts": [{"inverted": ["t^7 + t + 1"]}],
        "u": ["t^7 + t + 1"],
    }
    path = write_bundle(tmp_path, bundle)
    start = time.perf_counter()
    code = main(["validate", "--json", path])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert elapsed < 2.0


def test_inverted_prime_at_degree_cap_validates(capsys, tmp_path):
    # t^64 + t^4 + t^3 + t + 1 is irreducible over F_2 and sits at the cap.
    prime = "t^64 + t^4 + t^3 + t + 1"
    bundle = {**ONE_CHART, "charts": [{"inverted": [prime]}], "u": [prime]}
    path = write_bundle(tmp_path, bundle)
    start = time.perf_counter()
    code = main(["validate", "--json", path])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert elapsed < 2.0


@pytest.mark.parametrize("command", ["connection", "report"])
@pytest.mark.parametrize("samples", ["-5", str(cli.MAX_SAMPLES + 1), "100000000"])
def test_samples_outside_the_bound_exit_two_with_one_json_document(capsys, command, samples):
    start = time.perf_counter()
    code = main([command, "--fixture", "GM_P2", "--samples", samples])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)  # raises unless exactly one document
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert f"[0, {cli.MAX_SAMPLES}]" in out["error"]
    assert elapsed < 1.0


def test_samples_at_the_bound_run(capsys):
    code, out = run_cli(capsys, "connection", "--fixture", "GM_P2", "--samples", "0")
    assert code == 0 and out["leibniz"]["charts"][0]["samples"] == 0
    code, out = run_cli(
        capsys, "connection", "--fixture", "GM_P2", "--samples", str(cli.MAX_SAMPLES)
    )
    assert code == 0 and out["leibniz"]["charts"][0]["samples"] == cli.MAX_SAMPLES


def many_charts(k: int) -> dict:
    """k copies of one F_2 chart, glued by the identity."""
    return {
        "field": {"p": 2, "e": 1},
        "n": 2,
        "charts": [{"inverted": ["t"]}] * k,
        "u": ["t"] * k,
        "g": {f"({i},{j})": "1" for i in range(k) for j in range(i + 1, k)},
    }


def test_bundles_at_the_order_and_chart_caps_run(capsys, tmp_path):
    at_order = {**ONE_CHART, "n": MAX_N}
    code, out = run_cli(capsys, "class", "--json", write_bundle(tmp_path, at_order))
    assert code == 0 and out["obstruction"] == "s-functional"
    at_charts = many_charts(MAX_CHARTS)
    code, out = run_cli(capsys, "validate", "--json", write_bundle(tmp_path, at_charts))
    assert code == 0 and out["valid"] is True


@pytest.mark.parametrize(
    "bundle, cap",
    [
        ({**ONE_CHART, "n": MAX_N + 1}, f"[1, {MAX_N}]"),
        (many_charts(MAX_CHARTS + 1), f"at most {MAX_CHARTS}"),
    ],
    ids=["order-above-cap", "charts-above-cap"],
)
def test_bundles_above_a_cap_exit_two_before_any_chart_is_parsed(capsys, tmp_path, bundle, cap):
    # t^2 + 1 = (t + 1)^2 over F_2: parsing any chart would fail differently
    bundle = {**bundle, "charts": [{"inverted": ["t^2 + 1"]}] * len(bundle["charts"])}
    start = time.perf_counter()
    code = main(["validate", "--json", write_bundle(tmp_path, bundle)])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["kind"] == "malformed-input" and cap in out["error"]
    assert elapsed < 1.0


def test_bad_sequence_choice_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--fixture", "GM_P2", "--sequence", "9.9"])
    assert info.value.code == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "malformed-input"


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_failed_snf_certificate_exits_one_with_one_json_document(capsys, monkeypatch):
    from taucover import pidmod

    class Corrupted(pidmod.SNFResult):
        __slots__ = ()

        def __init__(self, matrix, U, U_inv, D, V, V_inv, diag):
            wrong = pidmod.PolyMatrix.zeros(matrix.ring, U_inv.nrows, U_inv.ncols)
            super().__init__(matrix, U, wrong, D, V, V_inv, diag)

    monkeypatch.setattr(pidmod, "SNFResult", Corrupted)
    code, out = run_cli(capsys, "class", "--fixture", "GM_P2")
    assert code == 1
    assert out["kind"] == "failed-verification"
    # the first reduction of `class` is the weight-0 block of the two-forms
    # and their generator dv/v^dt
    assert out["error"] == (
        "SNF certificate failed: U*U^-1 = I, on a 1x3 matrix over "
        "F_2[t] loc(t), in the block of weight 0"
    )


# -- output handling


def test_out_option_writes_the_same_document(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "validate", "--fixture", "GM_P2", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == out


def test_output_is_byte_stable_across_runs(capsys):
    main(["class", "--fixture", "GM_P3"])
    first = capsys.readouterr().out
    main(["class", "--fixture", "GM_P3"])
    second = capsys.readouterr().out
    assert first == second


# sha256 of `report --all` stdout; no reported value depends on the seed
REPORT_ALL_SHA256 = "39dba4da681983a39dfe15fa8517c4a368892a643c77455bc312368ee02adb9a"


@pytest.mark.parametrize("seed", ["0", "7"])
def test_report_all_stdout_is_pinned(capsys, seed):
    assert main(["report", "--all", "--seed", seed]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == REPORT_ALL_SHA256
