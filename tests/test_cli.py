"""Command-line behavior: exit codes, JSON output, catalog handling."""

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from taucover.catalog import (
    CATALOG_ENV,
    catalog_dir,
    fixture_names,
    load_all,
    load_fixture,
)
from taucover import cli, connections
from taucover.cli import fixture_report, json_text, main, matches_expected, omega_l_report
from taucover.covers import MAX_CHARTS, MAX_N, Cover, CoverChart, TorsionBundle
from taucover.errors import MalformedInput
from taucover.fields import FqField
from taucover.polys import Poly
from taucover.rings import ChartRing, RingElem

SRC = Path(__file__).resolve().parent.parent / "src"

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


def spoiled(key, spoil):
    """The fixture document with its block ``key`` replaced by spoil(block)."""
    return lambda data: {**data, key: spoil(data[key])}


@pytest.mark.parametrize(
    "spoil, argv, message",
    [
        (
            spoiled("expected", lambda x: {k: v for k, v in x.items() if k != "validate"}),
            ["catalog"],
            "missing keys: ['expected.validate.degenerate']",
        ),
        (
            spoiled("expected", lambda x: [x]),
            ["report", "--fixture", "GM_P2"],
            "bundle and expected must be objects",
        ),
        (spoiled("bundle", lambda x: {**x, "charts": 5}), ["catalog"], "bundle.charts must be a list"),
        (
            spoiled("expected", lambda x: {**x, "sequences": [1]}),
            ["verify", "--fixture", "GM_P2", "--sequence", "2.7"],
            "expected.sequences must be an object",
        ),
        (lambda data: [data], ["report", "--fixture", "GM_P2"], "must hold a JSON object"),
        (
            lambda data: {k: v for k, v in data.items() if k != "provenance"},
            ["report", "--fixture", "GM_P2"],
            "missing keys: ['provenance']",
        ),
    ],
    ids=[
        "expected-without-validate",
        "expected-as-list",
        "charts-not-a-list",
        "sequences-as-list",
        "document-as-list",
        "without-provenance",
    ],
)
def test_fixture_file_bad_blocks_exit_two(capsys, tmp_path, monkeypatch, spoil, argv, message):
    data = json.loads((catalog_dir() / "GM_P2.json").read_text())
    path = tmp_path / "GM_P2.json"
    path.write_text(json.dumps(spoil(data)))
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
    with pytest.raises(MalformedInput):
        load_fixture("GM_P2")
    code, out = run_cli(capsys, *argv)  # raises unless exactly one document
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert out["error"].startswith(f"fixture file {path}") and out["error"].endswith(message)


def test_a_missing_catalog_directory_exits_two(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "missing"
    monkeypatch.setenv(CATALOG_ENV, str(missing))
    code, out = run_cli(capsys, "catalog")  # raises unless exactly one document
    assert (code, out) == (
        2,
        {"error": f"catalog directory {missing} does not exist", "kind": "malformed-input"},
    )


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
        omega_l_report(Cover(load_fixture("GM_P2").bundle()), 3)


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


def test_fixture_report_guards_share_their_derivatives(monkeypatch):
    derivatives = count_calls(monkeypatch, Poly, "derivative")

    def report():
        derivatives.clear()
        return fixture_report(load_fixture("TWOCHART"), seed=3), len(derivatives)

    shared, shared_count = report()
    monkeypatch.setattr(Cover, "guarding", lambda cover: contextlib.nullcontext())
    separate, separate_count = report()
    assert shared == separate
    assert shared_count < separate_count


def test_connection_report_builds_the_classical_connection_once(monkeypatch):
    built = []
    original = connections.ClassicalConnection.__init__

    def counting(self, bundle):
        built.append(bundle)
        original(self, bundle)

    monkeypatch.setattr(connections.ClassicalConnection, "__init__", counting)
    report = cli.connection_report(Cover(load_fixture("COPRIME").bundle()), samples=5)
    assert report["mode"] == "classical" and report["passed"]
    assert len(built) == 1


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
    "bundle, message",
    [
        *((bundle, None) for bundle in [
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
            {**TWO_CHARTS, "g": {"(0,1)": "(t + 1)/t", "(0, 1)": "t"}},
        ]),
        (
            {**ONE_CHART, "field": {"p": 2, "e": 0}},
            "bad field description: extension degree e must be at least 1, got 0",
        ),
        (
            {**ONE_CHART, "field": {"p": 2, "e": -3}},
            "bad field description: extension degree e must be at least 1, got -3",
        ),
        (
            {**ONE_CHART, "field": {"p": 3, "e": 10**9}},
            "bad field description: field size p^e must be at most 256, got 3^1000000000",
        ),
        (
            {**ONE_CHART, "field": {"p": 2**61 - 1}},
            "bad field description: characteristic must be a prime in [2, 97], "
            "got 2305843009213693951",
        ),
        (
            {**TWO_CHARTS, "g": {"(a,b)": "t"}},
            "bad transition key '(a,b)'; expected '(i,j)'",
        ),
        (
            {**ONE_CHART, "charts": [{"inverted": ["t^2/(t + 1)"]}]},
            "non-exact division in polynomial 't^2/(t + 1)'",
        ),
        (
            {**TWO_CHARTS, "g": {"(0,1)": "t + 2"}},
            "transition unit on overlap (0, 1) is not a unit",
        ),
        (
            {**TWO_CHARTS, "g": ["t"]},
            "g must map chart pairs to transition units",
        ),
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
        "repeated-pair",
        "zero-e",
        "negative-e",
        "huge-e",
        "huge-p",
        "non-integer-key",
        "non-exact-division-in-inverted",
        "non-unit-transition",
        "transitions-not-a-mapping",
    ],
)
def test_malformed_bundle_exits_two_with_one_json_document(capsys, tmp_path, bundle, message):
    path = write_bundle(tmp_path, bundle)
    start = time.perf_counter()
    code = main(["validate", "--json", path])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)  # raises unless exactly one document
    assert code == 2
    assert out["kind"] == "malformed-input"
    if message is not None:
        assert out["error"] == message
    assert elapsed < 1.0


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing-file", "directory"])
def test_an_unreadable_bundle_path_exits_two_with_one_json_document(capsys, tmp_path, name):
    path = tmp_path / name
    code, out = run_cli(capsys, "validate", "--json", str(path))
    assert (code, out["kind"]) == (2, "malformed-input")
    assert out["error"].startswith(f"cannot read {path}: ")


# 5,000 nested arrays, 10 KB: deeper than the JSON decoder recurses
DEEP_ARRAYS = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "text",
    [
        DEEP_ARRAYS,
        json.dumps({**ONE_CHART, "field": None}).replace("null", DEEP_ARRAYS),
    ],
    ids=["bare-arrays", "under-field"],
)
def test_deeply_nested_json_exits_two_with_one_json_document(capsys, tmp_path, monkeypatch, text):
    (tmp_path / "bundle.json").write_text(text)
    code, out = run_cli(capsys, "validate", "--json", str(tmp_path / "bundle.json"))
    assert (code, out["kind"]) == (2, "malformed-input")
    assert "is not valid JSON" in out["error"]
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    (catalog / "DEEP.json").write_text(text)
    monkeypatch.setenv(CATALOG_ENV, str(catalog))
    code, out = run_cli(capsys, "catalog")
    assert (code, out["kind"]) == (2, "malformed-input")
    assert "is not valid JSON" in out["error"]


@pytest.mark.parametrize(
    "bundle, prefix",
    [
        ({**ONE_CHART, "u": [[0] * 200_000]}, "expected an expression string, got [0, 0, "),
        ({**ONE_CHART, "n": [0] * 100_000}, "n must be an integer, got [0, 0, "),
        ({**ONE_CHART, "u": ["t" * 2**20 + "#"]}, "bad character '#' in 'ttt"),
        ({**TWO_CHARTS, "g": {"(0," + " " * 2**20 + "7)": "t"}}, "transition key '(0,   "),
    ],
    ids=["long-list-unit", "long-list-order", "megabyte-expression", "megabyte-key"],
)
def test_hostile_input_is_quoted_in_a_bounded_error(capsys, tmp_path, bundle, prefix):
    path = write_bundle(tmp_path, bundle)
    code = main(["validate", "--json", path])
    out = capsys.readouterr().out
    doc = json.loads(out)  # raises unless exactly one document
    assert (code, doc["kind"]) == (2, "malformed-input")
    assert doc["error"].startswith(prefix) and "..." in doc["error"]
    assert len(out.encode()) < 1024


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


def count_rabin_tests(monkeypatch) -> list:
    """Record each polynomial handed to Rabin's test from now on."""
    tested = []
    rabin = Poly.is_irreducible

    def counted(f):
        tested.append(str(f))
        return rabin(f)

    monkeypatch.setattr(Poly, "is_irreducible", counted)
    return tested


def chart_bundle(p: int, charts: list[list[str]]) -> dict:
    return {
        "field": {"p": p, "e": 1},
        "n": 2,
        "charts": [{"inverted": inverted} for inverted in charts],
        "u": ["1"] * len(charts),
    }


@pytest.mark.parametrize(
    "bundle, message, tested",
    [
        (
            chart_bundle(2, [["t"], ["t + 1"], ["t^2 + 1"]]),
            "t^2 + 1 is not irreducible over F_2",
            ["t", "t + 1", "t^2 + 1"],
        ),
        (chart_bundle(5, [["2*t + 1"]]), "2*t + 1 is not monic", []),
        # chart 2 would fail on its non-monic first prime: the reducible prime
        # is refused where it first appears, in chart 1
        (
            chart_bundle(3, [["t"], ["t^2 + 2"], ["2*t", "t^2 + 2"]]),
            "t^2 + 2 is not irreducible over F_3",
            ["t", "t^2 + 2"],
        ),
        (
            chart_bundle(3, [["t + 1"], ["t", "t + 1", "t"]]),
            "inverted irreducibles must be distinct",
            ["t + 1", "t"],
        ),
        (
            chart_bundle(2, [["t^65 + t^18 + 1"]]),
            "inverted prime t^65 + t^18 + 1 has degree 65 > 64",
            [],
        ),
    ],
    ids=[
        "reducible-in-chart-2",
        "non-monic",
        "reducible-in-two-charts",
        "repeated-in-one-chart",
        "above-degree-cap",
    ],
)
def test_bad_inverted_prime_exits_two_with_its_message(
    capsys, tmp_path, monkeypatch, bundle, message, tested
):
    calls = count_rabin_tests(monkeypatch)
    code, out = run_cli(capsys, "validate", "--json", write_bundle(tmp_path, bundle))
    assert (code, out) == (2, {"error": message, "kind": "malformed-input"})
    assert calls == tested


# Sparse irreducibles of degree 60 over F_2.
SPARSE_PRIMES = [
    *(f"t^60 + t^{a} + 1" for a in (1, 9, 11, 15, 17, 23, 37, 43, 45, 49, 51, 59)),
    *(f"t^60 + t^{b} + t^2 + t + 1" for b in (10, 22, 32, 44)),
]


def sparse_bundle() -> dict:
    """16 charts, chart i inverting pi_i, with u_i = pi_i^3 and g_ij = pi_j/pi_i."""
    primes = SPARSE_PRIMES
    return {
        "field": {"p": 2, "e": 1},
        "n": 3,
        "charts": [{"inverted": [pi]} for pi in primes],
        "u": [f"({pi})^3" for pi in primes],
        "g": {
            f"({i},{j})": f"({primes[j]})/({primes[i]})"
            for i in range(len(primes))
            for j in range(i + 1, len(primes))
        },
    }


def count_calls(monkeypatch, cls, name) -> list:
    """Record the arguments of each call of cls.name from now on."""
    calls = []
    method = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("command, exit_code", [("validate", 0), ("cover", 1), ("class", 0)])
def test_each_distinct_prime_is_certified_once(capsys, tmp_path, monkeypatch, command, exit_code):
    # the overlap rings of 120 pairs and 560 triples test no prime again
    path = write_bundle(tmp_path, sparse_bundle())
    calls = count_rabin_tests(monkeypatch)
    start = time.perf_counter()
    code, out = run_cli(capsys, command, "--json", path)
    elapsed = time.perf_counter() - start
    assert code == exit_code
    assert calls == [str(Poly.parse(FqField(2), pi)) for pi in SPARSE_PRIMES]
    if command == "validate":
        assert out["valid"] is True
        assert elapsed < 2.0


def test_reading_a_bundle_of_inverted_primes_divides_no_polynomial(monkeypatch):
    # each unit and transition unit is a power or quotient of parenthesised
    # inverted primes: every group is found among the primes by lookup
    calls = count_calls(monkeypatch, Poly, "divmod")
    bundle = TorsionBundle.from_json(sparse_bundle())
    assert bundle.scheme.n_charts == len(SPARSE_PRIMES)
    assert calls == []


@pytest.mark.parametrize("prime, text", [("t", "t^1024"), ("t + 1", "(t+1)^1024")])
def test_a_power_of_an_inverted_prime_parses_with_at_most_one_division(
    monkeypatch, prime, text
):
    ring = ChartRing(FqField(2), [prime])
    calls = count_calls(monkeypatch, Poly, "divmod")
    x = ring.parse(text)
    assert (x.const, x.core.is_one(), x.exps) == (1, True, (1024,))
    assert len(calls) <= 1


def test_a_sparse_multiple_of_a_high_power_parses_with_few_divisions(monkeypatch):
    # t^1024 + 1 = (t + 1)^1024: its multiplicity is read in base 2
    ring = ChartRing(FqField(2), ["t + 1"])
    calls = count_calls(monkeypatch, Poly, "divmod")
    x = ring.parse("t^1024 + 1")
    assert (x.const, x.core.is_one(), x.exps) == (1, True, (1024,))
    assert len(calls) <= 30


def test_a_bundle_repeating_a_high_power_validates_with_few_divisions(
    capsys, tmp_path, monkeypatch
):
    # every chart inverts t + 1 and every transition is t^1024 + 1 = (t + 1)^1024
    m = 4
    bundle = {
        "field": {"p": 2},
        "n": 2,
        "charts": [{"inverted": ["t + 1"]}] * m,
        "u": ["t + 1"] * m,
        "g": {f"({i},{j})": "t^1024 + 1" for i in range(m) for j in range(i + 1, m)},
    }
    path = write_bundle(tmp_path, bundle)
    calls = count_calls(monkeypatch, Poly, "divmod")
    code, out = run_cli(capsys, "validate", "--json", path)
    assert (code, out["valid"]) == (1, False)  # g^2 = (t + 1)^2048, not u_j/u_i = 1
    assert len(calls) <= 30 * len(bundle["g"])


@pytest.mark.parametrize("name, exit_code", [("TWOCHART", 0), ("sparse", 1)])
def test_cover_takes_the_log_derivative_of_each_unit_once(
    capsys, tmp_path, monkeypatch, name, exit_code
):
    # validation, omega_l and each partial-forms chart read one du/u per chart
    bundle = sparse_bundle() if name == "sparse" else load_fixture(name).bundle_json
    calls = count_calls(monkeypatch, ChartRing, "dlog")
    code, _ = run_cli(capsys, "cover", "--json", write_bundle(tmp_path, bundle))
    assert code == exit_code
    assert len(calls) == len(bundle["charts"])


@pytest.mark.parametrize("name, built", [("TWOCHART", 3), ("GM_P2", 1), ("MIXED", 2)])
def test_cover_builds_each_cover_chart_once(capsys, monkeypatch, name, built):
    # the cover's charts, one per overlap for the glue certificate, and one per
    # chart for the unramified stage's inverse when its degree exceeds 1; the
    # factorization reuses the cover's charts
    calls = count_calls(monkeypatch, CoverChart, "__init__")
    code, _ = run_cli(capsys, "cover", "--fixture", name)
    assert code == 0
    assert len(calls) == built


# Shape 10 of many-chart-glue in perfbench/workloads.py at seed 1: p = 5 does
# not divide n = 4, so du/u does not glue.
NON_GLUING = {
    "field": {"p": 5, "e": 1},
    "n": 4,
    "charts": [
        {"inverted": ["t", "t^2 + t + 1", "t + 2"]},
        {"inverted": ["t", "t^2 + t + 1", "t + 1"]},
    ],
    "g": {"(0,1)": "(t + 1)*(t^2 + t + 1)^3/((t + 2)*(t^2 + t + 1)^3)"},
    "u": ["(3)*t*(t + 2)^4*(t^2 + t + 1)^12", "(3)*t*(t + 1)^4*(t^2 + t + 1)^12"],
}


def test_cover_checks_the_gluing_of_du_u_before_factoring(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(NON_GLUING))
    factorings = count_calls(monkeypatch, cli, "factor_cover")
    code, out = run_cli(capsys, "cover", "--json", str(path))
    assert code == 1
    assert out == {
        "error": "du/u does not glue on overlap (0, 1): "
        "(4*t^3 + 2*t^2 + t + 2)/(t*(t^2 + t + 1)*(t + 2)) vs "
        "(4*t^3 + 2*t^2 + 3*t + 1)/(t*(t^2 + t + 1)*(t + 1))",
        "kind": "failed-verification",
    }
    assert factorings == []


@pytest.mark.parametrize("name", ["TWOCHART", "GM_P2", "MIXED"])
def test_cover_prints_each_ring_element_once(capsys, monkeypatch, name):
    # the summary and the etale stage print the same units
    printed = count_calls(monkeypatch, RingElem, "__str__")
    code, _ = run_cli(capsys, "cover", "--fixture", name)
    assert code == 0
    elements = [id(args[0]) for args in printed]
    assert elements and len(elements) == len(set(elements))


def test_report_validates_the_bundle_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, TorsionBundle, "validate")
    code, out = run_cli(capsys, "report", "--fixture", "TWOCHART", "--samples", "0")
    assert code == 0
    assert out["fixtures"][0]["sections"]["validate"]["valid"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("samples, dga_draws", [(0, 0), (10, 1), (200, 20)])
def test_report_samples_set_the_dga_guard_samples(capsys, monkeypatch, samples, dga_draws):
    # only the DGA guard of d o d draws cover elements, one per sample on
    # GM_P2's one chart
    draws = count_calls(monkeypatch, CoverChart, "random_element")
    code, out = run_cli(capsys, "report", "--fixture", "GM_P2", "--samples", str(samples))
    assert code == 0 and out["passed"] is True
    assert len(draws) == dga_draws


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
    assert main(["verify", "--fixture", "GM_P2", "--sequence", "9.9"]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "malformed-input"


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


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


def test_out_option_into_an_unwritable_path_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out = run_cli(
        capsys, "validate", "--fixture", "GM_P2", "--out", str(target)
    )  # raises unless exactly one document
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert not target.exists()


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_exits_with_its_own_code_and_no_traceback(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["validate", "--fixture", "GM_P2"]) == cli.EXIT_CLOSED_STDOUT
    assert cli.EXIT_CLOSED_STDOUT not in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_a_pipe_closed_before_reading_exits_with_its_own_code_and_no_traceback():
    child = subprocess.Popen(
        [sys.executable, "-m", "taucover.cli", "report", "--all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    child.stdout.close()
    try:
        err = child.stderr.read()
        code = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert code == cli.EXIT_CLOSED_STDOUT
    assert b"Traceback" not in err, err.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fixture", "GM_P2", "--sequence", "9.9"],
        ["validate", "--fixture", "GM_P2", "--out", "{missing}/report.json"],
    ],
    ids=["argument-error", "unwritable-out"],
)
def test_an_error_document_into_a_closed_pipe_exits_with_its_own_code_and_no_stderr(
    argv, tmp_path
):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    child = subprocess.Popen(
        [sys.executable, "-m", "taucover.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    child.stdout.close()
    try:
        err = child.stderr.read()
        code = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert code == cli.EXIT_CLOSED_STDOUT
    assert err == b"", err.decode()


_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.text(),
        st.text(st.characters(exclude_categories=())),  # lone surrogates too
        st.text(st.characters(max_codepoint=0x1F)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_the_json_writer_matches_the_standard_encoder(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        # An explicit id: the repr of a bare object holds its address.
        pytest.param(object(), id="object()"),
        {"a": [1, {2, 3}]},
        [b"bytes"],
        {"z": 1j},
        {None: 0, True: 1},  # keys that do not sort
        {"a": 0, 1: 1},
    ],
    ids=repr,
)
def test_the_json_writer_raises_the_standard_type_error(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as raised:
        json_text(value)
    assert str(raised.value) == str(expected.value)


# values the standard encoder writes but no report holds
@pytest.mark.parametrize(
    "value", [{(1, 2): "a tuple key"}, {1: "an int key"}, {"a": 0.5}], ids=repr
)
def test_the_json_writer_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_output_is_byte_stable_across_runs(capsys):
    main(["class", "--fixture", "GM_P3"])
    first = capsys.readouterr().out
    main(["class", "--fixture", "GM_P3"])
    second = capsys.readouterr().out
    assert first == second


def fresh_cli(*argv) -> tuple[int, str]:
    """Exit code and stdout of the CLI in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "taucover.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    return result.returncode, result.stdout


def same_process_cli(capsys, *argv) -> tuple[int, str]:
    """Exit code and stdout of main() in this process, argument errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_one_parser_serves_successive_calls_without_carrying_state(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    first = ["connection", "--fixture", "GM_P2", "--seed", "5", "--samples", "3"]
    second = ["connection", "--fixture", "GM_P2"]
    target = tmp_path / "first.json"
    assert same_process_cli(capsys, *first, "--out", str(target)) == fresh_cli(
        *first, "--out", str(tmp_path / "fresh.json")
    )
    target.unlink()
    code, out = same_process_cli(capsys, *second)
    assert (code, out) == fresh_cli(*second)
    assert json.loads(out)["leibniz"]["charts"][0]["samples"] == 200
    assert not target.exists()
    args = cli.build_parser().parse_args(second)
    assert (args.seed, args.samples, args.out) == (0, 200, None)

    bad = ["verify", "--fixture", "GM_P2", "--sequence", "9.9"]
    code, out = same_process_cli(capsys, *bad)
    assert (code, out) == fresh_cli(*bad)
    assert code == 2 and json.loads(out)["kind"] == "malformed-input"
    good = ["validate", "--fixture", "GM_P2"]
    assert same_process_cli(capsys, *good) == fresh_cli(*good)


# sha256 of `report --all` stdout; no reported value depends on the seed
REPORT_ALL_SHA256 = "39dba4da681983a39dfe15fa8517c4a368892a643c77455bc312368ee02adb9a"


@pytest.mark.parametrize("seed", ["0", "7"])
def test_report_all_stdout_is_pinned(capsys, seed):
    assert main(["report", "--all", "--seed", seed]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == REPORT_ALL_SHA256


# One chart over F_2 at n = 1024 inverting t and t^2 + t + 1, u = t(t^2 + t + 1):
# u' = t^2 + 1 = (t + 1)^2 is no unit, so every weight block of the one-forms
# holds torsion, and `ambient_torsion` lists t^2 + 1 once per weight.
WIDE_TORSION = {
    "field": {"p": 2, "e": 1},
    "n": 1024,
    "charts": [{"inverted": ["t", "t^2 + t + 1"]}],
    "u": ["t*(t^2 + t + 1)"],
}
# sha256 of `omega-l --degree 1` stdout on WIDE_TORSION
WIDE_TORSION_OMEGA_L_SHA256 = "fc3412c2e941caad4be077513341ba7aafb59b5e07c5d9c3083dbf90e9cb2e39"


def test_omega_l_at_a_large_order_is_pinned(capsys, tmp_path):
    assert main(["omega-l", "--degree", "1", "--json", write_bundle(tmp_path, WIDE_TORSION)]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["charts"][0]["ambient_torsion"] == ["t^2 + 1"] * 1024
    assert hashlib.sha256(stdout.encode()).hexdigest() == WIDE_TORSION_OMEGA_L_SHA256
