"""Printed verdicts of ``validate``, ``class``, ``cover`` and ``connection``,
re-checked from their text.

A byte pin says that the output did not change; this says that it is right,
by a route that shares no code with the chart rings or the module engine.
Only a bundle's JSON and a command's stdout are read: every unit, transition
and printed element is read into F_q(t) by ``oracle.Fraction``.  The bundles
are the 7 catalog fixtures and the 66 of ``test_corpus_pin.py``, and 11
spoiled ones, so that failed checks are read too: the glue bundles of the
first seed with g(0,1) multiplied by t, which every chart inverts.

- ``validate`` prints one check per pair, ``g(i,j)^n = u_j/u_i``, then one
  per triple, ``g(i,j)*g(j,k) = g(i,k)``.  Each check's ``passed`` is the
  fraction identity, a failed one's witness is the quotient of its two sides,
  and ``valid`` is their conjunction.
- ``class`` prints the bundle's transitions.  On a trivial verdict its
  units lambda_i give lambda_j / lambda_i = the printed transition (i, j) on
  every pair.  Each delta-condition difference reads ``(x)*dt`` with
  x = dlog(g_ij), or ``0`` when dlog(g_ij) = 0.
- ``cover`` is refused unless the bundle is valid and its du/u glue.  It
  prints the etale stage as a bundle: its transitions are the bundle's to
  the power p^r, the inseparable degree, and its own pair and triple
  identities hold at its order n / p^r.
- ``connection``, on the bundles with p not dividing n, prints the averaged
  connection eta_i = dlog(u_i) / n, and each overlap's delta condition
  passes exactly when dlog(g_ij) = eta_j - eta_i.  It runs 20 guard samples,
  which no check here reads.

Every document ``main`` hands the JSON writer on these runs, and on
``report --all`` and ``catalog``, holds only dicts with str keys, lists,
str, int, bool and None: values the writer takes.
"""

import contextlib
import io
import itertools
import json
import re

import pytest
from oracle import Fraction, frac_derive
from test_corpus_pin import corpus, load_workloads

from taucover import cli
from taucover.catalog import catalog_dir, fixture_names
from taucover.cli import json_text, main
from taucover.fields import FqField

# trivial class verdicts: 18 of the corpus bundles, and the catalog's COPRIME
TRIVIAL_CLASSES = 19
SPOILED = 11


def spoiled(bundle: dict) -> dict:
    """The bundle with g(0,1) multiplied by t."""
    return {**bundle, "g": {**bundle["g"], "(0,1)": f"({bundle['g']['(0,1)']})*t"}}


@pytest.fixture(scope="module")
def written():
    """Every payload ``main`` hands the JSON writer while this module runs."""
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return json_text(payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "json_text", recording)
        yield payloads


@pytest.fixture(scope="module")
def runs(written, tmp_path_factory):
    """(bundle JSON, {command: (exit code, stdout)}) for every bundle;
    ``connection`` runs only where p does not divide n."""
    sources = [
        (["--fixture", name], json.loads((catalog_dir() / f"{name}.json").read_text())["bundle"])
        for name in fixture_names()
    ]
    bundles = [json.loads(text) for text in corpus(load_workloads())]
    directory = tmp_path_factory.mktemp("bundles")
    for index, bundle in enumerate(bundles + [spoiled(b) for b in bundles[:SPOILED]]):
        path = directory / f"bundle{index}.json"
        path.write_text(json.dumps(bundle))
        sources.append((["--json", str(path)], bundle))
    out = []
    for argv, bundle in sources:
        printed = {}
        commands = [["validate"], ["class"], ["cover"]]
        if bundle["n"] % bundle["field"]["p"]:
            commands.append(["connection", "--samples", "20"])
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([*command, *argv])
            printed[command[0]] = (code, json.loads(stdout.getvalue()))
        out.append((bundle, printed))
    assert len(out) == 7 + 66 + SPOILED
    return out


def read_bundle(bundle):
    """The field, n, the units u_i and the transitions g_ij of a bundle."""
    field_json = bundle["field"]
    field = FqField(field_json["p"], field_json.get("e", 1))
    u = [Fraction.parse(field, text) for text in bundle["u"]]
    g = {}
    for key, text in bundle.get("g", {}).items():
        i, j = map(int, re.fullmatch(r"\((\d+),(\d+)\)", key).groups())
        g[(i, j)] = Fraction.parse(field, text)
    return field, bundle["n"], u, g


def dlog(x: Fraction) -> Fraction:
    return Fraction(frac_derive((x.num, x.den))) / x


def test_validate_checks_are_the_fraction_identities(runs):
    failed = 0
    for bundle, printed in runs:
        field, n, u, g = read_bundle(bundle)
        code, report = printed["validate"]
        charts = range(len(u))
        expected = []
        for i, j in itertools.combinations(charts, 2):
            lhs, rhs = g[(i, j)] ** n, u[j] / u[i]
            expected.append((f"g({i},{j})^{n} = u{j}/u{i}", lhs, rhs))
        for i, j, k in itertools.combinations(charts, 3):
            lhs, rhs = g[(i, j)] * g[(j, k)], g[(i, k)]
            expected.append((f"g({i},{j})*g({j},{k}) = g({i},{k})", lhs, rhs))
        checks = report["checks"]
        assert [c["check"] for c in checks] == [name for name, _, _ in expected]
        for check, (name, lhs, rhs) in zip(checks, expected):
            assert check["passed"] == (lhs == rhs), name
            if check["passed"]:
                assert check["witness"] is None, name
            else:
                failed += 1
                assert Fraction.parse(field, check["witness"]) == lhs / rhs, name
        assert report["valid"] == all(c["passed"] for c in checks)
        assert code == (0 if report["valid"] else 1)
    assert failed  # the witnesses of failed checks were read


def test_trivial_class_witnesses_split_the_printed_transitions(runs):
    trivial = 0
    for bundle, printed in runs:
        field, _, _, g = read_bundle(bundle)
        _, report = printed["class"]
        if "error" in report:  # only a bundle that fails validate has no cover
            assert not printed["validate"][1]["valid"]
            continue
        assert printed["validate"][1]["valid"]
        transitions = {
            key: Fraction.parse(field, text) for key, text in report["cocycle"]["transitions"].items()
        }
        assert transitions == {f"({i},{j})": x for (i, j), x in g.items()}
        if not report["trivial"]:
            assert report["witness"] is None
            continue
        trivial += 1
        units = [Fraction.parse(field, text) for text in report["witness"]["units"]]
        for i, j in itertools.combinations(range(len(units)), 2):
            assert units[j] / units[i] == transitions[f"({i},{j})"], (i, j)
    assert trivial == TRIVIAL_CLASSES


def test_class_differences_are_the_log_derivatives_of_the_transitions(runs):
    read = 0
    for bundle, printed in runs:
        field, _, _, g = read_bundle(bundle)
        _, report = printed["class"]
        if "error" in report:
            continue
        overlaps = report["cocycle"]["delta_condition"]["overlaps"]
        assert [tuple(o["overlap"]) for o in overlaps] == list(g)
        for overlap in overlaps:
            x, text = dlog(g[tuple(overlap["overlap"])]), overlap["difference"]
            # dlog of a unit is 0 or a proper fraction, which prints in parentheses
            if x.num.is_zero():
                assert text == "0", overlap
            else:
                inner = re.fullmatch(r"\((.*)\)\*dt", text)
                assert inner and Fraction.parse(field, inner[1]) == x, overlap
                read += 1
    assert read


def test_the_etale_stage_is_the_bundle_with_its_transitions_to_the_inseparable_degree(runs):
    staged = 0
    for bundle, printed in runs:
        field, n, u, g = read_bundle(bundle)
        code, report = printed["cover"]
        # a cover needs a valid bundle whose du/u glue
        unglued = [pair for pair in g if dlog(u[pair[0]]) != dlog(u[pair[1]])]
        if not printed["validate"][1]["valid"] or unglued:
            assert code == 1 and report["kind"] == "failed-verification"
            if printed["validate"][1]["valid"]:
                assert f"du/u does not glue on overlap {unglued[0]}" in report["error"]
            continue
        factor = report["factor"]
        pr = factor["inseparable_degree"]
        stage = factor["etale_stage"]
        stage_field, m, stage_u, stage_g = read_bundle(stage)
        assert (stage_field.p, stage_field.e) == (field.p, field.e)
        assert m * pr == n and factor["order"] == n

        def inverted(b):
            return [[Fraction.parse(field, pi) for pi in c["inverted"]] for c in b["charts"]]

        assert inverted(stage) == inverted(bundle)
        assert stage_u == u
        assert stage_g == {pair: x**pr for pair, x in g.items()}
        for i, j in itertools.combinations(range(len(stage_u)), 2):
            assert stage_g[(i, j)] ** m == stage_u[j] / stage_u[i], (i, j)
        for i, j, k in itertools.combinations(range(len(stage_u)), 3):
            assert stage_g[(i, j)] * stage_g[(j, k)] == stage_g[(i, k)], (i, j, k)
        staged += pr > 1
    assert staged


def test_the_averaged_connection_is_dlog_u_over_n(runs):
    coprime = 0
    for bundle, printed in runs:
        if "connection" not in printed:
            continue
        code, report = printed["connection"]
        if "error" in report:
            assert code == 1 and not printed["validate"][1]["valid"]
            continue
        coprime += 1
        field, n, u, g = read_bundle(bundle)
        classical = report["classical"]
        eta = [Fraction.parse(field, text) for text in classical["eta"]]
        n_inv = Fraction.parse(field, str(pow(n, -1, field.p)))
        assert eta == [dlog(x) * n_inv for x in u]
        overlaps = classical["delta_condition"]["overlaps"]
        assert [tuple(o["overlap"]) for o in overlaps] == list(g)
        for overlap in overlaps:
            i, j = overlap["overlap"]
            assert overlap["passed"] == (dlog(g[(i, j)]) == eta[j] - eta[i]), overlap
    assert coprime == 1 + 18  # COPRIME and the corpus glue bundles with p prime to n


def test_every_printed_document_holds_only_what_the_writer_takes(runs, written):
    for argv in (["report", "--all"], ["catalog"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert len(written) == sum(len(printed) for _, printed in runs) + 2

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                assert type(key) is str, f"{path}: key {key!r}"
                walk(item, f"{path}.{key}")
        elif type(value) is list:
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        else:
            assert value is None or type(value) in (str, int, bool), f"{path}: {value!r}"

    for index, payload in enumerate(written):
        walk(payload, f"document {index}")
