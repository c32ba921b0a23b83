"""Printed verdicts of ``validate`` and ``class``, re-checked from their text.

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
  every pair.
"""

import contextlib
import io
import itertools
import json
import re

import pytest
from oracle import Fraction
from test_corpus_pin import corpus, load_workloads

from taucover.catalog import catalog_dir, fixture_names
from taucover.cli import main
from taucover.fields import FqField

# trivial class verdicts: 18 of the corpus bundles, and the catalog's COPRIME
TRIVIAL_CLASSES = 19
SPOILED = 11


def spoiled(bundle: dict) -> dict:
    """The bundle with g(0,1) multiplied by t."""
    return {**bundle, "g": {**bundle["g"], "(0,1)": f"({bundle['g']['(0,1)']})*t"}}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(bundle JSON, {command: (exit code, stdout)}) for every bundle."""
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
        for command in ("validate", "class"):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([command, *argv])
            printed[command] = (code, json.loads(stdout.getvalue()))
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
