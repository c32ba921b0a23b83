"""Printed verdicts of ``validate``, ``class``, ``cover`` and ``connection``,
re-checked from their text.

A byte pin says that the output did not change; this says that it is right,
by a route that shares no code with the chart rings or the module engine.
Only a bundle's JSON and a command's stdout are read: every unit, transition
and printed element is read into F_q(t) by ``oracle.Fraction``.  The bundles
are the 7 catalog fixtures and the 66 of ``test_corpus_pin.py``, and 11
spoiled ones, so that failed checks are read too: the glue bundles of the
first seed with g(0,1) multiplied by t, which every chart inverts.  The
same checks read the bundles of ``ODD_EXTENSION``, over F_9 and F_25, where
the chart arithmetic adds field elements through Zech logarithms, and those
of ``SNF_SWAPS``, whose reductions swap rows and columns to reach a pivot.

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
import sys

import pytest
from oracle import Fraction, frac_derive, trial_division_is_irreducible
from test_corpus_pin import corpus, load_workloads

from taucover import cli, pidmod
from taucover.catalog import catalog_dir, fixture_names
from taucover.cli import json_text, main
from taucover.fields import FqField
from taucover.polys import Poly

# trivial class verdicts: 18 of the corpus bundles, and the catalog's COPRIME
TRIVIAL_CLASSES = 19
SPOILED = 11


# Hand-written bundles over odd-characteristic extension fields, each chart
# inverting a prime of degree 2: p | n and p prime to n, one chart and two.
ODD_EXTENSION = [
    {"field": {"p": 3, "e": 2}, "n": 3, "charts": [{"inverted": ["t", "t^2 + a + 1"]}],
     "u": ["t*(t^2 + a + 1)"], "g": {}},
    {"field": {"p": 3, "e": 2}, "n": 2, "charts": [{"inverted": ["t^2 + t + a"]}],
     "u": ["a*(t^2 + t + a)"], "g": {}},
    {"field": {"p": 3, "e": 2}, "n": 6,
     "charts": [{"inverted": ["t", "t^2 + a + 1"]}, {"inverted": ["t", "t^2 + t + a"]}],
     "u": ["t^2*(t^2 + a + 1)^6", "t^8*(t^2 + t + a)^6"],
     "g": {"(0,1)": "t*(t^2 + t + a)/(t^2 + a + 1)"}},
    {"field": {"p": 5, "e": 2}, "n": 5,
     "charts": [{"inverted": ["t", "t^2 + a"]}, {"inverted": ["t", "t^2 + 2*a"]}],
     "u": ["t*(t^2 + a)^5", "t*(t^2 + 2*a)^5"], "g": {"(0,1)": "(t^2 + 2*a)/(t^2 + a)"}},
    {"field": {"p": 5, "e": 2}, "n": 2, "charts": [{"inverted": ["t", "t^2 + t + a"]}],
     "u": ["a*t*(t^2 + t + a)^3"], "g": {}},
    {"field": {"p": 5, "e": 2}, "n": 2,
     "charts": [{"inverted": ["t", "t^2 + a + 1"]}, {"inverted": ["t", "t^2 + t + a"]}],
     "u": ["t*(t^2 + a + 1)^2", "t*(t^2 + t + a)^2"],
     "g": {"(0,1)": "(t^2 + t + a)/(t^2 + a + 1)"}},
]


# Bundles outside GLUE_SHAPES, WIDE_SHAPES and the corpus whose Smith normal
# forms swap rows and columns to bring a pivot forward: over F_3 one chart
# inverting t and t^2 + t + 2 with u = t^2 + t + 2, its twin over F_9, and a
# second F_3 chart inverting t + 1 with g(0,1) = t + 1.
SNF_SWAPS = [
    {"field": {"p": 3}, "n": 2, "charts": [{"inverted": ["t", "t^2 + t + 2"]}],
     "u": ["t^2 + t + 2"], "g": {}},
    {"field": {"p": 3, "e": 2}, "n": 2, "charts": [{"inverted": ["t", "t^2 + t + a"]}],
     "u": ["t^2 + t + a"], "g": {}},
    {"field": {"p": 3}, "n": 2,
     "charts": [{"inverted": ["t", "t^2 + t + 2"]}, {"inverted": ["t + 1", "t^2 + t + 2"]}],
     "u": ["t^2 + t + 2", "(t^2 + t + 2)*(t + 1)^2"], "g": {"(0,1)": "t + 1"}},
]

# The commands a swap bundle runs besides those of ``run_commands``.
SWAP_COMMANDS = [
    ["omega-l", "--degree", "1"],
    ["omega-l", "--degree", "2"],
    ["verify", "--sequence", "2.7"],
    ["verify", "--sequence", "2.11"],
]


def spoiled(bundle: dict) -> dict:
    """The bundle with g(0,1) multiplied by t."""
    return {**bundle, "g": {**bundle["g"], "(0,1)": f"({bundle['g']['(0,1)']})*t"}}


@contextlib.contextmanager
def recorded_documents():
    """Every payload ``main`` hands the JSON writer inside the block."""
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return json_text(payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "json_text", recording)
        yield payloads


@pytest.fixture(scope="module")
def written():
    """Every payload ``main`` hands the JSON writer while this module runs,
    but for those of ``odd_runs``, which records its own."""
    with recorded_documents() as payloads:
        yield payloads


def json_sources(directory, bundles) -> list:
    """(argv, bundle) for each bundle, written to a file of directory."""
    sources = []
    for index, bundle in enumerate(bundles):
        path = directory / f"bundle{index}.json"
        path.write_text(json.dumps(bundle))
        sources.append((["--json", str(path)], bundle))
    return sources


@pytest.fixture(scope="module")
def runs(written, tmp_path_factory):
    """The runs of the catalog, the corpus and the spoiled bundles."""
    sources = [
        (["--fixture", name], json.loads((catalog_dir() / f"{name}.json").read_text())["bundle"])
        for name in fixture_names()
    ]
    bundles = [json.loads(text) for text in corpus(load_workloads())]
    directory = tmp_path_factory.mktemp("bundles")
    sources += json_sources(directory, bundles + [spoiled(b) for b in bundles[:SPOILED]])
    out = run_commands(sources)
    assert len(out) == 7 + 66 + SPOILED
    return out


@pytest.fixture(scope="module")
def odd_runs(tmp_path_factory):
    """The runs of ``ODD_EXTENSION`` and of its F_9 two-chart bundle spoiled,
    with the payloads they hand the JSON writer."""
    bundles = ODD_EXTENSION + [spoiled(ODD_EXTENSION[2])]
    with recorded_documents() as payloads:
        out = run_commands(json_sources(tmp_path_factory.mktemp("odd"), bundles))
    return out, payloads


@contextlib.contextmanager
def counted_swaps():
    """The number of row and of column swaps of two distinct lines that
    ``pidmod.smith_normal_form`` makes inside the block, read by a tracer of
    calls to its nested ``row_swap`` and ``col_swap``."""
    swaps = {"row_swap": 0, "col_swap": 0}

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_name in swaps and code.co_filename == pidmod.__file__:
            swaps[code.co_name] += frame.f_locals["i"] != frame.f_locals["j"]

    previous = sys.gettrace()
    sys.settrace(tracer)  # call events only: the tracer asks for no line events
    try:
        yield swaps
    finally:
        sys.settrace(previous)


@pytest.fixture(scope="module")
def swap_runs(tmp_path_factory):
    """The runs of ``SNF_SWAPS``, the exit codes and documents of their
    ``SWAP_COMMANDS``, the payloads handed to the JSON writer and the swaps."""
    sources = json_sources(tmp_path_factory.mktemp("swaps"), SNF_SWAPS)
    extra = []
    with recorded_documents() as payloads, counted_swaps() as swaps:
        out = run_commands(sources)
        for argv, _ in sources:
            for command in SWAP_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    code = main([*command, *argv])
                extra.append((code, json.loads(stdout.getvalue())))
    return out, extra, payloads, swaps


def run_commands(sources) -> list:
    """(bundle JSON, {command: (exit code, stdout)}) for every (argv, bundle)
    of sources; ``connection`` runs only where p does not divide n."""
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


def check_validate(runs) -> int:
    """Each printed check of ``validate`` is its fraction identity; returns
    the number of failed checks, whose witnesses were read."""
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
    return failed


def test_validate_checks_are_the_fraction_identities(runs):
    assert check_validate(runs)


def check_trivial_witnesses(runs) -> int:
    """``class`` prints the transitions, and each trivial verdict's units
    split them; returns the number of trivial verdicts."""
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
    return trivial


def test_trivial_class_witnesses_split_the_printed_transitions(runs):
    assert check_trivial_witnesses(runs) == TRIVIAL_CLASSES


def check_class_differences(runs) -> int:
    """Each delta-condition difference of ``class`` is dlog(g_ij) dt;
    returns the number of nonzero differences read."""
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
    return read


def test_class_differences_are_the_log_derivatives_of_the_transitions(runs):
    assert check_class_differences(runs)


def check_etale_stage(runs) -> int:
    """``cover`` refuses an invalid or unglued bundle and otherwise prints
    the etale stage; returns the number of stages with p^r > 1."""
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
    return staged


def test_the_etale_stage_is_the_bundle_with_its_transitions_to_the_inseparable_degree(runs):
    assert check_etale_stage(runs)


def check_averaged_connection(runs) -> int:
    """``connection`` prints eta_i = dlog(u_i) / n and its delta condition;
    returns the number of valid bundles with p prime to n."""
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
    return coprime


def test_the_averaged_connection_is_dlog_u_over_n(runs):
    # COPRIME and the corpus glue bundles with p prime to n
    assert check_averaged_connection(runs) == 1 + 18


def check_writable(payloads):
    """Every payload holds only dicts with str keys, lists, str, int, bool
    and None."""

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

    for index, payload in enumerate(payloads):
        walk(payload, f"document {index}")


def test_every_printed_document_holds_only_what_the_writer_takes(runs, written):
    for argv in (["report", "--all"], ["catalog"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert len(written) == sum(len(printed) for _, printed in runs) + 2
    check_writable(written)


def test_the_odd_extension_bundles_invert_irreducible_primes_of_degree_two():
    shapes = set()
    for bundle in ODD_EXTENSION:
        field, n, _, _ = read_bundle(bundle)
        for chart in bundle["charts"]:
            primes = [Poly.parse(field, text) for text in chart["inverted"]]
            assert all(trial_division_is_irreducible(pi) for pi in primes), chart
            assert 2 in {pi.deg for pi in primes}, chart
        shapes.add((field.q, n % field.p == 0, len(bundle["charts"])))
    assert {q for q, _, _ in shapes} == {9, 25}
    assert {divides for _, divides, _ in shapes} == {True, False}
    assert 2 in {charts for _, _, charts in shapes}


def test_verdicts_over_odd_extension_fields_are_the_fraction_identities(odd_runs):
    runs, payloads = odd_runs
    assert check_validate(runs) == 1  # the spoiled bundle's pair check
    assert check_trivial_witnesses(runs) == 3  # the three with p prime to n
    assert check_class_differences(runs) == 3  # the three two-chart bundles
    assert check_etale_stage(runs) == 3  # the three with p | n
    assert check_averaged_connection(runs) == 3
    assert len(payloads) == sum(len(printed) for _, printed in runs)
    check_writable(payloads)


def test_verdicts_through_snf_swaps_are_the_fraction_identities(swap_runs):
    runs, extra, payloads, swaps = swap_runs
    assert check_validate(runs) == 0
    assert check_trivial_witnesses(runs) == 3
    assert check_class_differences(runs) == 1  # dlog(t + 1) on the two-chart bundle
    assert check_etale_stage(runs) == 0  # p prime to n: no inseparable stage
    assert check_averaged_connection(runs) == 3
    for code, report in extra:
        assert code in (0, 1) and "error" not in report, report
    assert len(payloads) == sum(len(printed) for _, printed in runs) + len(extra)
    check_writable(payloads)
    assert swaps["row_swap"] and swaps["col_swap"], swaps
