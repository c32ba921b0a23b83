"""Work-growth contracts: how the work of every command grows with the input.

In n: the bundle is one chart over F_2 with u = t, at n = 64 and at n = 256.
Work is counted three ways: RingElem arithmetic calls (+, -, *, negation,
powers and inverses), SNF cells, rows * cols of each matrix handed to
pidmod.smith_normal_form, and Rabin tests, calls of Poly.is_irreducible.
The guards' construction is counted too: calls of ChartRing.make and
ChartRing.derive.  Linear growth multiplies each count by 4; a ratio above 5
fails.  FpmModule constructions do not grow at all: a chart's form modules
hold the block of weight 0, the one block that weights 1..n-1 share, and n,
with nothing kept per weight.  Nor does the memory they hold: built under
tracemalloc, the two at n = 4096 hold at most 1 KB more than at n = 64.

In the guard samples: ``report`` on one chart at 50 and at 200 samples may
make, derive and do ring arithmetic at most 5 times as much, a linear growth
of 4.

In the chart count: the bundle is over F_37 with n = 37, and chart i inverts t
and t - i, at 8 and at 16 charts.  Rabin tests may grow at most like the
number of distinct primes, 9 and 17: the overlap rings of pairs inherit their
primes' certificates.  ChartRing builds may grow at most like the charts, the
pairs and the one scheme-wide ring together, 37 and 137, and calls of
ChartRing.restrict at most like the pairs, 28 and 120: every cocycle identity
is decided in the scheme-wide ring, so no triple overlap gets a ring of its
own unless its identity fails.  Reading the 32-chart bundle lists the chart
pairs a fixed number of times, not once per transition key.  Reading the
bundle makes Poly sums and differences that grow like the charts, 8 and 16,
not like the pairs: its m + 1 distinct primes recur in every unit and
transition text, and one read folds each distinct text or group once.
With 20 guard samples, ``report`` and ``connection`` may make and derive at
most like the charts and the pairs together, 36 and 136.  ``cover`` builds
one TorsionBundle, the one it reads, and lifts its transitions once; so
does ``class``, whose canonical cochain reuses the bundle's lift.

In the number of inverted primes: the bundle is one chart over F_2 with
n = 2 and u = t, inverting t and k primes of degree 16, the first k in the
order of their codes, at k = 4 and at k = 16.  ``connection`` with 20 guard
samples makes prime tests, the calls of Poly.multiplicity, all from
ChartRing.make, and polynomial products inside ChartRing.derive.  Each may
grow at most linearly in k, 4 times; a ratio above 5 fails.  Measured: 78
and 367 prime tests, 150 and 689 products.  Each test and each product
costs more as k grows, since a drawn numerator's degree grows with the
primes in its denominator; the counts do not show that.

``report`` reads the bundle as a catalog file through TAUCOVER_CATALOG_DIR, as
a user catalog would.

Over the catalog, ``report --all --seed 1`` makes at most 800 RingElem
subtractions: the guards compare the two sides of each law with no element
difference formed.
"""

import json
import sys
import tracemalloc

import pytest

from taucover import exprparse, pidmod
from taucover.catalog import CATALOG_ENV
from taucover.cli import main
from taucover.covers import ChartedScheme, CoverChart, TorsionBundle
from taucover.fields import FqField
from taucover.forms import one_forms_module, two_forms_module
from taucover.polys import Poly
from taucover.rings import ChartRing, RingElem

SMALL, LARGE = 64, 256
FEW_CHARTS, MORE_CHARTS = 8, 16
FEW_PRIMES, MORE_PRIMES = 4, 16
MAX_RATIO = 5
# RingElem subtractions of ``report --all --seed 1``: 400 when the guards
# compare their sides row by row, 1,622 when they subtracted them
MAX_REPORT_SUBTRACTIONS = 800
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "inv",
)
COMMANDS = {
    "validate": ["validate", "--json", "bundle.json"],
    "cover": ["cover", "--json", "bundle.json"],
    "omega-l-1": ["omega-l", "--degree", "1", "--json", "bundle.json"],
    "omega-l-2": ["omega-l", "--degree", "2", "--json", "bundle.json"],
    "verify-2.7": ["verify", "--sequence", "2.7", "--json", "bundle.json"],
    "verify-2.10": ["verify", "--sequence", "2.10", "--json", "bundle.json"],
    "verify-2.11": ["verify", "--sequence", "2.11", "--json", "bundle.json"],
    "connection": ["connection", "--json", "bundle.json"],
    "class": ["class", "--json", "bundle.json"],
    "report": ["report", "--fixture", "WIDE"],
}


def write_catalog(directory, bundle, description):
    """The bundle as bundle.json and as the catalog fixture WIDE.json."""
    fixture = {
        "name": "WIDE",
        "description": description,
        "bundle": bundle,
        "expected": {"validate": {"degenerate": False}},
        "provenance": {"validate": "direct"},
    }
    directory.mkdir()
    (directory / "bundle.json").write_text(json.dumps(bundle))
    (directory / "WIDE.json").write_text(json.dumps(fixture))


def one_chart(n: int) -> dict:
    return {"field": {"p": 2}, "n": n, "charts": [{"inverted": ["t"]}], "u": ["t"]}


def many_charts(m: int) -> dict:
    """Chart i inverts t and t - i; u_i = t (t - i)^37 and g_ij = (t - j)/(t - i)."""
    return {
        "field": {"p": 37},
        "n": 37,
        "charts": [{"inverted": ["t", f"t - {i}"]} for i in range(1, m + 1)],
        "u": [f"t*(t - {i})^37" for i in range(1, m + 1)],
        "g": {
            f"({i - 1},{j - 1})": f"(t - {j})/(t - {i})"
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
        },
    }


def work(monkeypatch, capsys, directory, argv) -> dict:
    """Arithmetic calls, SNF cells, Rabin tests, ChartRing builds,
    restrictions, the guards' element constructions (``make``) and
    derivatives (``derive``), and FpmModule constructions of one CLI run in
    ``directory``."""
    counts = {
        "ring_ops": 0, "snf_cells": 0, "rabin_tests": 0, "ring_builds": 0, "restricts": 0,
        "makes": 0, "derives": 0, "fpm_modules": 0,
    }

    def counted(method, metric="ring_ops"):
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return method(*args, **kwargs)

        return wrapper

    snf = pidmod.smith_normal_form

    def counted_snf(M):
        counts["snf_cells"] += M.nrows * M.ncols
        return snf(M)

    with monkeypatch.context() as m:
        m.chdir(directory)
        m.setenv(CATALOG_ENV, str(directory))
        for name in ARITHMETIC:
            m.setattr(RingElem, name, counted(getattr(RingElem, name)))
        m.setattr(pidmod, "smith_normal_form", counted_snf)
        m.setattr(Poly, "is_irreducible", counted(Poly.is_irreducible, "rabin_tests"))
        m.setattr(ChartRing, "_invert", counted(ChartRing._invert, "ring_builds"))
        m.setattr(ChartRing, "restrict", counted(ChartRing.restrict, "restricts"))
        m.setattr(ChartRing, "make", counted(ChartRing.make, "makes"))
        m.setattr(ChartRing, "derive", counted(ChartRing.derive, "derives"))
        m.setattr(pidmod.FpmModule, "__init__", counted(pidmod.FpmModule.__init__, "fpm_modules"))
        code = main(argv)
    json.loads(capsys.readouterr().out)  # exactly one document
    assert code in (0, 1), argv
    return counts


@pytest.mark.parametrize("command", list(COMMANDS))
def test_work_grows_at_most_linearly_in_n(command, tmp_path, monkeypatch, capsys):
    measured = {}
    for n in (SMALL, LARGE):
        write_catalog(tmp_path / f"n{n}", one_chart(n), f"one chart over F_2, u = t, n = {n}")
        measured[n] = work(monkeypatch, capsys, tmp_path / f"n{n}", COMMANDS[command])
    for metric, small in measured[SMALL].items():
        large = measured[LARGE][metric]
        assert large <= MAX_RATIO * small, (command, metric, small, large)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_fpm_module_constructions_do_not_grow_with_n(command, tmp_path, monkeypatch, capsys):
    built = {}
    for n in (SMALL, LARGE):
        write_catalog(tmp_path / f"n{n}", one_chart(n), f"one chart over F_2, u = t, n = {n}")
        built[n] = work(monkeypatch, capsys, tmp_path / f"n{n}", COMMANDS[command])["fpm_modules"]
    assert built[SMALL] == built[LARGE], (command, built)


def held_by_form_modules(n: int) -> int:
    """Bytes that the one-form and two-form modules of one chart over F_2
    with u = t hold once built, by tracemalloc; the chart is built first."""
    ring = ChartRing(FqField(2), ["t"])
    chart = CoverChart(ring, n, ring.parse("t"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        modules = (one_forms_module(chart), two_forms_module(chart))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [m.n_gens for m in modules] == [2 * n, n]
    return held


def test_form_modules_hold_the_same_memory_whatever_n():
    small = held_by_form_modules(64)
    large = held_by_form_modules(4096)
    assert large <= small + 1024, (small, large)


def test_report_work_grows_at_most_linearly_in_the_samples(tmp_path, monkeypatch, capsys):
    write_catalog(tmp_path / "one", one_chart(6), "one chart over F_2, u = t, n = 6")
    measured = {
        samples: work(
            monkeypatch, capsys, tmp_path / "one", [*COMMANDS["report"], "--samples", str(samples)]
        )
        for samples in (50, 200)
    }
    for metric in ("makes", "derives", "ring_ops"):
        few, more = measured[50][metric], measured[200][metric]
        assert more <= MAX_RATIO * few, (metric, few, more)


def chart_count_work(command, tmp_path, monkeypatch, capsys) -> dict:
    """The work of one command at FEW_CHARTS and at MORE_CHARTS charts."""
    argv = COMMANDS[command]
    if command in ("connection", "report"):
        argv = [*argv, "--samples", "0"]  # guard samples invert no prime
    measured = {}
    for m in (FEW_CHARTS, MORE_CHARTS):
        directory = tmp_path / f"m{m}"
        write_catalog(directory, many_charts(m), f"{m} charts over F_37, n = 37")
        measured[m] = work(monkeypatch, capsys, directory, argv)
    return measured


def pairs(m: int) -> int:
    return m * (m - 1) // 2


@pytest.mark.parametrize("command", list(COMMANDS))
def test_rabin_tests_grow_like_the_distinct_primes_in_the_chart_count(
    command, tmp_path, monkeypatch, capsys
):
    measured = chart_count_work(command, tmp_path, monkeypatch, capsys)
    tests = {m: counts["rabin_tests"] for m, counts in measured.items()}
    # m charts invert m + 1 distinct primes
    assert tests[MORE_CHARTS] * (FEW_CHARTS + 1) <= tests[FEW_CHARTS] * (MORE_CHARTS + 1), (
        command,
        tests,
    )


@pytest.mark.parametrize("command", list(COMMANDS))
def test_ring_builds_and_restrictions_grow_like_the_pairs_in_the_chart_count(
    command, tmp_path, monkeypatch, capsys
):
    measured = chart_count_work(command, tmp_path, monkeypatch, capsys)
    bounds = {
        # the charts, their pairs' overlaps and the scheme-wide ring
        "ring_builds": (
            FEW_CHARTS + pairs(FEW_CHARTS) + 1,
            MORE_CHARTS + pairs(MORE_CHARTS) + 1,
        ),
        "restricts": (pairs(FEW_CHARTS), pairs(MORE_CHARTS)),
    }
    for metric, (few, more) in bounds.items():
        grown = measured[MORE_CHARTS][metric] * few <= measured[FEW_CHARTS][metric] * more
        assert grown, (command, metric, measured)


@pytest.mark.parametrize("command", ["report", "connection"])
def test_guard_constructions_grow_like_the_charts_and_pairs_in_the_chart_count(
    command, tmp_path, monkeypatch, capsys
):
    measured = {}
    for m in (FEW_CHARTS, MORE_CHARTS):
        directory = tmp_path / f"m{m}"
        write_catalog(directory, many_charts(m), f"{m} charts over F_37, n = 37")
        argv = [*COMMANDS[command], "--samples", "20"]
        measured[m] = work(monkeypatch, capsys, directory, argv)
    few, more = FEW_CHARTS + pairs(FEW_CHARTS), MORE_CHARTS + pairs(MORE_CHARTS)
    for metric in ("makes", "derives"):
        grown = measured[MORE_CHARTS][metric] * few <= measured[FEW_CHARTS][metric] * more
        assert grown, (command, metric, measured)


def inverting_primes(k: int) -> dict:
    """One chart over F_2 inverting t and the first k irreducibles of degree
    16 in the order of their codes, with n = 2 and u = t."""
    field, primes, code = FqField(2), [], 1
    while len(primes) < k:
        f = Poly(field, [*((code >> i) & 1 for i in range(16)), 1])
        if f.is_irreducible():
            primes.append(str(f))
        code += 2
    return {"field": {"p": 2}, "n": 2, "charts": [{"inverted": ["t", *primes]}], "u": ["t"]}


def test_guard_prime_tests_and_products_grow_at_most_linearly_in_the_inverted_primes(
    tmp_path, monkeypatch, capsys
):
    multiplicity, product = Poly.multiplicity, Poly.__mul__
    in_derive = ChartRing.derive.__code__
    measured = {}
    for k in (FEW_PRIMES, MORE_PRIMES):
        path = tmp_path / f"k{k}.json"
        path.write_text(json.dumps(inverting_primes(k)))
        counts = {"prime_tests": 0, "derive_products": 0}

        def tested(*args, counts=counts):
            counts["prime_tests"] += 1
            return multiplicity(*args)

        def multiplied(*args, counts=counts):
            counts["derive_products"] += sys._getframe(1).f_code is in_derive
            return product(*args)

        with monkeypatch.context() as m:
            m.setattr(Poly, "multiplicity", tested)
            m.setattr(Poly, "__mul__", multiplied)
            code = main(["connection", "--samples", "20", "--json", str(path)])
        assert (code, json.loads(capsys.readouterr().out)["passed"]) == (0, True)
        measured[k] = counts
    for metric, few in measured[FEW_PRIMES].items():
        more = measured[MORE_PRIMES][metric]
        assert 0 < few and more <= MAX_RATIO * few, (metric, few, more)


def test_cover_builds_one_bundle_and_lifts_it_once(tmp_path, monkeypatch, capsys):
    write_catalog(tmp_path / "m8", many_charts(FEW_CHARTS), "8 charts over F_37, n = 37")
    counts = {"bundles": 0, "lifts": 0}

    def counted(method, metric):
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(TorsionBundle, "__init__", counted(TorsionBundle.__init__, "bundles"))
    monkeypatch.setattr(ChartedScheme, "lift", counted(ChartedScheme.lift, "lifts"))
    monkeypatch.chdir(tmp_path / "m8")
    assert main(COMMANDS["cover"]) == 0
    json.loads(capsys.readouterr().out)
    assert counts == {"bundles": 1, "lifts": 1}


def test_class_lifts_the_transitions_once(tmp_path, monkeypatch, capsys):
    # n = 2 over F_37: u_i = t (t - i)^2, with the transitions of many_charts
    bundle = {**many_charts(6), "n": 2, "u": [f"t*(t - {i})^2" for i in range(1, 7)]}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    lifts = []
    lift = ChartedScheme.lift
    monkeypatch.setattr(ChartedScheme, "lift", lambda *args: lifts.append(1) or lift(*args))
    assert main(["class", "--json", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["trivial"], out["passed"]) == (True, True)
    assert len(lifts) == 1


def test_reading_a_bundle_lists_the_chart_pairs_a_fixed_number_of_times(monkeypatch):
    calls = []
    listed = ChartedScheme.pairs
    monkeypatch.setattr(ChartedScheme, "pairs", lambda self: calls.append(1) or listed(self))
    bundle = TorsionBundle.from_json(many_charts(32))
    assert len(bundle.g) == pairs(32)
    # once for the transition keys, once for the constructor's pair check
    assert len(calls) <= 2, len(calls)


def test_reading_a_bundle_folds_each_distinct_polynomial_once(monkeypatch):
    sums = {}
    for m in (FEW_CHARTS, MORE_CHARTS):
        calls = []
        with monkeypatch.context() as patch:
            for name in ("__add__", "__sub__"):
                method = getattr(Poly, name)
                patch.setattr(
                    Poly, name, lambda *args, method=method: calls.append(1) or method(*args)
                )
            TorsionBundle.from_json(many_charts(m))
        sums[m] = len(calls)
    assert sums[MORE_CHARTS] * FEW_CHARTS <= sums[FEW_CHARTS] * MORE_CHARTS, sums


def test_reading_a_bundle_tokenizes_each_distinct_text_once(monkeypatch):
    # "t" is inverted by every chart: read again, it is a whole-text hit
    texts = []
    tokenize = exprparse.tokenize
    monkeypatch.setattr(
        exprparse, "tokenize", lambda text: texts.append(text) or tokenize(text)
    )
    TorsionBundle.from_json(many_charts(FEW_CHARTS))
    assert texts.count("t") == 1
    assert len(texts) == len(set(texts)), sorted(texts)


def test_the_guards_compare_their_sides_with_no_element_difference(monkeypatch, capsys):
    # comparing the two sides of a guard's law forms no difference of them:
    # only the rows of U*x whose diagonal entry can fail are read, and only a
    # row where the sides differ is read off as their difference
    calls = 0
    subtract = RingElem.__sub__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return subtract(self, other)

    monkeypatch.setattr(RingElem, "__sub__", counted)
    assert main(["report", "--all", "--seed", "1"]) == 0
    capsys.readouterr()
    assert calls <= MAX_REPORT_SUBTRACTIONS, calls
