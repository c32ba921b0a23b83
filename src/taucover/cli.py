"""Command-line front end: build covers, run checks, emit JSON reports.

Subcommands
-----------
validate    cocycle and compatibility identities of a bundle
cover       root cover with glue certificates, stage factorization, ramification
omega-l     presentation invariants of the partial forms in a chosen degree
verify      junction-exactness of a named sequence id (2.7, 2.10, 2.11)
connection  canonical connection with Leibniz, flatness, and gluing checks
class       cocycle class data and the triviality decision
catalog     list the shipped example bundles
report      full pipeline over catalog fixtures, compared to expected blocks

Bundles come from ``--fixture NAME`` (catalog) or ``--json FILE`` (user data).
The library builds the omega-l and connection sections; this module the rest.
Every subcommand prints one JSON document; ``--out FILE`` also writes it to
disk.  Exit codes: 0 when the requested checks pass (for ``verify`` on a
fixture: when results match the fixture's expected block), 1 on a failed
verification, 2 on malformed input, and EXIT_CLOSED_STDOUT (141) when the
reader of stdout closed it before the document was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import catalog
from .catalog import Fixture
from .connections import TauConnection, cech_class, is_trivial_class
from .covers import Cover, TorsionBundle, factor_cover
from .errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedInput,
    NotAUnit,
    NotIrreducible,
    RingMismatch,
    TauCoverError,
)
from .forms import cartier, omega_l, one_form_str
from .partialforms import DEFAULT_SAMPLES, dga_check, omega_l_report, verify_sequence

# Sequence ids are opaque labels for the shipped exactness claims:
# degree-1, degree-2 with the literal tail, degree-2 with the corrected tail.
SEQUENCE_IDS = {
    "2.7": (1, False),
    "2.10": (2, False),
    "2.11": (2, True),
}

# Each product-rule guard sample costs one module reduction; five times
# DEFAULT_SAMPLES bounds what `--samples` can ask for.
MAX_SAMPLES = 1000

# What a shell reports for a process ended by SIGPIPE (128 + 13): the reader
# closed stdout before the document reached it, whatever the verdict.
EXIT_CLOSED_STDOUT = 141

_MALFORMED = (
    MalformedInput,
    NotAUnit,
    NotIrreducible,
    FieldMismatch,
    RingMismatch,
    DivisionByZero,
)


# -- report builders


def cover_report(cover: Cover) -> dict:
    bundle = cover.bundle
    # omega_l raises GluingFailure when du/u does not glue, and factor_cover
    # cannot raise on a validated cover, so the check comes first.
    forms = omega_l(bundle)
    factor = factor_cover(cover)
    cartier_fixed = all(cartier(x) == x for x in forms)
    glue_passed = all(c["passed"] for c in cover.glue_certificates)
    return {
        "summary": cover.summary(),
        "glue_passed": glue_passed,
        "factor": factor,
        "omega_l": {
            "forms": [one_form_str(x) for x in forms],
            "degenerate": bundle.is_degenerate(),
            "cartier_fixed": cartier_fixed,
        },
        "passed": glue_passed and factor["passed"] and cartier_fixed,
    }


def _failures(run: dict) -> list[dict]:
    """Flatten the inexact junctions of a sequence run into one list."""
    out = []
    for chart in run["charts"]:
        for junction in chart["junctions"]:
            if junction["exact"]:
                continue
            detail = junction.get("detail") or {}
            out.append(
                {
                    "chart": chart["chart"],
                    "at": junction["at"],
                    "witness": junction["witness"],
                    "note": junction.get("note"),
                    "image": detail.get("image"),
                }
            )
    return out


def sequence_reports(cover: Cover, sequence_ids) -> dict:
    """One report per sequence id; each (degree, tail) sequence runs once.

    A degree-2 report carries both tails, so "2.10" and "2.11" share two runs.
    """
    runs = {}
    reports = {}
    for sid in sequence_ids:
        degree, corrected = SEQUENCE_IDS[sid]
        for tail in (False,) if degree == 1 else (False, True):
            if (degree, tail) not in runs:
                runs[degree, tail] = verify_sequence(cover, degree, corrected=tail)
        chosen = runs[degree, corrected]
        report = {
            "sequence": sid,
            "degree": degree,
            "exact": chosen["exact"],
            "failures": _failures(chosen),
        }
        if degree == 1:
            report["report"] = chosen
        else:
            literal, corrected_run = runs[2, False], runs[2, True]
            report["literal_exact"] = literal["exact"]
            report["corrected_exact"] = corrected_run["exact"]
            report["literal"] = literal
            report["corrected"] = corrected_run
        reports[sid] = report
    return reports


def class_report(cover: Cover) -> dict:
    cocycle = cech_class(cover)
    decision = is_trivial_class(cover)
    return {
        "trivial": decision["trivial"],
        "obstruction": decision["obstruction"],
        "witness": decision["witness"],
        "details": decision["details"],
        "s_kills_coboundaries": decision["s_kills_coboundaries"],
        "cocycle": cocycle,
        "passed": cocycle["passed"],
    }


def fixture_report(fixture: Fixture, seed: int = 0, samples: int = DEFAULT_SAMPLES) -> dict:
    """Run every pipeline on one fixture and compare to its expected block."""
    cover = Cover(fixture.bundle())
    sections = {
        "validate": cover.validation,
        "cover": cover_report(cover),
        "omega_l": omega_l_report(cover, 1),
        "sequences": sequence_reports(cover, SEQUENCE_IDS),
    }
    with cover.guarding():  # the two guards share derivatives and draws
        sections["dga"] = dga_check(cover, seed=seed, samples=samples // 10)
        sections["connection"] = TauConnection(cover).report(seed=seed, samples=samples)
    sections["class"] = class_report(cover)
    mismatches = [
        key
        for key, expected in fixture.expected.items()
        if not matches_expected(expected, sections.get(key))
    ]
    return {
        "fixture": fixture.name,
        "sections": sections,
        "mismatches": mismatches,
        "matches_expected": not mismatches,
    }


def matches_expected(expected, actual) -> bool:
    """Recursive comparison; expected dicts may omit keys the report adds."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(
            key in actual and matches_expected(value, actual[key])
            for key, value in expected.items()
        )
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return False
        return all(matches_expected(e, a) for e, a in zip(expected, actual))
    return expected == actual


# -- the JSON writer


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

    With an indent the standard library encodes in pure Python, through a
    generator per container; this appends every piece to one list.  It
    takes what a report holds (dicts with str keys, lists, tuples, str, int,
    bool and None) and raises TypeError on the rest; it does not look for
    circular references, which no report holds.
    """
    out = []
    append = out.append

    def write(value, newline):
        if isinstance(value, str):
            append(_quote(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                append(sep)
                write(item, inner)
                sep = "," + inner
            append(newline + "]")
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in sorted(value.items()):
                append(sep + _quote(key) + ": ")
                write(item, inner)
                sep = "," + inner
            append(newline + "}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(payload, "\n")
    return "".join(out)


# -- argument handling


class _Parser(argparse.ArgumentParser):
    """Argument errors are malformed input, reported by ``main`` like other bad input."""

    def error(self, message):
        raise MalformedInput(message)


def _add_bundle_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fixture", help="catalog fixture name")
    parser.add_argument("--json", help="path of a bundle JSON file")
    parser.add_argument("--out", help="also write the report to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls;
    parsing keeps no state between calls."""
    parser = _Parser(prog="taucover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check the bundle identities")
    _add_bundle_options(p)

    p = sub.add_parser("cover", help="build the root cover and factor it")
    _add_bundle_options(p)

    p = sub.add_parser("omega-l", help="partial-form invariants in one degree")
    _add_bundle_options(p)
    p.add_argument("--degree", type=int, required=True, choices=[1, 2])

    p = sub.add_parser("verify", help="junction exactness of a named sequence")
    _add_bundle_options(p)
    p.add_argument("--sequence", required=True, choices=sorted(SEQUENCE_IDS))

    p = sub.add_parser("connection", help="connection, Leibniz, flatness, gluing")
    _add_bundle_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p = sub.add_parser("class", help="cocycle class and triviality decision")
    _add_bundle_options(p)

    p = sub.add_parser("catalog", help="list the shipped example bundles")
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("report", help="full pipeline over catalog fixtures")
    p.add_argument("--all", action="store_true", help="run every fixture")
    p.add_argument("--fixture", help="run a single fixture")
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_SAMPLES,
        help="random sections guarding the Leibniz check; the DGA laws draw "
        "one tenth as many",
    )

    return parser


def _load_bundle(args) -> tuple[TorsionBundle, Fixture | None]:
    if args.fixture and args.json:
        raise MalformedInput("pass either --fixture or --json, not both")
    if args.fixture:
        fixture = catalog.load_fixture(args.fixture)
        return fixture.bundle(), fixture
    if args.json:
        path = Path(args.json)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise MalformedInput(f"cannot read {path}: {exc}") from None
        except (ValueError, RecursionError) as exc:  # nesting too deep to decode
            raise MalformedInput(f"{path} is not valid JSON: {exc}") from None
        return TorsionBundle.from_json(data), None
    raise MalformedInput("a bundle is required: pass --fixture NAME or --json FILE")


# -- subcommand bodies


def _cmd_verify(args) -> tuple[dict, int]:
    bundle, fixture = _load_bundle(args)
    report = sequence_reports(Cover(bundle), [args.sequence])[args.sequence]
    if fixture is not None:
        expected = fixture.expected.get("sequences", {}).get(args.sequence)
        if expected is None:
            raise MalformedInput(
                f"fixture {fixture.name} has no expected block for {args.sequence}"
            )
        ok = matches_expected(expected, report)
        report = {**report, "matches_expected": ok}
        return report, 0 if ok else 1
    # User bundles carry no expected block; the well-defined claim decides.
    ok = report["exact"] if report["degree"] == 1 else report["corrected_exact"]
    return report, 0 if ok else 1


def _cmd_catalog(args) -> tuple[dict, int]:
    entries = []
    for name in catalog.fixture_names():
        fixture = catalog.load_fixture(name)
        bundle = fixture.bundle_json
        entries.append(
            {
                "name": name,
                "description": fixture.description,
                "order": bundle["n"],
                "field": bundle["field"],
                "charts": len(bundle["charts"]),
                "degenerate": fixture.expected["validate"]["degenerate"],
            }
        )
    return {"catalog_dir": str(catalog.catalog_dir()), "fixtures": entries}, 0


def _cmd_report(args) -> tuple[dict, int]:
    if args.all:
        names = catalog.fixture_names()
    elif args.fixture:
        names = [args.fixture]
    else:
        raise MalformedInput("pass --all or --fixture NAME")
    results = []
    ok = True
    for name in names:
        fixture = catalog.load_fixture(name)
        result = fixture_report(fixture, seed=args.seed, samples=args.samples)
        ok = ok and result["matches_expected"]
        results.append(result)
    return {"fixtures": results, "passed": ok}, 0 if ok else 1


def _dispatch(args) -> tuple[dict, int]:
    if not 0 <= getattr(args, "samples", 0) <= MAX_SAMPLES:
        raise MalformedInput(f"--samples must lie in [0, {MAX_SAMPLES}], got {args.samples}")
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "verify":
        return _cmd_verify(args)
    bundle, _ = _load_bundle(args)
    if args.command == "validate":
        report = bundle.validate()
        return report, 0 if report["valid"] else 1
    cover = Cover(bundle)
    if args.command == "cover":
        report = cover_report(cover)
    elif args.command == "omega-l":
        report = omega_l_report(cover, args.degree)
    elif args.command == "connection":
        report = TauConnection(cover).report(seed=args.seed, samples=args.samples)
    else:  # argparse admits no other command
        report = class_report(cover)
    return report, 0 if report["passed"] else 1


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        payload, code = _dispatch(args)
    except _MALFORMED as exc:
        payload, code = {"error": str(exc), "kind": "malformed-input"}, 2
    except TauCoverError as exc:
        payload, code = {"error": str(exc), "kind": "failed-verification"}, 1
    text = json_text(payload)
    out_path = getattr(args, "out", None)
    if out_path:
        # Written before printing, so a failed write prints only its error.
        try:
            Path(out_path).write_text(text + "\n")
        except OSError as exc:
            error = {"error": f"cannot write {out_path}: {exc}", "kind": "malformed-input"}
            text, code = json_text(error), 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The interpreter's final flush would raise again on the closed pipe.
        sys.stdout = open(os.devnull, "w")
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
