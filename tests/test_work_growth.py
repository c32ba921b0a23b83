"""Work-growth contract: the work of every command grows at most linearly in n.

The bundle is one chart over F_2 with u = t, at n = 64 and at n = 256.  Work
is counted two ways: RingElem arithmetic calls (+, -, *, negation, powers and
inverses), and SNF cells, rows * cols of each matrix handed to
pidmod.smith_normal_form.  Linear growth multiplies each count by 4; a ratio
above 5 fails.  ``report`` reads the bundle as a catalog file through
TAUCOVER_CATALOG_DIR, as a user catalog would.
"""

import json

import pytest

from taucover import pidmod
from taucover.catalog import CATALOG_ENV
from taucover.cli import main
from taucover.rings import RingElem

SMALL, LARGE = 64, 256
MAX_RATIO = 5
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


def write_catalog(directory, n):
    """The bundle as bundle.json and as the catalog fixture WIDE.json."""
    bundle = {"field": {"p": 2}, "n": n, "charts": [{"inverted": ["t"]}], "u": ["t"]}
    fixture = {
        "name": "WIDE",
        "description": f"one chart over F_2, u = t, n = {n}",
        "bundle": bundle,
        "expected": {"validate": {"degenerate": False}},
        "provenance": {"validate": "direct"},
    }
    directory.mkdir()
    (directory / "bundle.json").write_text(json.dumps(bundle))
    (directory / "WIDE.json").write_text(json.dumps(fixture))


def work(monkeypatch, capsys, directory, argv) -> dict:
    """Arithmetic calls and SNF cells of one CLI run in ``directory``."""
    counts = {"ring_ops": 0, "snf_cells": 0}

    def counted(method):
        def wrapper(*args):
            counts["ring_ops"] += 1
            return method(*args)

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
        code = main(argv)
    json.loads(capsys.readouterr().out)  # exactly one document
    assert code in (0, 1), argv
    return counts


@pytest.mark.parametrize("command", list(COMMANDS))
def test_work_grows_at_most_linearly_in_n(command, tmp_path, monkeypatch, capsys):
    measured = {}
    for n in (SMALL, LARGE):
        write_catalog(tmp_path / f"n{n}", n)
        measured[n] = work(monkeypatch, capsys, tmp_path / f"n{n}", COMMANDS[command])
    for metric, small in measured[SMALL].items():
        large = measured[LARGE][metric]
        assert large <= MAX_RATIO * small, (command, metric, small, large)
