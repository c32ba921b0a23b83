"""The guard samples' random stream, and the sections they evaluate, pinned.

The Leibniz and DGA guards draw their sections from ``ChartRing.random_element``
and ``CoverChart.random_element``.  No reported value depends on the seed, so
the ``report --all`` pin cannot see a draw that moved; this pin can.  On every
chart of every catalog fixture it hashes the text of the first 50 draws of
each, for seeds 0, 1 and 2, each stream started afresh.

A guard evaluates each distinct argument once, so a second pin hashes the
arguments each law evaluates, in order, over the same fixtures and seeds at
the default sample counts: a change that evaluates fewer sections fails it.
"""

import hashlib
import random

from taucover import connections, partialforms
from taucover.catalog import fixture_names, load_fixture
from taucover.connections import TauConnection
from taucover.covers import Cover

DRAWS = 50
SEEDS = (0, 1, 2)

GUARD_DRAWS_SHA256 = "95f950e5d03ba9f6cec796b4555d0919dacff02b7b735bfcf3d2c5f089eb0e68"
EVALUATED_GUARDS_SHA256 = "34d140ff5838781f930f6d131c88f8c238042408a76fca99b849aee3f9ee5da1"


def _guard_draws() -> str:
    lines = []
    for name in fixture_names():
        for index, chart in enumerate(Cover(load_fixture(name).bundle()).charts):
            for seed in SEEDS:
                rng = random.Random(seed)
                ring_draws = [
                    chart.ring.random_element(rng, max_deg=3, max_den=1)
                    for _ in range(DRAWS)
                ]
                rng = random.Random(seed)
                cover_draws = [chart.random_element(rng, max_deg=2) for _ in range(DRAWS)]
                lines.append(f"{name} {index} {seed}")
                lines.extend(map(str, ring_draws))
                lines.extend(map(str, cover_draws))
    return "\n".join(lines)


def test_guard_draws_are_pinned():
    assert hashlib.sha256(_guard_draws().encode()).hexdigest() == GUARD_DRAWS_SHA256


def _evaluated_guards(monkeypatch) -> str:
    lines = []
    law = partialforms._law

    def recording(is_zero, sides, generators, draw, samples):
        def recorded(*args):
            lines.append(" ".join(map(str, args)))
            return sides(*args)

        lines.append("law")
        return law(is_zero, recorded, generators, draw, samples)

    monkeypatch.setattr(partialforms, "_law", recording)
    monkeypatch.setattr(connections, "_law", recording)
    for name in fixture_names():
        cover = Cover(load_fixture(name).bundle())
        connection = TauConnection(cover)
        for seed in SEEDS:
            lines.append(f"{name} {seed}")
            connection.leibniz_check(seed=seed)
            partialforms.dga_check(cover, seed=seed)
    return "\n".join(lines)


def test_evaluated_guard_arguments_are_pinned(monkeypatch):
    digest = hashlib.sha256(_evaluated_guards(monkeypatch).encode()).hexdigest()
    assert digest == EVALUATED_GUARDS_SHA256
