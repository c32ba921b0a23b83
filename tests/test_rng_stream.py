"""The guard samples' random stream, pinned.

The Leibniz and DGA guards draw their sections from ``ChartRing.random_element``
and ``CoverChart.random_element``.  No reported value depends on the seed, so
the ``report --all`` pin cannot see a draw that moved; this pin can.  On every
chart of every catalog fixture it hashes the text of the first 50 draws of
each, for seeds 0, 1 and 2, each stream started afresh.
"""

import hashlib
import random

from taucover.catalog import fixture_names, load_fixture
from taucover.covers import Cover

DRAWS = 50
SEEDS = (0, 1, 2)

GUARD_DRAWS_SHA256 = "95f950e5d03ba9f6cec796b4555d0919dacff02b7b735bfcf3d2c5f089eb0e68"


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
