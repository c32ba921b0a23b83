"""Printed text parses back: the printing rules of ``exprparse`` write every
polynomial and chart-ring element in the grammar that reads it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from taucover.fields import FqField
from taucover.polys import Poly
from taucover.rings import ChartRing

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 8)]


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p**e}" for p, e in FIELDS])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_printed_polynomial_parses_back(p, e, seed):
    field, rng = FqField(p, e), random.Random(seed)
    for _ in range(6):
        f = Poly(field, field.random_codes(rng, rng.randrange(10)))
        assert Poly.parse(field, str(f)) == f


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p**e}" for p, e in FIELDS])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_printed_ring_element_parses_back(p, e, seed):
    ring, rng = ChartRing(FqField(p, e), ["t", "t + 1"]), random.Random(seed)
    for max_den in range(4):
        x = ring.random_element(rng, max_deg=4, max_den=max_den)
        assert ring.parse(str(x)) == x
