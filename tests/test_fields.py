"""Finite field arithmetic, exhaustive where the field is small enough."""

import random

import pytest
from hypothesis import given, strategies as st

from taucover.errors import DivisionByZero, FieldMismatch
from taucover.fields import FqField, modulus_coeffs

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 6)]


def field_ids(params):
    return [f"F{p ** e}" for p, e in params]


@pytest.fixture(params=SMALL_FIELDS, ids=field_ids(SMALL_FIELDS))
def field(request):
    p, e = request.param
    return FqField(p, e)


def test_construction_bounds():
    with pytest.raises(ValueError):
        FqField(4, 1)  # not prime
    with pytest.raises(ValueError):
        FqField(101, 1)  # prime too large
    with pytest.raises(ValueError):
        FqField(2, 9)  # 512 > 256
    FqField(2, 8)  # 256 is allowed
    FqField(97, 1)


def test_modulus_is_canonical_and_pinned():
    # same object for repeated construction, stable coefficients
    assert FqField(3, 2) is FqField(3, 2)
    assert modulus_coeffs(2, 2) == (1, 1, 1)  # a^2 + a + 1
    assert modulus_coeffs(2, 3) == (1, 1, 0, 1)  # a^3 + a + 1
    assert modulus_coeffs(2, 4) == (1, 1, 0, 0, 1)  # a^4 + a + 1


# The modulus of every extension field F_{p^e}, e >= 2, p^e <= 256.  Reports
# print extension elements in this basis, so these must never change.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
}


def test_every_extension_modulus_is_pinned():
    primes = [p for p in range(2, 17) if all(p % d for d in range(2, p))]
    extensions = {(p, e) for p in primes for e in range(2, 9) if p**e <= 256}
    assert extensions == set(PINNED_MODULI)
    for (p, e), coeffs in PINNED_MODULI.items():
        assert modulus_coeffs(p, e) == coeffs, (p, e)


def test_f4_multiplication_table():
    F4 = FqField(2, 2)
    a = F4.gen
    one = F4.one
    assert a * a == a + one
    assert a * (a + one) == one
    assert (a + one) * (a + one) == a
    assert a.inv() == a + one


def test_frobenius_inverse_f4():
    F4 = FqField(2, 2)
    a = F4.gen
    assert a.frobenius_inverse() == a + F4.one
    assert (a + F4.one).frobenius_inverse() == a


def test_field_axioms_exhaustive(field):
    if field.q > 16:
        pytest.skip("exhaustive triple loop too large")
    elems = list(field.elements())
    for x in elems:
        assert x + field.zero == x
        assert x * field.one == x
        assert x + (-x) == field.zero
        if x:
            assert x * x.inv() == field.one
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
            for z in elems:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_frobenius_properties_exhaustive(field):
    # exhaustive for every q <= 64
    for x in field.elements():
        fx = x.frobenius_inverse()
        assert fx ** field.p == x
        assert fx.frobenius() == x
    for x in field.elements():
        for y in list(field.elements())[:8]:
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()


def test_division_by_zero(field):
    with pytest.raises(DivisionByZero):
        field.one / field.zero
    with pytest.raises(DivisionByZero):
        field.zero.inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        FqField(2, 1).one + FqField(3, 1).one


def test_parse_format_roundtrip(field):
    for x in field.elements():
        assert field.parse(str(x)) == x


def test_parse_examples():
    F4 = FqField(2, 2)
    assert F4.parse("a+1") == F4.gen + F4.one
    assert F4.parse("a*a") == F4.gen + F4.one
    F5 = FqField(5, 1)
    assert F5.parse("3") == F5.elem(3)
    assert str(F5.elem(7)) == "2"


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40))
def test_prime_field_matches_int_arithmetic(m, n):
    F7 = FqField(7, 1)
    assert F7.elem(m) + F7.elem(n) == F7.elem(m + n)
    assert F7.elem(m) * F7.elem(n) == F7.elem(m * n)


def test_random_elements_deterministic(field):
    r1 = random.Random(7)
    r2 = random.Random(7)
    xs = [field.random_elem(r1) for _ in range(20)]
    ys = [field.random_elem(r2) for _ in range(20)]
    assert xs == ys
