"""Finite field arithmetic, exhaustive where the field is small enough."""

import random

import pytest
from hypothesis import given, strategies as st
from oracle import code_digits, schoolbook_add, schoolbook_mul, schoolbook_pow, schoolbook_sub

from taucover.errors import DivisionByZero, FieldMismatch
from taucover.fields import FqField, draws_below, modulus_coeffs
from taucover.polys import Poly

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


def test_exactly_the_primes_up_to_97_are_characteristics():
    # a sieve of Eratosthenes, independent of the field's trial division
    sieve = [False, False] + [True] * 96
    for d in range(2, 10):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    primes = [n for n, prime in enumerate(sieve) if prime]
    assert len(primes) == 25 and primes[-1] == 97
    for p in range(-3, 101):
        if p in primes:
            assert FqField(p).p == p
        else:
            with pytest.raises(ValueError, match="characteristic must be a prime"):
                FqField(p)


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
    a, one = F4.p, 1  # a has code p
    a1 = F4._add(a, one)
    assert a1 == 3
    assert F4._mul(a, a) == a1
    assert F4._mul(a, a1) == one
    assert F4._mul(a1, a1) == a
    assert F4._inv(a) == a1


def test_frobenius_inverse_f4():
    # over F_4 the inverse of x -> x^2 is x -> x^2 again
    F4 = FqField(2, 2)
    assert F4._pow(2, 2) == 3  # a -> a + 1
    assert F4._pow(3, 2) == 2  # a + 1 -> a


def test_field_axioms_exhaustive(field):
    add, neg, mul, inv = field._add, field._neg, field._mul, field._inv
    codes = range(field.q)
    for x in codes:
        assert add(x, 0) == x
        assert mul(x, 1) == x
        assert add(x, neg(x)) == 0
        if x:
            assert mul(x, inv(x)) == 1
        for y in codes:
            assert add(x, y) == add(y, x)
            assert mul(x, y) == mul(y, x)
            for z in codes:
                assert add(add(x, y), z) == add(x, add(y, z))
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
                assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


def test_frobenius_properties_exhaustive(field):
    p, add, mul, power = field.p, field._add, field._mul, field._pow
    root = p ** (field.e - 1)
    codes = range(field.q)
    for x in codes:
        assert power(power(x, root), p) == x
        for y in codes:
            assert power(add(x, y), p) == add(power(x, p), power(y, p))
            assert power(mul(x, y), p) == mul(power(x, p), power(y, p))


def test_division_by_zero(field):
    with pytest.raises(DivisionByZero):
        field._inv(0)
    with pytest.raises(DivisionByZero):
        Poly.one(field).divmod(Poly.zero(field))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Poly.one(FqField(2, 1)) + Poly.one(FqField(3, 1))


def test_parse_examples():
    F4 = FqField(2, 2)
    assert Poly.parse(F4, "a+1") == Poly.const(F4, 3)
    assert Poly.parse(F4, "a*a") == Poly.const(F4, 3)
    F5 = FqField(5, 1)
    assert Poly.parse(F5, "3") == Poly.const(F5, 3)
    assert str(Poly.parse(F5, "7")) == "2"


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40))
def test_prime_field_matches_int_arithmetic(m, n):
    F7 = FqField(7, 1)
    x, y = Poly.parse(F7, str(m)), Poly.parse(F7, str(n))
    assert x + y == Poly.parse(F7, str(m + n)) == Poly.const(F7, (m + n) % 7)
    assert x * y == Poly.const(F7, m * n % 7)


def test_random_elements_deterministic(field):
    r1 = random.Random(7)
    r2 = random.Random(7)
    xs = field.random_codes(r1, 20)
    assert xs == field.random_codes(r2, 20)
    assert all(0 <= x < field.q for x in xs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 97, 256, 1000, 2**40 + 1])
def test_draws_below_draws_the_stream_of_randrange(n):
    r1, r2 = random.Random(n), random.Random(n)
    assert draws_below(r1, n, 200) == [r2.randrange(n) for _ in range(200)]
    assert r1.getstate() == r2.getstate()


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (97, 1), (2, 2), (2, 3), (3, 2), (5, 3)])
def test_random_codes_draw_the_stream_of_random_code(p, e):
    field = FqField(p, e)
    r1, r2 = random.Random(e), random.Random(e)
    codes = field.random_codes(r1, 100)
    digits = [[r2.randrange(p) for _ in range(e)] for _ in range(100)]
    assert codes == [sum(d * p**j for j, d in enumerate(ds)) for ds in digits]
    assert r1.getstate() == r2.getstate()
    assert field.random_codes(r1, 0) == []


PRIMES = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
EVERY_FIELD = [(p, e) for p in PRIMES for e in range(1, 9) if p**e <= 256]


@pytest.mark.parametrize("p,e", EVERY_FIELD, ids=field_ids(EVERY_FIELD))
def test_parse_format_roundtrip(p, e):
    """A printed coefficient, such as a^2+2*a+1, reads back inside a
    polynomial text, alone and as a grouped factor."""
    field = FqField(p, e)
    for c in range(1, field.q):
        text = field.format(c)
        assert Poly.parse(field, text).coeffs == (c,)
        assert Poly.parse(field, f"({text})*t").coeffs == (0, c)


@pytest.mark.parametrize("p,e", EVERY_FIELD, ids=field_ids(EVERY_FIELD))
def test_tables_agree_with_schoolbook_arithmetic(p, e):
    """Exhaustive for q <= 32, a seeded sample of pairs above that."""
    field = FqField(p, e)
    q, modulus = field.q, field.modulus
    if q <= 32:
        pairs = [(x, y) for x in range(q) for y in range(q)]
        units = range(1, q)
    else:
        rng = random.Random(1000 * p + e)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(500)]
        units = [rng.randrange(1, q) for _ in range(100)]
    for x, y in pairs:
        assert field._mul(x, y) == schoolbook_mul(p, modulus, x, y), (x, y)
        assert field._add(x, y) == schoolbook_add(p, e, x, y), (x, y)
        assert field._sub(x, y) == schoolbook_sub(p, e, x, y), (x, y)
    for x in units:
        assert schoolbook_mul(p, modulus, x, field._inv(x)) == 1, x
        assert list(field.digits(x)) == code_digits(p, e, x)
        for k in (0, 1, 2, p, q - 2, q):
            assert field._pow(x, k) == schoolbook_pow(p, modulus, x, k), (x, k)
