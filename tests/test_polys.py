"""Polynomial kernel: division, multiplicity, printing and irreducibility."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracle import trial_division_is_irreducible

from taucover import polys as polys_module
from taucover.fields import FqField
from taucover.polys import Poly

HYPOTHESIS_FIELDS = [FqField(2), FqField(2, 2), FqField(5), FqField(2, 3), FqField(5, 2), FqField(2, 8)]


def polys(field, max_deg=12, min_size=0):
    return st.lists(
        st.integers(0, field.q - 1), min_size=min_size, max_size=max_deg + 1
    ).map(lambda cs: Poly(field, cs))


@st.composite
def field_and_polys(draw):
    field = draw(st.sampled_from(HYPOTHESIS_FIELDS))
    a = draw(polys(field))
    b = draw(polys(field, max_deg=6).filter(lambda f: not f.is_zero()))
    pi = draw(polys(field, max_deg=3).filter(lambda f: f.deg >= 1))
    k = draw(st.integers(0, 3))
    return field, a, b, pi, k


@settings(max_examples=150, deadline=None)
@given(field_and_polys())
def test_division_multiplicity_and_printing(case):
    field, a, b, pi, k = case
    q, r = a.divmod(b)
    assert a == q * b + r
    assert r.deg < b.deg
    if not a.is_zero():
        f = a * pi**k
        mult, cofactor = f.multiplicity(pi)
        assert mult >= k
        assert cofactor * pi**mult == f
        assert not pi.divides(cofactor)
    assert str(Poly.parse(field, str(a))) == str(a)


def _monic_polys(field, degree):
    for lower in itertools.product(range(field.q), repeat=degree):
        yield Poly(field, (*lower, 1))


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def test_rabin_agrees_with_trial_division_up_to_degree_four():
    for field in (FqField(2), FqField(3), FqField(2, 2), FqField(5)):
        q = field.q
        for degree in range(0, 5):
            count = 0
            for f in _monic_polys(field, degree):
                verdict = f.is_irreducible()
                assert verdict == trial_division_is_irreducible(f), (field, str(f))
                count += verdict
            if degree:
                # Gauss: (1/d) * sum over k | d of mu(k) q^(d/k)
                gauss = sum(
                    _mobius(k) * q ** (degree // k)
                    for k in range(1, degree + 1)
                    if degree % k == 0
                ) // degree
                assert count == gauss, (field, degree)
    assert not Poly.zero(FqField(2)).is_irreducible()


def test_rabin_over_large_fields():
    F256 = FqField(2, 8)
    # irreducible over F_2 of degree prime to 8 stays irreducible over F_256
    assert Poly.parse(F256, "t^7 + t + 1").is_irreducible()
    assert not Poly.parse(F256, "t^2 + t + 1").is_irreducible()  # F_4 inside F_256
    assert not Poly.parse(F256, "(t^3 + a) * (t^4 + t + a)").is_irreducible()
    F243 = FqField(3, 5)
    assert Poly.parse(F243, "t^2 + 1").is_irreducible()  # -1 is no square: 243 = 3 mod 4
    # Artin-Schreier: t^3 - t - 1 is irreducible over F_(3^e) iff 3 does not divide e
    assert Poly.parse(F243, "t^3 - t - 1").is_irreducible()
    assert not Poly.parse(FqField(3, 3), "t^3 - t - 1").is_irreducible()


@pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (3, 3), (8, 4), (13, 6)])
def test_power_skips_the_squaring_after_the_top_bit(monkeypatch, k, products):
    field = FqField(5)
    p = Poly(field, [1, 2, 1])
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    power = p**k
    monkeypatch.undo()
    expected = Poly.one(field)
    for _ in range(k):
        expected = expected * p
    assert power == expected
    assert len(calls) == products


def test_product_with_one_returns_the_other_factor(monkeypatch):
    field = FqField(5)
    f, one = Poly(field, [1, 2, 1]), Poly.one(field)
    calls = []
    mul_codes = polys_module._mul_codes
    monkeypatch.setattr(
        polys_module, "_mul_codes", lambda *args: calls.append(1) or mul_codes(*args)
    )
    assert f * one is f
    assert one * f is f
    assert calls == []
    assert f * f == Poly(field, [1, 4, 1, 4, 1])
    assert calls == [1]


def test_multiplicity_below_the_degree_of_pi_divides_nothing(monkeypatch):
    field = FqField(5)
    pi = Poly.parse(field, "t^2 + 2")
    f = Poly.parse(field, "t + 1")
    calls = []
    divmod_ = Poly.divmod
    monkeypatch.setattr(Poly, "divmod", lambda a, b: calls.append(1) or divmod_(a, b))
    assert f.multiplicity(pi) == (0, f)
    assert calls == []
    # one division finds pi; the cofactor t + 1 is then too small to test
    assert (f * pi).multiplicity(pi) == (1, f)
    assert calls == [1]


def divide_once_per_unit(f, pi):
    """The reference multiplicity: pi divided out one copy at a time."""
    k = 0
    while f.deg >= pi.deg:
        q, r = f.divmod(pi)
        if not r.is_zero():
            break
        k, f = k + 1, q
    return k, f


def test_multiplicity_in_base_p_agrees_with_dividing_once_per_unit():
    rng = random.Random(31)
    for field in (FqField(2), FqField(3), FqField(2, 2), FqField(5), FqField(3, 2)):
        p, q = field.p, field.q
        for _ in range(300):
            # pi monic of degree 1 to 3, g nonzero of degree at most 5
            pi = Poly(field, [*(rng.randrange(q) for _ in range(rng.randrange(1, 4))), 1])
            lower = [rng.randrange(q) for _ in range(rng.randrange(6))]
            g = Poly(field, [*lower, rng.randrange(1, q)])
            f = pi ** rng.randrange(2 * p * p + p) * g
            assert f.multiplicity(pi) == divide_once_per_unit(f, pi)


@pytest.mark.parametrize(
    "divide",
    [Poly.divmod, Poly.gcd, Poly.exact_div, lambda f, g: f % g, lambda f, g: f // g],
    ids=["divmod", "gcd", "exact_div", "mod", "floordiv"],
)
@pytest.mark.parametrize("other", [3], ids=["int"])
def test_division_by_a_non_polynomial_raises_type_error(divide, other):
    with pytest.raises(TypeError):
        divide(Poly.parse(FqField(5), "t^2 + 1"), other)
