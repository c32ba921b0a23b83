"""Polynomials and localized chart rings: normal form, units, calculus."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracle import (
    frac_add,
    frac_derive,
    frac_div,
    frac_mul,
    frac_of_ring_elem,
    frac_sub,
    reduce_frac,
    strip_primes,
)

from taucover import exprparse
from taucover.errors import MalformedInput, NotAUnit, NotIrreducible
from taucover.fields import FqField
from taucover.polys import Poly
from taucover.rings import ChartRing

F2 = FqField(2, 1)
F3 = FqField(3, 1)
F5 = FqField(5, 1)
F4 = FqField(2, 2)
F9 = FqField(3, 2)


@pytest.fixture
def A5():
    """F_5[t] with t and t-1 inverted (t-1 = t+4)."""
    return ChartRing(F5, ["t", "t+4"])


@pytest.fixture
def A2():
    return ChartRing(F2, ["t"])


# -- polynomials


def test_poly_parse_and_str():
    f = Poly.parse(F5, "t^2 + 2*t + 1")
    assert f.deg == 2
    assert str(f) == "t^2 + 2*t + 1"
    assert Poly.parse(F5, str(f)) == f


def test_poly_parse_extension_coeffs():
    f = Poly.parse(F4, "(a+1)*t^2 + a*t + 1")
    assert f.deg == 2
    assert f[2] == F4.gen + F4.one
    assert Poly.parse(F4, str(f)) == f


def test_poly_divmod():
    f = Poly.parse(F5, "t^3 + 2*t + 1")
    g = Poly.parse(F5, "t+1")
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.deg < g.deg


def test_poly_gcd():
    f = Poly.parse(F5, "t^2+4")  # (t+1)(t+4)
    g = Poly.parse(F5, "t^2+3*t+2")  # (t+1)(t+2)
    assert str(f.gcd(g)) == "t + 1"


def test_poly_gcd_xgcd_agree():
    rng = random.Random(1)
    for _ in range(40):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(6))])
        g = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(6))])
        if f.is_zero() and g.is_zero():
            continue
        d, s, u = f.xgcd(g)
        assert s * f + u * g == d
        assert d == f.gcd(g)


def test_poly_irreducibility():
    assert Poly.parse(F2, "t^2+t+1").is_irreducible()
    assert not Poly.parse(F2, "t^2+1").is_irreducible()  # (t+1)^2
    assert Poly.parse(F5, "t^2+2").is_irreducible()
    assert not Poly.parse(F5, "t^2+4").is_irreducible()
    # over F_4, t^2 + t + a is irreducible but t^2 + a is (t + a^2)^2... check
    assert Poly.parse(F4, "t^2+t+a").is_irreducible()
    assert not Poly.parse(F4, "t^2+a").is_irreducible()


def test_poly_derivative_char_p():
    f = Poly.parse(F5, "t^5 + 3*t^2 + 1")
    assert str(f.derivative()) == "t"
    g = Poly.parse(F2, "t^2")
    assert g.derivative().is_zero()


# -- chart rings


def test_chart_ring_rejects_reducible():
    with pytest.raises(NotIrreducible):
        ChartRing(F5, ["t^2+4"])
    with pytest.raises(NotIrreducible):
        ChartRing(F5, ["2*t"])  # not monic
    with pytest.raises(ValueError):
        ChartRing(F5, ["t", "t"])  # duplicates


def test_normal_form_cancellation(A5):
    t = A5.t
    x = A5.parse("(t^2+4*t)/t^2")  # t(t+4)/t^2 -> (t+4)/t
    assert x == A5.parse("(t+4)/t")
    assert x.num == Poly.parse(F5, "t+4")
    assert x.dens == (1, 0)
    # zero normalizes to all-zero exponents
    z = x - x
    assert z.is_zero() and z.dens == (0, 0)
    # numerator may keep inverted factors when exponent is zero
    y = t * t * t
    assert y.dens == (0, 0)


def test_ring_arithmetic_roundtrip(A5):
    rng = random.Random(3)
    for _ in range(60):
        x = A5.random_element(rng, max_deg=3, max_den=2)
        y = A5.random_element(rng, max_deg=3, max_den=2)
        z = A5.random_element(rng, max_deg=2, max_den=1)
        assert (x + y) * z == x * z + y * z
        assert x + y == y + x
        assert (x - y) + y == x


def test_adding_equal_denominators_raises_no_prime_to_a_power(A5, monkeypatch):
    x = A5.parse("(t^2 + 1)/(t*(t+4))")
    y = A5.parse("(3*t + 1)/(t*(t+4))")
    expected = A5.parse("(t^2 + 3*t + 2)/(t*(t+4))")
    calls = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda f, k: calls.append(k) or power(f, k))
    assert x + y == expected
    assert x + A5.zero is x and A5.zero + y is y
    assert calls == []


def test_adding_unequal_denominators_lifts_only_the_lower_one(A5, monkeypatch):
    x = A5.parse("1/t^2")
    y = A5.parse("1/(t*(t+4))")
    expected = A5.parse("(t + t + 4)/(t^2*(t+4))")
    calls = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda f, k: calls.append(k) or power(f, k))
    assert x + y == expected
    assert sorted(calls) == [1, 1]


def test_unit_log_examples(A5):
    u = A5.parse("(3*t^2+3*t)/(t+4)")  # 3 t (t+1) / (t-1): not a unit (t+1 not inverted)
    with pytest.raises(NotAUnit):
        A5.unit_log(u)
    v = A5.parse("3*t^2/(t+4)")
    log = A5.unit_log(v)
    assert log.constant == F5.elem(3)
    assert log.exponents == (2, -1)
    assert A5.exp_unit(log) == v
    assert v.inv() * v == A5.one


def test_unit_log_roundtrip_random(A5):
    rng = random.Random(9)
    for _ in range(50):
        u = A5.random_unit(rng)
        log = A5.unit_log(u)
        assert A5.exp_unit(log) == u
        assert u * u.inv() == A5.one


def test_derive_quotient_rule(A5):
    x = A5.parse("1/t")
    assert A5.derive(x) == A5.parse("4/t^2")  # -1/t^2
    rng = random.Random(11)
    for _ in range(40):
        f = A5.random_element(rng, max_deg=2, max_den=1)
        g = A5.random_element(rng, max_deg=2, max_den=1)
        assert A5.derive(f * g) == A5.derive(f) * g + f * A5.derive(g)
        assert A5.derive(f + g) == A5.derive(f) + A5.derive(g)


def test_dlog_additivity(A5):
    rng = random.Random(13)
    for _ in range(40):
        u = A5.random_unit(rng)
        v = A5.random_unit(rng)
        assert A5.dlog(u * v) == A5.dlog(u) + A5.dlog(v)


def test_dlog_kills_pth_powers(A2, A5):
    rng = random.Random(17)
    for _ in range(20):
        u = A2.random_unit(rng)
        assert A2.dlog(u * u).is_zero()  # p = 2
        w = A5.random_unit(rng)
        assert A5.dlog(w**5).is_zero()


def test_dlog_example_char2(A2):
    assert A2.dlog(A2.t) == A2.parse("1/t")
    u = A2.parse("t^3+t")  # t (t+1)^2, dlog = 1/t in char 2
    with pytest.raises(NotAUnit):
        A2.dlog(u)  # t+1 is not inverted here
    B = ChartRing(F2, ["t", "t+1"])
    assert B.dlog(B.parse("t^3+t")) == B.parse("1/t")


def test_unit_core_split(A5):
    x = A5.parse("(2*t^3+2*t^2)/(t+4)")  # 2 t^2 (t+1) / (t-1)
    unit, core = A5.unit_core_split(x)
    assert str(core) == "t + 1"
    assert unit * A5.from_poly(core) == x
    assert A5.core(A5.parse("3*t/(t+4)")) == Poly.one(F5)
    assert A5.core(A5.zero).is_zero()


def test_divides_and_exact_div(A5):
    a = A5.parse("(t+1)/t")
    b = A5.parse("(t^2+3*t+2)*t")  # (t+1)(t+2) t
    assert A5.divides(a, b)
    q = A5.exact_div(b, a)
    assert q * a == b
    assert not A5.divides(A5.parse("t+2"), A5.parse("t+1"))


def test_restrict_to_overlap():
    chart_a = ChartRing(F4, ["t", "t+1"])
    overlap = ChartRing(F4, ["t", "t+1", "t+a"])
    x = chart_a.parse("(t+a)/(t+1)")
    y = chart_a.restrict(x, overlap)
    assert y.ring is overlap
    assert y == overlap.parse("(t+a)/(t+1)")
    assert overlap.is_unit(y)
    assert not chart_a.is_unit(x)


def test_expression_caps_raise_malformed_input_before_any_arithmetic(A5):
    depth, degree = exprparse.MAX_DEPTH, exprparse.MAX_DEGREE
    assert A5.parse("(" * depth + "t" + ")" * depth) == A5.t
    assert A5.parse("-" * depth + "t") == A5.t * (-1) ** depth
    assert A5.parse(f"t^{degree}") == A5.t**degree
    assert A5.parse(f"t^{degree // 2 - 1}*(t+1)^{degree // 2}/t") is not None
    assert A5.parse("2^" + "9" * 40) == A5.from_int(pow(2, int("9" * 40), 5))
    for text in [
        "(" * (depth + 1) + "t" + ")" * (depth + 1),
        "-" * (depth + 1) + "t",
        f"t^{degree + 1}",
        f"(t^{degree})*t",
        f"(t^{degree})/t",
        "(t^32)^33",
        "3" * 5000,
    ]:
        with pytest.raises(MalformedInput):
            A5.parse(text)


def test_parse_str_roundtrip(A5):
    rng = random.Random(23)
    for _ in range(60):
        x = A5.random_element(rng, max_deg=3, max_den=2)
        assert A5.parse(str(x)) == x


@settings(max_examples=60)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
def test_unit_group_structure(i, j, k):
    """unit_log is an isomorphism onto F_q^x x Z^s on sampled units."""
    A = ChartRing(F5, ["t", "t+4"])
    c = F5.elem(i + 1) if i < 4 else F5.elem(1)
    u = A.parse("t") ** (j - 2) * A.parse("t+4") ** (k - 1) * A.from_field(c)
    log = A.unit_log(u)
    assert log.exponents == (j - 2, k - 1)
    assert log.constant == c


# -- the unit-core form against the fraction-field oracle

# Three monic irreducibles per field; a ring inverts at most two of them, so
# one is always left for a restriction target.
ORACLE_PRIMES = {
    F2: ("t", "t + 1", "t^2 + t + 1"),
    F4: ("t", "t + a", "t^3 + t + 1"),
    F5: ("t", "t + 4", "t^2 + 2"),
    F9: ("t", "t + a", "t^3 + 2*t + 1"),
}


@functools.lru_cache(maxsize=None)
def oracle_ring(field, chosen: tuple[int, ...]) -> ChartRing:
    return ChartRing(field, [ORACLE_PRIMES[field][j] for j in chosen])


@st.composite
def oracle_elements(draw, ring, unit=False):
    """A ring element from num / prod(pi_j^d_j), d in [-2, 2]^s, and its fraction."""
    field = ring.field
    if unit:
        codes = [draw(st.integers(1, field.q - 1))]
    else:
        codes = draw(st.lists(st.integers(0, field.q - 1), max_size=5))
    num = Poly(field, codes)
    dens = draw(st.lists(st.integers(-2, 2), min_size=ring.s, max_size=ring.s))
    top, bottom = num, Poly.one(field)
    for pi, d in zip(ring.inverted, dens):
        if d < 0:
            top = top * pi ** (-d)
        else:
            bottom = bottom * pi**d
    return ring.make(num, dens), reduce_frac((top, bottom))


@st.composite
def oracle_cases(draw):
    field = draw(st.sampled_from(list(ORACLE_PRIMES)))
    chosen = tuple(draw(st.lists(st.integers(0, 2), max_size=2, unique=True)))
    extra = draw(st.sampled_from([j for j in range(3) if j not in chosen]))
    ring = oracle_ring(field, chosen)
    target = oracle_ring(field, chosen + (extra,))
    x, y = draw(oracle_elements(ring)), draw(oracle_elements(ring))
    return ring, target, x, y, draw(oracle_elements(ring, unit=True))


def assert_unit_core_form(x, fx):
    ring = x.ring
    assert frac_of_ring_elem(x) == fx
    assert x.fraction() == fx
    assert x.is_zero() == fx[0].is_zero() == x.core.is_zero()
    if not x.is_zero():
        assert x.core.is_monic()
        assert not any(pi.divides(x.core) for pi in ring.inverted)


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_unit_core_form_matches_the_fraction_field_oracle(case):
    ring, target, (x, fx), (y, fy), (u, fu) = case
    primes = ring.inverted
    for elem, fr in [(x, fx), (y, fy), (u, fu)]:
        assert_unit_core_form(elem, fr)
        assert ring.parse(str(elem)) == elem
    assert_unit_core_form(x + y, frac_add(fx, fy))
    assert_unit_core_form(x - y, frac_sub(fx, fy))
    assert_unit_core_form(x * y, frac_mul(fx, fy))
    assert_unit_core_form(ring.derive(x), frac_derive(fx))
    assert_unit_core_form(ring.restrict(x, target), fx)

    one = (Poly.one(ring.field), Poly.one(ring.field))
    assert_unit_core_form(u.inv(), frac_div(one, fu))
    assert_unit_core_form(ring.dlog(u), frac_div(frac_derive(fu), fu))
    log = ring.unit_log(u)
    top, bottom = Poly.const(log.constant), Poly.one(ring.field)
    for pi, m in zip(primes, log.exponents):
        top, bottom = (top * pi**m, bottom) if m > 0 else (top, bottom * pi ** (-m))
    assert reduce_frac((top, bottom)) == fu

    # x is a unit exactly when its numerator is a constant times inverted primes
    x_is_unit = not x.is_zero() and strip_primes(fx[0], primes).is_constant()
    assert (ring.try_unit_log(x) is not None) == x_is_unit
    if not x_is_unit:
        with pytest.raises(NotAUnit):
            x.inv()
    core = strip_primes(fx[0], primes).monic() if not x.is_zero() else fx[0]
    assert ring.core(x) == core

    # y | x exactly when x/y has a denominator made of inverted primes only
    if y.is_zero():
        assert ring.divides(y, x) == x.is_zero()
        return
    quotient = frac_div(fx, fy)
    divides = strip_primes(quotient[1], primes).is_one()
    assert ring.divides(y, x) == divides
    if divides:
        assert_unit_core_form(ring.exact_div(x, y), quotient)
