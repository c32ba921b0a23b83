"""Polynomials and localized chart rings: normal form, units, calculus."""

import functools
import operator
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
    xgcd,
)

from taucover import exprparse, rings
from taucover.covers import CoverChart
from taucover.errors import MalformedInput, NotAUnit, NotIrreducible, RingMismatch
from taucover.fields import FqField
from taucover.polys import Poly
from taucover.rings import ChartRing, RingElem

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
    assert f[2] == 3  # the code of a + 1
    assert f[3] == 0
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
        d, s, u = xgcd(f, g)
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


def test_a_product_by_one_is_the_other_factor_and_never_crosses_rings(A5, A2):
    x = A5.parse("(t^2 + 1)/t")
    assert A5.one * x is x and x * A5.one is x
    for one in (A2.one, ChartRing(F5, ["t"]).one):
        with pytest.raises(RingMismatch):
            one * x
        with pytest.raises(RingMismatch):
            x * one


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


def test_adding_unequal_exponents_at_every_prime_tests_no_multiplicity(A5, monkeypatch):
    x = A5.parse("1/t^2")
    y = A5.parse("1/(t*(t+4))")
    expected = A5.parse("(t + t + 4)/(t^2*(t+4))")
    calls = []
    multiplicity = Poly.multiplicity
    monkeypatch.setattr(
        Poly, "multiplicity", lambda f, pi: calls.append(pi) or multiplicity(f, pi)
    )
    assert x + y == expected
    assert calls == []


@pytest.mark.parametrize(
    "primes, text", [(["t"], "1/t"), (["t", "t+4"], "(t^2 + 1)/(t^3*(t+4))")]
)
def test_deriving_exponents_prime_to_p_tests_no_multiplicity(primes, text, monkeypatch):
    ring = ChartRing(F5, primes)
    x = ring.parse(text)
    calls = []
    multiplicity = Poly.multiplicity
    monkeypatch.setattr(
        Poly, "multiplicity", lambda f, pi: calls.append(pi) or multiplicity(f, pi)
    )
    dx = ring.derive(x)
    monkeypatch.undo()
    assert calls == []
    assert frac_of_ring_elem(dx) == frac_derive(frac_of_ring_elem(x))


def test_unit_log_examples(A5):
    u = A5.parse("(3*t^2+3*t)/(t+4)")  # 3 t (t+1) / (t-1): not a unit (t+1 not inverted)
    with pytest.raises(NotAUnit):
        A5.unit_log(u)
    v = A5.parse("3*t^2/(t+4)")
    constant, exponents = A5.unit_log(v)
    assert constant == 3
    assert exponents == (2, -1)
    assert A5.exp_unit(constant, exponents) == v
    assert v.inv() * v == A5.one


def test_unit_log_roundtrip_random(A5):
    rng = random.Random(9)
    for _ in range(50):
        u = A5.random_unit(rng)
        assert A5.exp_unit(*A5.unit_log(u)) == u
        assert u * u.inv() == A5.one


def test_exp_unit_rejects_a_zero_constant(A5):
    # and every other int that is not the code of a unit of F_5
    for constant in (0, 5, -1, 7):
        with pytest.raises(NotAUnit, match="unit constant must be nonzero"):
            A5.exp_unit(constant, (1, 0))


@pytest.mark.parametrize("field", [F5, F9], ids=["F5", "F9"])
@pytest.mark.parametrize("seed", range(4))
def test_random_unit_draws_a_nonzero_code_then_one_exponent_per_prime(field, seed):
    ring = ChartRing(field, ["t", "t+1"])
    p, e = field.p, field.e
    r1, r2 = random.Random(seed), random.Random(seed)
    for _ in range(30):
        u = ring.random_unit(r1, max_exp=3)
        # one randrange(p) per digit, lowest first, again while the code is 0
        constant = 0
        while not constant:
            constant = sum(r2.randrange(p) * p**i for i in range(e))
        exponents = tuple(r2.randrange(-3, 4) for _ in range(ring.s))
        assert ring.unit_log(u) == (constant, exponents)
    assert r1.getstate() == r2.getstate()


def test_derive_quotient_rule(A5):
    x = A5.parse("1/t")
    assert A5.derive(x) == A5.parse("4/t^2")  # -1/t^2
    rng = random.Random(11)
    for _ in range(40):
        f = A5.random_element(rng, max_deg=2, max_den=1)
        g = A5.random_element(rng, max_deg=2, max_den=1)
        assert A5.derive(f * g) == A5.derive(f) * g + f * A5.derive(g)
        assert A5.derive(f + g) == A5.derive(f) + A5.derive(g)


def test_guarding_derives_each_distinct_element_once(A5, monkeypatch):
    rng = random.Random(23)
    xs = [A5.random_element(rng, max_deg=2, max_den=1) for _ in range(60)]
    plain = [A5.derive(x) for x in xs]
    calls = []
    derivative = Poly.derivative
    monkeypatch.setattr(
        Poly, "derivative", lambda f: calls.append(f) or derivative(f)
    )
    with A5.guarding():
        kept = [A5.derive(x) for x in xs]
        again = [A5.derive(x) for x in xs]
    assert kept == plain and all(map(operator.is_, kept, again))
    distinct = {(x.const, x.core.coeffs, x.exps) for x in xs if x}
    assert len(calls) == len(distinct) < len(xs)
    # what the block kept went with it
    A5.derive(A5.t)
    assert len(calls) == len(distinct) + 1


def test_guarding_keeps_at_most_guard_keep_derivatives(A5, monkeypatch):
    monkeypatch.setattr(rings, "GUARD_KEEP", 5)
    xs = [A5.parse(f"t^{k} + 1") for k in range(1, 21)]
    calls = []
    derivative = Poly.derivative
    monkeypatch.setattr(
        Poly, "derivative", lambda f: calls.append(f) or derivative(f)
    )
    with A5.guarding():
        first = [A5.derive(x) for x in xs]
        again = [A5.derive(x) for x in xs]
    assert first == again
    # the first five were kept; the other fifteen are differentiated again
    assert len(calls) == 20 + 15


def test_guarding_hands_out_each_draw_again_on_the_same_stream(A5):
    r1, r2 = random.Random(29), random.Random(29)
    plain = [A5.random_element(r1, max_deg=2, max_den=1) for _ in range(200)]
    with A5.guarding():
        kept = [A5.random_element(r2, max_deg=2, max_den=1) for _ in range(200)]
    assert kept == plain and r1.getstate() == r2.getstate()
    # a repeated draw is the element drawn the first time
    assert len({id(x) for x in kept}) < len({id(x) for x in plain})


def test_guarding_ends_with_the_outermost_block_even_on_error(A5, monkeypatch):
    x = A5.parse("t^2 + 1")
    calls = []
    derivative = Poly.derivative
    monkeypatch.setattr(
        Poly, "derivative", lambda f: calls.append(f) or derivative(f)
    )
    with pytest.raises(RuntimeError, match="guard failed"):
        with A5.guarding():
            with A5.guarding():
                A5.derive(x)
            A5.derive(x)  # the inner block kept nothing of its own
            assert len(calls) == 1
            raise RuntimeError("guard failed")
    A5.derive(x)
    assert len(calls) == 2


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


def test_core_is_the_monic_s_free_factor(A5):
    x = A5.parse("(2*t^3+2*t^2)/(t+4)")  # 2 t^2 (t+1) / (t-1)
    assert str(x.core) == "t + 1"
    unit = rings._unit_quotient(x, A5.one, A5.one.core)
    assert unit.is_unit()
    assert unit * A5.make(x.core) == x
    assert A5.parse("3*t/(t+4)").core == Poly.one(F5)
    assert A5.zero.core.is_zero()


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
    assert y.is_unit()
    assert not x.is_unit()
    with pytest.raises(RingMismatch, match="does not invert a superset"):
        overlap.restrict(y, chart_a)  # chart_a does not invert t + a
    with pytest.raises(RingMismatch, match="does not invert a superset"):
        chart_a.restrict(x, ChartRing(F2, ["t", "t+1"]))  # same primes, another field


# Each method that reads an element's stored factors, given an element of
# another ring over the same field: without the ring check they return
# values, such as derive's (t^2 + 2)/t^2 for (t^2 + 3)/(t + 1).
FOREIGN_READS = {
    "unit_log": lambda A, x: A.unit_log(x),
    "divides-left": lambda A, x: A.divides(x, A.t),
    "divides-right": lambda A, x: A.divides(A.t, x),
    "exact_div-left": lambda A, x: A.exact_div(x, A.one),
    "exact_div-right": lambda A, x: A.exact_div(A.t, x),
    "derive": lambda A, x: A.derive(x),
    "dlog": lambda A, x: A.dlog(x),
    "restrict": lambda A, x: A.restrict(x, ChartRing(F5, ["t", "t+4", "t+1", "t+2"])),
}


@pytest.mark.parametrize("read", FOREIGN_READS.values(), ids=FOREIGN_READS)
def test_a_ring_refuses_to_read_an_element_of_another_ring(A5, read):
    x = ChartRing(F5, ["t+1", "t+2"]).parse("(t^2+3)/(t+1)")
    with pytest.raises(RingMismatch):
        read(A5, x)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_cover_elements_of_two_charts_do_not_combine(A5, op):
    x = CoverChart(A5, 2, A5.t).v
    y = CoverChart(A5, 2, A5.parse("t+4")).v
    with pytest.raises(RingMismatch):
        op(x, y)
    with pytest.raises(RingMismatch):
        op(y, x)


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
OPERAND_KINDS = {"Poly": "+-*", "RingElem": "+-*/"}


def _operand(A, kind):
    if kind == "Poly":
        return Poly.parse(A.field, "t^2 + 1")
    return A.parse("(t + 4)^2/t")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "kind, op", [(kind, op) for kind, ops in OPERAND_KINDS.items() for op in ops]
)
def test_an_int_operand_raises_type_error(A5, kind, op, side):
    # an operator takes an operand of its own type only
    value, apply = _operand(A5, kind), OPERATORS[op]
    with pytest.raises(TypeError):
        apply(value, 3) if side == "left" else apply(3, value)


@pytest.mark.parametrize("op", [operator.sub, operator.truediv])
@pytest.mark.parametrize("other", ["x", None])
def test_a_foreign_left_operand_of_a_ring_element_raises_type_error(A5, other, op):
    with pytest.raises(TypeError):
        op(other, A5.t)


@pytest.mark.parametrize("op", OPERATORS)
def test_a_polynomial_operand_of_a_ring_element_reads_as_the_parser_reads_it(A5, op):
    # units both, so that either side divides
    f, f_text = Poly.parse(F5, "3*t^2 + 2*t"), "(3*t^2 + 2*t)"
    x, x_text = A5.parse("(t + 4)^2/t"), "((t + 4)^2/t)"
    assert OPERATORS[op](x, f) == A5.parse(f"{x_text} {op} {f_text}")
    assert OPERATORS[op](f, x) == A5.parse(f"{f_text} {op} {x_text}")


def test_expression_caps_raise_malformed_input_before_any_arithmetic(A5):
    depth, degree = exprparse.MAX_DEPTH, exprparse.MAX_DEGREE
    assert A5.parse("(" * depth + "t" + ")" * depth) == A5.t
    assert A5.parse("-" * depth + "t") == A5.t * A5.from_int((-1) ** depth)
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


# -- one parse memo shared by the parses of a bundle read


def stored(memo, span):
    """Whether the memo holds the tokens of span, a text or a group's inside."""
    return tuple(exprparse.tokenize(span)[0]) in memo


def test_a_stored_group_met_too_deep_still_raises_the_depth_cap(A5):
    depth = exprparse.MAX_DEPTH
    memo = {}
    A5.parse("(t + 1)", memo)  # stored at depth 1
    assert stored(memo, "t + 1")
    at_cap = "(" * (depth - 1) + "(t + 1)" + ")" * (depth - 1)
    assert A5.parse(at_cap, memo) == A5.parse("t + 1")
    text = "(" * depth + "(t + 1)" + ")" * depth
    with pytest.raises(MalformedInput) as err:
        A5.parse(text, memo)
    assert str(err.value) == f"expression nests deeper than {depth} levels in '" + "(" * 76 + "..."


def test_a_stored_group_raised_to_a_power_still_raises_the_degree_cap(A5):
    memo = {}
    assert A5.parse("(t^512)", memo) == A5.t**512
    assert stored(memo, "t^512")
    with pytest.raises(MalformedInput) as err:
        A5.parse("(t^512)^3", memo)
    assert str(err.value) == "degree bound 1536 exceeds 1024 in '(t^512)^3'"
    assert not stored(memo, "(t^512)^3")


def test_an_over_long_integer_raises_with_a_memo(A5):
    memo = {}
    A5.parse("t + 9", memo)
    text = "t + " + "9" * 5000
    with pytest.raises(MalformedInput) as err:
        A5.parse(text, memo)
    assert str(err.value) == "integer literal too long in 't + " + "9" * 72 + "..."


def test_a_division_is_not_shared_between_parses():
    # exact in F_5[t], but t is not a unit of the ring
    memo = {}
    assert Poly.parse(F5, "(t^2/t)", memo) == Poly.parse(F5, "t")
    assert not stored(memo, "t^2/t")
    ring = ChartRing(F5, ["t+1"])
    with pytest.raises(NotAUnit) as err:
        ring.parse("(t^2/t)", memo)
    assert str(err.value) == f"t is not a unit of {ring}"


def test_a_constant_group_stays_a_polynomial(monkeypatch):
    ring = ChartRing(F4, ["t + a + 1"])
    folded = ring_elem_fold(ring, "t + (a + 1)")
    sums = []
    plus = RingElem._plus
    monkeypatch.setattr(RingElem, "_plus", lambda *args: sums.append(1) or plus(*args))
    value = ring.parse("t + (a + 1)")
    assert value == folded and value.is_unit()
    assert sums == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("t$", "bad character '$' in 't$'"),
        ("t  $", "bad character '$' in 't  $'"),
        (" \t ", "empty expression"),
        ("t + ", "cannot parse 't + '"),
        ("(t + 1", "expected ')' in '(t + 1'"),
        ("t^a", "exponent must be an integer in 't^a'"),
        ("t^", "exponent must be an integer in 't^'"),
        ("t t", "trailing input in 't t'"),
        ("x + 1", "unknown symbol 'x' in 'x + 1'"),
        ("t + " + "9" * 5000, "integer literal too long in 't + " + "9" * 72 + "..."),
    ],
)
def test_parse_errors_name_the_fault(A5, text, message):
    with pytest.raises(MalformedInput) as err:
        A5.parse(text)
    assert str(err.value) == message


def test_parse_ignores_whitespace_around_tokens(A5):
    assert A5.parse(" \n(t +\t1 ) ^ 2 \n ") == A5.parse("(t+1)^2")


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
    c = i + 1 if i < 4 else 1
    u = A.parse("t") ** (j - 2) * A.parse("t+4") ** (k - 1) * A.from_int(c)
    constant, exponents = A.unit_log(u)
    assert exponents == (j - 2, k - 1)
    assert constant == c


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
    """A ring element from num / prod(pi_j^d_j), d in [-6, 6]^s, and its fraction.

    The range holds nonzero multiples of p for p = 2, 3 and 5, where d/dt
    leaves the prime open.
    """
    field = ring.field
    if unit:
        codes = [draw(st.integers(1, field.q - 1))]
    else:
        codes = draw(st.lists(st.integers(0, field.q - 1), max_size=5))
    num = Poly(field, codes)
    dens = draw(st.lists(st.integers(-6, 6), min_size=ring.s, max_size=ring.s))
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
    constant, exponents = ring.unit_log(u)
    top, bottom = Poly.const(ring.field, constant), Poly.one(ring.field)
    for pi, m in zip(primes, exponents):
        top, bottom = (top * pi**m, bottom) if m > 0 else (top, bottom * pi ** (-m))
    assert reduce_frac((top, bottom)) == fu

    # x is a unit exactly when its numerator is a constant times inverted primes
    x_is_unit = not x.is_zero() and strip_primes(fx[0], primes).deg <= 0
    assert x.is_unit() == x_is_unit
    if not x_is_unit:
        with pytest.raises(NotAUnit):
            ring.unit_log(x)
        with pytest.raises(NotAUnit):
            x.inv()
    core = strip_primes(fx[0], primes).monic() if not x.is_zero() else fx[0]
    assert x.core == core

    # y | x exactly when x/y has a denominator made of inverted primes only
    if y.is_zero():
        assert ring.divides(y, x) == x.is_zero()
        return
    quotient = frac_div(fx, fy)
    divides = strip_primes(quotient[1], primes).is_one()
    assert ring.divides(y, x) == divides
    if divides:
        assert_unit_core_form(ring.exact_div(x, y), quotient)


@pytest.mark.parametrize("e", [-6, -3, -1, 0, 1, 3])
def test_derive_finds_the_inverted_prime_in_the_core_derivative(e):
    """F_3 loc(t), core t^4 + 1: its derivative t^3 is divisible by t, which
    derive must divide out when 3 | e and cannot meet otherwise."""
    ring = ChartRing(F3, ["t"])
    core = Poly.parse(F3, "t^4 + 1")
    x = ring.make(core, [-e])
    assert x.core == core and x.exps == (e,)
    assert_unit_core_form(ring.derive(x), frac_derive(frac_of_ring_elem(x)))


# -- parsing in F_q[t] against the RingElem fold


def ring_elem_fold(ring, text):
    """text folded with ring elements for atoms and constants, through the
    public parser: every sum and product is RingElem arithmetic."""
    atoms = {"t": ring.t}
    if ring.field.e > 1:
        atoms["a"] = ring.make(Poly.const(ring.field, ring.field.p))
    return exprparse.evaluate(text, ring.from_int, atoms)


def outcome(parse, ring, text):
    """The parsed value in unit-core form, or the error class and message."""
    try:
        x = parse(ring, text)
    except Exception as exc:  # the comparison covers every error class
        return type(exc), str(exc)
    assert type(x) is RingElem and x.ring is ring
    return x.const, x.core.coeffs, x.exps


def assert_parses_like_the_fold(ring, text):
    assert outcome(ChartRing.parse, ring, text) == outcome(ring_elem_fold, ring, text)


def expression_texts(field):
    """Expressions in t (and a over F_q, q > p), the small integers and the
    field's oracle primes in parentheses."""
    names = ["t", "a"] if field.e > 1 else ["t"]
    leaves = st.one_of(
        st.sampled_from(names + [f"({pi})" for pi in ORACLE_PRIMES[field]]),
        st.integers(0, 12).map(str),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(lambda x: f"({x})"),
            inner.map(lambda x: f"-{x}"),
            st.tuples(inner, st.integers(0, 5)).map(lambda xk: f"{xk[0]}^{xk[1]}"),
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        ),
        max_leaves=12,
    )


PARSE_CASES = st.one_of(
    [
        st.tuples(
            st.lists(st.integers(0, 2), max_size=2, unique=True).map(
                lambda chosen, field=field: oracle_ring(field, tuple(chosen))
            ),
            expression_texts(field),
        )
        for field in ORACLE_PRIMES
    ]
)


@settings(max_examples=300, deadline=None)
@given(PARSE_CASES)
def test_parse_in_polynomials_matches_the_ring_elem_fold(case):
    assert_parses_like_the_fold(*case)


@pytest.mark.parametrize("primes", [["t + 1"], ["t"], ["t", "t + 1"]])
@pytest.mark.parametrize(
    "text",
    [
        "(t+1)^1024",
        "1/(t+1)^1024",
        "t^1024 + 1",
        "t^1024",
        "0^0",
        "(0)^0",
        "1/0",
        "t/(t-t)",
        "2*t/(t+1)^3 - 1/t",
    ],
)
def test_parse_matches_the_ring_elem_fold_on_pinned_cases(primes, text):
    assert_parses_like_the_fold(ChartRing(F2, primes), text)
