"""Independent references for the tests.

The rank oracle is Gaussian elimination over the fraction field.  Entries are
(numerator, denominator) polynomial pairs handled with plain fraction
arithmetic.  It deliberately shares nothing with the module engine, so the two
rank computations are genuinely separate routes.  The same fraction arithmetic
is the reference for chart-ring elements: a ring element is read into a
fraction from its stored unit-core factors, and every other step is plain
polynomial arithmetic.

The field references compute on power-basis coefficient vectors, not the
field's tables, and the irreducibility reference is trial division.
"""

import itertools

from taucover.polys import Poly

Frac = tuple[Poly, Poly]


def frac_of_ring_elem(x) -> Frac:
    """const * core * prod(pi_j^e_j) as a reduced fraction, denominator monic."""
    field = x.ring.field
    num, den = Poly(field, (x.const,)) * x.core, Poly.one(field)
    for pi, e in zip(x.ring.inverted, x.exps):
        if e > 0:
            num = num * pi**e
        else:
            den = den * pi ** (-e)
    return reduce_frac((num, den))


def strip_primes(f: Poly, primes) -> Poly:
    """Nonzero f with every factor among primes divided out, by trial division."""
    for pi in primes:
        q, r = f.divmod(pi)
        while r.is_zero():
            f = q
            q, r = f.divmod(pi)
    return f


def reduce_frac(fr: Frac) -> Frac:
    num, den = fr
    if num.is_zero():
        return (num, Poly.one(den.field))
    g = num.gcd(den)
    if not g.is_one():
        num = num.exact_div(g)
        den = den.exact_div(g)
    lc_inv = den.lc().inv()
    return (num.scale(lc_inv), den.scale(lc_inv))


def frac_add(a: Frac, b: Frac) -> Frac:
    return reduce_frac((a[0] * b[1] + b[0] * a[1], a[1] * b[1]))


def frac_sub(a: Frac, b: Frac) -> Frac:
    return reduce_frac((a[0] * b[1] - b[0] * a[1], a[1] * b[1]))


def frac_mul(a: Frac, b: Frac) -> Frac:
    return reduce_frac((a[0] * b[0], a[1] * b[1]))


def frac_div(a: Frac, b: Frac) -> Frac:
    return reduce_frac((a[0] * b[1], a[1] * b[0]))


def frac_derive(a: Frac) -> Frac:
    """The quotient rule."""
    num, den = a
    return reduce_frac((num.derivative() * den - num * den.derivative(), den * den))


def fraction_field_rank(rows: list[list[Frac]]) -> int:
    """Row-echelon rank of a matrix of polynomial fractions."""
    rows = [[reduce_frac(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    pivot_col = 0
    while rank < nrows and pivot_col < ncols:
        pivot_row = None
        for i in range(rank, nrows):
            if not rows[i][pivot_col][0].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][pivot_col]
        for i in range(rank + 1, nrows):
            entry = rows[i][pivot_col]
            if entry[0].is_zero():
                continue
            factor = frac_div(entry, pivot)
            rows[i] = [
                frac_sub(x, frac_mul(factor, p)) for x, p in zip(rows[i], rows[rank])
            ]
        rank += 1
        pivot_col += 1
    return rank


# -- field and irreducibility references

# A field element's code is the base-p value of its power-basis coefficient
# vector; these references work on the vectors and share no table with the
# field.


def code_digits(p: int, e: int, code: int) -> list[int]:
    return [code // p**i % p for i in range(e)]


def digits_code(p: int, digits) -> int:
    return sum(c * p**i for i, c in enumerate(digits))


def schoolbook_add(p: int, e: int, x: int, y: int) -> int:
    dx, dy = code_digits(p, e, x), code_digits(p, e, y)
    return digits_code(p, [(a + b) % p for a, b in zip(dx, dy)])


def schoolbook_sub(p: int, e: int, x: int, y: int) -> int:
    dx, dy = code_digits(p, e, x), code_digits(p, e, y)
    return digits_code(p, [(a - b) % p for a, b in zip(dx, dy)])


def schoolbook_mul(p: int, modulus, x: int, y: int) -> int:
    """x * y in F_p[a]/(modulus), by convolution and long division."""
    e = len(modulus) - 1
    dx, dy = code_digits(p, e, x), code_digits(p, e, y)
    conv = [0] * (2 * e - 1)
    for i, a in enumerate(dx):
        for j, b in enumerate(dy):
            conv[i + j] = (conv[i + j] + a * b) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = conv[k]
        for i in range(e + 1):
            conv[k - e + i] = (conv[k - e + i] - c * modulus[i]) % p
    return digits_code(p, conv[:e])


def trial_division_is_irreducible(f: Poly) -> bool:
    """No monic divisor of degree 1 .. deg f // 2, over every lower part."""
    if f.deg < 1:
        return False
    q = f.field.q
    for d in range(1, f.deg // 2 + 1):
        for lower in itertools.product(range(q), repeat=d):
            if Poly(f.field, (*lower, 1)).divides(f):
                return False
    return True
