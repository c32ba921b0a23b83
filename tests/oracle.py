"""Independent references for the tests.

The rank oracle is Gaussian elimination over the fraction field.  Entries are
(numerator, denominator) polynomial pairs handled with plain fraction
arithmetic.  It deliberately shares nothing with the module engine, so the two
rank computations are genuinely separate routes.  The same fraction arithmetic
is the reference for chart-ring elements: a ring element is read into a
fraction from its stored unit-core factors, and every other step is plain
polynomial arithmetic.  As the ``Fraction`` type, with the grammar's
operators, it reads any bundle text or printed element into F_q(t).

The field references compute on power-basis coefficient vectors, not the
field's tables, and the irreducibility reference is trial division.

The dense cover-element references move between a CoverElem and one
coefficient per basis power v^j.

The generic-form references are the kernel's operations before their fast
paths: a polynomial sum through the field's ``_add``, a chart-ring sum that
lifts both summands to polynomials and divides every prime out with ``make``,
and cover-element products and differences built term by term through the
constructor that drops zero terms.

The weight-block references move between a dense matrix and a DirectSum by
index bookkeeping alone: the dense matrix holds the weight-0 block once and
the block that weights 1..n-1 share n - 1 times, down its diagonal.  The
coset reference reduces a vector to a canonical representative of its class,
through the module's SNF and the extended Euclidean algorithm; the module
engine's zero test reads divisibility on the SNF diagonal instead.  The
certificate reference decides U*M*V = D by both products and each inverse
against an identity matrix.
"""

import itertools

from taucover.covers import CoverElem
from taucover.exprparse import evaluate
from taucover.pidmod import DirectSum, FpmModule, PolyMatrix
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
    lc_inv = den.field._inv(den.coeffs[-1])
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


class Fraction:
    """An element of F_q(t), a reduced fraction whose denominator is monic,
    with the operators that ``exprparse.evaluate`` folds: any bundle text or
    printed element reads into it with no chart ring."""

    __slots__ = ("num", "den")

    def __init__(self, fr: Frac):
        self.num, self.den = reduce_frac(fr)

    @classmethod
    def parse(cls, field, text: str) -> "Fraction":
        one = Poly.one(field)
        atoms = {"t": cls((Poly.x(field), one))}
        if field.e > 1:
            atoms["a"] = cls((Poly.const(field, field.p), one))
        return evaluate(text, lambda k: cls((Poly.const(field, k % field.p), one)), atoms)

    def __add__(self, other):
        return Fraction(frac_add((self.num, self.den), (other.num, other.den)))

    def __sub__(self, other):
        return Fraction(frac_sub((self.num, self.den), (other.num, other.den)))

    def __mul__(self, other):
        return Fraction(frac_mul((self.num, self.den), (other.num, other.den)))

    def __truediv__(self, other):
        assert not other.num.is_zero(), "division by zero"
        return Fraction(frac_div((self.num, self.den), (other.num, other.den)))

    def __neg__(self):
        return Fraction((-self.num, self.den))

    def __pow__(self, k: int):
        return Fraction((self.num**k, self.den**k))

    def __eq__(self, other):
        return (self.num, self.den) == (other.num, other.den)

    def __repr__(self):
        return f"({self.num})/({self.den})"


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


def schoolbook_pow(p: int, modulus, x: int, k: int) -> int:
    """x^k for k >= 0 by square and multiply on schoolbook products."""
    result = 1
    for bit in bin(k)[2:]:
        result = schoolbook_mul(p, modulus, result, result)
        if bit == "1":
            result = schoolbook_mul(p, modulus, result, x)
    return result


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


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, s, u) with d = s*f + u*g, d monic."""
    a, b = f, g
    s0, s1 = Poly.one(f.field), Poly.zero(f.field)
    t0, t1 = Poly.zero(f.field), Poly.one(f.field)
    while not b.is_zero():
        q, r = a.divmod(b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a.is_zero():
        return a, s0, t0
    lead = a.field._inv(a.coeffs[-1])
    return a.scale(lead), s0.scale(lead), t0.scale(lead)


def residue_mod_core(ring, x, core: Poly):
    """Canonical representative of x in A/(core); core monic and S-free."""
    num, den = x.fraction()
    _d, s, _u = xgcd(den, core)
    # den * s = 1 mod core since core is coprime to every inverted irreducible
    return ring.make((num * s) % core)


def literal_snf_certificate(r) -> str | None:
    """The first certificate the SNFResult r fails, or None when it passes.

    U*M*V = D is decided by its two products, each inverse against an
    identity matrix, then the shape of D and its divisibility chain, in the
    order the module engine reports them.
    """
    ring = r.matrix.ring

    def identity(n):
        return PolyMatrix(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
            ncols=n,
        )

    if (r.U @ r.matrix) @ r.V != r.D:
        return "U*M*V = D"
    if r.U @ r.U_inv != identity(r.U.nrows):
        return "U*U^-1 = I"
    if r.V @ r.V_inv != identity(r.V.nrows):
        return "V*V^-1 = I"
    if any(
        i != j and not x.is_zero() for i, row in enumerate(r.D.rows) for j, x in enumerate(row)
    ):
        return "D is diagonal"
    for a, b in zip(r.diag, r.diag[1:]):
        if a.is_zero() and not b.is_zero():
            return "zero diagonal entries come last"
        if not a.is_zero() and not b.is_zero() and not ring.divides(a, b):
            return "each diagonal entry divides the next"
    return None


def canonical_reduce(module: FpmModule, vec) -> tuple:
    """Canonical coset representative of vec modulo the relation image."""
    vec = module.check_vec(vec)
    ring, snf = module.ring, module.snf
    y = list(snf.U.apply_vec(vec))
    for i, d in enumerate(snf.diag):
        if d.is_zero():
            continue
        y[i] = ring.zero if d.core.is_one() else residue_mod_core(ring, y[i], d.core)
    return snf.U_inv.apply_vec(y)


def graded_cut(M: PolyMatrix, row_weights, col_weights, n: int) -> DirectSum:
    """M kept as a DirectSum of its block of weight 0 and the one block that
    weights 1..n-1 share; asserts that no nonzero entry joins two weights and
    that the blocks of weights 1..n-1 are one matrix."""
    assert (M.nrows, M.ncols) == (len(row_weights), len(col_weights))
    for i, row in enumerate(M.rows):
        for j, x in enumerate(row):
            assert row_weights[i] == col_weights[j] or x.is_zero(), f"entry ({i}, {j})"

    def block(w):
        rows = [i for i, rw in enumerate(row_weights) if rw == w]
        cols = [j for j, cw in enumerate(col_weights) if cw == w]
        return PolyMatrix(
            M.ring, [[M.rows[i][j] for j in cols] for i in rows], ncols=len(cols)
        )

    blocks = [block(w) for w in range(n)]
    assert all(b == blocks[-1] for b in blocks[1:]), "weights 1..n-1 differ"
    zero = FpmModule(blocks[0])
    rest = FpmModule(blocks[-1], weights=range(1, n)) if n > 1 else zero
    return DirectSum(zero, rest, n)


def _block_diagonal(blocks) -> tuple[PolyMatrix, list[int], list[int]]:
    """The block-diagonal matrix of these blocks, block w of weight w, with
    the weight of each of its rows and of each of its columns."""
    ring = blocks[0].ring
    row_weights = [w for w, b in enumerate(blocks) for _ in range(b.nrows)]
    col_weights = [w for w, b in enumerate(blocks) for _ in range(b.ncols)]
    rows, col = [], 0
    for block in blocks:
        for brow in block.rows:
            rows.append(
                [ring.zero] * col + list(brow) + [ring.zero] * (len(col_weights) - col - len(brow))
            )
        col += block.ncols
    return (
        PolyMatrix(ring, rows, ncols=len(col_weights)),
        row_weights,
        col_weights,
    )


def graded_sum(zero: PolyMatrix, rest: PolyMatrix, n: int) -> tuple[DirectSum, PolyMatrix, list]:
    """The DirectSum of a weight-0 block and a block that weights 1..n-1
    share, cut from its dense block-diagonal relation matrix, which holds rest
    n - 1 times; with that matrix and the weight of each of its rows."""
    M, row_weights, col_weights = _block_diagonal([zero, *[rest] * (n - 1)])
    return graded_cut(M, row_weights, col_weights, n), M, row_weights


def cut(vec, row_weights, module: DirectSum) -> dict:
    """The parts of a vector whose entries carry row_weights, one per weight."""
    return {
        w: tuple(x for x, rw in zip(vec, row_weights) if rw == w) for w in range(module.n)
    }


def dense(module: DirectSum) -> tuple[PolyMatrix, list[int]]:
    """The block-diagonal relation matrix of a DirectSum, its blocks in weight
    order, with the weight of each of its rows."""
    M, row_weights, _ = _block_diagonal([module.block(w).relations for w in range(module.n)])
    return M, row_weights


# -- dense cover-element references


def cover_elem(chart, coeffs):
    """sum c_j v^j from one coefficient per basis power, built by the ring
    operations on the basis elements v^j alone."""
    assert len(coeffs) == chart.n
    out = chart.zero
    for j, c in enumerate(coeffs):
        out = out + chart.gen_power(j).scale(chart.ring.coerce(c))
    return out


def dense_coeffs(elem) -> tuple:
    """The coefficients of 1, v, ..., v^(n-1), zeros included."""
    zero = elem.chart.ring.zero
    return tuple(elem.terms.get(j, zero) for j in range(elem.chart.n))


# -- generic-form references for the kernel's fast paths


def poly_add(f: Poly, g: Poly) -> Poly:
    """f + g coefficient by coefficient through the field's ``_add``."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    return Poly(f.field, (*map(f.field._add, a, b), *a[len(b):]))


def _lifted(x, low) -> Poly:
    """const * core * prod(pi_j^(e_j - low_j)) as a polynomial."""
    out = Poly(x.ring.field, (x.const,)) * x.core
    for pi, e, m in zip(x.ring.inverted, x.exps, low):
        out = out * pi ** (e - m)
    return out


def ring_sum(x, y):
    """x + y lifted over the lowest exponents of the two, added by poly_add,
    with every inverted prime divided out of the sum by ``make``."""
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    low = [min(e, f) for e, f in zip(x.exps, y.exps)]
    return x.ring.make(poly_add(_lifted(x, low), _lifted(y, low)), [-m for m in low])


def cover_product(x, y):
    """x * y term by term, v^n reduced by u, every sum kept until the
    constructor drops the zero terms."""
    n, u = x.chart.n, x.chart.u
    out = {}
    for i, a in x.terms.items():
        for j, b in y.terms.items():
            k, term = i + j, a * b
            if k >= n:
                k, term = k - n, term * u
            out[k] = out[k] + term if k in out else term
    return CoverElem(x.chart, out)


def cover_difference(x, y):
    """x - y weight by weight, through the constructor that drops zero terms."""
    zero = x.chart.ring.zero
    weights = {*x.terms, *y.terms}
    return CoverElem(
        x.chart, {j: ring_sum(x.terms.get(j, zero), -y.terms.get(j, zero)) for j in weights}
    )
