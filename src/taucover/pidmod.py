"""Finitely presented modules over a chart ring, via Smith normal form.

The chart ring A (F_q[t] with finitely many monic irreducibles inverted) is a
Euclidean domain once elements are measured by the degree of their unit-free
core.  That gives the classical algorithms:

  * smith_normal_form(M): U * M * V = D with U, V invertible and D a diagonal
    divisibility chain of monic cores.  The identity U*M*V = D, both inverse
    certificates and the shape of D are re-verified on every call, on the
    rows of ``_product_rows``, the one matrix product (``@`` calls it too):
    once V*V^-1 = I, U*M*V = D is decided as U*M = D*V^-1, a row scaling,
    and (U*M)*V is formed only otherwise.  A failure raises
    CertificateFailure naming the certificate, the shape and the ring.
  * solve / syzygy_matrix: linear algebra over A, each given only the SNF
    of its matrix, which carries the matrix.  One helper, _read_off, owns
    the rule that reads a row y_i of U*b against the diagonal of D: a unit
    d_i accepts any y_i, a zero or missing d_i needs y_i = 0, and any other
    d_i must divide y_i.  It divides the cores and forms no quotient:
    solve reads every row and alone forms the quotients y_i / d_i, and the
    zero and equality tests keep only the verdict.
  * FpmModule: generators + relation columns, in its weights.  The ring and
    the generator count are the relation matrix's.  Rank, the torsion chain
    and the membership test are read off one SNF, reduced once.  The zero
    test and the equality test read only the rows of U*x whose d_i is zero,
    missing or not a unit, collected once per SNF, and compare two vectors
    row by row with no difference of them formed.
  * DirectSum: a Z/n-graded module held as the block of weight 0, the one
    block that weights 1..n-1 share (one module may be both), and n.  An
    element is given by its parts, one vector per weight, and each part is
    tested in its weight's block, as are two elements compared part by
    part.  Its torsion chain is the shared block's, each factor n times,
    with the grading certificate that the weight-0 block's chain is the
    same.  Its submodules are spans inside the weight-0 block, with the
    grading certificate that every generator is zero outside weight 0.
  * Submodule: the span of generator columns inside an FpmModule.  One SNF
    of [gens | relations] gives both its syzygy presentation and its
    membership test.
  * ModuleMap: matrix on generators carrying a well-definedness certificate.
    Its image is the Submodule spanned by the matrix, and its kernel is
    generated by the relations of that image's presentation, so the kernel
    of any map is read off the same SNF as the image.
  * is_exact: junction-by-junction kernel = image by double membership, with
    explicit witnesses on failure.  Failures are report content, not errors.

On a cover chart B = A[v]/(v^n - u) the grading is by Z/n, wt v = 1 and
wt A = 0 (the mu_n eigensheaf splitting of the cyclic cover), so the chart
modules of ``forms`` are DirectSums, whatever n, of two FpmModules.
Only those ambient modules are graded: the partial forms dt, dv/v and
dv/v^dt have weight 0, so every submodule, presentation and map lives in
weight 0.

Matrix entries and vectors are elements of the module's ring: nothing here
coerces, and every matrix is built by the one PolyMatrix constructor, which
reads its shape off its rows.  Every derived object (SNF, presentation,
image, kernel, certificate) is computed once on first use and kept by the
object it belongs to.

Pivoting is deterministic: minimal core degree, ties broken lexicographically
by position, so reports are byte-stable across runs.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Iterable, Sequence

from .errors import CertificateFailure, RingMismatch
from .exprparse import _term
from .polys import Poly
from .rings import ChartRing, RingElem, _unit_quotient

Vec = tuple[RingElem, ...]


class PolyMatrix:
    """Immutable matrix over a fixed ChartRing, its entries elements of it.

    The shape is read off the rows; ``ncols`` gives the width only of a
    matrix with no rows.  Nothing is coerced: an entry of another ring meets
    ``RingElem._check`` at the first arithmetic that reads it.
    """

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: ChartRing, rows: Iterable[Iterable[RingElem]], *, ncols: int = 0):
        frozen = tuple(map(tuple, rows))
        self.ring = ring
        self.rows = frozen
        self.nrows = len(frozen)
        self.ncols = len(frozen[0]) if frozen else ncols
        if any(len(row) != self.ncols for row in frozen):
            raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, ring: ChartRing, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(ring, [(ring.zero,) * ncols] * nrows, ncols=ncols)

    @classmethod
    def from_columns(
        cls, ring: ChartRing, cols: Sequence[Sequence[RingElem]], nrows: int
    ) -> "PolyMatrix":
        return cls(ring, [[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if other.nrows != self.nrows:
            raise ValueError("hstack with mismatched row counts")
        return PolyMatrix(
            self.ring, map(add, self.rows, other.rows), ncols=self.ncols + other.ncols
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matmul shape mismatch")
        rows = _product_rows(self.rows, other.rows, other.ncols, self.ring.zero)
        return PolyMatrix(self.ring, rows, ncols=other.ncols)

    def apply_vec(self, vec: Sequence[RingElem]) -> Vec:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        zero = self.ring.zero
        out = []
        live = [(k, x) for k, x in enumerate(vec) if x.const]
        for row in self.rows:
            acc = None
            for k, x in live:
                a = row[k]
                if a.const:
                    acc = a * x if acc is None else acc + a * x
            out.append(zero if acc is None else acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def __repr__(self):
        if not self.rows:
            return f"PolyMatrix({self.nrows}x{self.ncols})"
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"[{body}]"


class SNFResult:
    """U * M * V = D, all four transforms kept with their inverses."""

    __slots__ = ("matrix", "U", "U_inv", "D", "V", "V_inv", "diag", "_rows_to_read")

    def __init__(self, matrix, U, U_inv, D, V, V_inv, diag):
        self.matrix = matrix
        self.U = U
        self.U_inv = U_inv
        self.D = D
        self.V = V
        self.V_inv = V_inv
        self.diag = diag  # tuple of RingElem, length min(m, n), cores or zero
        self._rows_to_read = None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if not d.is_zero())

    def nonunit_torsion(self) -> list[Poly]:
        return [d.core for d in self.diag if not d.is_zero() and not d.core.is_one()]

    @property
    def rows_to_read(self) -> tuple[tuple[int, tuple[tuple[int, RingElem], ...]], ...]:
        """(i, the nonzero entries (k, U_ik) of row i of U) for each row i of
        U*x that the membership test reads: those whose diagonal entry is
        zero, missing or not a unit.  A unit d_i divides every y_i, so its
        row is never read.  Collected once."""
        if self._rows_to_read is None:
            diag = self.diag
            self._rows_to_read = tuple(
                (i, tuple((k, a) for k, a in enumerate(row) if a.const))
                for i, row in enumerate(self.U.rows)
                if i >= len(diag) or not diag[i].is_unit()
            )
        return self._rows_to_read


def _euclid_quotient(ring: ChartRing, a: RingElem, b: RingElem) -> RingElem:
    """q with size(a - q*b) < size(b), measuring by core degree, for nonzero
    a and b: the quotient of the cores times the unit part of a over that of b."""
    return ring.make(a.core // b.core) * _unit_quotient(a, b, ring.one.core)


def smith_normal_form(M: PolyMatrix) -> SNFResult:
    """Deterministic SNF over the chart ring; postcondition always verified."""
    ring = M.ring
    m, n = M.nrows, M.ncols
    S = [list(row) for row in M.rows]
    U = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    Uinv = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    V = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    Vinv = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        if i == j:
            return
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def col_swap(i, j):
        if i == j:
            return
        for r in range(m):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_sub(i, k, q):
        """row_i -= q * row_k"""
        if q.is_zero():
            return
        S[i] = [a - q * b for a, b in zip(S[i], S[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]
        for r in range(m):
            Uinv[r][k] = Uinv[r][k] + q * Uinv[r][i]

    def col_sub(j, k, q):
        """col_j -= q * col_k"""
        if q.is_zero():
            return
        for r in range(m):
            S[r][j] = S[r][j] - q * S[r][k]
        for r in range(n):
            V[r][j] = V[r][j] - q * V[r][k]
        Vinv[k] = [a + q * b for a, b in zip(Vinv[k], Vinv[j])]

    def row_scale(i, w, winv):
        """row_i *= w, w a unit with inverse winv"""
        S[i] = [w * a for a in S[i]]
        U[i] = [w * a for a in U[i]]
        for r in range(m):
            Uinv[r][i] = Uinv[r][i] * winv

    def find_pivot(k):
        best = None
        best_key = None
        for i in range(k, m):
            for j in range(k, n):
                if S[i][j].is_zero():
                    continue
                key = (S[i][j].core.deg, i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        return best

    k = 0
    while k < min(m, n):
        piv = find_pivot(k)
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        while True:
            # clear column k and row k against the pivot, swapping in any
            # smaller remainder until both are zero off the pivot
            dirty = True
            while dirty:
                dirty = False
                for i in range(k + 1, m):
                    if S[i][k].is_zero():
                        continue
                    q = _euclid_quotient(ring, S[i][k], S[k][k])
                    row_sub(i, k, q)
                    if not S[i][k].is_zero():
                        row_swap(k, i)
                        dirty = True
                for j in range(k + 1, n):
                    if S[k][j].is_zero():
                        continue
                    q = _euclid_quotient(ring, S[k][j], S[k][k])
                    col_sub(j, k, q)
                    if not S[k][j].is_zero():
                        col_swap(k, j)
                        dirty = True
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if not ring.divides(S[k][k], S[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(k, offender, -ring.one)  # row_k += row_offender
        k += 1

    # normalize nonzero diagonal entries to their monic cores
    for i in range(min(m, n)):
        if S[i][i].is_zero():
            continue
        winv = _unit_quotient(ring.one, S[i][i], ring.one.core)
        if winv != ring.one:
            row_scale(i, winv, winv.inv())

    result = SNFResult(
        M,
        PolyMatrix(ring, U),
        PolyMatrix(ring, Uinv),
        PolyMatrix(ring, S, ncols=n),
        PolyMatrix(ring, V),
        PolyMatrix(ring, Vinv),
        tuple(S[i][i] for i in range(min(m, n))),
    )
    _verify_snf(result)
    return result


def _product_rows(a: Sequence[Vec], b: Sequence[Vec], ncols: int, zero: RingElem) -> list[Vec]:
    """The rows of a*b, b having ncols columns: the one matrix product,
    which forms only the nonzero products of each row."""
    out = []
    for row in a:
        live = [(x, b[k]) for k, x in enumerate(row) if x.const]
        sums = []
        for j in range(ncols):
            acc = zero
            for x, brow in live:
                y = brow[j]
                if y.const:
                    acc = acc + x * y
            sums.append(acc)
        out.append(tuple(sums))
    return out


def _verify_snf(r: SNFResult) -> None:
    ring = r.matrix.ring
    m, n, zero = r.D.nrows, r.D.ncols, ring.zero

    def fail(certificate: str) -> CertificateFailure:
        return CertificateFailure(
            f"SNF certificate failed: {certificate}, on a {m}x{n} matrix over {ring}"
        )

    D, V_inv = r.D.rows, r.V_inv.rows
    diagonal = all(not x.const for i, row in enumerate(D) for j, x in enumerate(row) if i != j)
    v_inverse = _is_identity(_product_rows(r.V.rows, V_inv, n, zero), ring.one)
    UM = _product_rows(r.U.rows, r.matrix.rows, n, zero)
    if diagonal and v_inverse:
        # V and V^-1 are square over a commutative ring, so V*V^-1 = I gives
        # V^-1*V = I, and U*M*V = D exactly when U*M = D*V^-1: a row scaling,
        # D being diagonal
        holds = all(
            all(x == D[i][i] * y for x, y in zip(row, V_inv[i]))
            if i < n
            else not any(x.const for x in row)
            for i, row in enumerate(UM)
        )
    else:
        holds = _product_rows(UM, r.V.rows, n, zero) == list(D)
    if not holds:
        raise fail("U*M*V = D")
    if not _is_identity(_product_rows(r.U.rows, r.U_inv.rows, m, zero), ring.one):
        raise fail("U*U^-1 = I")
    if not v_inverse:
        raise fail("V*V^-1 = I")
    if not diagonal:
        raise fail("D is diagonal")
    for i in range(len(r.diag) - 1):
        a, b = r.diag[i], r.diag[i + 1]
        if a.is_zero() and not b.is_zero():
            raise fail("zero diagonal entries come last")
        if not a.is_zero() and not b.is_zero() and not ring.divides(a, b):
            raise fail("each diagonal entry divides the next")


def _is_identity(rows: Sequence[Vec], one: RingElem) -> bool:
    """The rows are those of an identity matrix, read entry by entry."""
    return all(
        x == one if i == j else not x.const
        for i, row in enumerate(rows)
        for j, x in enumerate(row)
    )


def _read_off(snf: SNFResult, i: int, y: RingElem) -> tuple[RingElem, Poly] | None:
    """Whether d_i*z_i = y has a solution, y the entry in row i of U*x.  This
    is the read-off rule: a unit d_i accepts any y, a zero or missing d_i
    needs y = 0, and any other d_i must divide y.

    A refused y gives None.  An accepted one gives a divisor c of y and the
    core of y / c, which ``_unit_quotient`` turns into z_i: c is d_i, or 1
    when y = 0.  The cores are divided once, and a d_i whose core is 1 takes
    no division; no quotient is formed here, so a zero or equality test that
    keeps only the verdict builds none.
    """
    if not y.const:
        return y.ring.one, y.core
    diag = snf.diag
    if i >= len(diag) or not diag[i].const:
        return None
    d, core = diag[i], y.core
    if not d.core.is_one():
        core, rest = core.divmod(d.core)
        if not rest.is_zero():
            return None
    return d, core


def solve(snf: SNFResult, b: Sequence[RingElem]):
    """One solution x of M x = b over the chart ring, M the matrix of snf, or None.

    x = V*z for the z with D*z = U*b that is zero off the nonzero diagonal,
    and there is none when some row of U*b fails: every nonzero row of U*b
    is read off the diagonal, and the quotient formed through the helper
    behind ``ChartRing.exact_div``."""
    z = [snf.matrix.ring.zero] * snf.matrix.ncols
    for i, y in enumerate(snf.U.apply_vec(b)):
        if y.const:
            read = _read_off(snf, i, y)
            if read is None:
                return None
            z[i] = _unit_quotient(y, *read)
    return snf.V.apply_vec(z)


def syzygy_matrix(snf: SNFResult) -> PolyMatrix:
    """Columns form a basis of ker(M : A^ncols -> A^nrows), M the matrix of snf.

    Each column is scaled so its first nonzero entry is a monic core, which
    keeps downstream witness strings stable.
    """
    M = snf.matrix
    free = [
        j
        for j in range(M.ncols)
        if j >= len(snf.diag) or snf.diag[j].is_zero()
    ]
    ring = M.ring
    cols = []
    for j in free:
        col = list(snf.V.col(j))
        lead = next((x for x in col if not x.is_zero()), None)
        if lead is not None:
            winv = _unit_quotient(ring.one, lead, ring.one.core)
            col = [winv * x for x in col]
        cols.append(col)
    return PolyMatrix.from_columns(ring, cols, M.ncols)


def _block_snf(block: PolyMatrix, weights: range) -> SNFResult:
    """SNF of the block of these weights; a failed certificate names the
    block that asked."""
    try:
        return smith_normal_form(block)
    except CertificateFailure as exc:
        raise CertificateFailure(f"{exc}, in the block of {_weights_text(weights)}") from None


def _row_times(live: Sequence[tuple[int, RingElem]], x: Vec, zero: RingElem) -> RingElem:
    """sum a * x_k over the nonzero entries (k, a) of a matrix row."""
    acc = zero
    for k, a in live:
        xk = x[k]
        if xk.const:
            acc = a * xk if acc is zero else acc + a * xk
    return acc


def _weights_text(weights: range) -> str:
    first, last = weights[0], weights[-1]
    return f"weights {first}..{last}" if last > first else f"weight {first}"


class FpmModule:
    """A^n_gens modulo the column span of a relation matrix, whose ring and
    row count are the module's ring and generator count.

    The module lives in a range of weights, weight 0 alone unless it is the
    block that weights 1..n-1 of a DirectSum share; a failed SNF certificate
    names them.  Rank, torsion, the zero test and the equality test are
    read off one SNF, reduced once per module.
    """

    def __init__(
        self,
        relations: PolyMatrix,
        gen_names: Sequence[str] | None = None,
        weights: range = range(1),
    ):
        self.ring = relations.ring
        self.n_gens = relations.nrows
        self.relations = relations
        self.weights = weights
        self.gen_names = tuple(gen_names) if gen_names else tuple(
            f"e{i}" for i in range(self.n_gens)
        )

    @classmethod
    def free(cls, ring: ChartRing, n: int, gen_names=None) -> "FpmModule":
        return cls(PolyMatrix.zeros(ring, n, 0), gen_names)

    @classmethod
    def zero(cls, ring: ChartRing) -> "FpmModule":
        return cls.free(ring, 0)

    @cached_property
    def snf(self) -> SNFResult:
        """SNF of the relation matrix, reduced once per module."""
        return _block_snf(self.relations, self.weights)

    @property
    def rank(self) -> int:
        """Rank of the torsion-free quotient."""
        return self.n_gens - self.snf.rank

    @property
    def torsion(self) -> list[Poly]:
        """Nonunit torsion invariants, a divisibility chain of monic cores."""
        return self.snf.nonunit_torsion()

    def check_vec(self, vec: Sequence[RingElem]) -> Vec:
        """vec as a tuple, checked to have one entry per generator and each
        nonzero entry in the module's ring."""
        vec = tuple(vec)
        if len(vec) != self.n_gens:
            raise ValueError("vector length does not match generator count")
        ring = self.ring
        for x in vec:
            if x.const and x.ring is not ring:
                ring.check(x)
        return vec

    def is_zero_elem(self, vec: Sequence[RingElem]) -> bool:
        """vec lies in the relation span: D*z = U*vec has a solution, read
        off the rows that can fail.  The zero vector takes no SNF."""
        vec = self.check_vec(vec)
        return all(not x.const for x in vec) or self._agree(vec, None)

    def elems_equal(self, v: Sequence, w: Sequence) -> bool:
        """v = w in the module, decided on the rows of U*v and U*w that can
        fail, with no difference of the two vectors formed: where d_i is zero
        the rows must be equal, elsewhere they must agree modulo d_i.  Equal
        vectors take no SNF."""
        v, w = self.check_vec(v), self.check_vec(w)
        return v == w or self._agree(v, w)

    def _agree(self, v: Vec, w: Vec | None) -> bool:
        """v = w, or v = 0 when w is None, on every row of the SNF's
        ``rows_to_read``; a row where the two differ is read off as their
        difference."""
        snf, zero = self.snf, self.ring.zero
        for i, live in snf.rows_to_read:
            y = _row_times(live, v, zero)
            if w is not None:
                y_w = _row_times(live, w, zero)
                if y == y_w:
                    continue
                y = y - y_w
            if _read_off(snf, i, y) is None:
                return False
        return True

    def format_vec(self, vec: Sequence) -> str:
        vec = self.check_vec(vec)
        terms = [_term(str(x), name) for name, x in zip(self.gen_names, vec) if not x.is_zero()]
        return " + ".join(terms) or "0"

    def __repr__(self):
        ncols = self.relations.ncols
        rel = f", {ncols} relations" if ncols else ""
        return f"FpmModule({self.n_gens} gens{rel} over {self.ring})"


class DirectSum:
    """A graded module kept as its block of weight 0, the one block that
    weights 1..n-1 share, and n; the shared block counts n - 1 times.

    An element is given by its parts, a dict from weight to a vector of that
    weight's block; a missing weight is a zero part.  Each question is asked
    of the blocks one at a time, in the order of the parts, and a zero part
    takes no SNF.  Two elements are compared by ``equal``, part against
    part, with no difference formed; it is the one comparison the guards of
    the connection and of the differential-graded laws use.  Submodules live
    in the weight-0 block.  The blocks may differ, but ``torsion`` asks that
    they share one chain.
    """

    def __init__(self, zero: FpmModule, rest: FpmModule, n: int):
        self.zero, self.rest, self.n = zero, rest, n

    def block(self, w: int) -> FpmModule:
        return self.rest if w else self.zero

    @property
    def n_gens(self) -> int:
        return self.zero.n_gens + (self.n - 1) * self.rest.n_gens

    @property
    def rank(self) -> int:
        """Rank of the torsion-free quotient."""
        return self.zero.rank + (self.n - 1) * self.rest.rank

    @property
    def torsion(self) -> list[Poly]:
        """Nonunit torsion invariants: each factor of the shared block's
        chain n times, once the weight-0 block's chain is certified to be the
        same.  A form module's blocks always agree: when p | n they are one
        module, and otherwise neither has torsion."""
        chain = self.rest.torsion
        if self.zero.torsion != chain:
            raise CertificateFailure(
                f"grading certificate failed: over {self.zero.ring} the block of "
                f"weight 0 has torsion {[str(c) for c in self.zero.torsion]}, the "
                f"block of {_weights_text(self.rest.weights)} {[str(c) for c in chain]}"
            )
        return [c for c in chain for _ in range(self.n)]

    def is_zero(self, parts: dict[int, Sequence]) -> bool:
        """Every part is zero in its block."""
        return all(self.block(w).is_zero_elem(part) for w, part in parts.items())

    def equal(self, parts: dict[int, Sequence], other: dict[int, Sequence]) -> bool:
        """The elements with these parts are equal, block by block: a weight
        with both parts compares them in its block, and a weight with one
        part tests it for zero.  No difference of the two elements is
        formed, and a part literally equal to its twin takes no SNF."""
        for w, part in parts.items():
            twin = other.get(w)
            block = self.block(w)
            same = block.is_zero_elem(part) if twin is None else block.elems_equal(part, twin)
            if not same:
                return False
        return all(self.block(w).is_zero_elem(part) for w, part in other.items() if w not in parts)

    def span(
        self, generators: Sequence[dict[int, Sequence]], names: Sequence[str]
    ) -> "Submodule":
        """The submodule of the weight-0 block spanned by generators given by parts.

        The grading certificate is that every part outside weight 0 is zero.
        """
        block = self.zero
        zero = (block.ring.zero,) * block.n_gens
        for name, parts in zip(names, generators, strict=True):
            for w, part in parts.items():
                if w and any(not x.is_zero() for x in part):
                    raise CertificateFailure(
                        f"grading certificate failed: generator {name} over "
                        f"{block.ring} has a nonzero part in weight {w}, not 0"
                    )
        gens = PolyMatrix.from_columns(
            block.ring, [parts.get(0, zero) for parts in generators], block.n_gens
        )
        return Submodule(block, gens, names)

    def coords(self, sub: "Submodule", parts: dict[int, Sequence]) -> Vec | None:
        """Coordinates on the generators of sub, a submodule of the weight-0
        block, of the element with these parts, or None when it lies outside.

        The weight-0 part is solved in sub first; every other part must then
        be zero in its block.
        """
        rest = dict(parts)
        zero = (sub.ambient.ring.zero,) * sub.ambient.n_gens
        coords = sub.contains(rest.pop(0, zero))
        if coords is None or not self.is_zero(rest):
            return None
        return coords


class Submodule:
    """Span of generator columns inside an FpmModule, with a syzygy presentation.

    One SNF of [gens | relations] gives both the presentation and the
    membership test.
    """

    def __init__(self, ambient: FpmModule, gens: PolyMatrix, gen_names=None):
        if gens.nrows != ambient.n_gens:
            raise ValueError("generator columns must live in the ambient module")
        self.ambient = ambient
        self.gens = gens
        self._names = tuple(gen_names) if gen_names else tuple(
            f"g{i}" for i in range(gens.ncols)
        )

    @cached_property
    def snf(self) -> SNFResult:
        """SNF of [gens | relations], reduced once per submodule."""
        ambient = self.ambient
        return _block_snf(self.gens.hstack(ambient.relations), ambient.weights)

    @cached_property
    def presentation(self) -> FpmModule:
        """Generators modulo their syzygies: the gens rows of ker [gens | relations]."""
        syz, k = syzygy_matrix(self.snf), self.gens.ncols
        return FpmModule(PolyMatrix(syz.ring, syz.rows[:k], ncols=syz.ncols), self._names)

    def contains(self, vec: Sequence) -> Vec | None:
        """Coordinates of vec on the generators, or None when vec is outside.

        The zero vector takes no SNF.
        """
        vec = self.ambient.check_vec(vec)
        if all(x.is_zero() for x in vec):
            return (self.ambient.ring.zero,) * self.gens.ncols
        sol = solve(self.snf, vec)
        return None if sol is None else sol[: self.gens.ncols]


class ModuleMap:
    """A map of finitely presented modules, given by a matrix on generators."""

    def __init__(self, source: FpmModule, target: FpmModule, matrix: PolyMatrix):
        if matrix.nrows != target.n_gens or matrix.ncols != source.n_gens:
            raise ValueError("map matrix shape must be target gens x source gens")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source: FpmModule, target: FpmModule) -> "ModuleMap":
        return cls(source, target, PolyMatrix.zeros(source.ring, target.n_gens, source.n_gens))

    @cached_property
    def well_definedness(self) -> tuple[bool, dict | None]:
        """Check every source relation maps into the target relation image."""
        for j in range(self.source.relations.ncols):
            rel = self.source.relations.col(j)
            image = self.matrix.apply_vec(rel)
            if not self.target.is_zero_elem(image):
                return False, {
                    "relation": self.source.format_vec(rel),
                    "image": self.target.format_vec(image),
                }
        return True, None

    @property
    def is_well_defined(self) -> bool:
        return self.well_definedness[0]

    @cached_property
    def image(self) -> Submodule:
        """Image as a submodule of the target."""
        return Submodule(self.target, self.matrix)

    @cached_property
    def kernel(self) -> Submodule:
        """Kernel as a submodule of the source.

        x is in the kernel iff matrix*x lies in the target's relation span,
        iff x is the source block of a syzygy of [matrix | relations]: the
        relations of the image's presentation generate the kernel.
        """
        return Submodule(self.source, self.image.presentation.relations)

    def __repr__(self):
        return f"map: {self.source!r} -> {self.target!r}"


def is_exact(maps: Sequence[ModuleMap], labels: Sequence[str]) -> dict:
    """Exactness report for a composable chain of maps.

    One junction per intermediate module, named by its entry of labels.
    Each junction reports whether image(incoming) = kernel(outgoing), with
    a witness element on failure.  Maps that fail their well-definedness
    certificate mark their adjacent junctions failed, carrying the
    certificate witness.
    """
    junctions = []
    for idx in range(len(maps) - 1):
        f, g = maps[idx], maps[idx + 1]
        if f.target is not g.source:
            raise RingMismatch("sequence maps are not composable")
        label = labels[idx]
        module = f.target
        f_ok, f_wit = f.well_definedness
        g_ok, g_wit = g.well_definedness
        if not f_ok or not g_ok:
            junctions.append(
                {
                    "at": label,
                    "exact": False,
                    "witness": None,
                    "note": "ill-defined map",
                    "detail": f_wit or g_wit,
                }
            )
            continue
        failure = None
        # image inside kernel: g(f(e_i)) must die in g.target
        comp = g.matrix @ f.matrix
        for i in range(f.source.n_gens):
            img = comp.col(i)
            if not g.target.is_zero_elem(img):
                failure = {
                    "at": label,
                    "exact": False,
                    "witness": module.format_vec(f.matrix.col(i)),
                    "note": "image not annihilated by the next map",
                }
                break
        if failure is None:
            # kernel inside image
            ker = g.kernel
            for j in range(ker.gens.ncols):
                kvec = ker.gens.col(j)
                if module.is_zero_elem(kvec):
                    continue
                if f.image.contains(kvec) is None:
                    failure = {
                        "at": label,
                        "exact": False,
                        "witness": module.format_vec(kvec),
                        "note": "kernel element outside the image",
                    }
                    break
        junctions.append(failure or {"at": label, "exact": True, "witness": None})
    return {
        "exact": all(j["exact"] for j in junctions),
        "junctions": junctions,
    }
