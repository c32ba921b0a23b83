"""Finitely presented modules over a chart ring, via Smith normal form.

The chart ring A (F_q[t] with finitely many monic irreducibles inverted) is a
Euclidean domain once elements are measured by the degree of their unit-free
core.  That gives the classical algorithms:

  * smith_normal_form(M): U * M * V = D with U, V invertible and D a diagonal
    divisibility chain of monic cores.  The identity U*M*V = D, both inverse
    certificates and the shape of D are re-verified on every call; a failure
    raises CertificateFailure naming the certificate, the shape and the ring.
  * solve / syzygy_matrix: linear algebra over A.
  * GradedMatrix: a matrix whose rows and columns carry weights, kept as its
    weight blocks.  Cutting a full matrix checks exactly that no nonzero
    entry joins two weights.  Each block is reduced by its own SNF, on first
    use, so a question about one weight touches one small block.
  * FpmModule: generators + relation columns, graded (a plain matrix is the
    one-weight case).  Rank, the torsion chain, a canonical coset
    representative and the zero test are read off the block SNFs; the torsion
    chains of the blocks merge by diag(a, b) ~ diag(gcd, lcm).
  * Submodule: the span of generator columns inside an FpmModule.  The SNFs
    of the blocks of [gens | ambient relations] give both its syzygy
    presentation and its membership test; a block holding no generator is
    the ambient block and keeps the ambient module's SNF.
  * ModuleMap: matrix on generators carrying a well-definedness certificate.
    Its image is the Submodule spanned by the matrix, and its kernel is
    generated by the relations of that image's presentation, so the kernel of
    any map is read off the same SNFs as the image.
  * is_exact: junction-by-junction kernel = image by double membership, with
    explicit witnesses on failure.  Failures are report content, not errors.

On a cover chart B = A[v]/(v^n - u) the grading is by Z/n, wt v = 1 and
wt A = 0 (the mu_n eigensheaf splitting of the cyclic cover), so the chart
modules of ``forms`` split into n blocks of at most two rows.

Every derived object (SNF, presentation, image, kernel, certificate) is
computed once on first use and kept by the object it belongs to.

Pivoting is deterministic: minimal core degree, ties broken lexicographically
by position, so reports are byte-stable across runs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import CertificateFailure, RingMismatch
from .polys import Poly
from .rings import ChartRing, RingElem

Vec = tuple[RingElem, ...]


class PolyMatrix:
    """Immutable matrix of RingElems over a fixed ChartRing."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: ChartRing, rows: Iterable[Iterable], nrows=None, ncols=None):
        frozen = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        self.ring = ring
        self.rows = frozen
        self.nrows = len(frozen) if nrows is None else nrows
        self.ncols = len(frozen[0]) if frozen else (ncols if ncols is not None else 0)
        if frozen and any(len(r) != self.ncols for r in frozen):
            raise ValueError("ragged matrix")
        if not frozen and ncols is None and nrows is None:
            self.nrows, self.ncols = 0, 0

    @classmethod
    def identity(cls, ring: ChartRing, n: int) -> "PolyMatrix":
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
            nrows=n,
            ncols=n,
        )

    @classmethod
    def zeros(cls, ring: ChartRing, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(
            ring,
            [[ring.zero] * ncols for _ in range(nrows)],
            nrows=nrows,
            ncols=ncols,
        )

    @classmethod
    def from_columns(cls, ring: ChartRing, cols: Sequence[Sequence], nrows: int) -> "PolyMatrix":
        cols = [tuple(ring.coerce(x) for x in c) for c in cols]
        return cls(
            ring,
            [[c[i] for c in cols] for i in range(nrows)],
            nrows=nrows,
            ncols=len(cols),
        )

    def col(self, j: int) -> Vec:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if other.nrows != self.nrows:
            raise ValueError("hstack with mismatched row counts")
        return PolyMatrix(
            self.ring,
            [list(a) + list(b) for a, b in zip(self.rows, other.rows)]
            if self.nrows
            else [],
            nrows=self.nrows,
            ncols=self.ncols + other.ncols,
        )

    def __matmul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise ValueError("matmul shape mismatch")
            zero = self.ring.zero
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = zero
                    for k in range(self.ncols):
                        a = self.rows[i][k]
                        if a.is_zero():
                            continue
                        acc = acc + a * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return PolyMatrix(self.ring, out, nrows=self.nrows, ncols=other.ncols)
        return self.apply_vec(other)

    def apply_vec(self, vec: Sequence) -> Vec:
        vec = [self.ring.coerce(x) for x in vec]
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        zero = self.ring.zero
        out = []
        live = [(k, x) for k, x in enumerate(vec) if not x.is_zero()]
        for row in self.rows:
            acc = zero
            for k, x in live:
                a = row[k]
                if not a.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self):
        if not self.rows:
            return f"PolyMatrix({self.nrows}x{self.ncols})"
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"[{body}]"


class SNFResult:
    """U * M * V = D, all four transforms kept with their inverses."""

    __slots__ = ("matrix", "U", "U_inv", "D", "V", "V_inv", "diag")

    def __init__(self, matrix, U, U_inv, D, V, V_inv, diag):
        self.matrix = matrix
        self.U = U
        self.U_inv = U_inv
        self.D = D
        self.V = V
        self.V_inv = V_inv
        self.diag = diag  # tuple of RingElem, length min(m, n), cores or zero

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if not d.is_zero())

    def nonunit_torsion(self) -> list[Poly]:
        ring = self.matrix.ring
        out = []
        for d in self.diag:
            if d.is_zero():
                continue
            core = ring.core(d)
            if not core.is_one():
                out.append(core)
        return out


def _euclid_quotient(ring: ChartRing, a: RingElem, b: RingElem) -> RingElem:
    """q with size(a - q*b) < size(b), measuring by core degree."""
    ua, ub = ring.unit_core_split(a)[0], ring.unit_core_split(b)[0]
    return ring.from_poly(a.core // b.core) * ua / ub


def smith_normal_form(M: PolyMatrix) -> SNFResult:
    """Deterministic SNF over the chart ring; postcondition always verified."""
    ring = M.ring
    m, n = M.nrows, M.ncols
    S = [[x for x in row] for row in M.rows]
    U = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    Uinv = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    V = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    Vinv = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]

    def size(x: RingElem) -> int:
        return x.core.deg

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

    def row_scale(i, w):
        """row_i *= w, w a unit"""
        winv = w.inv()
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
                key = (size(S[i][j]), i, j)
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
        unit, _core = ring.unit_core_split(S[i][i])
        row_scale(i, unit.inv())

    result = SNFResult(
        M,
        PolyMatrix(ring, U, nrows=m, ncols=m),
        PolyMatrix(ring, Uinv, nrows=m, ncols=m),
        PolyMatrix(ring, S, nrows=m, ncols=n),
        PolyMatrix(ring, V, nrows=n, ncols=n),
        PolyMatrix(ring, Vinv, nrows=n, ncols=n),
        tuple(S[i][i] for i in range(min(m, n))),
    )
    _verify_snf(result)
    return result


def _verify_snf(r: SNFResult) -> None:
    ring = r.matrix.ring
    m, n = r.D.nrows, r.D.ncols

    def fail(certificate: str) -> CertificateFailure:
        return CertificateFailure(
            f"SNF certificate failed: {certificate}, on a {m}x{n} matrix over {ring}"
        )

    if (r.U @ r.matrix) @ r.V != r.D:
        raise fail("U*M*V = D")
    if r.U @ r.U_inv != PolyMatrix.identity(ring, r.U.nrows):
        raise fail("U*U^-1 = I")
    if r.V @ r.V_inv != PolyMatrix.identity(ring, r.V.nrows):
        raise fail("V*V^-1 = I")
    for i in range(m):
        for j in range(n):
            if i != j and not r.D.rows[i][j].is_zero():
                raise fail("D is diagonal")
    for i in range(len(r.diag) - 1):
        a, b = r.diag[i], r.diag[i + 1]
        if a.is_zero() and not b.is_zero():
            raise fail("zero diagonal entries come last")
        if not a.is_zero() and not b.is_zero() and not ring.divides(a, b):
            raise fail("each diagonal entry divides the next")


def solve(M: PolyMatrix, b: Sequence[RingElem], snf: SNFResult | None = None):
    """One solution x of M x = b over the chart ring, or None."""
    ring = M.ring
    snf = snf or smith_normal_form(M)
    y = snf.U.apply_vec(b)
    m, n = M.nrows, M.ncols
    coeffs = []
    for i in range(n):
        if i < len(snf.diag) and not snf.diag[i].is_zero():
            if not ring.divides(snf.diag[i], y[i]):
                return None
            coeffs.append(ring.exact_div(y[i], snf.diag[i]))
        else:
            coeffs.append(ring.zero)
    for i in range(m):
        if i >= len(snf.diag) or snf.diag[i].is_zero():
            if not y[i].is_zero():
                return None
    return snf.V.apply_vec(coeffs)


def syzygy_matrix(M: PolyMatrix, snf: SNFResult | None = None) -> PolyMatrix:
    """Columns form a basis of ker(M : A^ncols -> A^nrows).

    Each column is scaled so its first nonzero entry is a monic core, which
    keeps downstream witness strings stable.
    """
    snf = snf or smith_normal_form(M)
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
            unit, _ = ring.unit_core_split(lead)
            winv = unit.inv()
            col = [winv * x for x in col]
        cols.append(col)
    return PolyMatrix.from_columns(ring, cols, M.ncols)


def _positions(weights: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Indices of each weight, in index order."""
    found: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        found.setdefault(w, []).append(i)
    return {w: tuple(ix) for w, ix in found.items()}


class GradedMatrix:
    """A matrix whose rows and columns carry weights, kept as its weight blocks.

    Block w holds the entries between the rows and the columns of weight w,
    both in index order.  Every entry joining two different weights is zero,
    so the matrix is the direct sum of its blocks.  Each block's SNF is
    computed on first use and kept; a block taken over unchanged from
    ``base`` reuses the SNF already kept there.
    """

    def __init__(
        self,
        ring: ChartRing,
        row_weights: Sequence[int],
        col_weights: Sequence[int],
        blocks: dict[int, PolyMatrix],
        base: "GradedMatrix | None" = None,
    ):
        self.ring = ring
        self.row_weights = tuple(row_weights)
        self.col_weights = tuple(col_weights)
        self.rows_of = _positions(self.row_weights)
        self.cols_of = _positions(self.col_weights)
        self.blocks: dict[int, PolyMatrix] = {}
        for w in sorted(self.rows_of.keys() | self.cols_of.keys()):
            shape = (len(self.rows_of.get(w, ())), len(self.cols_of.get(w, ())))
            block = blocks.get(w)
            if block is None:
                block = PolyMatrix.zeros(ring, *shape)
            if (block.nrows, block.ncols) != shape:
                raise ValueError(f"weight-{w} block is not {shape[0]}x{shape[1]}")
            self.blocks[w] = block
        self._base = base
        self._snfs: dict[int, SNFResult] = {}

    @classmethod
    def cut(
        cls, M: PolyMatrix, row_weights: Sequence[int], col_weights: Sequence[int]
    ) -> "GradedMatrix":
        """M split into its weight blocks; an entry joining two weights raises."""
        if len(row_weights) != M.nrows or len(col_weights) != M.ncols:
            raise ValueError("one weight per row and per column")
        weights = set(row_weights) | set(col_weights)
        if len(weights) <= 1:
            return cls(M.ring, row_weights, col_weights, {w: M for w in weights})
        for i, row in enumerate(M.rows):
            for j, x in enumerate(row):
                if row_weights[i] != col_weights[j] and not x.is_zero():
                    raise CertificateFailure(
                        f"grading certificate failed: entry ({i}, {j}) of a "
                        f"{M.nrows}x{M.ncols} matrix over {M.ring} joins weight "
                        f"{row_weights[i]} to weight {col_weights[j]}"
                    )
        cols_of = _positions(col_weights)
        blocks = {}
        for w, rows in _positions(row_weights).items():
            cols = cols_of.get(w, ())
            blocks[w] = PolyMatrix(
                M.ring,
                [[M.rows[i][j] for j in cols] for i in rows],
                nrows=len(rows),
                ncols=len(cols),
            )
        return cls(M.ring, row_weights, col_weights, blocks)

    @property
    def nrows(self) -> int:
        return len(self.row_weights)

    @property
    def ncols(self) -> int:
        return len(self.col_weights)

    @cached_property
    def full(self) -> PolyMatrix:
        """The whole matrix, zero between different weights."""
        if len(self.blocks) == 1:
            return next(iter(self.blocks.values()))
        rows = [[self.ring.zero] * self.ncols for _ in range(self.nrows)]
        for w, block in self.blocks.items():
            cols = self.cols_of.get(w, ())
            for i, brow in zip(self.rows_of.get(w, ()), block.rows):
                for j, x in zip(cols, brow):
                    rows[i][j] = x
        return PolyMatrix(self.ring, rows, nrows=self.nrows, ncols=self.ncols)

    def hstack(self, other: "GradedMatrix") -> "GradedMatrix":
        """[self | other], block by block; a block self adds no column to is other's."""
        if self.row_weights != other.row_weights:
            raise ValueError("hstack of differently graded rows")
        if not self.ncols:
            return other
        blocks = {}
        for w in self.blocks.keys() | other.blocks.keys():
            mine, theirs = self.blocks.get(w), other.blocks.get(w)
            if mine is None or not mine.ncols:
                blocks[w] = theirs  # rows of weight w are rows of both
            elif theirs is None or not theirs.ncols:
                blocks[w] = mine
            else:
                blocks[w] = mine.hstack(theirs)
        return GradedMatrix(
            self.ring,
            self.row_weights,
            self.col_weights + other.col_weights,
            blocks,
            base=other,
        )

    def snf(self, w: int) -> SNFResult:
        """SNF of the weight-w block, computed once."""
        found = self._snfs.get(w)
        if found is None:
            block = self.blocks[w]
            if self._base is not None and self._base.blocks.get(w) is block:
                found = self._base.snf(w)
            else:
                try:
                    found = smith_normal_form(block)
                except CertificateFailure as exc:
                    raise CertificateFailure(f"{exc}, in the block of weight {w}") from None
            self._snfs[w] = found
        return found

    def parts(self, vec: Sequence[RingElem]) -> list[tuple[int, Vec]]:
        """(w, entries of vec on the rows of weight w) for each weight where vec is nonzero."""
        live = {self.row_weights[i] for i, x in enumerate(vec) if not x.is_zero()}
        return [(w, tuple(vec[i] for i in self.rows_of[w])) for w in sorted(live)]

    def solve(self, b: Sequence[RingElem]) -> Vec | None:
        """One x with self*x = b, solved block by block, or None."""
        x = [self.ring.zero] * self.ncols
        for w, part in self.parts(b):
            sol = solve(self.blocks[w], part, self.snf(w))
            if sol is None:
                return None
            for j, val in zip(self.cols_of.get(w, ()), sol):
                x[j] = val
        return tuple(x)


def _push(runs: list[tuple[Poly, int]], c: Poly, m: int) -> None:
    """Append m copies of c to the chain runs; a unit is no torsion."""
    if c.is_one():
        return
    if runs and runs[-1][0] == c:
        runs[-1] = (c, runs[-1][1] + m)
    else:
        runs.append((c, m))


def _divisibility_chain(cores: Iterable[Poly]) -> list[Poly]:
    """Invariant factors of diag(cores), the cores monic.

    Each core x is merged into the chain by diag(a, x) ~ diag(gcd, lcm) down
    the chain, which leaves every entry dividing the next.  The chain is kept
    as runs (factor, count): in a run of c the first copy takes gcd(c, x)
    and the lcm carries on, so the many equal factors of a cover's weight
    blocks cost one gcd per run.  Units, a coprime pair's gcd among them,
    carry no torsion and are dropped.
    """
    runs: list[tuple[Poly, int]] = []
    for x in cores:
        if x.is_one():
            continue
        merged: list[tuple[Poly, int]] = []
        for c, m in runs:
            if x is None:
                _push(merged, c, m)
            elif c == x:
                _push(merged, c, m + 1)
                x = None
            else:
                g = c.gcd(x)
                if g == c:
                    _push(merged, c, m)
                    continue
                _push(merged, g, 1)
                if m > 1:
                    _push(merged, c, m - 1)
                x = (c * x).exact_div(g)
        if x is not None:
            _push(merged, x, 1)
        runs = merged
    return [c for c, m in runs for _ in range(m)]


class FpmModule:
    """A^n_gens modulo the column span of a relation matrix.

    The relations are a GradedMatrix: generators and relation columns carry
    weights, and a plain PolyMatrix is the one-weight case.  Rank, torsion,
    reduction and the zero test are answered one weight block at a time,
    touching only the blocks where a vector is nonzero.
    """

    def __init__(
        self,
        ring: ChartRing,
        n_gens: int,
        relations: PolyMatrix | GradedMatrix | None = None,
        gen_names: Sequence[str] | None = None,
    ):
        self.ring = ring
        self.n_gens = n_gens
        if relations is None:
            relations = PolyMatrix.zeros(ring, n_gens, 0)
        if isinstance(relations, PolyMatrix):
            relations = GradedMatrix.cut(
                relations, (0,) * relations.nrows, (0,) * relations.ncols
            )
        if relations.nrows != n_gens:
            raise ValueError("relation matrix must have one row per generator")
        self.graded = relations
        self.gen_names = tuple(gen_names) if gen_names else tuple(
            f"e{i}" for i in range(n_gens)
        )

    @classmethod
    def free(cls, ring: ChartRing, n: int, gen_names=None) -> "FpmModule":
        return cls(ring, n, None, gen_names)

    @classmethod
    def zero(cls, ring: ChartRing) -> "FpmModule":
        return cls(ring, 0, None, ())

    @property
    def relations(self) -> PolyMatrix:
        return self.graded.full

    @property
    def weights(self) -> tuple[int, ...]:
        """The weight of each generator."""
        return self.graded.row_weights

    @property
    def rank(self) -> int:
        """Rank of the torsion-free quotient."""
        graded = self.graded
        return self.n_gens - sum(graded.snf(w).rank for w in graded.blocks)

    @property
    def torsion(self) -> list[Poly]:
        """Nonunit torsion invariants, a divisibility chain of monic cores."""
        graded = self.graded
        return _divisibility_chain(
            core for w in graded.blocks for core in graded.snf(w).nonunit_torsion()
        )

    def is_zero_module(self) -> bool:
        return self.rank == 0 and not self.torsion

    def zero_vec(self) -> Vec:
        return tuple(self.ring.zero for _ in range(self.n_gens))

    def gen_vec(self, i: int) -> Vec:
        return tuple(
            self.ring.one if j == i else self.ring.zero for j in range(self.n_gens)
        )

    def coerce_vec(self, vec: Sequence) -> Vec:
        vec = tuple(self.ring.coerce(x) for x in vec)
        if len(vec) != self.n_gens:
            raise ValueError("vector length does not match generator count")
        return vec

    def canonical_reduce(self, vec: Sequence) -> Vec:
        """Canonical coset representative of vec modulo the relation image."""
        vec = self.coerce_vec(vec)
        graded = self.graded
        out = list(self.zero_vec())
        for w, part in graded.parts(vec):
            snf = graded.snf(w)
            y = list(snf.U.apply_vec(part))
            for i, d in enumerate(snf.diag):
                if d.is_zero():
                    continue
                core = self.ring.core(d)
                if core.is_one():
                    y[i] = self.ring.zero
                else:
                    y[i] = _residue_mod_core(self.ring, y[i], core)
            for i, x in zip(graded.rows_of[w], snf.U_inv.apply_vec(y)):
                out[i] = x
        return tuple(out)

    def is_zero_elem(self, vec: Sequence) -> bool:
        """vec lies in the relation span: per block, y = U*vec has d_i | y_i
        on the nonzero diagonal and y_i = 0 past it.

        The diagonal holds monic cores, so d_i | y_i in A exactly when d_i
        divides the core of y_i.
        """
        vec = self.coerce_vec(vec)
        graded = self.graded
        for w, part in graded.parts(vec):
            snf = graded.snf(w)
            diag = snf.diag
            for i, y in enumerate(snf.U.apply_vec(part)):
                if y.is_zero():
                    continue
                if i >= len(diag) or diag[i].is_zero() or not self.ring.divides(diag[i], y):
                    return False
        return True

    def elems_equal(self, v: Sequence, w: Sequence) -> bool:
        v, w = self.coerce_vec(v), self.coerce_vec(w)
        diff = tuple(a - b for a, b in zip(v, w))
        return self.is_zero_elem(diff)

    def format_vec(self, vec: Sequence) -> str:
        vec = self.coerce_vec(vec)
        terms = []
        for name, x in zip(self.gen_names, vec):
            if x.is_zero():
                continue
            xs = str(x)
            if xs == "1":
                terms.append(name)
            else:
                if " " in xs or "+" in xs:
                    xs = f"({xs})"
                terms.append(f"{xs}*{name}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        ncols = self.graded.ncols
        rel = f", {ncols} relations" if ncols else ""
        return f"FpmModule({self.n_gens} gens{rel} over {self.ring})"


def _residue_mod_core(ring: ChartRing, x: RingElem, core: Poly):
    """Canonical representative of x in A/(core); core monic and S-free."""
    num, den = x.fraction()
    _g, s, _t = den.xgcd(core)
    # den * s = 1 mod core since core is coprime to every inverted irreducible
    rep = (num * s) % core
    return ring.from_poly(rep)


class Submodule:
    """Span of generator columns inside an FpmModule, with a syzygy presentation.

    Each generator has a weight (0 unless given), and its column may be
    nonzero only on ambient generators of that weight.
    """

    def __init__(
        self,
        ambient: FpmModule,
        gens: PolyMatrix,
        gen_names=None,
        weights: Sequence[int] | None = None,
    ):
        if gens.nrows != ambient.n_gens:
            raise ValueError("generator columns must live in the ambient module")
        self.ambient = ambient
        self.gens = gens
        self.weights = tuple(weights) if weights is not None else (0,) * gens.ncols
        self._names = tuple(gen_names) if gen_names else tuple(
            f"g{i}" for i in range(gens.ncols)
        )

    @cached_property
    def graded(self) -> GradedMatrix:
        """[gens | ambient relations], cut into weight blocks.

        A block holding no generator is the ambient block, and shares its
        SNF with the ambient module; with no generators at all the stack is
        the ambient relation matrix itself.
        """
        gens = GradedMatrix.cut(self.gens, self.ambient.weights, self.weights)
        return gens.hstack(self.ambient.graded)

    @cached_property
    def presentation(self) -> FpmModule:
        """Generators modulo their syzygies: the gens rows of ker [gens | relations].

        A syzygy lies in one weight, so only the blocks holding a generator
        have syzygies that touch one.
        """
        ring, graded = self.ambient.ring, self.graded
        blocks, col_weights = {}, []
        for w in sorted(set(self.weights)):
            snf = graded.snf(w)
            syz = syzygy_matrix(snf.matrix, snf)
            k = self.weights.count(w)
            blocks[w] = PolyMatrix(ring, syz.rows[:k], nrows=k, ncols=syz.ncols)
            col_weights += [w] * syz.ncols
        relations = GradedMatrix(ring, self.weights, col_weights, blocks)
        return FpmModule(ring, self.gens.ncols, relations, self._names)

    def contains(self, vec: Sequence) -> Vec | None:
        """Coordinates of vec on the generators, or None when vec is outside."""
        sol = self.graded.solve(self.ambient.coerce_vec(vec))
        if sol is None:
            return None
        return sol[: self.gens.ncols]

    def ambient_vec(self, coords: Sequence) -> Vec:
        coords = [self.ambient.ring.coerce(x) for x in coords]
        return self.gens.apply_vec(coords)

    def is_zero(self) -> bool:
        return all(
            self.ambient.is_zero_elem(self.gens.col(j)) for j in range(self.gens.ncols)
        )

    def contains_submodule(self, other: "Submodule") -> tuple[bool, Vec | None]:
        """(True, None) or (False, witness vector in the ambient module)."""
        for j in range(other.gens.ncols):
            col = other.gens.col(j)
            if self.contains(col) is None:
                return False, col
        return True, None

    def equals(self, other: "Submodule") -> tuple[bool, Vec | None]:
        ok, witness = self.contains_submodule(other)
        if not ok:
            return False, witness
        return other.contains_submodule(self)


class ModuleMap:
    """A map of finitely presented modules, given by a matrix on generators."""

    def __init__(
        self,
        source: FpmModule,
        target: FpmModule,
        matrix: PolyMatrix,
        name: str = "",
    ):
        if matrix.nrows != target.n_gens or matrix.ncols != source.n_gens:
            raise ValueError("map matrix shape must be target gens x source gens")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name

    @classmethod
    def zero(cls, source: FpmModule, target: FpmModule, name: str = "0") -> "ModuleMap":
        return cls(
            source,
            target,
            PolyMatrix.zeros(source.ring, target.n_gens, source.n_gens),
            name,
        )

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

    def apply(self, vec: Sequence) -> Vec:
        return self.matrix.apply_vec(self.source.coerce_vec(vec))

    def after(self, first: "ModuleMap") -> "ModuleMap":
        if first.target is not self.source:
            raise RingMismatch("maps not composable")
        return ModuleMap(
            first.source,
            self.target,
            self.matrix @ first.matrix,
            f"{self.name}*{first.name}",
        )

    @cached_property
    def image(self) -> Submodule:
        """Image as a submodule of the target."""
        return Submodule(self.target, self.matrix, weights=self.source.weights)

    @cached_property
    def kernel(self) -> Submodule:
        """Kernel as a submodule of the source.

        x is in the kernel iff matrix*x lies in the target's relation span,
        iff x is the source block of a syzygy of [matrix | relations]: the
        relations of the image's presentation generate the kernel.
        """
        presentation = self.image.presentation
        return Submodule(
            self.source, presentation.relations, weights=presentation.graded.col_weights
        )

    def __repr__(self):
        label = self.name or "map"
        return f"{label}: {self.source!r} -> {self.target!r}"


def is_exact(maps: Sequence[ModuleMap], labels: Sequence[str] | None = None) -> dict:
    """Exactness report for a composable chain of maps.

    One junction per intermediate module.  Each junction reports whether
    image(incoming) = kernel(outgoing), with a witness element on failure.
    Maps that fail their well-definedness certificate mark their adjacent
    junctions failed, carrying the certificate witness.
    """
    junctions = []
    for idx in range(len(maps) - 1):
        f, g = maps[idx], maps[idx + 1]
        if f.target is not g.source:
            raise RingMismatch("sequence maps are not composable")
        label = labels[idx] if labels else f"junction{idx}"
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
