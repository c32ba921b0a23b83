"""Finitely presented modules over a chart ring, via Smith normal form.

The chart ring A (F_q[t] with finitely many monic irreducibles inverted) is a
Euclidean domain once elements are measured by the degree of their unit-free
core.  That gives the classical algorithms:

  * smith_normal_form(M): U * M * V = D with U, V invertible and D a diagonal
    divisibility chain of monic cores.  The identity U*M*V = D and both
    inverse certificates are re-verified by multiplication on every call.
  * solve / syzygy_matrix: linear algebra over A.
  * FpmModule: generators + relation columns, with invariants (torsion-free
    rank, torsion chain) read off the SNF and a canonical coset representative
    for element comparisons.
  * Submodule: the span of generator columns inside an FpmModule.  One SNF of
    the stacked matrix [gens | ambient relations] gives both its syzygy
    presentation and its membership test.
  * ModuleMap: matrix on generators carrying a well-definedness certificate.
    Its image is the Submodule spanned by the matrix, and its kernel is
    generated by the relations of that image's presentation, so the kernel of
    any map is read off the same SNF as the image.
  * is_exact: junction-by-junction kernel = image by double membership, with
    explicit witnesses on failure.  Failures are report content, not errors.

Every derived object (SNF, presentation, image, kernel, certificate) is a
cached property of the object it belongs to, computed once on first use.

Pivoting is deterministic: minimal core degree, ties broken lexicographically
by position, so reports are byte-stable across runs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import RingMismatch
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

    @classmethod
    def column(cls, ring: ChartRing, vec: Sequence) -> "PolyMatrix":
        vec = list(vec)
        return cls(ring, [[x] for x in vec], nrows=len(vec), ncols=1)

    def col(self, j: int) -> Vec:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

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
        for i in range(self.nrows):
            acc = zero
            for k, x in enumerate(vec):
                if x.is_zero():
                    continue
                acc = acc + self.rows[i][k] * x
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

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, ring: ChartRing, rows: list[list[str]], ncols=None) -> "PolyMatrix":
        return cls(
            ring,
            [[ring.parse(s) for s in row] for row in rows],
            nrows=len(rows),
            ncols=ncols,
        )


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
    ua, ca = ring.unit_core_split(a)
    ub, cb = ring.unit_core_split(b)
    quo, _ = ca.divmod(cb)
    if quo.is_zero():
        return ring.zero
    return ring.from_poly(quo) * ua * ub.inv()


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
        return ring.core(x).deg

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
    if (r.U @ r.matrix) @ r.V != r.D:
        raise AssertionError("SNF postcondition U*M*V = D failed")
    if r.U @ r.U_inv != PolyMatrix.identity(ring, r.U.nrows):
        raise AssertionError("SNF transform U is not invertible")
    if r.V @ r.V_inv != PolyMatrix.identity(ring, r.V.nrows):
        raise AssertionError("SNF transform V is not invertible")
    m, n = r.D.nrows, r.D.ncols
    for i in range(m):
        for j in range(n):
            if i != j and not r.D.rows[i][j].is_zero():
                raise AssertionError("SNF result is not diagonal")
    for i in range(len(r.diag) - 1):
        a, b = r.diag[i], r.diag[i + 1]
        if a.is_zero() and not b.is_zero():
            raise AssertionError("SNF zero entry precedes nonzero entry")
        if not a.is_zero() and not b.is_zero() and not ring.divides(a, b):
            raise AssertionError("SNF divisibility chain broken")


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


class FpmModule:
    """A^n_gens modulo the column span of a relation matrix."""

    def __init__(
        self,
        ring: ChartRing,
        n_gens: int,
        relations: PolyMatrix | None = None,
        gen_names: Sequence[str] | None = None,
    ):
        self.ring = ring
        self.n_gens = n_gens
        if relations is None:
            relations = PolyMatrix.zeros(ring, n_gens, 0)
        if relations.nrows != n_gens:
            raise ValueError("relation matrix must have one row per generator")
        self.relations = relations
        self.gen_names = tuple(gen_names) if gen_names else tuple(
            f"e{i}" for i in range(n_gens)
        )

    @classmethod
    def free(cls, ring: ChartRing, n: int, gen_names=None) -> "FpmModule":
        return cls(ring, n, None, gen_names)

    @classmethod
    def zero(cls, ring: ChartRing) -> "FpmModule":
        return cls(ring, 0, None, ())

    @cached_property
    def snf(self) -> SNFResult:
        return smith_normal_form(self.relations)

    @property
    def rank(self) -> int:
        """Rank of the torsion-free quotient."""
        return self.n_gens - self.snf.rank

    @property
    def torsion(self) -> list[Poly]:
        """Nonunit torsion invariants, a divisibility chain of monic cores."""
        return self.snf.nonunit_torsion()

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
        if self.n_gens == 0:
            return ()
        snf = self.snf
        y = list(snf.U.apply_vec(vec))
        for i in range(len(snf.diag)):
            d = snf.diag[i]
            if d.is_zero():
                continue
            core = self.ring.core(d)
            if core.is_one():
                y[i] = self.ring.zero
            else:
                y[i] = _residue_mod_core(self.ring, y[i], core)
        return snf.U_inv.apply_vec(y)

    def is_zero_elem(self, vec: Sequence) -> bool:
        return all(x.is_zero() for x in self.canonical_reduce(vec))

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
        rel = f", {self.relations.ncols} relations" if self.relations.ncols else ""
        return f"FpmModule({self.n_gens} gens{rel} over {self.ring})"


def _residue_mod_core(ring: ChartRing, x: RingElem, core: Poly):
    """Canonical representative of x in A/(core); core monic and S-free."""
    den = Poly.one(ring.field)
    for pi, mult in zip(ring.inverted, x.dens):
        den = den * pi**mult
    _g, s, _t = den.xgcd(core)
    # den * s = 1 mod core since core is coprime to every inverted irreducible
    rep = (x.num * s) % core
    return ring.from_poly(rep)


class Submodule:
    """Span of generator columns inside an FpmModule, with a syzygy presentation."""

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
        """SNF of [gens | ambient relations]; its matrix is that stacked matrix."""
        return smith_normal_form(self.gens.hstack(self.ambient.relations))

    @cached_property
    def presentation(self) -> FpmModule:
        """Generators modulo their syzygies: the gens block of ker [gens | relations]."""
        syz = syzygy_matrix(self.snf.matrix, self.snf)
        rel = PolyMatrix(
            self.ambient.ring,
            syz.rows[: self.gens.ncols],
            nrows=self.gens.ncols,
            ncols=syz.ncols,
        )
        return FpmModule(self.ambient.ring, self.gens.ncols, rel, self._names)

    def contains(self, vec: Sequence) -> Vec | None:
        """Coordinates of vec on the generators, or None when vec is outside."""
        sol = solve(self.snf.matrix, self.ambient.coerce_vec(vec), self.snf)
        if sol is None:
            return None
        return tuple(sol[: self.gens.ncols])

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
