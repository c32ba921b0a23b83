"""Module-engine tests: Smith form, solving, presentations, exactness."""

import hashlib
import random

import pytest
from fixtures import FIXTURES
from oracle import (
    canonical_reduce,
    cut,
    dense,
    frac_of_ring_elem,
    fraction_field_rank,
    graded_sum,
    literal_snf_certificate,
)

from taucover import pidmod
from taucover.cli import main
from taucover.covers import Cover
from taucover.errors import CertificateFailure, RingMismatch
from taucover.fields import FqField
from taucover.pidmod import (
    DirectSum,
    FpmModule,
    ModuleMap,
    PolyMatrix,
    Submodule,
    is_exact,
    smith_normal_form,
    solve,
    syzygy_matrix,
)
from taucover.polys import Poly
from taucover.rings import ChartRing

F2 = FqField(2)
F5 = FqField(5)
A2 = ChartRing(F2, ["t"])
A5 = ChartRing(F5, ["t", "t+4"])


def mat(ring, rows, ncols=0):
    return PolyMatrix(
        ring,
        [[ring.parse(s) if isinstance(s, str) else s for s in row] for row in rows],
        ncols=ncols,
    )


def random_matrix(ring, rng, nrows, ncols, max_deg=2, max_den=1):
    return PolyMatrix(
        ring,
        [
            [ring.random_element(rng, max_deg=max_deg, max_den=max_den) for _ in range(ncols)]
            for _ in range(nrows)
        ],
        ncols=ncols,
    )


# -- Smith normal form


def test_snf_unit_entry_row():
    # t is invertible here, so the row reduces to a single unit pivot
    res = smith_normal_form(mat(A2, [["t", "t"]]))
    assert res.diag == (A2.one,)
    assert res.D.rows[0][1].is_zero()


def test_snf_single_entry_monic_core():
    res = smith_normal_form(mat(A5, [["2*t-1"]]))
    assert len(res.diag) == 1
    assert str(res.diag[0]) == "t + 2"


def test_snf_empty_shapes():
    for nrows, ncols in [(0, 0), (0, 3), (3, 0)]:
        res = smith_normal_form(PolyMatrix.zeros(A5, nrows, ncols))
        assert res.rank == 0


def test_snf_diag_entries_are_monic_cores():
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(A5, rng, rng.randrange(1, 4), rng.randrange(1, 4))
        res = smith_normal_form(m)
        for d in res.diag:
            if d.is_zero():
                continue
            core = d.core
            assert d == A5.make(core)
            assert core.is_monic()


def test_snf_divisibility_chain():
    m = mat(A5, [["t+2", "0", "0"], ["0", "(t+2)^2", "0"], ["0", "0", "t+1"]])
    res = smith_normal_form(m)
    nonzero = [d for d in res.diag if not d.is_zero()]
    for a, b in zip(nonzero, nonzero[1:]):
        assert A5.divides(a, b)


def test_snf_postcondition_is_checked_on_every_call(monkeypatch):
    import taucover.pidmod as pm

    called = []
    original = pm._verify_snf
    monkeypatch.setattr(pm, "_verify_snf", lambda r: called.append(1) or original(r))
    smith_normal_form(mat(A5, [["t"]]))
    assert called


def snf_digest(results) -> str:
    """sha256 of the ring, the input and U, U^-1, D, V, V^-1 of each SNF, in order."""
    h = hashlib.sha256()
    for r in results:
        parts = (r.matrix.ring, r.matrix, r.U, r.U_inv, r.D, r.V, r.V_inv)
        h.update(("|".join(str(x) for x in parts) + "\n").encode())
    return h.hexdigest()


def test_snf_outputs_on_the_catalog_report_are_pinned(monkeypatch, capsys):
    # every SNF that `report --all` reaches passes through _verify_snf; the
    # results keep their rings alive, so a ring's id names it
    results = []
    original = pidmod._verify_snf
    monkeypatch.setattr(pidmod, "_verify_snf", lambda r: original(r) or results.append(r))
    assert main(["report", "--all"]) == 0
    capsys.readouterr()
    assert len(results) == 136
    assert snf_digest(results) == (
        "d6254f609cc57109b1348b2fbea99a02614ca1eb97e21462571d6d607be08e76"
    )


def test_snf_outputs_on_seeded_random_matrices_are_pinned():
    rings = [A2, A5, ChartRing(FqField(2, 2), ["t", "t + 1"]), ChartRing(FqField(3), [])]
    rng = random.Random(2022)
    results = []
    for ring in rings:
        for nrows in (1, 2, 3):
            for ncols in (1, 2, 3):
                for max_deg, max_den in ((1, 0), (2, 1), (3, 2)):
                    m = random_matrix(ring, rng, nrows, ncols, max_deg=max_deg, max_den=max_den)
                    results.append(smith_normal_form(m))
    assert snf_digest(results) == (
        "b96adc34a42df12a32213cd6b48d66307999a87b31c75d54879c72c5bdd3ef1b"
    )


# -- solve and syzygies


def test_solve_roundtrip_random():
    rng = random.Random(11)
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = random_matrix(A5, rng, nrows, ncols)
        x = [A5.random_element(rng, max_deg=2, max_den=1) for _ in range(ncols)]
        b = m.apply_vec(x)
        sol = solve(smith_normal_form(m), b)
        assert sol is not None
        assert m.apply_vec(sol) == b


def test_solve_unsolvable():
    # t+2 is not invertible, so 1 is not in its image
    m = mat(A5, [["t+2"]])
    assert solve(smith_normal_form(m), [A5.one]) is None
    assert solve(smith_normal_form(m), [A5.parse("t+2")]) is not None


def test_solve_and_membership_on_seeded_systems_are_pinned():
    # str of every solve result and every Submodule.contains coordinate
    # vector, None included, on seeded systems up to 3x3; the right-hand
    # sides are in the image of the matrix, in the submodule it spans modulo
    # random relations, at random, and zero
    rings = [A2, A5, ChartRing(FqField(2, 2), ["t", "t + 1"]), ChartRing(FqField(3), [])]
    rng = random.Random(2023)
    h = hashlib.sha256()
    for ring in rings:
        for nrows in (1, 2, 3):
            for ncols in (1, 2, 3):
                for max_deg, max_den in ((1, 0), (2, 1), (3, 2)):

                    def vec(k):
                        return [
                            ring.random_element(rng, max_deg=max_deg, max_den=max_den)
                            for _ in range(k)
                        ]

                    m = random_matrix(ring, rng, nrows, ncols, max_deg=max_deg, max_den=max_den)
                    rel = random_matrix(
                        ring, rng, nrows, rng.randrange(3), max_deg=max_deg, max_den=max_den
                    )
                    sub = Submodule(FpmModule(rel), m)
                    image = m.apply_vec(vec(ncols))
                    spanned = [a + b for a, b in zip(image, rel.apply_vec(vec(rel.ncols)))]
                    for b in (image, spanned, vec(nrows), [ring.zero] * nrows):
                        sol = solve(smith_normal_form(m), b)
                        h.update(f"{sol}|{sub.contains(b)}\n".encode())
    assert h.hexdigest() == (
        "8f54693b725eb18646bedd28376b4a1cb101091a174954a96528ceff4f8f8348"
    )


def test_the_read_off_divides_each_nonzero_entry_once_and_never_by_a_unit(monkeypatch):
    # no prime is inverted in F_5[t], so U*b and V*z divide nothing and every
    # division counted is one of the read-off against the diagonal
    ring = ChartRing(F5, [])
    rng = random.Random(23)
    original, original_quotient = Poly.divmod, pidmod._unit_quotient
    divisors, quotients = [], []

    def counting(self, other):
        divisors.append(other)
        return original(self, other)

    def counting_quotients(*args):
        quotients.append(args)
        return original_quotient(*args)

    outcomes = set()
    for _ in range(80):
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = random_matrix(ring, rng, nrows, ncols, max_deg=2, max_den=0)
        module = FpmModule(m)
        snf = module.snf
        nonunit = {i: d.core for i, d in enumerate(snf.diag) if d and not d.core.is_one()}
        x = [ring.random_element(rng, max_deg=2, max_den=0) for _ in range(ncols)]
        for b in (m.apply_vec(x), [ring.random_element(rng, max_deg=2) for _ in range(nrows)]):
            y = snf.U.apply_vec(b)
            budget = sum(1 for i in nonunit if not y[i].is_zero())
            # only solve forms quotients y_i / d_i; the zero test keeps the verdict
            for read_off, may_divide in (
                (lambda: solve(snf, b), True),
                (lambda: module.is_zero_elem(b), False),
            ):
                divisors.clear()
                quotients.clear()
                monkeypatch.setattr(Poly, "divmod", counting)
                monkeypatch.setattr(pidmod, "_unit_quotient", counting_quotients)
                found = read_off()
                monkeypatch.undo()
                assert may_divide or not quotients
                assert len(divisors) <= budget
                assert all(any(p is core for core in nonunit.values()) for p in divisors)
                if found is not None and found is not False:
                    assert len(divisors) == budget
                outcomes.add((budget > 0, found is None or found is False))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_solve_reads_a_diagonal_entry_that_is_not_a_monic_core():
    # the certificate does not ask D to hold monic cores, so the read-off
    # divides unit parts as well as cores
    d1, d2 = A5.parse("3*(t+2)/t"), A5.parse("2/(t+4)")
    D = mat(A5, [[d1, A5.zero], [A5.zero, d2]])
    identity = mat(A5, [["1", "0"], ["0", "1"]])
    snf = pidmod.SNFResult(D, identity, identity, D, identity, identity, (d1, d2))
    for b in (["(t+2)^2", "t"], ["4*(t+2)/(t+4)", "0"], ["0", "1/t"]):
        b = [A5.parse(s) for s in b]
        assert D.apply_vec(solve(snf, b)) == tuple(b)
    assert solve(snf, [A5.parse("t"), A5.zero]) is None


def test_a_nonzero_entry_of_another_ring_raises_ring_mismatch():
    module = FpmModule(mat(A5, [["t+2"], ["0"]]))
    sub = Submodule(module, mat(A5, [["1"], ["t"]]))
    stranger = [A2.one, A5.zero]
    with pytest.raises(RingMismatch):
        module.is_zero_elem(stranger)
    with pytest.raises(RingMismatch):
        sub.contains(stranger)
    # a unit diagonal leaves no row of U*x to read, and the entry is still refused
    unit = FpmModule(PolyMatrix(A5, [[A5.one]]))
    assert not unit.snf.rows_to_read
    graded = DirectSum(unit, unit, 2)
    refusals = (
        lambda: unit.is_zero_elem([A2.t]),
        lambda: unit.elems_equal([A2.t], [A2.t]),
        lambda: unit.elems_equal([A5.one], [A2.t]),
        lambda: module.elems_equal(stranger, stranger),
        lambda: graded.equal({0: (A2.t,)}, {0: (A2.t,)}),
        lambda: graded.equal({1: (A5.one,)}, {0: (A5.zero,), 1: (A2.t,)}),
        lambda: graded.equal({}, {1: (A2.t,)}),
    )
    for refusal in refusals:
        with pytest.raises(RingMismatch):
            refusal()


def test_ragged_rows_and_vectors_of_the_wrong_length_raise_value_error():
    with pytest.raises(ValueError, match="ragged matrix"):
        PolyMatrix(A5, [[A5.one, A5.zero], [A5.one]])
    m = mat(A5, [["1", "t"], ["0", "t+2"]])
    module = FpmModule(m)
    sub = Submodule(FpmModule.free(A5, 2), m)
    snf = smith_normal_form(m)
    checks = (m.apply_vec, module.is_zero_elem, sub.contains, lambda b: solve(snf, b))
    for check in checks:
        for b in ([A5.one], [A5.zero], [A5.one] * 3):
            with pytest.raises(ValueError):
                check(b)


def test_syzygy_columns_are_kernel_vectors():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(A5, rng, rng.randrange(1, 4), rng.randrange(1, 5))
        syz = syzygy_matrix(smith_normal_form(m))
        prod = m @ syz
        assert prod.is_zero()


def test_syzygy_of_dependent_columns():
    # second column is t times the first
    m = mat(A5, [["1", "t"], ["t+1", "t^2+t"]])
    syz = syzygy_matrix(smith_normal_form(m))
    assert syz.ncols == 1
    # kernel vector up to unit: (t, -1)
    v = syz.col(0)
    assert (v[0] * A5.one) == -v[1] * A5.parse("t")


# -- finitely presented modules


def test_free_module_invariants():
    m = FpmModule.free(A5, 3)
    assert m.rank == 3
    assert m.torsion == []


def test_zero_module():
    z = FpmModule.zero(A5)
    assert z.rank == 0 and not z.torsion
    assert canonical_reduce(z, ()) == ()


def test_mixed_module_invariants():
    rel = mat(A5, [["t+2", "0"], ["0", "1"]])
    m = FpmModule(rel)
    assert m.rank == 0
    assert [str(c) for c in m.torsion] == ["t + 2"]


def test_rank_one_plus_torsion():
    rel = mat(A5, [["t+2"], ["0"]])
    m = FpmModule(rel)
    assert m.rank == 1
    assert [str(c) for c in m.torsion] == ["t + 2"]


def test_canonical_reduce_respects_relations():
    rel = mat(A5, [["t+2"], ["0"]])
    m = FpmModule(rel)
    rng = random.Random(17)
    for _ in range(20):
        v = [A5.random_element(rng, max_deg=3) for _ in range(2)]
        w = A5.random_element(rng, max_deg=2)
        shifted = [v[0] + w * A5.parse("t+2"), v[1]]
        assert canonical_reduce(m, v) == canonical_reduce(m, shifted)
        again = canonical_reduce(m, canonical_reduce(m, v))
        assert again == canonical_reduce(m, v)


def test_canonical_reduce_with_denominators():
    # 1/t mod (t+2): t has inverse 2 mod t+2, so the class is 2... check:
    # t * 3 = 3t = 3t + 6 - 6 = 3(t+2) - 6 = -6 = -1 = 4 mod t+2, so 1/t = ?
    # t = -2 = 3 mod (t+2), and 3 * 2 = 6 = 1 mod 5, so 1/t = 2.
    rel = mat(A5, [["t+2"]])
    m = FpmModule(rel)
    red = canonical_reduce(m, [A5.parse("1/t")])
    assert str(red[0]) == "2"


def test_elems_equal_mod_torsion():
    rel = mat(A5, [["t+2"]])
    m = FpmModule(rel)
    assert m.elems_equal([A5.parse("t")], [A5.parse("-2")])
    assert not m.elems_equal([A5.parse("t")], [A5.parse("t+1")])


def unimodular(ring, rng, size):
    """A random invertible matrix and its inverse, from a unit scaling and a
    few elementary row operations on the identity."""
    P = [[ring.one if i == j else ring.zero for j in range(size)] for i in range(size)]
    P_inv = [row[:] for row in P]
    i = rng.randrange(size)
    unit = ring.random_unit(rng)
    P[i] = [unit * x for x in P[i]]
    P_inv = [[x * unit.inv() if j == i else x for j, x in enumerate(row)] for row in P_inv]
    for _ in range(size * 2 - 2):
        i, j = rng.sample(range(size), 2)
        q = ring.random_element(rng, max_deg=1, max_den=1)
        # P <- (I + q e_ij) P and P^-1 <- P^-1 (I - q e_ij)
        P[i] = [a + q * b for a, b in zip(P[i], P[j])]
        for row in P_inv:
            row[j] = row[j] - q * row[i]
    return PolyMatrix(ring, P), PolyMatrix(ring, P_inv)


def diagonal_chain(ring, rng, length):
    """A divisibility chain of nonzero diagonal entries, units, monic cores
    and non-monic multiples of them, with zeros last."""
    nonzero = rng.randrange(length + 1)
    chain, d = [], ring.random_unit(rng)
    for _ in range(nonzero):
        kind = rng.randrange(3)
        if kind == 1:  # a monic core
            d = d * ring.make(Poly(ring.field, [rng.randrange(ring.field.p) or 1, 1]))
            d = ring.make(d.core)
        elif kind == 2:  # a non-monic multiple, its unit part kept
            d = d * ring.random_unit(rng) * ring.make(Poly(ring.field, [1, 0, 1]))
        chain.append(d)
    return chain + [ring.zero] * (length - nonzero)


def test_membership_reads_only_the_rows_that_can_fail_and_agrees_with_the_read_off():
    """is_zero_elem, elems_equal and DirectSum.equal decide v = w as the full
    read-off of v - w does, on SNFs with zero, unit, non-unit and non-monic
    diagonal entries, half the pairs in the span by construction."""
    rings = [A2, A5, ChartRing(FqField(2, 2), ["t", "t + 1"]), ChartRing(FqField(3), [])]
    rng = random.Random(3535)
    pairs, outcomes, kinds = 0, set(), set()
    for ring in rings:
        for nrows in (1, 2, 3):
            for ncols in (1, 2, 3):
                for built in range(3):
                    P, P_inv = unimodular(ring, rng, nrows)
                    Q, Q_inv = unimodular(ring, rng, ncols)
                    chain = diagonal_chain(ring, rng, min(nrows, ncols))
                    D = PolyMatrix(
                        ring,
                        [[chain[i] if i == j else ring.zero for j in range(ncols)]
                         for i in range(nrows)],
                        ncols=ncols,
                    )
                    M = P_inv @ D @ Q_inv
                    module = FpmModule(M)
                    if built == 2:  # the SNF held as built: D keeps its non-monic entries
                        as_built = pidmod.SNFResult(M, P, P_inv, D, Q, Q_inv, tuple(chain))
                        pidmod._verify_snf(as_built)
                        module.__dict__["snf"] = as_built
                    snf = module.snf
                    assert built < 2 or snf is as_built
                    for i in range(nrows):
                        d = snf.diag[i] if i < len(snf.diag) else None
                        kinds.add(
                            "missing" if d is None else "zero" if not d else
                            "unit" if d.is_unit() else
                            "monic" if d.const == 1 and not any(d.exps) else "non-monic"
                        )
                    graded = DirectSum(module, module, 3)
                    for k in range(20):
                        v = [ring.random_element(rng, max_deg=2) for _ in range(nrows)]
                        if k % 2:  # w - v in the span of the relations
                            x = [ring.random_element(rng, max_deg=1) for _ in range(ncols)]
                            if k % 10 == 1:
                                x = [ring.zero] * ncols
                            w = [a + b for a, b in zip(v, M.apply_vec(x))]
                        else:
                            w = [ring.random_element(rng, max_deg=2) for _ in range(nrows)]
                        diff = [a - b for a, b in zip(v, w)]
                        expected = pidmod.solve(snf, diff) is not None
                        assert expected or k % 2 == 0
                        assert module.elems_equal(v, w) == expected
                        assert module.is_zero_elem(diff) == expected
                        assert graded.equal({0: v, 2: w}, {0: w, 2: v}) == expected
                        assert graded.equal({1: diff}, {}) == expected
                        assert graded.equal({0: v}, {0: v, 1: diff}) == expected
                        pairs += 1
                        outcomes.add(expected)
    assert pairs >= 2000
    assert outcomes == {True, False}
    assert kinds == {"missing", "zero", "unit", "monic", "non-monic"}


def test_invariants_stable_under_presentation_shuffle():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randrange(1, 4)
        r = rng.randrange(0, 4)
        rel = random_matrix(A5, rng, n, r)
        m1 = FpmModule(rel)
        # shuffle relation columns and scale each column by a unit
        cols = []
        for j in range(r):
            w = A5.random_unit(rng)
            cols.append([rel.rows[i][j] * w for i in range(n)])
        rng.shuffle(cols)
        rel2 = PolyMatrix.from_columns(A5, cols, n)
        m2 = FpmModule(rel2)
        assert m1.rank == m2.rank
        assert [str(c) for c in m1.torsion] == [str(c) for c in m2.torsion]


def shape(M: PolyMatrix) -> tuple[int, int]:
    return M.nrows, M.ncols


@pytest.mark.parametrize("k", [1, 3])
def test_empty_matrices_keep_their_shapes_rank_and_torsion(k):
    """A 0 x k and a k x 0 matrix keep their shapes wherever a matrix with
    no rows is given its width, and modules on them keep rank and torsion."""
    wide, tall = PolyMatrix.zeros(A5, 0, k), PolyMatrix.zeros(A5, k, 0)
    assert (shape(wide), shape(tall)) == ((0, k), (k, 0))
    assert shape(PolyMatrix.from_columns(A5, [()] * k, 0)) == (0, k)
    assert shape(PolyMatrix.from_columns(A5, [], k)) == (k, 0)
    assert (shape(wide.hstack(wide)), shape(tall.hstack(tall))) == ((0, 2 * k), (k, 0))
    assert shape(wide @ tall) == (0, 0)
    assert shape(wide @ PolyMatrix.zeros(A5, k, 2)) == (0, 2)
    assert tall @ wide == PolyMatrix.zeros(A5, k, k)
    for M in (wide, tall):
        m, n = shape(M)
        snf = smith_normal_form(M)
        transforms = (snf.U, snf.U_inv, snf.D, snf.V, snf.V_inv)
        assert [shape(P) for P in transforms] == [(m, m), (m, m), (m, n), (n, n), (n, n)]
        assert snf.diag == () and snf.rank == 0 and snf.nonunit_torsion() == []
        # the zero map from A^n has all of A^n as its kernel
        assert syzygy_matrix(snf) == PolyMatrix(
            A5, [[A5.one if i == j else A5.zero for j in range(n)] for i in range(n)], ncols=n
        )
    zero, free = FpmModule.zero(A5), FpmModule.free(A5, k)
    assert (shape(zero.relations), shape(free.relations)) == ((0, 0), (k, 0))
    for module, rank in ((FpmModule(wide), 0), (FpmModule(tall), k), (zero, 0), (free, k)):
        assert module.n_gens == rank and module.rank == rank and module.torsion == []
    column = PolyMatrix.from_columns(A5, [[A5.parse("t+2")] + [A5.zero] * (k - 1)], k)
    for rel in (tall.hstack(column), column.hstack(tall)):
        module = FpmModule(rel)
        assert module.rank == k - 1
        assert [str(c) for c in module.torsion] == ["t + 2"]


# -- membership and submodules


def test_membership_basic():
    amb = FpmModule.free(A5, 2)
    gens = mat(A5, [["t+2"], ["0"]], ncols=1)
    assert Submodule(amb, gens).contains([A5.parse("(t+2)^2"), A5.zero]) is not None
    assert Submodule(amb, gens).contains([A5.one, A5.zero]) is None


def test_membership_uses_ambient_relations():
    rel = mat(A5, [["t+2"], ["0"]])
    amb = FpmModule(rel)
    gens = PolyMatrix.zeros(A5, 2, 0)
    sub = Submodule(amb, gens)
    # (t+2, 0) is zero in the ambient module, so the empty span contains it
    assert sub.contains([A5.parse("t+2"), A5.zero]) is not None
    assert sub.contains([A5.one, A5.zero]) is None


def test_submodule_presentation_of_torsion_generator():
    amb = FpmModule(mat(A5, [["(t+2)^2"]]))
    sub = Submodule(amb, mat(A5, [["t+2"]], ncols=1))
    pres = sub.presentation
    assert pres.rank == 0
    assert [str(c) for c in pres.torsion] == ["t + 2"]


def count_snfs(monkeypatch) -> list:
    """Record the shape of every Smith normal form computed from now on."""
    shapes = []
    original = pidmod.smith_normal_form

    def counting(matrix):
        shapes.append((matrix.nrows, matrix.ncols))
        return original(matrix)

    monkeypatch.setattr(pidmod, "smith_normal_form", counting)
    return shapes


def test_presentation_and_membership_share_one_snf(monkeypatch):
    amb = FpmModule(mat(A5, [["(t+2)^2"], ["0"]]))
    sub = Submodule(amb, mat(A5, [["t+2", "1"], ["0", "t"]], ncols=2))
    shapes = count_snfs(monkeypatch)
    assert sub.presentation.n_gens == 2
    assert sub.contains([A5.parse("t+2"), A5.zero]) is not None
    assert sub.contains([A5.zero, A5.one]) is None
    assert shapes == [(2, 3)]


def test_submodule_without_generators_contains_only_zero():
    amb = FpmModule(mat(A5, [["(t+2)^2", "0"], ["0", "t+2"]], ncols=2))
    sub = Submodule(amb, PolyMatrix(A5, [[], []]))
    assert sub.presentation.n_gens == 0
    assert sub.contains((A5.zero, A5.zero)) == ()
    assert sub.contains([A5.one, A5.zero]) is None
    image = ModuleMap.zero(FpmModule.zero(A5), amb).image
    assert image.contains([A5.parse("(t+2)^2"), A5.zero]) == ()


def test_submodule_equality_by_double_membership():
    amb = FpmModule.free(A5, 2)
    s1 = Submodule(amb, mat(A5, [["1", "0"], ["0", "t+2"]], ncols=2))
    s2 = Submodule(amb, mat(A5, [["1", "0"], ["t+2", "t+2"]], ncols=2))
    ok, witness = s1.equals(s2)
    assert ok and witness is None
    s3 = Submodule(amb, mat(A5, [["1"], ["0"]], ncols=1))
    ok, witness = s1.equals(s3)
    assert not ok
    assert witness is not None


# -- module maps


def test_map_well_definedness_certificate():
    src = FpmModule(mat(A5, [["t+2"]]))
    tgt = FpmModule(mat(A5, [["(t+2)^2"]]))
    bad = ModuleMap(src, tgt, mat(A5, [["1"]]))
    ok, witness = bad.well_definedness
    assert not ok
    assert witness["image"] == "(t + 2)*e0"
    good = ModuleMap(tgt, src, mat(A5, [["1"]]))
    assert good.is_well_defined


def test_kernel_of_multiplication_is_zero_on_domain():
    a = FpmModule.free(A5, 1)
    f = ModuleMap(a, a, mat(A5, [["2*t-1"]]))
    ker = f.kernel
    assert all(a.is_zero_elem(ker.gens.col(j)) for j in range(ker.gens.ncols))


def test_image_of_multiplication_in_quotient_is_zero():
    a = FpmModule.free(A5, 1)
    q = FpmModule(mat(A5, [["t-3"]]))
    f = ModuleMap(a, q, mat(A5, [["2*t-1"]]))
    assert f.is_well_defined
    image = f.image
    assert all(q.is_zero_elem(image.gens.col(j)) for j in range(image.gens.ncols))


def test_kernel_into_quotient():
    a = FpmModule.free(A5, 1)
    q = FpmModule(mat(A5, [["t+2"]]))
    f = ModuleMap(a, q, mat(A5, [["1"]]))
    ker = f.kernel
    assert ker.contains([A5.parse("t+2")]) is not None
    assert ker.contains([A5.one]) is None
    pres = ker.presentation
    assert pres.rank == 1
    assert pres.torsion == []


def test_kernel_is_read_off_the_image_presentation(monkeypatch):
    a = FpmModule.free(A5, 2)
    q = FpmModule(mat(A5, [["t+2"]]))
    f = ModuleMap(a, q, mat(A5, [["1", "t"]]))
    relations = f.image.presentation.relations
    shapes = count_snfs(monkeypatch)
    ker = f.kernel
    assert shapes == []
    assert ker.gens == relations
    assert f.kernel is ker
    assert ker.contains([A5.parse("t+2"), A5.zero]) is not None
    assert ker.contains([A5.one, A5.zero]) is None


# -- exactness


def ses_maps(ring, multiplier):
    """0 -> A --mult--> A -> A/(mult) -> 0 as a four-map chain."""
    z = FpmModule.zero(ring)
    a = FpmModule.free(ring, 1)
    q = FpmModule(mat(ring, [[multiplier]]))
    return [
        ModuleMap.zero(z, a),
        ModuleMap(a, a, mat(ring, [[multiplier]])),
        ModuleMap(a, q, mat(ring, [["1"]])),
        ModuleMap.zero(q, z),
    ]


def test_short_exact_sequence():
    report = is_exact(ses_maps(A5, "t+2"), labels=["left", "middle", "right"])
    assert report["exact"]
    assert [j["at"] for j in report["junctions"]] == ["left", "middle", "right"]
    assert all(j["witness"] is None for j in report["junctions"])


def test_failure_kernel_not_in_image():
    maps = ses_maps(A5, "t+2")
    a = maps[1].source
    # shrink the image without shrinking the kernel of the projection
    maps[1] = ModuleMap(a, a, mat(A5, [["(t+2)^2"]]))
    report = is_exact(maps, labels=["left", "middle", "right"])
    assert not report["exact"]
    middle = report["junctions"][1]
    assert not middle["exact"]
    assert middle["witness"] == "(t + 2)*e0"
    assert report["junctions"][0]["exact"]
    assert report["junctions"][2]["exact"]


def test_failure_image_not_in_kernel():
    a = FpmModule.free(A5, 1)
    f = ModuleMap(a, a, mat(A5, [["t+2"]]))
    g = ModuleMap(a, a, mat(A5, [["1"]]))
    report = is_exact([f, g], labels=["middle"])
    assert not report["exact"]
    assert report["junctions"][0]["note"] == "image not annihilated by the next map"


def test_ill_defined_map_marks_junction():
    src = FpmModule(mat(A5, [["t+2"]]))
    tgt = FpmModule(mat(A5, [["(t+2)^2"]]))
    bad = ModuleMap(src, tgt, mat(A5, [["1"]]))
    out = ModuleMap.zero(tgt, FpmModule.zero(A5))
    report = is_exact([bad, out], labels=["middle"])
    assert not report["exact"]
    assert report["junctions"][0]["note"] == "ill-defined map"


# -- rank agreement with the fraction-field route


@pytest.mark.parametrize("ring", [A2, A5], ids=["F2-loc-t", "F5-loc-t-t4"])
def test_rank_matches_fraction_field_elimination(ring):
    rng = random.Random(23)
    for _ in range(60):
        nrows = rng.randrange(0, 5)
        ncols = rng.randrange(0, 5)
        m = random_matrix(ring, rng, nrows, ncols, max_deg=2, max_den=1)
        snf_rank = smith_normal_form(m).rank
        frac_rows = [
            [frac_of_ring_elem(m.rows[i][j]) for j in range(ncols)]
            for i in range(nrows)
        ]
        assert snf_rank == fraction_field_rank(frac_rows)


# -- graded modules: one SNF per weight block


def graded_matrix(ring, rng, row_weights, col_weights, max_deg=2):
    """A random matrix, zero wherever a row and a column differ in weight."""
    return PolyMatrix(
        ring,
        [
            [
                ring.random_element(rng, max_deg=max_deg, max_den=1) if rw == cw else ring.zero
                for cw in col_weights
            ]
            for rw in row_weights
        ],
        ncols=len(col_weights),
    )


@pytest.mark.parametrize("ring", [A2, A5], ids=["F2-loc-t", "F5-loc-t-t4"])
def test_graded_module_agrees_with_its_ungraded_matrix(ring):
    """A two-block sum's rank, zero test and membership match one SNF of its
    whole matrix, which holds the shared block n - 1 times, and so does its
    torsion chain when the blocks' chains agree; when they differ, the chain
    is refused.  Submodule generators lie in weight 0."""
    rng = random.Random(61)
    compared = refused = 0
    for trial in range(60):
        n = rng.randrange(1, 5)
        m0, m1 = rng.randrange(1, 4), rng.randrange(0, 3)
        if trial % 2:  # square blocks, each with torsion of its own
            k0, k1 = m0, m1
        else:
            k0, k1 = rng.randrange(0, 4), rng.randrange(0, 3)
        zero, rest = random_matrix(ring, rng, m0, k0), random_matrix(ring, rng, m1, k1)
        if trial % 3 and m1:  # one matrix, as forms._weight_blocks builds when p | n
            zero = rest
        graded, rel, row_w = graded_sum(zero, rest, n)
        m, k = rel.nrows, rel.ncols
        whole = FpmModule(rel)
        assert graded.rank == whole.rank
        if graded.zero.torsion == graded.rest.torsion:
            assert [str(c) for c in graded.torsion] == [str(c) for c in whole.torsion]
            compared += len(whole.torsion) > 1
        else:
            with pytest.raises(CertificateFailure, match="grading certificate failed"):
                graded.torsion
            refused += 1
        g = rng.randrange(0, 3)
        gens = graded_matrix(ring, rng, row_w, [0] * g)
        sub_graded = graded.span(
            [cut(gens.col(j), row_w, graded) for j in range(g)], [f"g{j}" for j in range(g)]
        )
        sub_whole = Submodule(whole, gens)
        assert sub_graded.presentation.rank == sub_whole.presentation.rank
        assert [str(c) for c in sub_graded.presentation.torsion] == [
            str(c) for c in sub_whole.presentation.torsion
        ]
        for _ in range(4):
            coeffs = [ring.random_element(rng, max_deg=1, max_den=1) for _ in range(k)]
            vec = list(rel.apply_vec(coeffs))
            if rng.random() < 0.5:
                vec[rng.randrange(m)] += ring.random_element(rng, max_deg=1, max_den=1)
            parts = cut(vec, row_w, graded)
            assert graded.is_zero(parts) == whole.is_zero_elem(vec)
            assert (graded.coords(sub_graded, parts) is None) == (sub_whole.contains(vec) is None)
    # both branches ran: a chain longer than one was compared, and one refused
    assert compared and refused


def test_torsion_chain_repeats_the_shared_chain_n_times():
    # (t+2)(t+3) = t^2 + 1 over F_5; t is a unit of A5
    block = mat(A5, [["t+2", "0"], ["0", "(t+2)*(t+3)"]])
    module, _, _ = graded_sum(block, block, 3)
    assert [str(c) for c in module.torsion] == ["t + 2"] * 3 + ["t^2 + 1"] * 3
    module, _, _ = graded_sum(block, block, 1)
    assert [str(c) for c in module.torsion] == ["t + 2", "t^2 + 1"]
    # blocks with different chains have no chain of one shared block
    module, _, _ = graded_sum(mat(A5, [["t+3"]]), mat(A5, [["t+2"]]), 3)
    with pytest.raises(
        CertificateFailure,
        match=r"grading certificate failed: .* block of weight 0 has torsion \['t \+ 3'\], "
        r"the block of weights 1\.\.2 \['t \+ 2'\]",
    ):
        module.torsion


def test_entry_joining_two_weights_raises():
    # a generator has weight 0, so an entry on the weight-1 generator e1 joins
    # two weights; the grading certificate rejects it at construction
    amb, _, _ = graded_sum(mat(A5, [["(t+2)^2"]]), mat(A5, [["t+3"]]), 2)
    with pytest.raises(
        CertificateFailure,
        match=r"grading certificate failed: generator g0 .* part in weight 1, not 0",
    ):
        amb.span([cut([A5.one, A5.parse("t")], [0, 1], amb)], ["g0"])
    sub = amb.span([cut([A5.parse("t+2"), A5.zero], [0, 1], amb)], ["g0"])

    def contains(vec):
        return amb.coords(sub, cut(vec, [0, 1], amb))

    assert contains([A5.parse("t+2"), A5.zero]) is not None
    assert contains([A5.one, A5.zero]) is None
    # the weight-1 part takes the ambient zero test: t+3 dies there, 1 does not
    assert contains([A5.parse("t+2"), A5.parse("t+3")]) is not None
    assert contains([A5.parse("t+2"), A5.one]) is None


def test_questions_about_one_weight_reduce_only_its_block(monkeypatch):
    amb, _, row_w = graded_sum(mat(A5, [["t+2"], ["1"]]), mat(A5, [["t"]]), 3)
    assert row_w == [0, 0, 1, 2]
    sub = amb.span([cut([A5.one, A5.zero, A5.zero, A5.zero], row_w, amb)], ["g0"])
    shapes = count_snfs(monkeypatch)
    assert sub.presentation.n_gens == 1
    vec = [A5.parse("t"), A5.zero, A5.zero, A5.zero]
    assert amb.coords(sub, cut(vec, row_w, amb)) is not None
    assert amb.is_zero(cut([A5.zero, A5.zero, A5.one, A5.zero], row_w, amb))
    assert shapes == [(2, 2), (1, 1)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_zero_test_agrees_with_canonical_reduce_on_catalog_charts(name):
    rng = random.Random(43)
    outcomes = set()
    for pfc in Cover(FIXTURES[name]()).partial_forms:
        ring = pfc.ring
        modules = (
            pfc.omega1_ambient,
            pfc.omega2_ambient,
            pfc.sub1.presentation,
            pfc.sub2.presentation,
        )
        for module in modules:
            if not module.n_gens:
                continue
            if isinstance(module, FpmModule):
                whole, is_zero = module, module.is_zero_elem
            else:  # a DirectSum, against one reduction of its whole matrix
                rel, row_w = dense(module)
                whole = FpmModule(rel)

                def is_zero(vec, module=module, row_w=row_w):
                    return module.is_zero(cut(vec, row_w, module))

            rel = whole.relations
            for _ in range(25):
                coeffs = [ring.random_element(rng, max_deg=2, max_den=1) for _ in range(rel.ncols)]
                vec = list(rel.apply_vec(coeffs))
                if rng.random() < 0.5:
                    vec[rng.randrange(module.n_gens)] += ring.random_element(rng, max_deg=2, max_den=1)
                expected = all(x.is_zero() for x in canonical_reduce(whole, vec))
                assert is_zero(vec) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_corrupted_snf_raises_a_certificate_failure_naming_the_block(monkeypatch):
    class Corrupted(pidmod.SNFResult):
        __slots__ = ()

        def __init__(self, matrix, U, U_inv, D, V, V_inv, diag):
            wrong = PolyMatrix.zeros(matrix.ring, U_inv.nrows, U_inv.ncols)
            super().__init__(matrix, U, wrong, D, V, V_inv, diag)

    monkeypatch.setattr(pidmod, "SNFResult", Corrupted)
    module, _, row_w = graded_sum(mat(A5, [["t+2"]]), mat(A5, [["t"]]), 4)
    with pytest.raises(CertificateFailure) as info:
        module.is_zero(cut([A5.zero, A5.zero, A5.zero, A5.one], row_w, module))
    message = str(info.value)
    assert "U*U^-1 = I" in message
    assert "1x1 matrix" in message
    assert "block of weights 1..3" in message


def corrupt(part, matrix, U, U_inv, D, V, V_inv, diag):
    """The SNF parts with one of them broken.  A zeroed matrix breaks the
    product or an inverse; a reshaped D comes with the matrix that U and V
    carry to it, so only the shape of D is wrong."""
    ring = matrix.ring
    if part in ("U", "U_inv", "D", "V", "V_inv"):
        parts = {"U": U, "U_inv": U_inv, "D": D, "V": V, "V_inv": V_inv}
        parts[part] = PolyMatrix.zeros(ring, parts[part].nrows, parts[part].ncols)
        return (matrix, *parts.values(), diag)
    rows = [list(row) for row in D.rows]
    if part == "off_diagonal":
        rows[0][1] = ring.one
    elif part == "chain":
        rows[0][0], rows[1][1] = rows[1][1], rows[0][0]
    else:  # "zero_first"
        rows[0][0] = ring.zero
    D = PolyMatrix(ring, rows, ncols=D.ncols)
    matrix = (U_inv @ D) @ V_inv
    return (matrix, U, U_inv, D, V, V_inv, tuple(rows[i][i] for i in range(len(diag))))


@pytest.mark.parametrize(
    "part, certificate",
    [
        ("U", "U*M*V = D"),
        ("U_inv", "U*U^-1 = I"),
        ("D", "U*M*V = D"),
        ("V", "U*M*V = D"),
        ("V_inv", "V*V^-1 = I"),
        ("off_diagonal", "D is diagonal"),
        ("chain", "each diagonal entry divides the next"),
        ("zero_first", "zero diagonal entries come last"),
    ],
)
def test_each_corrupted_snf_part_raises_its_certificate_message(part, certificate, monkeypatch):
    class Corrupted(pidmod.SNFResult):
        __slots__ = ()

        def __init__(self, *parts):
            super().__init__(*corrupt(part, *parts))

    monkeypatch.setattr(pidmod, "SNFResult", Corrupted)
    # the block that weights 1..3 share is diag(t + 1, (t + 1)^2)
    rest = mat(A5, [["t+1", "0"], ["0", "(t+1)^2"]])
    module, _, row_w = graded_sum(mat(A5, [["t+2"]]), rest, 4)
    vec = [A5.zero] * 5 + [A5.one, A5.zero]
    with pytest.raises(CertificateFailure) as info:
        module.is_zero(cut(vec, row_w, module))
    assert str(info.value) == (
        f"SNF certificate failed: {certificate}, on a 2x2 matrix over {A5}, "
        "in the block of weights 1..3"
    )


def test_snf_certificate_agrees_with_the_literal_three_product_certificate():
    rng = random.Random(22)
    parts = ("U", "U_inv", "D", "V", "V_inv", "diag")
    verdicts = set()
    for _ in range(300):
        ring = rng.choice([A2, A5])
        m = random_matrix(ring, rng, rng.randrange(1, 4), rng.randrange(1, 4))
        r = smith_normal_form(m)
        fields = dict(zip(("matrix", *parts), (r.matrix, r.U, r.U_inv, r.D, r.V, r.V_inv, r.diag)))
        kind = rng.choice(("none", "entry", "reshape"))
        if kind == "entry":
            # one entry of one part moved by a random nonzero element
            part = rng.choice(parts)
            if part == "diag":
                if not r.diag:
                    continue
                k = rng.randrange(len(r.diag))
                diag = list(r.diag)
                diag[k] = diag[k] + ring.random_unit(rng)
                fields["diag"] = tuple(diag)
            else:
                old = fields[part]
                i, j = rng.randrange(old.nrows), rng.randrange(old.ncols)
                rows = [list(row) for row in old.rows]
                rows[i][j] = rows[i][j] + ring.random_unit(rng)
                fields[part] = PolyMatrix(ring, rows, ncols=old.ncols)
        elif kind == "reshape":
            # a random D that U and V carry the matrix to, diagonal or not
            D = random_matrix(ring, rng, m.nrows, m.ncols)
            if rng.random() < 0.5:
                rows = [
                    [x if i == j else ring.zero for j, x in enumerate(row)]
                    for i, row in enumerate(D.rows)
                ]
                D = PolyMatrix(ring, rows, ncols=m.ncols)
            fields["D"] = D
            fields["matrix"] = (r.U_inv @ D) @ r.V_inv
            fields["diag"] = tuple(D.rows[i][i] for i in range(len(r.diag)))
        candidate = pidmod.SNFResult(*fields.values())
        expected = literal_snf_certificate(candidate)
        verdicts.add(expected)
        if expected is None:
            pidmod._verify_snf(candidate)
            continue
        with pytest.raises(CertificateFailure) as info:
            pidmod._verify_snf(candidate)
        assert str(info.value) == (
            f"SNF certificate failed: {expected}, on a {m.nrows}x{m.ncols} matrix over {ring}"
        )
    assert verdicts == {
        None,
        "U*M*V = D",
        "U*U^-1 = I",
        "V*V^-1 = I",
        "D is diagonal",
        "each diagonal entry divides the next",
        "zero diagonal entries come last",
    }
