"""Module-engine tests: Smith form, solving, presentations, exactness."""

import random

import pytest
from oracle import frac_of_ring_elem, fraction_field_rank

from taucover import pidmod
from taucover.fields import FqField
from taucover.pidmod import (
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


def mat(ring, rows, ncols=None):
    return PolyMatrix(
        ring,
        [[ring.parse(s) if isinstance(s, str) else s for s in row] for row in rows],
        nrows=len(rows),
        ncols=ncols,
    )


def random_matrix(ring, rng, nrows, ncols, max_deg=2, max_den=1):
    return PolyMatrix(
        ring,
        [
            [ring.random_element(rng, max_deg=max_deg, max_den=max_den) for _ in range(ncols)]
            for _ in range(nrows)
        ],
        nrows=nrows,
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
            core = A5.core(d)
            assert d == A5.from_poly(core)
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


# -- solve and syzygies


def test_solve_roundtrip_random():
    rng = random.Random(11)
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = random_matrix(A5, rng, nrows, ncols)
        x = [A5.random_element(rng, max_deg=2, max_den=1) for _ in range(ncols)]
        b = m.apply_vec(x)
        sol = solve(m, b)
        assert sol is not None
        assert m.apply_vec(sol) == b


def test_solve_unsolvable():
    # t+2 is not invertible, so 1 is not in its image
    m = mat(A5, [["t+2"]])
    assert solve(m, [A5.one]) is None
    assert solve(m, [A5.parse("t+2")]) is not None


def test_syzygy_columns_are_kernel_vectors():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(A5, rng, rng.randrange(1, 4), rng.randrange(1, 5))
        syz = syzygy_matrix(m)
        prod = m @ syz
        assert prod.is_zero()


def test_syzygy_of_dependent_columns():
    # second column is t times the first
    m = mat(A5, [["1", "t"], ["t+1", "t^2+t"]])
    syz = syzygy_matrix(m)
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
    assert z.is_zero_module()
    assert z.canonical_reduce(()) == ()


def test_mixed_module_invariants():
    rel = mat(A5, [["t+2", "0"], ["0", "1"]])
    m = FpmModule(A5, 2, rel)
    assert m.rank == 0
    assert [str(c) for c in m.torsion] == ["t + 2"]


def test_rank_one_plus_torsion():
    rel = mat(A5, [["t+2"], ["0"]])
    m = FpmModule(A5, 2, rel)
    assert m.rank == 1
    assert [str(c) for c in m.torsion] == ["t + 2"]


def test_canonical_reduce_respects_relations():
    rel = mat(A5, [["t+2"], ["0"]])
    m = FpmModule(A5, 2, rel)
    rng = random.Random(17)
    for _ in range(20):
        v = [A5.random_element(rng, max_deg=3) for _ in range(2)]
        w = A5.random_element(rng, max_deg=2)
        shifted = [v[0] + w * A5.parse("t+2"), v[1]]
        assert m.canonical_reduce(v) == m.canonical_reduce(shifted)
        again = m.canonical_reduce(m.canonical_reduce(v))
        assert again == m.canonical_reduce(v)


def test_canonical_reduce_with_denominators():
    # 1/t mod (t+2): t has inverse 2 mod t+2, so the class is 2... check:
    # t * 3 = 3t = 3t + 6 - 6 = 3(t+2) - 6 = -6 = -1 = 4 mod t+2, so 1/t = ?
    # t = -2 = 3 mod (t+2), and 3 * 2 = 6 = 1 mod 5, so 1/t = 2.
    rel = mat(A5, [["t+2"]])
    m = FpmModule(A5, 1, rel)
    red = m.canonical_reduce([A5.parse("1/t")])
    assert str(red[0]) == "2"


def test_elems_equal_mod_torsion():
    rel = mat(A5, [["t+2"]])
    m = FpmModule(A5, 1, rel)
    assert m.elems_equal([A5.parse("t")], [A5.parse("-2")])
    assert not m.elems_equal([A5.parse("t")], [A5.parse("t+1")])


def test_invariants_stable_under_presentation_shuffle():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randrange(1, 4)
        r = rng.randrange(0, 4)
        rel = random_matrix(A5, rng, n, r)
        m1 = FpmModule(A5, n, rel)
        # shuffle relation columns and scale each column by a unit
        cols = []
        for j in range(r):
            w = A5.random_unit(rng)
            cols.append([rel.rows[i][j] * w for i in range(n)])
        rng.shuffle(cols)
        rel2 = PolyMatrix.from_columns(A5, cols, n)
        m2 = FpmModule(A5, n, rel2)
        assert m1.rank == m2.rank
        assert [str(c) for c in m1.torsion] == [str(c) for c in m2.torsion]


# -- membership and submodules


def test_membership_basic():
    amb = FpmModule.free(A5, 2)
    gens = mat(A5, [["t+2"], ["0"]], ncols=1)
    assert Submodule(amb, gens).contains([A5.parse("(t+2)^2"), A5.zero]) is not None
    assert Submodule(amb, gens).contains([A5.one, A5.zero]) is None


def test_membership_uses_ambient_relations():
    rel = mat(A5, [["t+2"], ["0"]])
    amb = FpmModule(A5, 2, rel)
    gens = PolyMatrix.zeros(A5, 2, 0)
    sub = Submodule(amb, gens)
    # (t+2, 0) is zero in the ambient module, so the empty span contains it
    assert sub.contains([A5.parse("t+2"), A5.zero]) is not None
    assert sub.contains([A5.one, A5.zero]) is None


def test_submodule_presentation_of_torsion_generator():
    amb = FpmModule(A5, 1, mat(A5, [["(t+2)^2"]]))
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
    amb = FpmModule(A5, 2, mat(A5, [["(t+2)^2"], ["0"]]))
    sub = Submodule(amb, mat(A5, [["t+2", "1"], ["0", "t"]], ncols=2))
    shapes = count_snfs(monkeypatch)
    assert sub.presentation.n_gens == 2
    assert sub.contains([A5.parse("t+2"), A5.zero]) is not None
    assert sub.contains([A5.zero, A5.one]) is None
    assert shapes == [(2, 3)]


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
    src = FpmModule(A5, 1, mat(A5, [["t+2"]]))
    tgt = FpmModule(A5, 1, mat(A5, [["(t+2)^2"]]))
    bad = ModuleMap(src, tgt, mat(A5, [["1"]]))
    ok, witness = bad.well_definedness
    assert not ok
    assert witness["image"] == "(t + 2)*e0"
    good = ModuleMap(tgt, src, mat(A5, [["1"]]))
    assert good.is_well_defined


def test_kernel_of_multiplication_is_zero_on_domain():
    a = FpmModule.free(A5, 1)
    f = ModuleMap(a, a, mat(A5, [["2*t-1"]]))
    assert f.kernel.is_zero()


def test_image_of_multiplication_in_quotient_is_zero():
    a = FpmModule.free(A5, 1)
    q = FpmModule(A5, 1, mat(A5, [["t-3"]]))
    f = ModuleMap(a, q, mat(A5, [["2*t-1"]]))
    assert f.is_well_defined
    assert f.image.is_zero()


def test_kernel_into_quotient():
    a = FpmModule.free(A5, 1)
    q = FpmModule(A5, 1, mat(A5, [["t+2"]]))
    f = ModuleMap(a, q, mat(A5, [["1"]]))
    ker = f.kernel
    assert ker.contains([A5.parse("t+2")]) is not None
    assert ker.contains([A5.one]) is None
    pres = ker.presentation
    assert pres.rank == 1
    assert pres.torsion == []


def test_kernel_is_read_off_the_image_presentation(monkeypatch):
    a = FpmModule.free(A5, 2)
    q = FpmModule(A5, 1, mat(A5, [["t+2"]]))
    f = ModuleMap(a, q, mat(A5, [["1", "t"]]))
    relations = f.image.presentation.relations
    shapes = count_snfs(monkeypatch)
    ker = f.kernel
    assert shapes == []
    assert ker.gens == relations
    assert f.kernel is ker
    assert ker.contains([A5.parse("t+2"), A5.zero]) is not None
    assert ker.contains([A5.one, A5.zero]) is None


def test_composition():
    a = FpmModule.free(A5, 1)
    f = ModuleMap(a, a, mat(A5, [["t"]]))
    g = ModuleMap(a, a, mat(A5, [["t+1"]]))
    h = g.after(f)
    assert h.matrix.rows[0][0] == A5.parse("t^2+t")


# -- exactness


def ses_maps(ring, multiplier):
    """0 -> A --mult--> A -> A/(mult) -> 0 as a four-map chain."""
    z = FpmModule.zero(ring)
    a = FpmModule.free(ring, 1)
    q = FpmModule(ring, 1, mat(ring, [[multiplier]]))
    return [
        ModuleMap.zero(z, a, "in"),
        ModuleMap(a, a, mat(ring, [[multiplier]]), "mult"),
        ModuleMap(a, q, mat(ring, [["1"]]), "proj"),
        ModuleMap.zero(q, z, "out"),
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
    maps[1] = ModuleMap(a, a, mat(A5, [["(t+2)^2"]]), "mult")
    report = is_exact(maps, labels=["left", "middle", "right"])
    assert not report["exact"]
    middle = report["junctions"][1]
    assert not middle["exact"]
    assert middle["witness"] == "(t + 2)*e0"
    assert report["junctions"][0]["exact"]
    assert report["junctions"][2]["exact"]


def test_failure_image_not_in_kernel():
    a = FpmModule.free(A5, 1)
    f = ModuleMap(a, a, mat(A5, [["t+2"]]), "f")
    g = ModuleMap(a, a, mat(A5, [["1"]]), "g")
    report = is_exact([f, g], labels=["middle"])
    assert not report["exact"]
    assert report["junctions"][0]["note"] == "image not annihilated by the next map"


def test_ill_defined_map_marks_junction():
    src = FpmModule(A5, 1, mat(A5, [["t+2"]]))
    tgt = FpmModule(A5, 1, mat(A5, [["(t+2)^2"]]))
    bad = ModuleMap(src, tgt, mat(A5, [["1"]]), "bad")
    out = ModuleMap.zero(tgt, FpmModule.zero(A5), "out")
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
