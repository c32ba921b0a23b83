"""Exact arithmetic layers: finite fields, localized rings, Smith normal form.

Everything downstream rests on three exact layers: small finite fields
F_{p^e}, univariate polynomials over them, and coordinate rings of affine
curve charts where a chosen set of irreducibles has been inverted.  This
script walks through each layer and ends with a certified Smith normal form.
"""

from taucover import ChartRing, FpmModule, FqField, Poly, PolyMatrix, smith_normal_form


def mat(ring, rows):
    return PolyMatrix(ring, [[ring.parse(s) for s in row] for row in rows])


def main():
    print("== The field F_4 ==")
    field = FqField(2, 2)
    a, one = Poly.parse(field, "a"), Poly.one(field)
    print(f"generator a with a^2 = {a * a}")
    print(f"a * (a + 1) = {a * (a + one)}")
    # the inverse of Frobenius x -> x^p on F_(p^e) is x -> x^(p^(e-1))
    root = (a**2) ** (field.p ** (field.e - 1))
    print(f"Frobenius: (a)^2 = {a ** 2}, and its inverse root: {root}")

    print()
    print("== Polynomials over F_5 ==")
    f5 = FqField(5)
    f = Poly.parse(f5, "t^3 + 4*t")
    g = Poly.parse(f5, "t^2 + 4")
    print(f"f = {f}")
    print(f"g = {g}")
    print(f"gcd(f, g) = {f.gcd(g)}")
    print(f"f' = {f.derivative()}")

    print()
    print("== A chart ring: F_5[t] with t and t - 1 inverted ==")
    ring = ChartRing(f5, ["t", "t + 4"])
    x = ring.parse("(t^2 + 4*t)/t")
    print(f"(t^2 + 4t)/t normalizes to {x}")
    u = ring.parse("3*t^2/(t + 4)")
    print(f"u = {u} is a unit: {u.is_unit()}")
    constant, exponents = ring.unit_log(u)
    print(f"unit decomposition: constant {f5.format(constant)}, exponents {exponents}")
    print(f"dlog(u) = {ring.dlog(u)}")

    print()
    print("== Smith normal form with certificate ==")
    m = mat(ring, [["t", "t + 4"], ["t^2", "t"]])
    result = smith_normal_form(m)
    print(f"M = {m}")
    print(f"D = {result.D}")
    print(f"U @ M @ V == D: {result.U @ m @ result.V == result.D}")
    print(f"rank {result.rank}, torsion cores {[str(c) for c in result.nonunit_torsion()]}")

    print()
    print("== Module invariants from a presentation ==")
    relations = mat(ring, [["t + 1"], ["0"]])
    module = FpmModule(relations)
    print("two generators, one relation (t+1)*e0 = 0")
    print(f"rank {module.rank}, torsion {[str(c) for c in module.torsion]}")


if __name__ == "__main__":
    main()
