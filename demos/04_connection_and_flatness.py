"""The canonical connection on a root cover and its exact laws.

In the 1/v frame the connection form is -dv/v.  The product-rule law is
checked on random sections, flatness is certified inside the two-form
presentation, and on overlaps the forms differ by exactly -dlog(g) dt.
When the order is coprime to the characteristic the whole picture collapses
to the classical connection with form (1/n) dlog(u).
"""

from taucover import (
    ClassicalConnection,
    Cover,
    TauConnection,
    coprime_degeneration_check,
    load_fixture,
)


def build(name):
    return Cover(load_fixture(name).bundle())


def main():
    print("== Connection form and product rule (two charts, char 2) ==")
    conn = TauConnection(build("TWOCHART"))
    for i, chart in enumerate(conn.charts):
        print(f"chart {i}: connection form {chart.lift1(conn.connection_coords(i))}")
    leibniz = conn.leibniz_check(seed=5, samples=50)
    for chart in leibniz["charts"]:
        print(f"chart {chart['chart']}: {chart['samples']} random sections, "
              f"product rule holds: {chart['passed']}")

    flatness = conn.flatness_check()
    print(f"flat: {flatness['passed']}")

    cocycle = conn.cocycle_check()
    for overlap in cocycle["overlaps"]:
        print(f"overlap {overlap['overlap']}: {overlap['identity']}: "
              f"{overlap['passed']}")

    print()
    print("== Coprime order: the classical picture ==")
    bundle = load_fixture("COPRIME").bundle()
    classical = ClassicalConnection(bundle)
    print(f"order {bundle.n} in characteristic {bundle.scheme.field.p}")
    print(f"classical form coefficient: {classical.eta[0]}")
    print(f"curvature vanishes: {classical.report()['curvature']['passed']}")

    degeneration = coprime_degeneration_check(Cover(bundle))
    chart = degeneration["charts"][0]
    print(f"partial forms equal pullbacks: {chart['partial_equals_pullback']}")
    print(f"dv/v equals the classical form: {chart['root_form_equals_classical']}")
    print(f"connection coordinates agree: {chart['connection_coords_agree']}")


if __name__ == "__main__":
    main()
