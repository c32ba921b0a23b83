"""Root covers of a charted curve: validation, gluing, stage factorization.

A bundle is described by a unit u on each chart and transition units g on
overlaps with g^n = u_j/u_i.  The order-n root cover adjoins v with v^n = u.
Writing n = m * p^r splits the cover into an unramified stage of degree m
under a purely inseparable stage of degree p^r; every identity the splitting
relies on is recomputed inside the cover algebra.
"""

import json

from taucover import Cover, TorsionBundle, factor_cover, load_fixture


def main():
    print("== A mixed-order cover: n = 6 over F_4 ==")
    bundle = load_fixture("MIXED").bundle()
    report = bundle.validate()
    print(f"valid: {report['valid']}, degenerate: {report['degenerate']}")

    cover = Cover(bundle)
    chart = cover.charts[0]
    print(f"cover relation: v^{chart.n} = {chart.u}")
    x = chart.v + chart.from_ring(bundle.scheme.charts[0].parse("t"))
    print(f"sample product (v + t)^2 = {x * x}")

    factor = factor_cover(cover)
    print(f"order {factor['order']} = separable {factor['separable_degree']}"
          f" * inseparable {factor['inseparable_degree']}")
    for check in factor["checks"]:
        print(f"  chart {check['chart']}: {check['identity']}: {check['passed']}")

    print()
    print("== Two charts glued by a transition unit ==")
    bundle = load_fixture("TWOCHART").bundle()
    print(json.dumps(bundle.to_json(), indent=2, sort_keys=True))
    cover = Cover(bundle)
    for cert in cover.glue_certificates:
        print(f"overlap {cert['overlap']}: {cert['identity']}: {cert['passed']}")

    v0 = cover.charts[0].v
    moved = cover.transport(0, 1, v0)
    print(f"v_0 transported to chart 1 coordinates: {moved}")

    print()
    print("== A user bundle straight from JSON ==")
    data = {
        "field": {"p": 3, "e": 1},
        "n": 3,
        "charts": [{"inverted": ["t"]}],
        "g": {},
        "u": ["2*t^2"],
    }
    bundle = TorsionBundle.from_json(data)
    print(f"valid: {bundle.validate()['valid']}")
    print(f"factor: {factor_cover(Cover(bundle))['inseparable_degree']} inseparable")


if __name__ == "__main__":
    main()
