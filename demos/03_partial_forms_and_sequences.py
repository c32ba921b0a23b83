"""Partial one- and two-forms on a cover, their invariants, and exactness.

Inside the pushed-forward forms of the cover lives the submodule generated
by pulled-back forms together with dv/v.  Its presentation is computed
exactly: rank, torsion, a strictness witness, and junction-by-junction
exactness of the short sequences that relate it to the base.
"""

import json

from taucover import (
    Cover,
    load_fixture,
    rank_torsion_report,
    verify_sequence,
)


def build(name):
    return Cover(load_fixture(name).bundle())


def main():
    print("== Presentation of the partial one-forms (order 2, char 2) ==")
    cover = build("GM_P2")
    pfc = cover.partial_forms[0]
    print(f"ambient module presented on {pfc.omega1_ambient.n_gens} generators")
    print(f"submodule generators: {list(pfc.sub1.presentation.gen_names)}")
    report = rank_torsion_report(cover)
    chart = report["charts"][0]
    print(f"rank {chart['rank']}, torsion {chart['torsion']}, "
          f"ambient rank {chart['ambient_rank']}")
    print(f"strict inclusion witness: {chart['strict_witness']} stays outside")

    print()
    print("== A torsion summand appears (order 5, char 5) ==")
    chart = rank_torsion_report(build("ZEROTORSION"))["charts"][0]
    print(f"rank {chart['rank']}, torsion {chart['torsion']}")

    print()
    print("== Degree-1 sequence, exact case ==")
    run = verify_sequence(build("GM_P2"), 1)
    for junction in run["charts"][0]["junctions"]:
        print(f"  at {junction['at']}: exact={junction['exact']}")

    print()
    print("== Degree-1 sequence, degenerate unit t^2 (dlog = 0) ==")
    run = verify_sequence(build("DEGENERATE"), 1)
    for junction in run["charts"][0]["junctions"]:
        line = f"  at {junction['at']}: exact={junction['exact']}"
        if junction["witness"]:
            line += f", witness {junction['witness']}"
        print(line)

    print()
    print("== Degree-2 sequence: literal tail vs corrected tail ==")
    literal = verify_sequence(build("ZEROTORSION"), 2, corrected=False)
    corrected = verify_sequence(build("ZEROTORSION"), 2, corrected=True)
    print(f"literal exact: {literal['exact']}")
    failing = [j for j in literal["charts"][0]["junctions"] if not j["exact"]]
    print(json.dumps(failing[0], indent=2, sort_keys=True))
    print(f"corrected exact: {corrected['exact']}")


if __name__ == "__main__":
    main()
