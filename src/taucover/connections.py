"""Flat partial connections on torsion line bundles, and their class data.

The root subsheaf O*v of the pushed-forward cover algebra trivializes the
n-torsion bundle after adjoining the root v, and differentiating along that
trivialization produces a connection with values in the partial one-forms:
in the dual frame 1/v a section written lambda/v goes to

    v * d(lambda / v) = dlambda - lambda * (dv/v),

so the connection form is -dv/v.  Everything here is verified exactly: the
Leibniz rule, flatness, the transformation rule across charts, and the
degeneration to the classical averaged connection du/(n*u) when n is
invertible.  Both sides of the Leibniz identity are connections on the rank-1
module A*(1/v), so their difference is A-linear in lambda and the identity is
decided at lambda = 1; random sections only guard the code it rests on.

The obstruction class of the pair (transitions, dv/v) lives in the first
hypercohomology of the two-term complex [units --dlog--> partial one-forms].
``is_trivial_class`` decides coboundary-ness with an exact certificate in
both directions: a nontrivial verdict carries a functional or lattice
obstruction, and a trivial verdict carries unit witnesses that are re-checked
against both defining identities before being reported.  A coboundary's
chart coordinates (dlog lambda, 0) are pullbacks of dlog(lambda) dt, so both
chart-level questions are asked of the pullback map sigma each cover already
builds: s o sigma = 0 certifies that s kills every coboundary, and a root
component is absorbed exactly when the cochain lies in sigma's image, its dt
coefficient unique modulo the ideal I of that image's presentation A/I.
"""

from __future__ import annotations

import random
from typing import Sequence

from .covers import Cover, TorsionBundle
from .errors import MalformedInput, NotCoprime, TauCoverError
from .forms import (
    CoverOneForm,
    d_function,
    pullback_one_form,
    two_form_parts,
    wedge_one_one,
)
from .partialforms import PartialFormsChart, _law, atiyah_cocycle_check
from .polys import Poly
from .rings import ChartRing, RingElem


class TauConnection:
    """The canonical flat partial connection of a cyclic cover.

    ``classical`` is the bundle's averaged connection when n is invertible,
    built once here, and None when p | n.
    """

    def __init__(self, cover: Cover):
        self.cover = cover
        self.charts = cover.partial_forms
        bundle = cover.bundle
        self.classical = ClassicalConnection(bundle) if bundle.is_coprime() else None

    def connection_coords(self, index: int) -> tuple:
        """Connection form in partial-form coordinates: -dv/v."""
        ring = self.charts[index].ring
        return (ring.zero, -ring.one)

    def connection_form(self, index: int) -> CoverOneForm:
        return -self.charts[index].generators1[1]

    def leibniz_check(self, seed: int = 0, samples: int = 200) -> dict:
        """nabla(lambda/v) = (dlambda - lambda dv/v)/v, decided at lambda = 1.

        The left side v*d(lambda/v) is computed in the cover algebra with no
        reference to the connection formula.  Given the product rule of d,
        v*d(lambda/v) = dlambda + lambda*v*d(1/v), so the residual
        R(lambda) = v*d(lambda/v) - (dlambda + lambda*omega) equals
        lambda*R(1): it is A-linear, and R(1) = 0 in the ambient one-forms is
        an exact certificate for every section.  R = 0 also shows the result
        stays partial, since the formula side lies in the partial forms by
        construction.  When n is invertible the coordinates are matched
        against the classical form du/(n*u) by the A-linear identity of
        ``_classical_identity``, decided once.

        ``samples`` random sections guard the product rule the certificate
        rests on.  All are drawn, and ``"samples"`` counts the draws, but
        each distinct section costs one reduction of R(lambda): a repeat,
        of lambda = 1 or of an earlier draw, is not evaluated again.  A
        section is decided in block coordinates by ``DirectSum.equal``: the
        weight-0 part of the left side is compared with the weight-0 vector
        of the formula on the generators dt and dv/v, every other part is
        tested for zero in its block, no one-form is built for the formula
        side, and no difference of the two sides is formed.  Membership is
        solved only to diagnose a failure.  A chart whose formula fails also
        carries ``"failures"``, the section it failed at, as ``dga_check``
        reports its laws.
        """
        rng = random.Random(seed)
        classical = self.classical
        charts = []
        for i, pfc in enumerate(self.charts):
            with pfc.ring.guarding():
                ring = pfc.ring
                v_inv = pfc.chart.v_inv()
                omega = self.connection_coords(i)
                gens = pfc.sub1.gens

                def sides(lam):
                    lhs = d_function_times_v(pfc.chart, v_inv.scale(lam))
                    formula = (ring.derive(lam) + lam * omega[0], lam * omega[1])
                    return lhs, gens.apply_vec(formula)

                failing = _law(
                    lambda lhs, formula: pfc.omega1_ambient.equal(lhs.parts(), {0: formula}),
                    sides,
                    [(ring.one,)],
                    lambda: (ring.random_element(rng, max_deg=3, max_den=1),),
                    samples,
                )
                matches = failing is None
                stays = matches or pfc.coords1(sides(*failing)[0]) is not None
                agrees = _classical_identity(pfc, classical.eta[i]) if classical else None
                report = {
                    "chart": i,
                    "samples": samples,
                    "stays_partial": stays,
                    "matches_formula": matches,
                    "matches_classical": agrees,
                    "passed": stays and matches and agrees is not False,
                }
                if failing is not None:
                    report["failures"] = {"matches_formula": {"arguments": [str(failing[0])]}}
                charts.append(report)
        return {"charts": charts, "passed": all(c["passed"] for c in charts)}

    def flatness_check(self) -> dict:
        """Curvature d(omega) + omega^omega vanishes, chart by chart."""
        charts = []
        for i, pfc in enumerate(self.charts):
            d_part = pfc.sub2.presentation.is_zero_elem(pfc.d1(self.connection_coords(i)))
            form = self.connection_form(i)
            wedge_part = pfc.omega2_ambient.is_zero(
                two_form_parts(wedge_one_one(form, form))
            )
            charts.append(
                {
                    "chart": i,
                    "d_omega_zero": d_part,
                    "omega_wedge_omega_zero": wedge_part,
                    "passed": d_part and wedge_part,
                }
            )
        return {"charts": charts, "passed": all(c["passed"] for c in charts)}

    def cocycle_check(self) -> dict:
        """omega_j - omega_i = -dlog(g_ij) dt exactly on every overlap.

        Since omega = -dv/v and transport is linear, this is the negated
        Atiyah identity for dv/v, and holds exactly when that one does.
        """
        atiyah = atiyah_cocycle_check(self.cover)
        overlaps = [
            {
                "overlap": o["overlap"],
                "identity": "omega_j - omega_i = -dlog(g) dt",
                "passed": o["passed"],
            }
            for o in atiyah["overlaps"]
        ]
        return {"overlaps": overlaps, "passed": atiyah["passed"]}

    def report(self, seed: int = 0, samples: int = 200) -> dict:
        leibniz = self.leibniz_check(seed=seed, samples=samples)
        flatness = self.flatness_check()
        cocycle = self.cocycle_check()
        return {
            "leibniz": leibniz,
            "flatness": flatness,
            "cocycle": cocycle,
            "passed": leibniz["passed"] and flatness["passed"] and cocycle["passed"],
        }


def d_function_times_v(chart, elem) -> CoverOneForm:
    """v * d(elem), the cover differential rescaled back into the v-frame."""
    return d_function(elem).scale(chart.v)


def _classical_identity(pfc: PartialFormsChart, eta: RingElem) -> bool:
    """(lambda', -lambda) = (lambda' - lambda*eta, 0) in Omega1_L for every lambda.

    The difference is lambda*(eta, -1), A-linear in lambda with no assumption
    on the code, so lambda = 1 decides it.
    """
    return pfc.sub1.presentation.is_zero_elem((eta, -pfc.ring.one))


class ClassicalConnection:
    """The averaged connection du/(n*u), defined only when n is invertible."""

    def __init__(self, bundle: TorsionBundle):
        p = bundle.scheme.field.p
        if not bundle.is_coprime():
            raise NotCoprime(
                f"order {bundle.n} is not invertible in characteristic {p}"
            )
        self.bundle = bundle
        n_inv = pow(bundle.n % p, -1, p)
        self.eta = tuple(w * w.ring.from_int(n_inv) for w in bundle.dlog_u)

    def delta_condition_check(self) -> dict:
        """dlog(g_ij) = eta_j - eta_i exactly on every overlap."""
        scheme = self.bundle.scheme
        overlaps = []
        for i, j in scheme.pairs():
            ovl = scheme.overlap(i, j)
            lhs = ovl.dlog(self.bundle.g[(i, j)])
            rhs = scheme.restrict(j, self.eta[j], i) - scheme.restrict(
                i, self.eta[i], j
            )
            overlaps.append(
                {
                    "overlap": [i, j],
                    "identity": "dlog(g) = eta_j - eta_i",
                    "passed": lhs == rhs,
                }
            )
        return {"overlaps": overlaps, "passed": all(o["passed"] for o in overlaps)}

    def curvature_check(self) -> dict:
        """d(eta dt) = 0 on every chart.

        Every two-form on a curve is zero, so d(eta dt) vanishes whatever eta
        is and every entry is True; the report keeps one entry per chart.
        """
        charts = [{"chart": i, "passed": True} for i in range(len(self.eta))]
        return {"charts": charts, "passed": True}

    def report(self) -> dict:
        delta = self.delta_condition_check()
        curvature = self.curvature_check()
        return {
            "eta": [str(e) for e in self.eta],
            "delta_condition": delta,
            "curvature": curvature,
            "passed": delta["passed"] and curvature["passed"],
        }


def coprime_degeneration_check(cover: Cover) -> dict:
    """When n is invertible the partial theory collapses onto the classical one.

    Three exact comparisons per chart: the partial one-forms coincide with the
    pulled-back base forms (membership both ways), the root form dv/v equals
    the pullback of du/(n*u), and the connection coordinates of every section
    agree across the two descriptions (an A-linear identity, decided at 1).
    """
    bundle = cover.bundle
    classical = ClassicalConnection(bundle)  # raises NotCoprime when p | n
    charts = []
    for i, pfc in enumerate(cover.partial_forms):
        eta = classical.eta[i]

        pullback_span = pfc.omega1_ambient.span([pfc.generators1[0].parts()], ["dt"])
        same_module, mismatch = pfc.sub1.equals(pullback_span)

        eta_form = pullback_one_form(pfc.chart, eta)
        root_identity = pfc.omega1_ambient.is_zero(
            (pfc.generators1[1] - eta_form).parts()
        )

        coords_agree = _classical_identity(pfc, eta)

        charts.append(
            {
                "chart": i,
                "partial_equals_pullback": same_module,
                "mismatch_witness": mismatch,
                "root_form_equals_classical": root_identity,
                "connection_coords_agree": coords_agree,
                "passed": same_module and root_identity and coords_agree,
            }
        )
    delta = classical.delta_condition_check()
    return {
        "charts": charts,
        "delta_condition": delta,
        "passed": all(c["passed"] for c in charts) and delta["passed"],
    }


def cech_class(cover: Cover) -> dict:
    """The obstruction cochain (g, dv/v) with its cocycle conditions checked."""
    charts = []
    for i, pfc in enumerate(cover.partial_forms):
        closed = pfc.sub2.presentation.is_zero_elem(pfc.d1((pfc.ring.zero, pfc.ring.one)))
        charts.append({"chart": i, "form": "dv/v", "closed": closed})
    delta = atiyah_cocycle_check(cover)
    return {
        "transitions": {
            f"({i},{j})": str(g) for (i, j), g in sorted(cover.bundle.g.items())
        },
        "charts": charts,
        "delta_condition": delta,
        "passed": delta["passed"] and all(c["closed"] for c in charts),
    }


def coboundary_class(cover: Cover, units: Sequence[RingElem]) -> dict:
    """The hypercochain (delta(units), dlog(units)) split by the given units."""
    scheme = cover.bundle.scheme
    units = scheme.per_chart(units)
    coords = [(u.ring.dlog(u), u.ring.zero) for u in units]
    return {"transitions": scheme.coboundary(units), "chart_coords": coords}


# -- the triviality decision


def is_trivial_class(cover: Cover, cochain: dict | None = None) -> dict:
    """Decide whether a units-to-forms hypercochain is an exact coboundary.

    The cochain defaults to the canonical class (g, dv/v) of the cover.  A
    coboundary means units lambda_alpha with eta_alpha = dlog(lambda) dt as
    partial-form classes and lambda_j / lambda_i equal to each transition.

    Nontrivial verdicts carry one of three exact obstructions: a nonzero
    value of the root-reading functional s (which kills every coboundary when
    s o sigma = 0, reported as ``s_kills_coboundaries``), a dt coefficient
    outside the mod-p lattice spanned by dlog of the inverted primes, or
    ``"transitions"``: either the transitions are not a cocycle (the details
    name an overlap (i, j) with g_ij != g_0j / g_0i, decided on the
    transitions lifted into the scheme-wide ring) or no integer exponent
    assignment satisfies them.  Every chart
    cochain that passes s lies in the image of the pullback sigma: a chart's
    only relation is (u', -n*u), so when p does not divide n every (a, b) is
    absorbed, and when p | n any b != 0 has a nonzero value of s.  Trivial
    verdicts re-verify the witness, built from chart 0 by
    lambda_j = lambda_0 * g_0j, against both identities.
    """
    scheme = cover.bundle.scheme
    n_charts = len(scheme.charts)
    p = scheme.field.p
    pfcs = cover.partial_forms
    if cochain is None:
        transitions = {pair: cover.bundle.g[pair] for pair in scheme.pairs()}
        coords = [(pfc.ring.zero, pfc.ring.one) for pfc in pfcs]
    else:
        given, given_coords = cochain["transitions"], cochain["chart_coords"]
        if (
            set(given) != set(scheme.pairs())
            or len(given_coords) != n_charts
            or any(len(c) != 2 for c in given_coords)
        ):
            raise MalformedInput(
                f"a cochain needs one transition per chart pair {scheme.pairs()} "
                f"and one coordinate pair per chart ({n_charts})"
            )
        transitions = {
            pair: scheme.overlap(*pair).coerce(t) for pair, t in given.items()
        }
        coords = [
            (pfc.ring.coerce(a), pfc.ring.coerce(b))
            for pfc, (a, b) in zip(pfcs, given_coords)
        ]

    s_kills = None

    def nontrivial(obstruction: str, details: dict) -> dict:
        return {
            "trivial": False,
            "obstruction": obstruction,
            "details": details,
            "witness": None,
            "s_kills_coboundaries": s_kills,
        }

    # The functional shortcut: when s o sigma = 0, s kills every coboundary,
    # so a nonzero value of s is a complete nontriviality certificate.
    for i, pfc in enumerate(pfcs):
        s_map = pfc.s1_map
        if not s_map.is_well_defined:
            continue
        s_kills = s_kills is not False and (s_map.matrix @ pfc.sigma1_map.matrix).is_zero()
        s_value = s_map.matrix.apply_vec(coords[i])[0]
        if not s_value.is_zero():
            return nontrivial("s-functional", {"chart": i, "s_value": str(s_value)})

    # Classical branch: absorb the root component through the pullback's
    # image, then solve for unit exponents in the mod-p dlog lattice.  Each
    # prime is named by its index in the scheme-wide ring, where the
    # transitions are lifted.
    whole = scheme.overlap(*range(n_charts))
    index = {pi.coeffs: k for k, pi in enumerate(whole.inverted)}
    primes = [[index[pi.coeffs] for pi in pfc.ring.inverted] for pfc in pfcs]
    unknowns = []
    equations = []
    for i, pfc in enumerate(pfcs):
        reduction = _absorb_root_component(pfc, coords[i])
        if reduction is None:
            raise TauCoverError(
                f"chart {i}: the cochain passed s but lies outside the image of "
                "the pullback sigma"
            )
        target, modulus = reduction
        keys = [(i, k) for k in primes[i]]
        unknowns.extend(keys)
        chart_rows = _lattice_rows(pfc.ring, keys, target, modulus)
        if _fp_solve(p, chart_rows, keys) is None:
            return nontrivial(
                "dlog-image",
                {
                    "chart": i,
                    "target": str(target),
                    "modulus": str(modulus) if modulus is not None else None,
                },
            )
        equations.extend(chart_rows)

    lifted = cover.bundle.lifted_g if cochain is None else scheme.lift(transitions)
    for (i, j), g in sorted(lifted.items()):
        # one row per prime of the overlap (i, j), in its order; each of
        # them is inverted by chart i or chart j, so no row is empty
        for k in dict.fromkeys(primes[i] + primes[j]):
            row = {(a, k): sign for a, sign in ((j, 1), (i, -1)) if k in primes[a]}
            equations.append((row, g.exps[k]))

    # Root every chart at chart 0: lambda_j = lambda_0 * g_0j.  Restriction
    # is injective, so g_ij = g_0j / g_0i holds exactly when the lifts match.
    roots = [whole.one] + [lifted[(0, j)] for j in range(1, n_charts)]
    for (i, j), g in sorted(lifted.items()):
        if g * roots[i] != roots[j]:
            return nontrivial(
                "transitions",
                {"overlap": [i, j], "reason": "the transitions are not a cocycle: "
                 "g_ij differs from g_0j / g_0i"},
            )

    solution = _fp_solve(p, equations, unknowns)
    if solution is None:
        return nontrivial(
            "transitions",
            {"reason": "chart lattices are individually solvable "
             "but no joint exponent assignment exists"},
        )

    # A chart not inverting a prime pins its exponent at 0, hence chart 0's
    # at minus the root offset; every such chart pins the same value, since
    # the cocycle identity makes their offsets agree.  With no pin, chart 0
    # takes the mod-p solution.
    units = []
    for j, pfc in enumerate(pfcs):
        exponents = []
        for k in primes[j]:
            pinned = next((a for a in range(n_charts) if k not in primes[a]), None)
            base = solution[(0, k)] if pinned is None else -roots[pinned].exps[k]
            m = base + roots[j].exps[k]
            if (m - solution[(j, k)]) % p != 0:
                raise TauCoverError("exponent assembly left the mod-p solution class")
            exponents.append(m)
        units.append(pfc.ring.exp_unit(roots[j].const, exponents))

    # Definitive re-verification of the witness against both identities.
    for i, pfc in enumerate(pfcs):
        stated = (pfc.ring.dlog(units[i]), pfc.ring.zero)
        if not pfc.sub1.presentation.elems_equal(coords[i], stated):
            raise TauCoverError("witness failed the dlog identity re-check")
    for pair, quotient in scheme.coboundary(units).items():
        if quotient != transitions[pair]:
            raise TauCoverError("witness failed the transition identity re-check")

    return {
        "trivial": True,
        "obstruction": None,
        "details": None,
        "witness": {"units": [str(u) for u in units]},
        "witness_verified": True,
        "s_kills_coboundaries": s_kills,
    }


def _absorb_root_component(pfc: PartialFormsChart, coords) -> tuple | None:
    """Rewrite (a, b) as (c, 0) modulo relations; None when impossible.

    (a, b) is absorbed exactly when it lies in the image of the pullback
    sigma, and c is its coordinate there, unique modulo the ideal I of the
    image's presentation A/I.  Returns (c, modulus) with modulus the monic
    generator of I: None for I = 0, and 1 when every dt coefficient is
    absorbed.
    """
    image = pfc.sigma1_map.image
    found = image.contains(coords)
    if found is None:
        return None
    quotient = image.presentation
    if quotient.rank:
        return found[0], None
    torsion = quotient.torsion
    return found[0], torsion[0] if torsion else Poly.one(pfc.ring.field)


def _lattice_rows(ring: ChartRing, keys: list, target: RingElem, modulus: Poly | None) -> list:
    """F_p equations for sum_j x_j dlog(pi_j) = target (mod modulus*A), the
    unknown x_j keyed by keys[j].

    Both sides are cleared to polynomials by a unit multiple, then matched
    coefficient by coefficient, each base-field coefficient split into its
    prime-field components.
    """
    if modulus is not None and modulus.is_one():
        return []
    primes = ring.inverted
    num, den = target.fraction()
    every = ring.one.core
    for pi in primes:
        every = every * pi
    # times den * every: dlog(pi_j) = pi_j'/pi_j becomes pi_j' * den * every/pi_j
    cleared = num * every
    columns = [pi.derivative() * den * (every // pi) for pi in primes]
    if modulus is not None:
        cleared = cleared.divmod(modulus)[1]
        columns = [c.divmod(modulus)[1] for c in columns]
        width = len(modulus.coeffs) - 1
    else:
        width = 1 + max(
            [len(cleared.coeffs) - 1] + [len(c.coeffs) - 1 for c in columns]
        )
    rows = []
    digits = ring.field.digits
    for pos in range(width):
        col_digits = [digits(c[pos]) for c in columns]
        for comp, rhs in enumerate(digits(cleared[pos])):
            row = {}
            for j in range(len(primes)):
                val = col_digits[j][comp]
                if val:
                    row[keys[j]] = val
            rows.append((row, rhs))
    return rows


def _fp_solve(p: int, equations: list, unknowns: list) -> dict | None:
    """One solution of a linear system over F_p, or None."""
    index = {u: k for k, u in enumerate(unknowns)}
    width = len(unknowns)
    rows = []
    for coeffs, rhs in equations:
        row = [0] * (width + 1)
        for key, val in coeffs.items():
            row[index[key]] = (row[index[key]] + val) % p
        row[width] = rhs % p
        rows.append(row)
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][width]:
            return None
    sol = {u: 0 for u in unknowns}
    for row_i, col in enumerate(pivots):
        sol[unknowns[col]] = rows[row_i][width]
    return sol
