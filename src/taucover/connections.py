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

import itertools
import math
import random
from collections import deque
from typing import Sequence

from .covers import Cover, TorsionBundle
from .errors import InvalidCocycle, NotCoprime, TauCoverError
from .fields import FqElem
from .forms import (
    ChartForm,
    CoverOneForm,
    d_function,
    dv_over_v,
    one_form_to_vec,
    pullback_one_form,
    two_form_to_vec,
    wedge_one_one,
)
from .partialforms import PartialFormsChart, atiyah_cocycle_check
from .pidmod import PolyMatrix, Submodule
from .polys import Poly
from .rings import ChartRing, RingElem, UnitLog


class TauConnection:
    """The canonical flat partial connection of a cyclic cover."""

    def __init__(self, cover: Cover):
        self.cover = cover
        self.charts = cover.partial_forms

    def connection_coords(self, index: int) -> tuple:
        """Connection form in partial-form coordinates: -dv/v."""
        ring = self.charts[index].ring
        return (ring.zero, -ring.one)

    def connection_form(self, index: int) -> CoverOneForm:
        return -dv_over_v(self.cover.charts[index])

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
        rests on, each costing one reduction of R(lambda); membership is
        solved only to diagnose a failure.
        """
        rng = random.Random(seed)
        bundle = self.cover.bundle
        coprime = math.gcd(bundle.n, bundle.scheme.field.p) == 1
        eta = ClassicalConnection(bundle).eta if coprime else None
        charts = []
        for i, pfc in enumerate(self.charts):
            ring = pfc.ring
            v_inv = pfc.chart.v_inv()
            omega = self.connection_coords(i)
            sections = itertools.chain(
                [ring.one],
                (ring.random_element(rng, max_deg=3, max_den=1) for _ in range(samples)),
            )
            for lam in sections:
                stays, matches = _leibniz_verdict(pfc, v_inv, omega, lam)
                if not (stays and matches):
                    break
            classical = _classical_identity(pfc, eta[i]) if coprime else None
            charts.append(
                {
                    "chart": i,
                    "samples": samples,
                    "stays_partial": stays,
                    "matches_formula": matches,
                    "matches_classical": classical,
                    "passed": stays and matches and classical is not False,
                }
            )
        return {"charts": charts, "passed": all(c["passed"] for c in charts)}

    def flatness_check(self) -> dict:
        """Curvature d(omega) + omega^omega vanishes, chart by chart."""
        charts = []
        for i, pfc in enumerate(self.charts):
            ring = pfc.ring
            d_part = pfc.presentation2.is_zero_elem(pfc.d1(self.connection_coords(i)))
            form = self.connection_form(i)
            wedge_part = pfc.omega2_ambient.is_zero_elem(
                two_form_to_vec(wedge_one_one(form, form))
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
    dsec = d_function(elem)
    return CoverOneForm(chart, dsec.ct * chart.v, dsec.cv * chart.v)


def _leibniz_verdict(pfc: PartialFormsChart, v_inv, omega, lam) -> tuple[bool, bool]:
    """(stays_partial, matches_formula) for the section lam/v.

    One reduction of the residual v*d(lam/v) - (dlam + lam*omega) in the
    ambient one-forms decides the formula.  When the two sides differ,
    membership of v*d(lam/v) in the partial forms is solved to say whether
    it stays partial.
    """
    ring = pfc.ring
    vec = one_form_to_vec(d_function_times_v(pfc.chart, v_inv.scale(lam)))
    formula = pfc.sub1.ambient_vec(
        (ring.derive(lam) + lam * omega[0], lam * omega[1])
    )
    if pfc.omega1_ambient.elems_equal(vec, formula):
        return True, True
    return pfc.sub1.contains(vec) is not None, False


def _classical_identity(pfc: PartialFormsChart, eta: RingElem) -> bool:
    """(lambda', -lambda) = (lambda' - lambda*eta, 0) in Omega1_L for every lambda.

    The difference is lambda*(eta, -1), A-linear in lambda with no assumption
    on the code, so lambda = 1 decides it.
    """
    return pfc.presentation1.is_zero_elem((eta, -pfc.ring.one))


class ClassicalConnection:
    """The averaged connection du/(n*u), defined only when n is invertible."""

    def __init__(self, bundle: TorsionBundle):
        p = bundle.scheme.field.p
        if math.gcd(bundle.n, p) != 1:
            raise NotCoprime(
                f"order {bundle.n} is not invertible in characteristic {p}"
            )
        self.bundle = bundle
        n_inv = pow(bundle.n % p, -1, p)
        self.eta = tuple(
            chart.dlog(u) * n_inv
            for chart, u in zip(bundle.scheme.charts, bundle.u)
        )

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
        """d(eta dt) lands in the vanishing module of base two-forms."""
        charts = []
        for i, (chart, eta) in enumerate(zip(self.bundle.scheme.charts, self.eta)):
            two = ChartForm(chart, 1, eta).d()
            charts.append({"chart": i, "passed": two.coeff.is_zero()})
        return {"charts": charts, "passed": all(c["passed"] for c in charts)}

    def report(self) -> dict:
        delta = self.delta_condition_check()
        curvature = self.curvature_check()
        return {
            "eta": [str(e) for e in self.eta],
            "delta_condition": delta,
            "curvature": curvature,
            "passed": delta["passed"] and curvature["passed"],
        }


def classical_connection(bundle: TorsionBundle) -> ClassicalConnection:
    return ClassicalConnection(bundle)


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
        ring, chart = pfc.ring, pfc.chart
        eta = classical.eta[i]

        pullback_span = Submodule(
            pfc.omega1_ambient,
            PolyMatrix.from_columns(ring, [pfc.sub1.gens.col(0)], 2 * chart.n),
            ["dt"],
        )
        same_module, mismatch = pfc.sub1.equals(pullback_span)

        eta_vec = one_form_to_vec(pullback_one_form(chart, ChartForm(ring, 1, eta)))
        root_identity = pfc.omega1_ambient.elems_equal(
            pfc.sub1.gens.col(1), eta_vec
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
        closed = pfc.presentation2.is_zero_elem(pfc.d1((pfc.ring.zero, pfc.ring.one)))
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
    units = [scheme.charts[i].coerce(u) for i, u in enumerate(units)]
    transitions = {}
    for i, j in scheme.pairs():
        ui = scheme.restrict(i, units[i], j)
        uj = scheme.restrict(j, units[j], i)
        transitions[(i, j)] = uj * ui.inv()
    coords = [
        (scheme.charts[i].dlog(u), scheme.charts[i].zero)
        for i, u in enumerate(units)
    ]
    return {"transitions": transitions, "chart_coords": coords}


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
    transition exponents that no integer assignment satisfies.  Every chart
    cochain that passes s lies in the image of the pullback sigma: a chart's
    only relation is (u', -n*u), so when p does not divide n every (a, b) is
    absorbed, and when p | n any b != 0 has a nonzero value of s.  Trivial
    verdicts re-verify the witness against both identities.
    """
    scheme = cover.bundle.scheme
    n_charts = len(scheme.charts)
    pfcs = cover.partial_forms
    if cochain is None:
        transitions = {pair: cover.bundle.g[pair] for pair in scheme.pairs()}
        coords = [(pfc.ring.zero, pfc.ring.one) for pfc in pfcs]
    else:
        transitions = {
            pair: scheme.overlap(*pair).coerce(t)
            for pair, t in cochain["transitions"].items()
        }
        coords = [
            (pfc.ring.coerce(a), pfc.ring.coerce(b))
            for pfc, (a, b) in zip(pfcs, cochain["chart_coords"])
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
        s_kills = s_kills is not False and s_map.after(pfc.sigma1_map).matrix.is_zero()
        s_value = s_map.apply(coords[i])[0]
        if not s_value.is_zero():
            return nontrivial("s-functional", {"chart": i, "s_value": str(s_value)})

    # Classical branch: absorb the root component through the pullback's
    # image, then solve for unit exponents in the mod-p dlog lattice.
    unknowns = []
    equations = []
    chart_primes = []
    for i, pfc in enumerate(pfcs):
        reduction = _absorb_root_component(pfc, coords[i])
        if reduction is None:
            raise TauCoverError(
                f"chart {i}: the cochain passed s but lies outside the image of "
                "the pullback sigma"
            )
        target, modulus = reduction
        names = [str(pi) for pi in pfc.ring.inverted]
        chart_primes.append(names)
        for name in names:
            unknowns.append((i, name))
        chart_rows = _lattice_rows(pfc.ring, i, target, modulus)
        if _fp_solve(scheme.field.p, chart_rows, [(i, nm) for nm in names]) is None:
            return nontrivial(
                "dlog-image",
                {
                    "chart": i,
                    "target": str(target),
                    "modulus": str(modulus) if modulus is not None else None,
                },
            )
        equations.extend(chart_rows)

    overlap_exponents = {}
    overlap_constants = {}
    for pair, t in sorted(transitions.items()):
        ovl = scheme.overlap(*pair)
        log = ovl.unit_log(t)
        exps = {str(pi): e for pi, e in zip(ovl.inverted, log.exponents)}
        overlap_exponents[pair] = exps
        overlap_constants[pair] = log.constant
        i, j = pair
        for name, e in exps.items():
            row = {}
            if name in chart_primes[j]:
                row[(j, name)] = 1
            if name in chart_primes[i]:
                row[(i, name)] = row.get((i, name), 0) - 1
            if not row:
                if e != 0:
                    return nontrivial(
                        "transitions",
                        {
                            "overlap": list(pair),
                            "prime": name,
                            "reason": "transition carries a prime inverted "
                            "on neither chart",
                        },
                    )
                continue
            equations.append((row, e))

    solution = _fp_solve(scheme.field.p, equations, unknowns)
    if solution is None:
        return nontrivial(
            "transitions",
            {"reason": "chart lattices are individually solvable "
             "but no joint exponent assignment exists"},
        )

    exponents = _assemble_exponents(
        n_charts, chart_primes, solution, overlap_exponents, scheme.field.p
    )
    if isinstance(exponents, dict) and exponents.get("obstructed"):
        return nontrivial("transitions", exponents["details"])
    constants = _assemble_constants(scheme, overlap_constants)

    units = []
    for i, pfc in enumerate(pfcs):
        ring = pfc.ring
        exps = tuple(exponents.get((i, nm), 0) for nm in chart_primes[i])
        units.append(ring.exp_unit(UnitLog(ring, constants[i], exps)))

    # Definitive re-verification of the witness against both identities.
    for i, pfc in enumerate(pfcs):
        stated = (pfc.ring.dlog(units[i]), pfc.ring.zero)
        if not pfc.presentation1.elems_equal(coords[i], stated):
            raise TauCoverError("witness failed the dlog identity re-check")
    for (i, j), t in transitions.items():
        li = scheme.restrict(i, units[i], j)
        lj = scheme.restrict(j, units[j], i)
        if not lj * li.inv() == t:
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


def _lattice_rows(
    ring: ChartRing, chart_key: int, target: RingElem, modulus: Poly | None
) -> list:
    """F_p equations for sum_j x_j dlog(pi_j) = target (mod modulus*A).

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
        col_digits = [digits(c[pos].code) for c in columns]
        for comp, rhs in enumerate(digits(cleared[pos].code)):
            row = {}
            for j in range(len(primes)):
                val = col_digits[j][comp]
                if val:
                    row[(chart_key, str(primes[j]))] = val
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


def _assemble_exponents(
    n_charts: int,
    chart_primes: list,
    solution: dict,
    overlap_exponents: dict,
    p: int,
) -> dict:
    """Integer exponents per (chart, prime) satisfying the exact constraints.

    Per prime: overlap equations fix exponent differences exactly, a chart
    not inverting the prime is pinned at zero, and charts inverting it must
    stay congruent to the mod-p lattice solution.  Differences are resolved
    over a spanning tree; cycle and pin conflicts are reported.
    """
    all_names = sorted({nm for names in chart_primes for nm in names})
    values = {}
    for name in all_names:
        holders = {i for i in range(n_charts) if name in chart_primes[i]}
        adjacency = {}
        for (i, j), exps in overlap_exponents.items():
            e = exps.get(name, 0)
            if i not in holders and j not in holders:
                continue
            adjacency.setdefault(i, []).append((j, e))
            adjacency.setdefault(j, []).append((i, -e))
        nodes = set(adjacency) | holders
        seen = {}
        for start in sorted(nodes):
            if start in seen:
                continue
            offsets = {start: 0}
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for nb, delta in adjacency.get(cur, []):
                    want = offsets[cur] + delta
                    if nb in offsets:
                        if offsets[nb] != want:
                            raise InvalidCocycle(
                                "transition exponents do not form a strict cocycle"
                            )
                        continue
                    offsets[nb] = want
                    queue.append(nb)
            pinned = sorted(a for a in offsets if a not in holders)
            bases = {-offsets[a] for a in pinned}
            if len(bases) > 1:
                return {
                    "obstructed": True,
                    "details": {
                        "prime": name,
                        "reason": "charts without this prime pin incompatible exponents",
                    },
                }
            if bases:
                base = bases.pop()
            else:
                anchor = min(a for a in offsets if a in holders)
                base = solution[(anchor, name)] - offsets[anchor]
            for a, off in offsets.items():
                m = off + base
                if a in holders:
                    if (m - solution[(a, name)]) % p != 0:
                        raise TauCoverError(
                            "exponent assembly left the mod-p solution class"
                        )
                    values[(a, name)] = m
                elif m != 0:
                    return {
                        "obstructed": True,
                        "details": {
                            "prime": name,
                            "chart": a,
                            "reason": "a chart that cannot invert this prime "
                            "would need a nonzero exponent",
                        },
                    }
            seen.update(offsets)
    return values


def _assemble_constants(scheme, overlap_constants: dict) -> list:
    """Base-field constants per chart with fixed ratios across overlaps."""
    field = scheme.field
    consts: list[FqElem | None] = [None] * len(scheme.charts)
    adjacency = {}
    for (i, j), c in overlap_constants.items():
        adjacency.setdefault(i, []).append((j, c))
        adjacency.setdefault(j, []).append((i, c.inv()))
    for start in range(len(scheme.charts)):
        if consts[start] is not None:
            continue
        consts[start] = field.one
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nb, ratio in adjacency.get(cur, []):
                want = consts[cur] * ratio
                if consts[nb] is None:
                    consts[nb] = want
                    queue.append(nb)
                elif consts[nb] != want:
                    raise InvalidCocycle(
                        "transition constants do not form a strict cocycle"
                    )
    return consts
