"""Partial-form subsheaves of a cyclic cover and their exactness certificates.

On each chart of the cover Y = Spec A[v]/(v^n - u), the partial one-forms are
the A-submodule of pushed-forward Kähler one-forms generated by the base form
dt and the logarithmic root form dv/v; in degree two the generator is their
wedge dv/v ^ dt.  These submodules carry syzygy presentations, so every claim
about them (exact sequences, well-definedness of the residue-style functional
s, stability under the derivative) is computed, with witnesses on failure.
``omega_l_report`` reads their invariants in degree one or two.

Per chart and degree there is a four-term comparison sequence.  In degree one,

    0 -> O_X --(mult by du/u)--> Omega1_X --pullback--> Omega1_L --s--> O_X -> 0

with s reading the dv/v coordinate.  In degree two the pullback source is the
vanishing module of base two-forms and the tail is either the literal Omega1_X
or its quotient by A*(du/u) (the corrected tail).  Failures are reported per
junction, never raised: an ill-defined s marks its junctions with the
certificate witness.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Sequence

from .covers import Cover, TorsionBundle
from .errors import MalformedInput, StabilityFailure
from .exprparse import _power, _term
from .forms import (
    CoverOneForm,
    d_function,
    d_one_form,
    dv_over_v,
    one_forms_module,
    pullback_one_form,
    rescale_root,
    transport_one_form,
    two_form_parts,
    two_forms_module,
    wedge_one_one,
)
from .pidmod import FpmModule, ModuleMap, PolyMatrix, is_exact

# Random sections the Leibniz guard draws by default; each DGA law draws a tenth.
DEFAULT_SAMPLES = 200


class PartialFormsChart:
    """Partial forms of one cover chart, with presentations and operators.

    Take these from ``cover.partial_forms``, which builds one per chart, once.
    The tail module and the sequence maps are cached properties, so each map's
    kernel, image and well-definedness certificate is computed once per cover.
    No reference to the cover is kept, so the cover that owns its charts is
    freed by reference counting alone.
    """

    def __init__(self, cover: Cover, index: int):
        self.index = index
        self.chart = cover.charts[index]
        self.ring = self.chart.ring
        ring, chart = self.ring, self.chart

        self.omega1_ambient = one_forms_module(chart)
        self.omega2_ambient = two_forms_module(chart)

        dt = pullback_one_form(chart, ring.one)
        root_form = dv_over_v(chart)
        self.generators1 = (dt, root_form)
        # dv/v's coordinates on the generators dt, dv/v
        self.root_coords = (ring.zero, ring.one)
        self.sub1 = self.omega1_ambient.span(
            [form.parts() for form in self.generators1], ["dt", "dv/v"]
        )
        self.sub2 = self.omega2_ambient.span(
            [two_form_parts(wedge_one_one(root_form, dt))], ["dv/v^dt"]
        )

        self.omega_coeff = cover.bundle.dlog_u[index]
        self.base_functions = FpmModule.free(ring, 1, ["1"])
        self.base_one_forms = FpmModule.free(ring, 1, ["dt"])
        self.base_two_forms = FpmModule.zero(ring)

    # -- presented modules

    @cached_property
    def corrected_tail(self) -> FpmModule:
        """Omega1_X / A*(du/u), the target of the corrected degree-2 tail map."""
        return FpmModule(self.mul_omega_map.matrix, ["dt"])

    # -- the sequence maps

    @cached_property
    def mul_omega_map(self) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.base_functions,
            self.base_one_forms,
            PolyMatrix(ring, [[self.omega_coeff]]),
        )

    @cached_property
    def sigma1_map(self) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.base_one_forms,
            self.sub1.presentation,
            PolyMatrix(ring, [[ring.one], [ring.zero]]),
        )

    @cached_property
    def s1_map(self) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.sub1.presentation,
            self.base_functions,
            PolyMatrix(ring, [[ring.zero, ring.one]]),
        )

    @cached_property
    def sigma2_map(self) -> ModuleMap:
        return ModuleMap.zero(self.base_two_forms, self.sub2.presentation)

    def _s2_map(self, target: FpmModule) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.sub2.presentation,
            target,
            PolyMatrix(ring, [[ring.one]]),
        )

    @cached_property
    def s2_literal_map(self) -> ModuleMap:
        """s in degree two into the literal tail Omega1_X."""
        return self._s2_map(self.base_one_forms)

    @cached_property
    def s2_corrected_map(self) -> ModuleMap:
        """s in degree two into the corrected tail Omega1_X / A*(du/u)."""
        return self._s2_map(self.corrected_tail)

    # -- between presentation coordinates and explicit forms

    def lift1(self, coords: Sequence) -> CoverOneForm:
        part = self.sub1.gens.apply_vec(coords)
        return CoverOneForm.from_parts(self.chart, {0: part})

    def coords1(self, form: CoverOneForm):
        """Coordinates of a one-form on dt, dv/v, or None when it is not partial."""
        return self.omega1_ambient.coords(self.sub1, form.parts())

    # -- the relative derivative

    def d0(self, f) -> tuple:
        """d of a base function, as coordinates (df/dt, 0) in Omega1_L."""
        return (self.ring.derive(f), self.ring.zero)

    def d1(self, coords: Sequence) -> tuple:
        """d of a partial one-form, as a coordinate in Omega2_L.

        Lifts to the ambient representative, differentiates, and certifies
        membership of the result back in the degree-two submodule.
        """
        two = d_one_form(self.lift1(coords))
        found = self.omega2_ambient.coords(self.sub2, two_form_parts(two))
        if found is None:
            raise StabilityFailure(
                f"d of {self.sub1.presentation.format_vec(coords)} left the "
                f"partial two-forms: ({two})*dt^dv"
            )
        return found

    def invariants(self) -> dict:
        pres = self.sub1.presentation
        chart = self.chart
        zero, n = chart.zero, chart.n
        dv_multiples = (
            ("dv", j, CoverOneForm(chart, zero, chart.gen_power(j))) for j in range(n)
        )
        dt_multiples = (  # past dt itself
            ("dt", j, CoverOneForm(chart, chart.gen_power(j), zero)) for j in range(1, n)
        )
        witness = next(
            (
                _term(_power("v", j) or "1", suffix)
                for suffix, j, form in itertools.chain(dv_multiples, dt_multiples)
                if not self.omega1_ambient.is_zero(form.parts())
                and self.coords1(form) is None
            ),
            None,
        )
        return {
            "chart": self.index,
            "rank": pres.rank,
            "torsion": [str(c) for c in pres.torsion],
            "ambient_rank": self.omega1_ambient.rank,
            "ambient_torsion": [str(c) for c in self.omega1_ambient.torsion],
            "degree2_rank": self.sub2.presentation.rank,
            "degree2_torsion": [str(c) for c in self.sub2.presentation.torsion],
            "strict_witness": witness,
        }


def verify_sequence(cover: Cover, degree: int, corrected: bool = False) -> dict:
    """Junction-by-junction exactness of the comparison sequence, per chart:
    0 -> maps -> 0, the chain closed by a zero map at each end."""
    if degree not in (1, 2):
        raise ValueError("comparison sequences exist in degrees 1 and 2")
    charts = []
    for i, pfc in enumerate(cover.partial_forms):
        if degree == 1:
            maps = [pfc.mul_omega_map, pfc.sigma1_map, pfc.s1_map]
            labels = ["O_X", "Omega1_X", "Omega1_L", "O_X"]
        else:
            s2 = pfc.s2_corrected_map if corrected else pfc.s2_literal_map
            maps = [pfc.sigma2_map, s2]
            labels = ["Omega2_X", "Omega2_L", "tail"]
        end = FpmModule.zero(pfc.ring)
        chain = [ModuleMap.zero(end, maps[0].source), *maps, ModuleMap.zero(maps[-1].target, end)]
        charts.append({"chart": i, **is_exact(chain, labels)})
    return {
        "degree": degree,
        "corrected": corrected,
        "exact": all(c["exact"] for c in charts),
        "charts": charts,
    }


def omega_l_report(cover: Cover, degree: int) -> dict:
    """Presentation invariants of the partial forms in degree 1 or 2, per chart."""
    if degree not in (1, 2):
        raise MalformedInput("only form degrees 1 and 2 are supported")
    if degree == 1:
        charts = [pfc.invariants() for pfc in cover.partial_forms]
        strict = all(c["strict_witness"] is not None for c in charts)
        return {"degree": 1, "charts": charts, "strict_everywhere": strict, "passed": strict}
    charts = [
        {
            "chart": pfc.index,
            "rank": pfc.sub2.presentation.rank,
            "torsion": [str(c) for c in pfc.sub2.presentation.torsion],
        }
        for pfc in cover.partial_forms
    ]
    return {"degree": 2, "charts": charts, "passed": True}


def dga_check(cover: Cover, seed: int = 0, samples: int = DEFAULT_SAMPLES // 10) -> dict:
    """Differential-graded structure, decided on generators chart by chart.

    Laws checked as ambient classes: the pullback intertwines d; d squares to
    zero; d satisfies the Leibniz rule against base functions; and, when the
    functional s is well-defined, s anticommutes with d both on explicit
    representatives and in the corrected quotient.

    Given the product rule of d on cover functions (pinned by the tier-1
    tests) and d(c dx) = dc^dx on one-forms (how ``d_one_form`` is built),
    each law's defect is A-linear after cancellation, or a derivation, so it
    vanishes everywhere iff it vanishes on generators:

    - pullback: the defect at f depends on f only through f' and is A-linear
      in it, so f = t (f' = 1) decides it;
    - d o d is a derivation of the cover algebra B into the two-forms: with
      the antisymmetry of the wedge, d(d(xy)) = d(x dy + y dx)
      = x d(dy) + y d(dx).  A derivation that vanishes on t vanishes on
      F_q[t] and on each 1/pi, and B is generated over A by v, so t and v
      decide it (Matsumura, Commutative Ring Theory, section 25); on base
      forms d(f' dt) = f' d(dt), decided at f = t;
    - the Leibniz defect is A-linear in the partial form and a derivation in
      f, so f = t against dt and dv/v decides it;
    - d(b dv/v) - db^dv/v = b d(dv/v), decided at b = 1, and s(d(a dt +
      b dv/v)) + b' = a s(d dt) + b s(d dv/v), decided at dt and dv/v.

    ``samples`` random sections per law then guard those code properties.
    Every section is drawn, but each distinct section costs one reduction
    (a repeat is not evaluated again); in the corrected tail it is the
    membership solve that reads the s-coordinate of d.

    A chart with a failed law also carries ``"failures"``: for each failed
    law, the first arguments it failed at, and for d o d whether the cover
    or the base one broke (``"on"``).
    """
    rng = random.Random(seed)
    charts = []
    for i, pfc in enumerate(cover.partial_forms):
        with pfc.ring.guarding():
            ring = pfc.ring
            chart = pfc.chart
            amb1, amb2 = pfc.omega1_ambient, pfc.omega2_ambient
            zero, one = ring.zero, ring.one

            def base_element():
                return ring.random_element(rng, max_deg=2, max_den=1)

            # both sides of each law are compared block by block, as the
            # Leibniz guard of ``connections`` compares its sides, so no
            # difference of cover forms is formed
            def equal1(form, other):
                return amb1.equal(form.parts(), other.parts())

            def equal2(c, other):
                return amb2.equal(two_form_parts(c), two_form_parts(other))

            def intertwines(f):
                lhs = pullback_one_form(chart, ring.derive(f))
                return lhs, pfc.lift1(pfc.d0(f))

            def d_squared_cover(g):
                return d_one_form(d_function(g)), chart.zero

            def d_squared_base(f):
                return d_one_form(pfc.lift1(pfc.d0(f))), chart.zero

            def leibniz(f, a, b):
                x = pfc.lift1((a, b))
                lhs = d_one_form(pfc.lift1((f * a, f * b)))
                rhs = wedge_one_one(
                    pullback_one_form(chart, ring.derive(f)), x
                ) + d_one_form(x).scale(f)
                return lhs, rhs

            # the first failing arguments of each law, or None; d o d is decided
            # on the cover, then, when that passes, on the base
            failing = {
                "pullback_intertwines_d": _law(
                    equal1, intertwines, [(ring.t,)], lambda: (base_element(),), samples
                ),
            }
            d_squared_on = "cover"
            failing["d_squared_zero"] = _law(
                equal2, d_squared_cover,
                [(chart.from_ring(ring.t),), (chart.v,)],
                lambda: (chart.random_element(rng, max_deg=2),), samples,
            )
            if failing["d_squared_zero"] is None:
                d_squared_on = "base"
                failing["d_squared_zero"] = _law(
                    equal2, d_squared_base, [(ring.t,)], lambda: (base_element(),), samples
                )
            failing["leibniz"] = _law(
                equal2, leibniz, [(ring.t, one, zero), (ring.t, zero, one)],
                lambda: (base_element(), base_element(), base_element()), samples,
            )

            s_defined = pfc.s1_map.is_well_defined
            if s_defined:

                def anticommutes(b):
                    lhs = d_one_form(pfc.lift1((zero, b)))
                    rhs = wedge_one_one(
                        pfc.generators1[1],
                        pullback_one_form(chart, -ring.derive(b)),
                    )
                    return lhs, rhs

                def anticommutes_corrected(a, b):
                    # s2 sends the generator dv/v^dt to dt
                    return pfc.d1((a, b))[0], -ring.derive(b)

                failing["s_anticommutes_representatives"] = _law(
                    equal2, anticommutes, [(one,)], lambda: (base_element(),), samples
                )
                failing["s_anticommutes_corrected"] = _law(
                    lambda x, y: pfc.corrected_tail.elems_equal((x,), (y,)),
                    anticommutes_corrected,
                    [(one, zero), (zero, one)],
                    lambda: (base_element(), base_element()), samples,
                )
            laws = {name: args is None for name, args in failing.items()}
            if not s_defined:
                laws["s_anticommutes_representatives"] = None
                laws["s_anticommutes_corrected"] = None

            report = {
                "chart": i,
                "laws": laws,
                "s_well_defined": s_defined,
                "passed": all(v for v in laws.values() if v is not None),
            }
            failures = {
                name: {"arguments": [str(x) for x in args]}
                for name, args in failing.items()
                if args is not None
            }
            if "d_squared_zero" in failures:
                failures["d_squared_zero"]["on"] = d_squared_on
            if failures:
                report["failures"] = failures
            charts.append(report)
    return {"charts": charts, "passed": all(c["passed"] for c in charts)}


def _law(equal, sides, generators, draw, samples: int) -> tuple | None:
    """The first arguments at which ``equal(lhs, rhs)`` fails, or None.

    For a law whose defect is A-linear, or a derivation, the generator
    arguments decide it; ``samples`` arguments from ``draw``, drawn lazily,
    then guard the code properties that argument rests on.  A repeated
    argument is still drawn, so the laws that share a random stream see the
    same draws, but each distinct argument costs one reduction: ``sides``
    and ``equal`` are deterministic, so a repeat, of a generator or of an
    earlier draw, could only pass again.  A side that leaves the partial
    forms fails the law.
    """
    seen = set()
    for args in itertools.chain(generators, (draw() for _ in range(samples))):
        distinct = len(seen)
        seen.add(args)  # add, then compare sizes: one hash per argument
        if len(seen) == distinct:
            continue
        try:
            lhs, rhs = sides(*args)
            if not equal(lhs, rhs):
                return args
        except StabilityFailure:
            return args
    return None


def atiyah_cocycle_check(cover: Cover) -> dict:
    """dv_j/v_j - dv_i/v_i = dlog(g_ij) dt, exactly, on every overlap."""
    scheme = cover.bundle.scheme
    overlaps = []
    for (i, j) in scheme.pairs():
        target = cover.overlap_cover(i, j)
        ovl = scheme.overlap(i, j)
        moved = transport_one_form(cover, i, j, dv_over_v(cover.charts[i]))
        local = dv_over_v(target)
        delta = local - moved
        expected = CoverOneForm(
            target, target.from_ring(ovl.dlog(cover.bundle.g[(i, j)])), target.zero
        )
        overlaps.append(
            {
                "overlap": [i, j],
                "identity": "dv_j/v_j - dv_i/v_i = dlog(g) dt",
                "passed": delta == expected,
                "difference": str(delta),
            }
        )
    return {"overlaps": overlaps, "passed": all(o["passed"] for o in overlaps)}


def basis_independence_check(bundle: TorsionBundle, rescalings: Sequence) -> dict:
    """Rescale each trivialization by a unit n-th power and match structures.

    Replacing u by u*w^n (and g by g*w_j/w_i) moves the root by v' = w*v.
    The check maps each partial-form generator across and certifies double
    membership, and confirms the functional s takes the same values on the
    matched generators.
    """
    scheme = bundle.scheme
    n = bundle.n
    ws = scheme.per_chart(rescalings)
    new_u = [u * w**n for u, w in zip(bundle.u, ws)]
    delta = scheme.coboundary(ws)
    new_g = {pair: g * delta[pair] for pair, g in bundle.g.items()}
    new_bundle = TorsionBundle(scheme, n, new_g, new_u)
    old_charts = Cover(bundle).partial_forms
    new_charts = Cover(new_bundle).partial_forms
    charts = []
    for i, (old, new, w) in enumerate(zip(old_charts, new_charts, ws)):
        s_defined = old.s1_map.is_well_defined
        forward_ok = True
        s_match = True if s_defined else None
        for form_new, expected_s in zip(new.generators1, (old.ring.zero, old.ring.one)):
            mapped = rescale_root(old.chart, w, form_new)
            coords = old.coords1(mapped)
            if coords is None:
                forward_ok = False
                continue
            if not s_defined:
                continue
            s_val = old.s1_map.matrix.apply_vec(coords)[0]
            if not old.base_functions.elems_equal([s_val], [expected_s]):
                s_match = False
        backward_ok = True
        winv = w.inv()
        for form_old in old.generators1:
            mapped = rescale_root(new.chart, winv, form_old)
            if new.coords1(mapped) is None:
                backward_ok = False
        charts.append(
            {
                "chart": i,
                "forward_membership": forward_ok,
                "backward_membership": backward_ok,
                "s_values_match": s_match,
                "passed": forward_ok and backward_ok and s_match is not False,
            }
        )
    return {
        "charts": charts,
        "rescaled_bundle": new_bundle.to_json(),
        "passed": all(c["passed"] for c in charts),
    }
