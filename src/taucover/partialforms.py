"""Partial-form subsheaves of a cyclic cover and their exactness certificates.

On each chart of the cover Y = Spec A[v]/(v^n - u), the partial one-forms are
the A-submodule of pushed-forward Kähler one-forms generated by the base form
dt and the logarithmic root form dv/v; in degree two the generator is their
wedge dv/v ^ dt.  These submodules carry syzygy presentations, so every claim
about them (exact sequences, well-definedness of the residue-style functional
s, stability under the derivative) is computed, with witnesses on failure.

Per chart and degree there is a four-term comparison sequence.  In degree one,

    0 -> O_X --(mult by du/u)--> Omega1_X --pullback--> Omega1_L --s--> O_X -> 0

with s reading the dv/v coordinate.  In degree two the pullback source is the
vanishing module of base two-forms and the tail is either the literal Omega1_X
or its quotient by A*(du/u) (the corrected tail).  Failures are reported per
junction, never raised: an ill-defined s marks its junctions with the
certificate witness.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Sequence

from .covers import Cover, CoverChart, CoverElem, TorsionBundle
from .errors import StabilityFailure
from .forms import (
    ChartForm,
    CoverOneForm,
    chart_d,
    d_function,
    d_one_form,
    dv_over_v,
    one_form_to_vec,
    one_forms_module,
    pullback_one_form,
    transport_one_form,
    two_form_to_vec,
    two_forms_module,
    vec_to_one_form,
    wedge_one_one,
)
from .pidmod import FpmModule, ModuleMap, PolyMatrix, Submodule, is_exact
from .rings import RingElem


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

        root_form = dv_over_v(chart)
        gens1 = PolyMatrix.from_columns(
            ring,
            [
                one_form_to_vec(pullback_one_form(chart, _dt(ring))),
                one_form_to_vec(root_form),
            ],
            2 * chart.n,
        )
        self.sub1 = Submodule(self.omega1_ambient, gens1, ["dt", "dv/v"])

        wedge_gen = wedge_one_one(root_form, pullback_one_form(chart, _dt(ring)))
        gens2 = PolyMatrix.from_columns(
            ring, [two_form_to_vec(wedge_gen)], chart.n
        )
        self.sub2 = Submodule(self.omega2_ambient, gens2, ["dv/v^dt"])

        self.omega_coeff = ring.dlog(cover.bundle.u[index])
        self.base_functions = FpmModule.free(ring, 1, ["1"])
        self.base_one_forms = FpmModule.free(ring, 1, ["dt"])
        self.base_two_forms = FpmModule.zero(ring)

    # -- presented modules

    @property
    def presentation1(self) -> FpmModule:
        return self.sub1.presentation

    @property
    def presentation2(self) -> FpmModule:
        return self.sub2.presentation

    @cached_property
    def corrected_tail(self) -> FpmModule:
        """Omega1_X / A*(du/u), the target of the corrected degree-2 tail map."""
        ring = self.ring
        return FpmModule(
            ring,
            1,
            PolyMatrix(ring, [[self.omega_coeff]], nrows=1, ncols=1),
            ["dt"],
        )

    # -- the sequence maps

    @cached_property
    def mul_omega_map(self) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.base_functions,
            self.base_one_forms,
            PolyMatrix(ring, [[self.omega_coeff]], nrows=1, ncols=1),
            "mult-du/u",
        )

    @cached_property
    def sigma1_map(self) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.base_one_forms,
            self.presentation1,
            PolyMatrix(ring, [[ring.one], [ring.zero]], nrows=2, ncols=1),
            "pullback",
        )

    @cached_property
    def s1_map(self) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.presentation1,
            self.base_functions,
            PolyMatrix(ring, [[ring.zero, ring.one]], nrows=1, ncols=2),
            "s",
        )

    @cached_property
    def sigma2_map(self) -> ModuleMap:
        return ModuleMap.zero(self.base_two_forms, self.presentation2, "pullback")

    def _s2_map(self, target: FpmModule) -> ModuleMap:
        ring = self.ring
        return ModuleMap(
            self.presentation2,
            target,
            PolyMatrix(ring, [[ring.one]], nrows=1, ncols=1),
            "s",
        )

    @cached_property
    def s2_literal_map(self) -> ModuleMap:
        """s in degree two into the literal tail Omega1_X."""
        return self._s2_map(self.base_one_forms)

    @cached_property
    def s2_corrected_map(self) -> ModuleMap:
        """s in degree two into the corrected tail Omega1_X / A*(du/u)."""
        return self._s2_map(self.corrected_tail)

    # -- lifting presentation coordinates to explicit forms

    def lift1(self, coords: Sequence) -> CoverOneForm:
        vec = self.sub1.ambient_vec(coords)
        return vec_to_one_form(self.chart, vec)

    # -- the relative derivative

    def d0(self, f) -> tuple:
        """d of a base function, as coordinates (df/dt, 0) in Omega1_L."""
        f = self.ring.coerce(f)
        return (self.ring.derive(f), self.ring.zero)

    def d1(self, coords: Sequence) -> tuple:
        """d of a partial one-form, as a coordinate in Omega2_L.

        Lifts to the ambient representative, differentiates, and certifies
        membership of the result back in the degree-two submodule.
        """
        two = d_one_form(self.lift1(coords))
        found = self.sub2.contains(two_form_to_vec(two))
        if found is None:
            raise StabilityFailure(
                f"d of {self.presentation1.format_vec(coords)} left the "
                f"partial two-forms: {two}"
            )
        return found

    def invariants(self) -> dict:
        pres = self.presentation1
        candidates = []
        n = self.chart.n
        names = self.omega1_ambient.gen_names
        for j in range(n):
            candidates.append(n + j)  # the dv block
        for j in range(1, n):
            candidates.append(j)  # higher dt multiples
        witness = None
        for idx in candidates:
            vec = self.omega1_ambient.gen_vec(idx)
            if self.omega1_ambient.is_zero_elem(vec):
                continue
            if self.sub1.contains(vec) is None:
                witness = names[idx]
                break
        return {
            "chart": self.index,
            "rank": pres.rank,
            "torsion": [str(c) for c in pres.torsion],
            "ambient_rank": self.omega1_ambient.rank,
            "ambient_torsion": [str(c) for c in self.omega1_ambient.torsion],
            "degree2_rank": self.presentation2.rank,
            "degree2_torsion": [str(c) for c in self.presentation2.torsion],
            "strict_witness": witness,
        }


def _dt(ring) -> ChartForm:
    return ChartForm(ring, 1, ring.one)


def degree1_report(pfc: PartialFormsChart) -> dict:
    zero = FpmModule.zero(pfc.ring)
    maps = [
        ModuleMap.zero(zero, pfc.base_functions, "0"),
        pfc.mul_omega_map,
        pfc.sigma1_map,
        pfc.s1_map,
        ModuleMap.zero(pfc.base_functions, zero, "0"),
    ]
    labels = ["O_X", "Omega1_X", "Omega1_L", "O_X"]
    return is_exact(maps, labels)


def degree2_report(pfc: PartialFormsChart, corrected: bool) -> dict:
    zero = FpmModule.zero(pfc.ring)
    s2 = pfc.s2_corrected_map if corrected else pfc.s2_literal_map
    maps = [
        ModuleMap.zero(zero, pfc.base_two_forms, "0"),
        pfc.sigma2_map,
        s2,
        ModuleMap.zero(s2.target, zero, "0"),
    ]
    labels = ["Omega2_X", "Omega2_L", "tail"]
    return is_exact(maps, labels)


def verify_sequence(cover: Cover, degree: int, corrected: bool = False) -> dict:
    """Junction-by-junction exactness of the comparison sequence, per chart."""
    if degree not in (1, 2):
        raise ValueError("comparison sequences exist in degrees 1 and 2")
    charts = []
    for i, pfc in enumerate(cover.partial_forms):
        if degree == 1:
            report = degree1_report(pfc)
        else:
            report = degree2_report(pfc, corrected)
        charts.append({"chart": i, **report})
    return {
        "degree": degree,
        "corrected": corrected,
        "exact": all(c["exact"] for c in charts),
        "charts": charts,
    }


def rank_torsion_report(cover: Cover) -> dict:
    """Invariants of the partial one-forms with a strict-inclusion witness."""
    charts = [pfc.invariants() for pfc in cover.partial_forms]
    return {
        "charts": charts,
        "strict_everywhere": all(c["strict_witness"] is not None for c in charts),
    }


def dga_check(cover: Cover, seed: int = 0, samples: int = 20) -> dict:
    """Differential-graded structure on random sections, chart by chart.

    Laws checked as ambient classes: the pullback intertwines d; d squares to
    zero; d satisfies the Leibniz rule against base functions; and, when the
    functional s is well-defined, s anticommutes with d both on explicit
    representatives and in the corrected quotient.
    """
    rng = random.Random(seed)
    charts = []
    for i, pfc in enumerate(cover.partial_forms):
        ring = pfc.ring
        chart = pfc.chart
        amb1, amb2 = pfc.omega1_ambient, pfc.omega2_ambient
        laws = {}

        ok = True
        for _ in range(samples):
            f = ring.random_element(rng, max_deg=2, max_den=1)
            lhs = pullback_one_form(chart, chart_d(ring, f))
            rhs = pfc.lift1(pfc.d0(f))
            if not amb1.elems_equal(one_form_to_vec(lhs), one_form_to_vec(rhs)):
                ok = False
                break
        laws["pullback_intertwines_d"] = ok

        ok = True
        for _ in range(samples):
            g = chart.random_element(rng, max_deg=2)
            if not amb2.is_zero_elem(two_form_to_vec(d_one_form(d_function(g)))):
                ok = False
                break
            f = ring.random_element(rng, max_deg=2, max_den=1)
            if not pfc.presentation2.is_zero_elem(pfc.d1(pfc.d0(f))):
                ok = False
                break
        laws["d_squared_zero"] = ok

        ok = True
        for _ in range(samples):
            f = ring.random_element(rng, max_deg=2, max_den=1)
            a = ring.random_element(rng, max_deg=2, max_den=1)
            b = ring.random_element(rng, max_deg=2, max_den=1)
            x = pfc.lift1((a, b))
            lhs = d_one_form(pfc.lift1((f * a, f * b)))
            rhs = wedge_one_one(
                pullback_one_form(chart, chart_d(ring, f)), x
            ) + d_one_form(x).scale(f)
            if not amb2.elems_equal(two_form_to_vec(lhs), two_form_to_vec(rhs)):
                ok = False
                break
        laws["leibniz"] = ok

        s_defined = pfc.s1_map.is_well_defined
        if s_defined:
            ok = True
            for _ in range(samples):
                b = ring.random_element(rng, max_deg=2, max_den=1)
                lhs = d_one_form(pfc.lift1((ring.zero, b)))
                rhs = wedge_one_one(
                    dv_over_v(chart),
                    pullback_one_form(chart, -chart_d(ring, b)),
                )
                if not amb2.elems_equal(two_form_to_vec(lhs), two_form_to_vec(rhs)):
                    ok = False
                    break
            laws["s_anticommutes_representatives"] = ok

            tail = pfc.corrected_tail
            ok = True
            for _ in range(samples):
                a = ring.random_element(rng, max_deg=2, max_den=1)
                b = ring.random_element(rng, max_deg=2, max_den=1)
                try:
                    two_coords = pfc.d1((a, b))
                except StabilityFailure:
                    ok = False
                    break
                lhs = two_coords[0]  # s2 sends the generator to dt
                rhs = -ring.derive(b)
                if not tail.elems_equal([lhs], [rhs]):
                    ok = False
                    break
            laws["s_anticommutes_corrected"] = ok
        else:
            laws["s_anticommutes_representatives"] = None
            laws["s_anticommutes_corrected"] = None

        charts.append(
            {
                "chart": i,
                "laws": laws,
                "s_well_defined": s_defined,
                "passed": all(v for v in laws.values() if v is not None),
            }
        )
    return {"charts": charts, "passed": all(c["passed"] for c in charts)}


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


def _rescale_one_form(
    old_chart: CoverChart, w: RingElem, form: CoverOneForm
) -> CoverOneForm:
    """Image of a one-form under v' -> w*v, so dv' -> w' v dt + w dv."""
    ring = old_chart.ring

    def phi(ce: CoverElem) -> CoverElem:
        return old_chart.from_coeffs(
            [c * w**k for k, c in enumerate(ce.coeffs)]
        )

    ct = phi(form.ct)
    cv = phi(form.cv)
    dw = ring.derive(w)
    dt_part = ct + cv * old_chart.v.scale(dw)
    dv_part = cv.scale(w)
    return CoverOneForm(old_chart, dt_part, dv_part)


def basis_independence_check(bundle: TorsionBundle, rescalings: Sequence) -> dict:
    """Rescale each trivialization by a unit n-th power and match structures.

    Replacing u by u*w^n (and g by g*w_j/w_i) moves the root by v' = w*v.
    The check maps each partial-form generator across and certifies double
    membership, and confirms the functional s takes the same values on the
    matched generators.
    """
    scheme = bundle.scheme
    n = bundle.n
    ws = [scheme.charts[i].coerce(w) for i, w in enumerate(rescalings)]
    new_u = [u * w**n for u, w in zip(bundle.u, ws)]
    new_g = {}
    for (i, j), g in bundle.g.items():
        wi = scheme.restrict(i, ws[i], j)
        wj = scheme.restrict(j, ws[j], i)
        new_g[(i, j)] = g * wj * wi.inv()
    new_bundle = TorsionBundle(scheme, n, new_g, new_u)
    old_charts = Cover(bundle).partial_forms
    new_charts = Cover(new_bundle).partial_forms
    charts = []
    for i, (old, new, w) in enumerate(zip(old_charts, new_charts, ws)):
        s_defined = old.s1_map.is_well_defined
        forward_ok = True
        s_match = True if s_defined else None
        for col, expected_s in [(0, old.ring.zero), (1, old.ring.one)]:
            form_new = vec_to_one_form(new.chart, new.sub1.gens.col(col))
            mapped = _rescale_one_form(old.chart, w, form_new)
            coords = old.sub1.contains(one_form_to_vec(mapped))
            if coords is None:
                forward_ok = False
                continue
            if not s_defined:
                continue
            s_val = old.s1_map.apply(coords)[0]
            if not old.base_functions.elems_equal([s_val], [expected_s]):
                s_match = False
        backward_ok = True
        winv = w.inv()
        for col in (0, 1):
            form_old = vec_to_one_form(old.chart, old.sub1.gens.col(col))
            mapped = _rescale_one_form(new.chart, winv, form_old)
            if new.sub1.contains(one_form_to_vec(mapped)) is None:
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
