"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods of each taucover
module (the layers) in place and restores them on ``uninstall``.  Names that
other taucover modules imported directly (``smith_normal_form`` inside
``connections``, ``evaluate`` inside ``rings``) are rebound too, so calls made
from inside the package are seen.

A span is recorded where a call crosses from one layer into another; a call
that stays inside its caller's layer is counted and timed but folded into the
enclosing span.  Each span holds (name, start, end, parent span, request id).
A layer's self time is the duration of its spans minus the time of the spans
of other layers nested in them.  ``fields`` and ``polys`` are too fine for
spans: their calls are only counted, and their time lands in the caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

SPAN_LAYERS = (
    "exprparse",
    "rings",
    "pidmod",
    "covers",
    "forms",
    "partialforms",
    "connections",
    "catalog",
    "cli",
)

# Operators that are wrapped besides public names.
DUNDERS = {"__init__", "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
           "__rtruediv__", "__pow__", "__matmul__", "__neg__"}

# Ring element arithmetic is treated like field and polynomial arithmetic:
# counted and timed by name, but it opens no span, nor does any call nested in
# it, so its time lands in the layer that asked for the arithmetic.
ARITHMETIC = "RingElem"

# Cheap accessors left unwrapped: they run hundreds of thousands of times per
# request and do no work worth a span.
SKIP = {"is_zero", "coerce", "same_ring", "same_chart", "n_charts"}

# Count-only wrappers: (module, class, attribute).
COUNTED = (
    ("fields", "_FqField", "_mul"),
    ("fields", "_FqField", "_inv"),
    ("polys", "Poly", "__mul__"),
    ("polys", "Poly", "divmod"),
    ("polys", "Poly", "is_irreducible"),
)

SNF = "pidmod.smith_normal_form"
MATMUL = "pidmod.PolyMatrix.__matmul__"


class Tracer:
    """Counters, timers and spans for one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.request = -1
        self.divmod_max_deg = 0
        self.snf_cells = 0
        self.snf_max_dim = 0
        self.snf_certificate_s = 0.0
        self.snf_inputs: set = set()
        self.chart_keys: set = set()
        self.covers_seen: list = []
        self.leibniz_samples = 0
        self.class_decisions = 0
        self.class_shortcuts = 0
        self._names: list[str] = []  # every traced call in progress
        self._frames: list[list] = []  # spans in progress: [layer, child_s, id]
        self._depth: dict[str, int] = defaultdict(int)
        self._arithmetic = 0  # ring arithmetic calls in progress
        self._restore: list[tuple] = []

    # -- installation

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"taucover.{name}")
            for name in (*SPAN_LAYERS, "fields", "polys")
        }
        replaced = {}
        for layer in SPAN_LAYERS:
            module = modules[layer]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrapper = self._span(obj, f"{layer}.{name}", layer)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    self._wrap_class(obj, layer)
        for module_name, cls_name, attr in COUNTED:
            cls = getattr(modules[module_name], cls_name)
            self._set(cls, attr, self._counter(vars(cls)[attr], f"{module_name}.{attr.strip('_')}"))
        # Rebind module-level functions wherever taucover imported them.
        for module in [m for n, m in sys.modules.items() if n == "taucover" or n.startswith("taucover.")]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(module, name, replaced[id(obj)][1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name in SKIP or (name.startswith("_") and name not in DUNDERS):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            arithmetic = cls.__name__ == ARITHMETIC
            if inspect.isfunction(attr):
                self._set(cls, name, self._span(attr, label, layer, arithmetic))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._span(attr.__func__, label, layer)))

    # -- wrappers

    def _counter(self, func, label: str):
        calls = self.calls
        if label == "polys.divmod":
            tracer = self

            def divmod_wrapper(poly, other):
                calls[label] += 1
                if poly.deg > tracer.divmod_max_deg:
                    tracer.divmod_max_deg = poly.deg
                return func(poly, other)

            return divmod_wrapper

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return func(*args, **kwargs)

        return wrapper

    def _span(self, func, label: str, layer: str, arithmetic: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(func, label, layer, arithmetic, args, kwargs)

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    def _call(self, func, label, layer, arithmetic, args, kwargs):
        frames = self._frames
        boundary = not self._arithmetic and not arithmetic and (
            not frames or frames[-1][0] != layer
        )
        self._arithmetic += arithmetic
        parent_name = self._names[-1] if self._names else None
        if boundary:
            parent = frames[-1][2] if frames else -1
            frame = [layer, 0.0, len(self.spans)]
            self.spans.append(None)
            frames.append(frame)
        self._names.append(label)
        outermost = self._depth[label] == 0
        self._depth[label] += 1
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._arithmetic -= arithmetic
            self._depth[label] -= 1
            self._names.pop()
            duration = end - start
            self.calls[label] += 1
            if outermost:
                self.inclusive[label] += duration
            if boundary:
                frames.pop()
                self.self_time[layer] += duration - frame[1]
                if frames:
                    frames[-1][1] += duration
                self.spans[frame[2]] = (label, start, end, parent, self.request)
            if label == MATMUL and parent_name == SNF:
                self.snf_certificate_s += duration
        self._observe(label, args, result)
        return result

    def _observe(self, label, args, result) -> None:
        """Counts that need the call's arguments or result."""
        if label == SNF:
            matrix = args[0]
            self.snf_cells += matrix.nrows * matrix.ncols
            self.snf_max_dim = max(self.snf_max_dim, matrix.nrows, matrix.ncols)
            ring = matrix.ring
            self.snf_inputs.add(
                (
                    ring.field.p,
                    ring.field.e,
                    tuple(pi.coeffs for pi in ring.inverted),
                    matrix.nrows,
                    matrix.ncols,
                    tuple(tuple(str(x) for x in row) for row in matrix.rows),
                )
            )
        elif label == "partialforms.PartialFormsChart.__init__":
            cover, index = args[1], args[2]
            # Holding the cover keeps its id unique for the whole run.
            self.covers_seen.append(cover)
            self.chart_keys.add((id(cover), index))
        elif label == "connections.TauConnection.leibniz_check":
            self.leibniz_samples += sum(c["samples"] for c in result["charts"])
        elif label == "connections.is_trivial_class":
            self.class_decisions += 1
            if result["obstruction"] == "s-functional":
                self.class_shortcuts += 1

    # -- results

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for idx, (label, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps([idx, label, start, end, parent, request]) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        c, t, s = self.calls, self.inclusive, self.self_time

        def ratio(num, den):
            return num / den if den else 0.0

        snf_calls = c[SNF]
        builds = c["partialforms.PartialFormsChart.__init__"]
        out = {
            "fields.mul_calls": (c["fields.mul"], "count"),
            "fields.inv_calls": (c["fields.inv"], "count"),
            "polys.mul_calls": (c["polys.mul"], "count"),
            "polys.divmod_calls": (c["polys.divmod"], "count"),
            "polys.divmod_max_deg": (self.divmod_max_deg, "deg"),
            "polys.irreducible_tests": (c["polys.is_irreducible"], "count"),
            "exprparse.evaluate_calls": (c["exprparse.evaluate"], "count"),
            "exprparse.evaluate_s": (t["exprparse.evaluate"], "s"),
            "rings.make_calls": (c["rings.ChartRing.make"], "count"),
            "rings.make_s": (t["rings.ChartRing.make"], "s"),
            "rings.unit_log_calls": (c["rings.ChartRing.try_unit_log"], "count"),
            "rings.unit_log_s": (t["rings.ChartRing.try_unit_log"], "s"),
            "rings.restrict_calls": (c["rings.ChartRing.restrict"], "count"),
            "pidmod.snf_calls": (snf_calls, "count"),
            "pidmod.snf_s": (t[SNF], "s"),
            "pidmod.snf_certificate_s": (self.snf_certificate_s, "s"),
            "pidmod.snf_cells": (self.snf_cells, "count"),
            "pidmod.snf_max_dim": (self.snf_max_dim, "count"),
            "pidmod.snf_distinct_ratio": (ratio(len(self.snf_inputs), snf_calls), "ratio"),
            "pidmod.syzygy_calls": (c["pidmod.syzygy_matrix"], "count"),
            "pidmod.solve_calls": (c["pidmod.solve"], "count"),
            "pidmod.solve_s": (t["pidmod.solve"], "s"),
            "pidmod.canonical_reduce_calls": (c["pidmod.FpmModule.canonical_reduce"], "count"),
            "pidmod.canonical_reduce_s": (t["pidmod.FpmModule.canonical_reduce"], "s"),
            "covers.cover_build_s": (t["covers.Cover.__init__"], "s"),
            "covers.validate_s": (t["covers.TorsionBundle.validate"], "s"),
            "covers.factor_cover_s": (t["covers.factor_cover"], "s"),
            "forms.omega_l_s": (t["forms.OmegaL.__init__"], "s"),
            "forms.transport_calls": (c["forms.transport_one_form"], "count"),
            "partialforms.chart_builds": (builds, "count"),
            "partialforms.chart_reuse_ratio": (ratio(len(self.chart_keys), builds), "ratio"),
            "partialforms.verify_sequence_s": (t["partialforms.verify_sequence"], "s"),
            "partialforms.dga_check_s": (t["partialforms.dga_check"], "s"),
            "connections.leibniz_s": (t["connections.TauConnection.leibniz_check"], "s"),
            "connections.leibniz_samples": (self.leibniz_samples, "count"),
            "connections.flatness_s": (t["connections.TauConnection.flatness_check"], "s"),
            "connections.cocycle_s": (t["connections.TauConnection.cocycle_check"], "s"),
            "connections.class_decision_s": (t["connections.is_trivial_class"], "s"),
            "connections.class_shortcut_ratio": (
                ratio(self.class_shortcuts, self.class_decisions), "ratio"),
            "catalog.load_s": (t["catalog.load_fixture"] + t["catalog.fixture_names"], "s"),
        }
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
        return out
