"""Span tracer that measures mapnets layer by layer from outside the package.

Every target below is a public function or method of a mapnets module.  The
tracer replaces it with a wrapper that records one span per call (name,
start, end, parent span, verdict id) and accumulates per-layer call counts
and self time (span time minus the time covered by child spans).  No file of
the package is changed: wrappers are installed on a freshly imported copy of
the package and vanish when that copy is purged.

A function imported by name into another module (``from .manifold import
distance``) is bound there at import time, so the wrapper is installed at
every module attribute, and every entry of a module-level dict, that holds
the original object.
"""

from __future__ import annotations

import time
from array import array

# (layer, module, qualified name).  A layer aggregates the calls and self
# time of its targets; per-layer metric names derive from the layer name.
TARGETS = [
    ("jets.fd_partial", "jets", "fd_partial"),
    ("jets.jet_var", "jets", "Jet.var"),
    *[("jets.jet_ops", "jets", f"Jet.{m}") for m in (
        "const", "derivatives", "__add__", "__radd__", "__neg__", "__sub__",
        "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        "__pow__", "exp", "log", "sqrt", "sin", "cos", "tanh", "atan")],
    *[("jets.jet_ops", "jets", f) for f in (
        "sin", "cos", "tanh", "exp", "log", "sqrt", "atan", "value_of",
        "wrap_angle", "bump")],
    ("manifold.derivs", "manifold", "LocalMap.derivs_upto"),
    ("manifold.derivs", "manifold", "LocalMap.deriv_tensor"),
    ("manifold.derivs", "manifold", "_DerivedMap.derivs_upto"),
    ("manifold.derivs", "manifold", "_DerivedMap.deriv_tensor"),
    ("manifold.derivs", "gmap", "ChainedLocalMap.derivs_upto"),
    ("manifold.derivs", "gmap", "ChainedLocalMap.deriv_tensor"),
    ("manifold.contains", "manifold", "Box.contains"),
    ("manifold.contains", "manifold", "Chart.contains"),
    ("manifold.margin", "manifold", "Box.norm_margin"),
    ("manifold.margin", "manifold", "Chart.norm_margin"),
    ("manifold.representations", "manifold", "Atlas.representations"),
    ("manifold.map_eval", "manifold", "SmoothMap.__call__"),
    ("manifold.distance", "manifold", "distance"),
    ("manifold.tensor_norm", "manifold", "tensor_norm"),
    ("gmap.check_cbounded", "gmap", "check_cbounded"),
    ("gmap.check_single_chart", "gmap", "check_single_chart"),
    ("gmap.check_moderate", "gmap", "check_moderate"),
    ("gmap.check_equiv0", "gmap", "check_equiv0"),
    ("gmap.check_equiv", "gmap", "check_equiv"),
    ("gmap.derivative_sup_series", "gmap", "derivative_sup_series"),
    ("gmap.chart_gap_series", "gmap", "chart_gap_series"),
    ("gmap.metric_gap_series", "gmap", "metric_gap_series"),
    ("gmap.effective_reps", "gmap", "effective_reps"),
    ("asymptotics.judge", "asymptotics", "judge_moderate"),
    ("asymptotics.judge", "asymptotics", "judge_negligible"),
    ("asymptotics.judge", "asymptotics", "judge_vanishing"),
    ("gpoints.points_equal", "gpoints", "points_equal"),
    ("gpoints.eval_at", "gpoints", "eval_at"),
    ("gpoints.separate_by_points", "gpoints", "separate_by_points"),
    ("vbundle.matrix_gap_series", "vbundle", "matrix_gap_series"),
    ("vbundle.check_vbhom_moderate", "vbundle", "check_vbhom_moderate"),
    ("vbundle.vbhom_eval", "vbundle", "vbhom_eval"),
]

GALLERY_ENTRIES = [
    "sigma_sin", "epsilon_into_0_2", "heaviside_tanh", "s1_jump", "winder",
    "negligible_perturbations", "point_nets", "tangent_bundle", "tensor_insertion",
]

MODULES = ["jets", "manifold", "gmap", "asymptotics", "gpoints", "vbundle", "gallery"]

ROOT = "bench.verdict"  # root span of one verdict call; its self time is unwrapped work


class CoverageError(RuntimeError):
    """A wrap target is missing, or a counter that must move reads zero."""


class Tracer:
    """Span store plus per-layer accumulators, reset once per pass."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_verdict = array("i")
        self.verdict_id = -1
        self._stack: list = []  # per open span: [index, start, child time]
        self.reset()

    def reset(self) -> None:
        self.calls: dict = {}
        self.self_s: dict = {}
        self.eval_keys: set = set()
        self.eval_total = 0
        self._eval_maps: dict = {}  # keeps mapped objects alive so ids stay unique

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        idx = -1
        if self.keep_spans:
            idx = len(self.span_start)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent)
            self.span_verdict.append(self.verdict_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [idx, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
        if frame[0] >= 0:
            self.span_start[frame[0]] = frame[1]
            self.span_end[frame[0]] = end

    def span(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def map_eval_span(self, name: str, fn):
        """SmoothMap.__call__: also counts distinct (map, point) evaluations."""
        inner = self.span(name, fn)

        def wrapper(sm, p):
            self.eval_total += 1
            self._eval_maps.setdefault(id(sm), sm)
            self.eval_keys.add((id(sm), p.chart, p.coords.tobytes()))
            return inner(sm, p)

        return wrapper

    def export_spans(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "verdict": np.frombuffer(self.span_verdict, dtype=np.int32),
        }


def _rebind(modules: dict, old, new) -> int:
    """Point every module attribute and module-level dict value at ``new``."""
    n = 0
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                n += 1
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is old:
                        val[k] = new
                        n += 1
    return n


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every target in the freshly imported package ``modules``
    (short module name -> module).  Raises CoverageError for a missing target."""
    for layer, modname, qual in TARGETS:
        mod = modules.get(modname)
        if mod is None:
            raise CoverageError(f"module mapnets.{modname} is gone")
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            if owner is None or attr not in vars(owner):
                raise CoverageError(f"wrap target mapnets.{modname}.{qual} is gone")
            raw = vars(owner)[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            if qual == "SmoothMap.__call__":
                wrapped = tracer.map_eval_span(layer, fn)
            else:
                wrapped = tracer.span(layer, fn)
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
        else:
            fn = getattr(mod, attr, None)
            if fn is None:
                raise CoverageError(f"wrap target mapnets.{modname}.{qual} is gone")
            if _rebind(modules, fn, tracer.span(layer, fn)) == 0:
                raise CoverageError(f"wrap target mapnets.{modname}.{qual} is unbound")
    gallery = modules.get("gallery")
    entries = {e.name: e for e in getattr(gallery, "GALLERY", [])}
    for name in GALLERY_ENTRIES:
        if name not in entries:
            raise CoverageError(f"gallery entry {name!r} is gone")
        entries[name].runner = tracer.span(f"gallery.entry.{name}", entries[name].runner)
