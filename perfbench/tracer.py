"""In-memory span tracer for spinframe's layers, installed from outside.

The tracer wraps, in place, every module-level function of each layer
module, the aliases that ``from .x import y`` made of them in other
spinframe modules, and the class methods and properties in ``METHODS``.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A span is recorded only where a call crosses from one layer into another
(or from the benchmark into a layer), so a layer's self time is the span
time minus the time its child spans cover, and ``<layer>.calls`` counts the
entries into the layer.  Trivial accessors (``LatticeSpec.dims``,
``ModelParams.a_on`` and the like) are not wrapped; their time goes to the
caller.  Work counters are updated on every call of the hooked functions,
also inside a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("sampling", "algebra", "grids", "torsion", "lagrangians",
          "field_equations", "plane_waves", "variational", "suites", "reports")

# Methods and properties wrapped besides the module-level functions.
METHODS = {
    "sampling": {"TrigPoly": ("__call__", "derivative", "on"),
                 "SpinorPoly": ("bundle",),
                 "ScaledSpinor": ("bundle",)},
    "grids": {"LatticeSpec": ("meshgrid",),
              "SpinorBundle": ("rho", "from_grid"),
              "CoframeBundle": ("from_grid",)},
}

_DERIVED_OUTPUTS = {"_axis_derivative", "spectral_derivative",
                    "exterior_derivative", "wedge", "hodge_dual"}


def _nbytes(out) -> int:
    values = getattr(out, "values", out)
    return int(getattr(values, "nbytes", 0))


class Tracer:
    """Spans and counters of one traced process; install, run, uninstall."""

    def __init__(self, package: str = "spinframe"):
        self.package = package
        self.spans: list = []      # (name, start, end, parent index, run id)
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._bundle_depth = 0
        self._patches: list = []   # (owner, attribute, original value)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"{self.package}.{name}")
                   for name in LAYERS}
        wrapped = {}               # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self._wrap(fn, layer, f"{layer}.{attr}")
                    self._patch(mod, attr, wrapped[id(fn)])
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    self._wrap_member(cls, attr, layer, f"{layer}.{cls_name}.{attr}")
        # aliases: the same function object bound under another module's name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(self.package):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj)) if inspect.isfunction(obj) else None
                if w is not None and obj is not w:
                    self._patch(mod, attr, w)
        spinor_bundle = modules["grids"].SpinorBundle
        init = spinor_bundle.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["grids.bundles"] += 1
            init(obj, *args, **kwargs)

        self._patch(spinor_bundle, "__init__", counting_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap_member(self, cls, attr: str, layer: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(self._wrap(raw.fget, layer, name))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer, name))
        else:
            new = self._wrap(raw, layer, name)
        self._patch(cls, attr, new)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        call = self._spanning(fn, layer, name)
        short = name.rsplit(".", 1)[-1]
        counts = self.counts
        if name == "sampling.TrigPoly.__call__":
            def hooked(poly, coords):
                points = math.prod(np.broadcast_shapes(*(np.shape(c) for c in coords)))
                counts["sampling.mode_points"] += len(poly.freqs) * points
                if self._bundle_depth:
                    counts["sampling.bundle_evals"] += 1
                return call(poly, coords)
        elif short == "bundle" and layer == "sampling":
            def hooked(*args, **kwargs):
                if not self._bundle_depth:
                    counts["sampling.bundles"] += 1
                self._bundle_depth += 1
                try:
                    return call(*args, **kwargs)
                finally:
                    self._bundle_depth -= 1
        elif name == "grids.SpinorBundle.rho":
            def hooked(bundle):
                counts["grids.rho_evals"] += 1
                return call(bundle)
        elif name == "field_equations._action_from_values":
            def hooked(*args, **kwargs):
                counts["field_equations.action_evals"] += 1
                return call(*args, **kwargs)
        elif name == "field_equations.discrete_variational_derivative":
            def hooked(density_kind, eta_values, spec, params, probes, *args, **kwargs):
                counts["field_equations.probes"] += len(probes)
                return call(density_kind, eta_values, spec, params, probes, *args, **kwargs)
        elif layer == "grids" and short in _DERIVED_OUTPUTS:
            def hooked(*args, **kwargs):
                out = call(*args, **kwargs)
                counts["grids.bytes_computed"] += _nbytes(out)
                if short == "spectral_derivative":
                    counts["grids.fft_calls"] += 1
                return out
        else:
            return call
        return functools.wraps(fn)(hooked)

    def _spanning(self, fn, layer: str, name: str):
        spans, stack, layers = self.spans, self._stack, self._layers
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return span

    # -- results --------------------------------------------------------------

    def reset(self, run_id: int) -> None:
        """Drop recorded spans and counts; label the next spans ``run_id``."""
        self.spans.clear()
        self.counts.clear()
        self.run_id = run_id

    def layer_totals(self) -> dict:
        """Per layer: self time, entry count, and inclusive time (spans with
        no ancestor in the same layer, children included)."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        layer_of = [name.split(".", 1)[0] for name, *_ in self.spans]
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            layer = layer_of[i]
            dur = end - start
            self_s[layer] += dur
            calls[layer] += 1
            if parent >= 0:
                self_s[layer_of[parent]] -= dur
            while parent >= 0 and layer_of[parent] != layer:
                parent = self.spans[parent][3]
            if parent < 0:
                inclusive_s[layer] += dur
        return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive_s}
