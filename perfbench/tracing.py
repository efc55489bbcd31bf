"""Spans around the calls into each spincavity module, kept in memory.

The traced run wraps every function named in a module's ``__all__``
(classes are left alone) and rebinds the wrapper wherever
``spincavity``, ``spincavity.cli`` or one of the modules binds that
function, so calls between modules are seen as well. Nothing in the
package changes; uninstalling restores the original bindings.

A span is ``[name, start, end, parent, pass]``. Its self time is its
duration minus the durations of its direct children; on one thread the
children are disjoint sub-intervals of the parent, so the self times
of all spans add up to the duration of the root spans.

Besides spans the tracer keeps counters at the same boundaries: dense
drift bytes built, distinct ``DriftModel`` objects the dynamics layer
sees, and spectrum rows scanned.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import weakref
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("broadening", "model", "dynamics", "analytics", "probing", "cli")

# calls that solve for the spectrum or the steady state of one model
_SOLVES = ("dynamics.spectral_abscissa", "dynamics.steady_state_covariance")


class Tracer:
    """Span and counter recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_index = -1
        self.drift_bytes = 0
        self.spectrum_rows = 0
        self.models = 0
        self._stack: list[int] = []
        self._seen_models: dict[int, weakref.ref] = {}
        self._model_type = None
        self._wrapped: set[str] = set()

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "model.build_drift_matrix":
            self.drift_bytes += 8 * result.dim * result.dim
        elif name == "probing.spectrum_scan":
            self.spectrum_rows += result.delta_e.size
        elif name.startswith("dynamics.") and args and isinstance(args[0], self._model_type):
            # ids are reused once an object dies; the weak reference
            # tells a reused id from the model seen before
            model = args[0]
            ref = self._seen_models.get(id(model))
            if ref is None or ref() is not model:
                self._seen_models[id(model)] = weakref.ref(model)
                self.models += 1

    @contextmanager
    def installed(self):
        """Wrap the public functions of every layer for the duration."""
        package = importlib.import_module("spincavity")
        modules = {name: importlib.import_module(f"spincavity.{name}") for name in LAYERS}
        self._model_type = modules["model"].DriftModel
        namespaces = (package, *modules.values())
        replaced = []
        try:
            for layer, module in modules.items():
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                        continue
                    wrapper = self.wrap(f"{layer}.{attr}", fn)
                    self._wrapped.add(f"{layer}.{attr}")
                    for namespace in namespaces:
                        if vars(namespace).get(attr) is fn:
                            setattr(namespace, attr, wrapper)
                            replaced.append((namespace, attr, fn))
            yield self
        finally:
            for namespace, attr, fn in reversed(replaced):
                setattr(namespace, attr, fn)

    def metrics(self, passes: int) -> dict:
        """Per-pass calls and self seconds per function and per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        # functions never called report zero calls and zero self time
        calls = dict.fromkeys(self._wrapped, 0)
        self_s = dict.fromkeys(self._wrapped, 0.0)
        total_s = dict.fromkeys(self._wrapped, 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            total_s[name] += end - start
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                value for name, value in self_s.items() if name.startswith(layer + ".")
            ) / passes
        out["trace.self_sum_s"] = sum(self_s.values()) / passes
        out["trace.spans"] = len(self.spans) / passes
        solves = sum(calls.get(name, 0) for name in _SOLVES)
        out["dynamics.solves"] = solves / passes
        out["dynamics.models"] = self.models / passes
        out["dynamics.solves_per_model"] = solves / self.models if self.models else 0.0
        out["model.drift_bytes"] = self.drift_bytes / passes
        scan_s = total_s["probing.spectrum_scan"]
        out["probing.rows"] = self.spectrum_rows / passes
        out["probing.rows_per_s"] = self.spectrum_rows / scan_s if scan_s else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, index in self.spans:
                fh.write(json.dumps([name, start, end, parent, index]) + "\n")
