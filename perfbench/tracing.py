"""Span tracing around envlab's public functions, from outside the package.

:class:`Tracer` wraps each function named in :data:`TRACED` and rebinds
the wrapper under every name that refers to the original in the loaded
``envlab`` modules (``cli``, ``family``, ``gluing`` and ``sections`` import
by name, so patching only the defining module would miss their calls).
Each call records a span ``{name, start, end, parent}`` in memory; the
spans of one pass are reduced to per-function self times and counts with
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# layer module -> traced public functions; a span is named "<layer>.<function>"
TRACED = {
    "envelope2d": ("equilibrium_envelope_2d",),
    "envelope": ("equilibrium_envelope", "hull_envelope"),
    "family": ("family_curve", "fibered_weight", "minimal_singularity_gap",
               "check_right_continuity"),
    "fiber": ("bergman_fiber_integral", "fiber_volume"),
    "sections": ("coefficient_inequality", "psi2_approximant",
                 "psi1_approximant"),
    "gluing": ("regularized_max", "hirzebruch_demo"),
    "cli": ("main",),
}

# writers whose spans all count as "cli.export" (the CSV writers live in
# weights but only the CLI and the gluing demo's export call them)
EXPORTERS = {
    "cli": ("export_report", "export_plot_data", "export_weight2d_artifacts"),
    "weights": ("save_weight_csv", "save_weight2d_csv"),
}
EXPORT_SPAN = "cli.export"


# extra work counters: span name -> (counter, f(args, result) -> amount)
COUNTERS = {
    "envelope2d.equilibrium_envelope_2d": ("nodes", lambda a, r: np.size(a[0].values)),
    "envelope.equilibrium_envelope": ("points", lambda a, r: np.size(a[0].grid)),
    "gluing.regularized_max": ("elements", lambda a, r: np.size(r)),
}


# every per-layer metric a traced pass reports, in a fixed order
METRICS = (
    "envelope2d.equilibrium_envelope_2d.self_s",
    "envelope2d.equilibrium_envelope_2d.calls",
    "envelope2d.equilibrium_envelope_2d.nodes",
    "envelope2d.equilibrium_envelope_2d.errors",
    "envelope.equilibrium_envelope.self_s",
    "envelope.equilibrium_envelope.calls",
    "envelope.equilibrium_envelope.points",
    "envelope.hull_envelope.self_s",
    "envelope.hull_envelope.calls",
    "family.family_curve.self_s",
    "family.fibered_weight.self_s",
    "family.minimal_singularity_gap.self_s",
    "family.check_right_continuity.self_s",
    "fiber.bergman_fiber_integral.self_s",
    "fiber.bergman_fiber_integral.calls",
    "fiber.fiber_volume.self_s",
    "fiber.fiber_volume.calls",
    "fiber.errors",
    "sections.coefficient_inequality.self_s",
    "sections.coefficient_inequality.calls",
    "sections.psi2_approximant.self_s",
    "sections.psi2_approximant.calls",
    "sections.psi1_approximant.self_s",
    "gluing.regularized_max.self_s",
    "gluing.regularized_max.calls",
    "gluing.regularized_max.elements",
    "gluing.hirzebruch_demo.self_s",
    "cli.main.self_s",
    "cli.export.self_s",
    "cli.export.bytes",
    "cli.export.files",
    "trace.layer_self_s",
    "trace.glue_s",
    "trace.overhead_ratio",
)


class Tracer:
    """Install span-recording wrappers on entry, restore the originals on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None, "error": False}
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[counter[0]] = counter[1](args, result)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for table, span_of in ((TRACED, lambda layer, f: f"{layer}.{f}"),
                               (EXPORTERS, lambda layer, f: EXPORT_SPAN)):
            for layer, funcs in table.items():
                module = importlib.import_module(f"envlab.{layer}")
                for f in funcs:
                    original = getattr(module, f)
                    wrappers[id(original)] = (original,
                                              self._wrap(span_of(layer, f), original))
        for modname, module in list(sys.modules.items()):
            if modname != "envlab" and not modname.startswith("envlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def take(self) -> list[dict]:
        """Spans recorded since the last call; the tracer starts afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Every name in :data:`METRICS` for one traced pass of ``wall_s`` seconds.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so the children never overlap.
    ``trace.glue_s`` is the pass time no top-level span covers.  Metrics
    the spans cannot give (bytes written, tracing overhead) read 0 here
    and are filled in by the caller.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    out = dict.fromkeys(METRICS, 0)
    top_level = 0.0
    for span, children in zip(spans, child_s):
        name, dur = span["name"], span["end"] - span["start"]
        if span["parent"] is None:
            top_level += dur
        out["trace.layer_self_s"] += dur - children
        found = {"self_s": dur - children, "calls": 1,
                 "errors": int(span["error"])}
        counter = COUNTERS.get(name)
        if counter is not None:
            found[counter[0]] = span.get(counter[0], 0)
        for key, value in found.items():
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] += value
        if name.startswith("fiber."):
            out["fiber.errors"] += int(span["error"])
    out["trace.glue_s"] = wall_s - top_level
    return out
