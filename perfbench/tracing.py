"""Spans around the public calls of each torsorcheck layer, recorded from outside.

The program carries no instrumentation of its own, so the benchmark wraps the
public functions of each layer where they are looked up: a module-level
function is replaced in every torsorcheck module that imported it (for
example ``verifier.dbar_fd`` as well as ``grids.dbar_fd``), and a method or
constructor is replaced on its class.  Every call records a span (name, start,
end, parent span, run id) in memory; the spans are written out once, when the
traced suite has finished.

Each of the twelve checks gets a span of its own that parents the layer calls
made while it runs, together with its tracemalloc peak above the traced memory
at its start.  The ``in_bytes``/``out_bytes`` of a span are computed from the
shape and dtype of the array passed in or handed back, not measured traffic.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc

# (module, attribute path, per-layer statistics reported for its spans)
LAYER_CALLS = [
    ("torus", "ComplexTorus.lift_of_coords", ("calls", "s", "out_mb")),
    ("torus", "ComplexTorus.random_points", ("calls",)),
    ("grids", "lattice_grid", ("calls", "s", "out_mb")),
    ("grids", "GridFunction.__init__", ("calls", "s")),
    ("grids", "GridFunction.sample", ("calls", "s", "self_s", "out_mb")),
    ("grids", "measure_seam_jumps", ("calls", "s")),
    ("grids", "dbar_fd", ("calls", "s", "in_mb", "out_mb")),
    ("bundles", "TorusHomomorphism.apply", ("calls", "s")),
    ("bundles", "pullback", ("calls", "s")),
    ("bundles", "build_family", ("calls", "s")),
    ("connections", "curvature", ("calls", "s")),
    ("connections", "check_eq_i", ("calls", "s")),
    ("connections", "family_connection", ("calls", "s")),
    ("connections", "slice_connection", ("calls", "s")),
    ("torsors", "TorsorPresentation.__init__", ("calls", "s")),
    ("torsors", "sigma_presentation", ("calls", "s", "out_mb")),
    ("torsors", "tau_presentation", ("calls", "s", "out_mb")),
    ("torsors", "obstruction", ("calls", "s")),
    ("torsors", "act", ("calls", "s")),
    ("torsors", "is_holomorphic_morphism", ("calls", "s")),
]

MODULES = ["torus", "grids", "bundles", "connections", "torsors", "verifier", "cli"]


def span_name(module: str, path: str) -> str:
    """``grids.GridFunction.__init__`` is reported as the constructor ``grids.GridFunction``."""
    return f"{module}.{path.removesuffix('.__init__')}"


def _nbytes(value) -> int:
    """Bytes of the array a layer call hands back, from its shape and dtype."""
    for attr in ("values", "theta_ref"):  # GridFunction, TorsorPresentation
        value = getattr(value, attr, value)
    return int(getattr(value, "nbytes", 0))


class Tracer:
    """Keeps the spans of one traced suite in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, stats=(), memory: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "run": tracer.run_id,
                    "parent": tracer._open[-1] if tracer._open else None}
            tracer.spans.append(span)
            tracer._open.append(span["id"])
            if memory:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._open.pop()
            if memory:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - held
            if "in_mb" in stats:
                span["in_bytes"] = _nbytes(args[0])
            if "out_mb" in stats:
                span["out_bytes"] = _nbytes(out)
            return out

        return traced

    def install(self, package) -> list[str]:
        """Wrap the layer calls, the twelve checks and ``run_suite`` of ``package``.

        Returns the names the package no longer has; they record no spans.
        """
        import importlib

        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        namespaces = [package, *mods.values()]
        missing = []
        for module, path, stats in LAYER_CALLS:
            name = span_name(module, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mods[module], cls_name, object)
                raw = vars(cls).get(attr)
                if raw is None:
                    missing.append(name)
                elif isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, stats)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, stats))
                continue
            orig = getattr(mods[module], path, None)
            if orig is None:
                missing.append(name)
                continue
            traced = self.wrap(name, orig, stats)
            for ns in namespaces:
                if getattr(ns, path, None) is orig:
                    setattr(ns, path, traced)
        # the check table is the only place the suite looks the checks up
        table = getattr(mods["verifier"], "_CHECK_FUNCTIONS", None)
        if table is None:
            missing.append("verifier._CHECK_FUNCTIONS")
        for check, fn in (table or {}).items():
            table[check] = self.wrap(f"verifier.check.{check}", fn, memory=True)
        mods["cli"].run_suite = self.wrap("verifier.run_suite", mods["cli"].run_suite)
        tracemalloc.start()
        return missing

    def write(self, path) -> None:
        tracemalloc.stop()
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
