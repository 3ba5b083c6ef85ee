"""Per-layer timing for the traced run.

Wraps stframe's public functions at their module attributes, in every stframe
module that bound them; ``install`` and ``uninstall`` put the wrappers in and
take them out again.  Each wrapper is a span: it records calls, inclusive
time and self time (inclusive time minus the time of wrapped calls made
inside it).  A call that re-enters a layer
already on the stack (``render_json`` recursing) counts inside the outer span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: (module, function, layer); the three residuals share one layer
LAYERS = (
    ("tensor", "rotate", "tensor.rotate"),
    ("tensor", "derived_tensors", "tensor.derived_tensors"),
    ("analysis", "identity_residual", "analysis.residuals"),
    ("analysis", "einstein_residual", "analysis.residuals"),
    ("analysis", "weakly_einstein_residual", "analysis.residuals"),
    ("sources", "load_spec", "sources.load_spec"),
    ("sources", "realize", "sources.realize"),
    ("frames", "sym_eigen", "frames.sym_eigen"),
    ("frames", "trig_fit_extremum", "frames.trig_fit"),
    ("frames", "st_penalty", "frames.st_penalty"),
    ("frames", "generic_st_fallback", "frames.fallback"),
    ("frames", "classify_sign_cases", "frames.classify_sign_cases"),
    ("frames", "find_st_basis", "frames.find_st_basis"),
    ("topology", "st_vectors", "topology.st_vectors"),
    ("topology", "homogeneous_invariants", "topology.invariants"),
    ("cli", "main", "cli"),
    ("cli", "render_json", "cli.render_json"),
)


class Tracer:
    """Span statistics per layer, plus the construction path of every
    ``find_st_basis`` call with its duration."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.paths: list[tuple[str, float]] = []
        self._stack: list[list] = []  # [layer, seconds spent in wrapped children]
        self._bindings: list[tuple] = []  # (module, attribute, original, span)

    def _wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[layer] += 1
                self.total[layer] += dt
                self.self_time[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if layer == "frames.find_st_basis":
                self.paths.append((result.construction_path, dt))
            return result

        return span

    def install(self) -> None:
        if not self._bindings:
            modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "stframe"]
            for module, name, layer in LAYERS:
                original = getattr(sys.modules[f"stframe.{module}"], name)
                span = self._wrap(layer, original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._bindings.append((m, attr, original, span))
        for m, attr, _, span in self._bindings:
            setattr(m, attr, span)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)
