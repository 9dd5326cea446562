"""Spans around the public calls of anticrit's layers, recorded from outside.

``Tracer.install`` rebinds every public function of ``models``, ``spectral``,
``qfi``, ``spin`` and ``sweep`` (in each anticrit module that imported it)
and the constructors of the ``spectral`` classes to wrappers that record a
span: name, start, end, parent span and one count. ``uninstall`` restores
the original bindings. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("models", "spectral", "qfi", "spin", "sweep")
SPECTRAL_CLASSES = ("HermitianOperator", "QuantumState", "SpectralDecomposition")

# span name -> what its count records
_COUNT = {
    "models.build": lambda args, result: result.H.entries.nbytes + result.dH_domega.entries.nbytes,
    "spectral.eigendecompose": lambda args, result: args[0].dim ** 3,
    "sweep.run_and_write": lambda args, result: len(result),
}

# per-layer self times reported by name; every other span of a layer goes
# into "<layer>.other.self_s", so the self times and trace.uncovered_s add up
# to the traced wall time
NAMED = (
    "models.build",
    "spectral.HermitianOperator",
    "spectral.eigendecompose",
    "spectral.variance",
    "spectral.expectation",
    "qfi.qfi_spectral_sum",
    "qfi.qfi_state_fd",
    "qfi.qfi_adiabatic_generator",
    "spin.total_spin_ops",
    "spin.collective_spin_ops",
    "spin.site_pauli",
    "sweep.write_csv",
)


def unit(metric):
    """Unit of a per-layer metric named by ``Tracer.metrics``."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("solves_per_call"):
        return "solves/call"
    if metric.endswith("solves_per_row"):
        return "solves/row"
    return "count"  # .calls, .dim3


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self._stack = []
        self._bindings = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, _COUNT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"anticrit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != "anticrit" and not name.startswith("anticrit."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for cls_name in SPECTRAL_CLASSES:
            cls = getattr(modules["spectral"], cls_name)
            self._bindings.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(f"spectral.{cls_name}", cls.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def metrics(self, wall_s):
        """Per-layer self times and counts over all spans, given the traced wall time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counted = defaultdict(int)
        for i, (name, start, end, parent, count) in enumerate(spans):
            key = name if name in NAMED else name.split(".")[0] + ".other"
            self_s[key] += end - start - child_time[i]
            calls[name] += 1
            counted[name] += count

        def solves_under(ancestor):
            total = 0
            for name, _, _, parent, _ in spans:
                if name != "spectral.eigendecompose":
                    continue
                while parent >= 0 and spans[parent][0] != ancestor:
                    parent = spans[parent][3]
                total += parent >= 0
            return total

        rows = counted["sweep.run_and_write"]
        fd_calls = calls["qfi.qfi_state_fd"]
        out = {f"{key}.self_s": self_s.get(key, 0.0) for key in NAMED}
        out.update({f"{layer}.other.self_s": self_s.get(f"{layer}.other", 0.0) for layer in LAYERS})
        out.update({
            "models.build.calls": calls["models.build"],
            "models.build.bytes": counted["models.build"],
            "spectral.HermitianOperator.calls": calls["spectral.HermitianOperator"],
            "spectral.eigendecompose.calls": calls["spectral.eigendecompose"],
            "spectral.eigendecompose.dim3": counted["spectral.eigendecompose"],
            "qfi.qfi_state_fd.solves_per_call":
                solves_under("qfi.qfi_state_fd") / fd_calls if fd_calls else 0.0,
            "sweep.solves_per_row": solves_under("sweep.run_and_write") / rows if rows else 0.0,
            "trace.wall_s": wall_s,
            "trace.uncovered_s": wall_s - top,
        })
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "count"], "spans": self.spans}, f)
