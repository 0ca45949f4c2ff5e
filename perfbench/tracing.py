"""Tracing for the traced rep: entry-point spans plus per-layer self time.

Spans come from wrappers this file installs around the public entry
points named in ``spec.json`` (``trace.span_entry_points``); each call
records its name, start, end and parent span. Layers that are entered
only by generator resumption (``sim.process``, ``Cpu.consume``,
``TreeComm.wait_for``) have no call boundary to wrap, so per-layer self
time comes from a profiler hook instead: every function's own time is
bucketed by the layer of its module (``module_to_layer``).
"""

from __future__ import annotations

import cProfile
import gzip
import importlib
import os
import time
from typing import Any, Dict, List, Tuple


class SpanRecorder:
    """Wraps entry points and keeps every span in memory until ``write``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, Any]] = []

    def install(self, entry_points: List[str]) -> None:
        for entry in entry_points:
            module_name, qualname = entry.split(":")
            class_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), class_name)
            self._wrap(cls, attr, qualname)

    def _wrap(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(cls, attr, traced)
        self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self milliseconds (self =
        span minus the spans it directly caused)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        out: Dict[str, Dict[str, float]] = {}
        for name, duration, inner in zip(self.names, durations, child):
            entry = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += duration * 1e3
            entry["self_ms"] += (duration - inner) * 1e3
        return out

    def write(self, path: str) -> None:
        """One CSV row per span: id, parent, name, start and end in
        microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_us,end_us\n")
            for index, (parent, name, start, end) in enumerate(
                zip(self.parents, self.names, self.starts, self.ends)
            ):
                out.write(
                    f"{index},{parent},{name},"
                    f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n"
                )


class LayerProfile:
    """Profiler hook around the simulation phase; buckets self time by layer."""

    def __init__(self, module_to_layer: Dict[str, str]):
        import repro

        self.module_to_layer = module_to_layer
        self._src = os.path.dirname(os.path.dirname(os.path.realpath(repro.__file__)))
        self._bench = os.path.dirname(os.path.realpath(__file__))
        self._profile = cProfile.Profile()
        self.stats: Dict[tuple, tuple] = {}

    def start(self) -> None:
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()
        self._profile.create_stats()
        self.stats = self._profile.stats

    def layer_of(self, filename: str) -> str:
        path = os.path.realpath(filename) if filename.endswith(".py") else filename
        if path.startswith(self._bench + os.sep):
            return "bench"
        if not path.startswith(self._src + os.sep):
            return "other"
        parts = os.path.relpath(path, self._src)[: -len(".py")].split(os.sep)
        for end in range(len(parts), 0, -1):
            layer = self.module_to_layer.get(".".join(parts[:end]))
            if layer is not None:
                return layer
        return "unmapped"

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (filename, _line, _name), (_cc, _nc, own, _cum, _callers) in self.stats.items():
            layer = self.layer_of(filename)
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def calls(self, function) -> int:
        """Exact number of times ``function`` was entered (a generator
        counts once per resumption)."""
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        return self.stats.get(key, (0, 0))[1]
