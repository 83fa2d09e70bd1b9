"""Spans and counters around attoclock's public functions, from outside.

``install`` rebinds each traced function, in every loaded attoclock module
that holds it, to a wrapper that records into a :class:`Tracer`; the
returned callable puts every original back. Nothing in the package changes
on disk. A function the package no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
import tracemalloc

# Timed layers: (module, function). cli.main is the root span of an op.
TIMED = (
    ("cli", "main"), ("cli", "build_parser"), ("cli", "parse_grid"),
    ("harness", "load_measurements"), ("harness", "run_sweep"),
    ("harness", "compare"), ("harness", "emit_figure_data"),
    ("barrier", "solve_geometry"), ("clocks", "compute_clocks"),
)
# Cheap helpers that are only counted, to keep tracing out of the kernel's
# own time: the redundant calls per point that a kernel merge removes.
COUNTED = (
    ("barrier", "classify_regime"), ("atom", "LaserField.direct"),
    ("units", "au_time_to_attoseconds"),
)


class Tracer:
    """Aggregated spans, counts, retained memory and GC time of one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}    # name -> [calls, incl_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.retained: dict[str, list[int]] = {}  # name -> [calls, bytes]
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._stack: list[int] = []               # child ns of each open span
        self._gc_start = 0

    def timed(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def retaining(self, name, fn):
        """Bytes still allocated (per tracemalloc) when ``fn`` returns: the
        size of its result."""
        stats = self.retained.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            stats[0] += 1
            stats[1] += tracemalloc.get_traced_memory()[0] - before
            return result
        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_gen2 += info["generation"] == 2

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "retained": self.retained, "gc_ns": self.gc_ns,
                "gc_gen2": self.gc_gen2}


def _resolve(module: str, qualname: str):
    """(owner object, attribute name) of a traced function, or None."""
    try:
        owner = importlib.import_module(f"attoclock.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


def install(tracer: Tracer, timed=TIMED, counted=COUNTED, retaining=(),
            gc_callbacks: bool = True):
    """Wrap the given functions; return (restore, names of absent functions)."""
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    plan = ([(spec, tracer.timed) for spec in timed]
            + [(spec, tracer.counted) for spec in counted]
            + [(spec, tracer.retaining) for spec in retaining])
    for (module, qualname), make in plan:
        name = f"{module}.{qualname}"
        found = _resolve(module, qualname)
        if found is None:
            absent.append(name)
            continue
        owner, attr = found
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            undo.append((owner, attr, raw))
            setattr(owner, attr, type(raw)(make(name, raw.__func__)))
            continue
        wrapper = make(name, raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "attoclock" and not mod_name.startswith("attoclock."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, wrapper)
    if gc_callbacks:
        gc.callbacks.append(tracer._on_gc)

    def restore() -> None:
        if gc_callbacks:
            gc.callbacks.remove(tracer._on_gc)
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore, absent
