"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public entry points of each ``repro`` layer
(module functions, class methods, constructors) with a timing shim and
records one span per call: name, op id, parent span, start, end and
self time.  Self time is the span's duration minus the time its child
spans cover; children run one after another, so that is the sum of
their durations.

Spans are recorded only while an op is open and only in the process
that created the tracer: pool workers forked from it inherit the shims
but call straight through.  Hot leaf calls (payload sizing, signing,
verification, the native shuffle) are *folded*: they count toward
their layer's totals and their parent's child time, but get no span
record of their own, so memory stays bounded by the coarse layers.

:meth:`Tracer.uninstall` restores every wrapped attribute, so a traced
pass leaves the program exactly as it found it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import time

__all__ = ["Tracer", "layer_name"]

_clock = time.perf_counter


def layer_name(span: str) -> str:
    """``"runtime.batch"`` -> ``"runtime"``."""
    return span.split(".", 1)[0]


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans, per-span-name totals and free-form counters for one pass."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.op: int | None = None
        # Open frames: [name, child_seconds, span_id or None].
        self._stack: list[list] = []
        self._next_id = 0
        #: Recorded spans: (id, name, op, parent_id, start, end, self_seconds).
        self.spans: list[tuple] = []
        #: name -> [calls, seconds, self_seconds, outer_seconds]; "outer"
        #: counts only calls whose parent belongs to another layer.
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.op_seconds = 0.0
        self.ops = 0
        self.cache_stats: list[dict] = []
        self._caches: list = []
        self._patches: list[tuple] = []
        self._op_marks: tuple = ()

    # -- counters -------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def total(self, name: str, field: int = 1) -> float:
        """One field of a span name's totals (1 = inclusive seconds)."""
        entry = self.totals.get(name)
        return entry[field] if entry else 0

    def layer_total(self, layer: str, field: int) -> float:
        return sum(
            entry[field] for name, entry in self.totals.items() if layer_name(name) == layer
        )

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        span_id = self._new_id()
        self._stack = [["op", 0.0, span_id]]
        parent_cpu = _cpu_seconds(resource.RUSAGE_SELF)
        child_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN)
        self._op_marks = (span_id, _clock(), parent_cpu, child_cpu)

    def end_op(self) -> float:
        """Close the op's root span; returns its wall seconds."""
        span_id, start, parent_cpu, child_cpu = self._op_marks
        end = _clock()
        frame = self._stack.pop()
        self._stack = []
        self.op_seconds += end - start
        self.ops += 1
        self.add("engine.parent_cpu_s", _cpu_seconds(resource.RUSAGE_SELF) - parent_cpu)
        self.add("engine.worker_cpu_s", _cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu)
        self.spans.append((span_id, "op", self.op, None, start, end, end - start - frame[1]))
        self.cache_stats.extend(cache.stats() for cache in self._caches)
        self._caches = []
        self.op = None
        return end - start

    def track_cache(self, cache) -> None:
        """Register an ExecutionCache built during the op (stats read at op end)."""
        self._caches.append(cache)

    # -- span recording -------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name, fold, fn, args, kwargs, observe):
        if self.op is None or os.getpid() != self.pid:
            return fn(*args, **kwargs)
        if name is None:  # observe-only shim
            result = fn(*args, **kwargs)
            observe(self, result, args, True)
            return result
        stack = self._stack
        parent = stack[-1]
        frame = [name, 0.0, None if fold else self._new_id()]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            parent[1] += duration
            self_seconds = duration - frame[1]
            outer = layer_name(parent[0]) != layer_name(name)
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_seconds
            if outer:
                entry[3] += duration
            if not fold:
                parent_id = next(f[2] for f in reversed(stack) if f[2] is not None)
                self.spans.append((frame[2], name, self.op, parent_id, start, end, self_seconds))
        if observe is not None:
            observe(self, result, args, outer)
        return result

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None, *, fold: bool = False, observe=None):
        """Replace ``owner.attr`` with a recording shim (restored by uninstall)."""
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return tracer.call(name, fold, fn, args, kwargs, observe)

        setattr(owner, attr, kind(shim) if kind is not None else shim)
        self._patches.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write the header, per-name totals and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for name, (calls, seconds, self_seconds, outer) in sorted(self.totals.items()):
                handle.write(
                    json.dumps(
                        {
                            "total": name,
                            "calls": calls,
                            "seconds": seconds,
                            "self_seconds": self_seconds,
                            "outer_seconds": outer,
                        }
                    )
                    + "\n"
                )
            for span_id, name, op, parent, start, end, self_seconds in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": name,
                            "op": op,
                            "parent": parent,
                            "start": start,
                            "end": end,
                            "self": self_seconds,
                        }
                    )
                    + "\n"
                )
