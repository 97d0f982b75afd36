"""Span-based tracing with thread-local parent/child nesting.

``trace_span("fit", round_key=...)`` is a context manager.  On exit
every span feeds a ``span.<name>.seconds`` histogram, so per-stage
time breakdowns are available from metrics alone (and therefore from
study provenance and shard deltas) with no sink directory.  When a
sink is open it also emits one JSONL event carrying the span's name,
ids, wall-clock start, duration and attributes — end-emission means
children appear before their parents in the file, and the viewer
rebuilds the tree from the ``parent`` field.

Span ids are small per-process integers; ``(pid, span)`` is globally
unique within a trace directory because each process writes its own
file.  The parent stack is thread-local: spans nest per thread, and
cross-thread work (scheduler shard workers, server connection threads)
starts fresh roots, which is the truthful shape.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_t0", "_ts")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(self._tracer._ids)
        stack.append(self.span_id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._tracer._finish(self, duration, exc_type)
        return False


class Tracer:
    """Produces spans bound to a registry and an optional sink."""

    def __init__(self, registry, sink=None):
        self.registry = registry
        self.sink = sink
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: dict) -> _Span:
        return _Span(self, name, attrs)

    def _finish(self, span: _Span, duration: float, exc_type) -> None:
        self.registry.histogram(f"span.{span.name}.seconds") \
            .observe(duration)
        if self.sink is not None:
            event = {
                "event": "span",
                "name": span.name,
                "pid": os.getpid(),
                "span": span.span_id,
                "parent": span.parent_id,
                "ts": span._ts,
                "dur": duration,
            }
            if span.attrs:
                event["attrs"] = span.attrs
            if exc_type is not None:
                event["error"] = exc_type.__name__
            self.sink.write(event)
