"""repro.telemetry — unified metrics, tracing and profiling.

One observability layer for every tier: the engine's stage timings,
both cache tiers' hit counters, the cluster scheduler's placement and
requeue behaviour, shard-side chunk spans, and retry attempts all flow
through this module.  It is **disabled by default** and the disabled
path is a no-op — shared singleton instruments, no allocation, no
I/O — so the hot-path benchmark floors are unaffected.

Enabling
--------
``REPRO_TELEMETRY_DIR=<dir>`` (or ``--telemetry-dir``) arms metrics
*and* the JSONL trace sink: every process — client, pool workers
(they follow their owner's :func:`arming`, shipped with each chunk),
autospawned shards (they inherit the environment) — writes spans to
its own ``trace-<pid>-*.jsonl`` under the directory.  ``repro trace
<dir>`` renders the merged tree.  ``REPRO_TELEMETRY=1`` arms metrics
alone (counters, histograms, study provenance summaries) with no disk
I/O.

Aggregation
-----------
Metrics are process-local; cross-process totals use the delta
discipline (:meth:`~repro.telemetry.metrics.MetricsRegistry.flush_delta`
/ ``merge``): pool workers return a delta beside their outcomes,
cluster shards piggyback one on ``chunk_result`` messages, and the
client folds them into its own registry — so ``summary()`` on the
client covers the whole fleet regardless of backend.  A delta never
merges within one process: a shard in its client's process shares
the client's registry (:func:`process_token`).  ``summary()``
also derives per-stage time breakdowns from the ``span.<name>.seconds``
histograms every span feeds.

Typical instrumented call sites::

    from repro import telemetry

    telemetry.counter("cache.disk.hits").inc()
    with telemetry.trace_span("fit", rounds=len(group)):
        model.fit_many(...)
"""

from __future__ import annotations

import os
import threading

from repro.telemetry.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                                     NOOP_COUNTER, NOOP_GAUGE,
                                     NOOP_HISTOGRAM, diff_snapshots)
from repro.telemetry.tracing import NOOP_SPAN, Tracer

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "arming",
    "configure",
    "counter",
    "diff_snapshots",
    "enabled",
    "flush_delta",
    "gauge",
    "histogram",
    "merge",
    "process_token",
    "rearm",
    "registry",
    "reset",
    "snapshot",
    "summary",
    "trace_dir",
    "trace_span",
]

SUMMARY_SCHEMA_VERSION = 1

_TRUTHY = {"1", "true", "on", "yes"}


class _State:
    __slots__ = ("enabled", "directory", "registry", "tracer", "sink")

    def __init__(self, enabled: bool, directory: str | None):
        self.enabled = enabled
        self.directory = directory
        self.registry = MetricsRegistry()
        self.sink = None
        if enabled and directory:
            from repro.telemetry.sink import JsonlSink

            self.sink = JsonlSink(directory)
            self.sink.register_atexit(self.registry.snapshot)
        self.tracer = Tracer(self.registry, self.sink) if enabled \
            else None


_state: _State | None = None
_state_lock = threading.Lock()
# Names this process to its peers (see process_token()).
_token = os.urandom(8).hex()


def _after_fork() -> None:
    # A forked child's state is its parent's: a pool worker's first
    # flush_delta() would ship the parent's counts back to be merged a
    # second time.  Drop it without writing anything, so the child
    # starts from an empty registry (re-armed from the environment)
    # and opens its own sink file.  The lock is replaced, not taken:
    # the fork may have copied it mid-hold.  The child is a new peer,
    # so it draws its own token.
    global _state, _state_lock, _token
    _state, _state_lock = None, threading.Lock()
    _token = os.urandom(8).hex()


os.register_at_fork(after_in_child=_after_fork)


def _ensure() -> _State:
    global _state
    state = _state
    if state is None:
        with _state_lock:
            state = _state
            if state is None:
                directory = os.environ.get("REPRO_TELEMETRY_DIR") or None
                armed = bool(directory) or (
                    os.environ.get("REPRO_TELEMETRY", "").strip().lower()
                    in _TRUTHY)
                state = _state = _State(armed, directory)
    return state


def configure(directory: str | None = None, *,
              metrics_only: bool = False) -> None:
    """Explicitly (re)arm telemetry, replacing any current state.

    ``directory`` arms metrics plus the JSONL sink; ``metrics_only``
    arms metrics without disk I/O.  Also exports
    ``REPRO_TELEMETRY_DIR`` so spawned workers and shards inherit the
    setting.
    """
    global _state
    with _state_lock:
        if directory:
            os.environ["REPRO_TELEMETRY_DIR"] = directory
            _state = _State(True, directory)
        elif metrics_only:
            os.environ.pop("REPRO_TELEMETRY_DIR", None)
            os.environ["REPRO_TELEMETRY"] = "1"
            _state = _State(True, None)
        else:
            os.environ.pop("REPRO_TELEMETRY_DIR", None)
            os.environ.pop("REPRO_TELEMETRY", None)
            _state = _State(False, None)


def arming() -> tuple[bool, str | None]:
    """This process's setting as ``(enabled, directory)``: what a pool
    owner ships with each chunk, for :func:`rearm` in the worker."""
    state = _ensure()
    return state.enabled, state.directory


def rearm(setting: tuple[bool, str | None]) -> None:
    """Match :func:`arming`'s ``setting`` from another process.

    A long-lived pool worker calls this before each chunk: its own
    setting was copied at fork time, and the owner may have armed or
    disarmed telemetry since.  A matching setting keeps the current
    state (and registry); a different one closes it, as :func:`reset`
    does, and re-arms.
    """
    enabled, directory = setting
    if arming() == (enabled, directory):
        return
    reset()
    configure(directory, metrics_only=enabled)


def reset() -> None:
    """Drop all state; the next call re-reads the environment.

    An open sink is closed with the same final ``metrics`` event the
    atexit hook would write, so a trace directory is self-contained
    even when telemetry is torn down mid-process (tests, embedders).
    """
    global _state
    with _state_lock:
        state, _state = _state, None
    if state is not None and state.sink is not None:
        import time

        state.sink.close({"event": "metrics", "pid": os.getpid(),
                          "ts": time.time(),
                          "metrics": state.registry.snapshot()})


def enabled() -> bool:
    """Whether telemetry (metrics at least) is armed."""
    return _ensure().enabled


def trace_dir() -> str | None:
    """The armed JSONL directory, or ``None``."""
    return _ensure().directory


def registry() -> MetricsRegistry:
    """The live process registry (a real one even when disabled, so
    tests can inspect; instruments reached through it always record)."""
    return _ensure().registry


def counter(name: str):
    """The named counter, or the shared no-op when disabled."""
    state = _ensure()
    return state.registry.counter(name) if state.enabled \
        else NOOP_COUNTER


def gauge(name: str):
    """The named gauge, or the shared no-op when disabled."""
    state = _ensure()
    return state.registry.gauge(name) if state.enabled else NOOP_GAUGE


def histogram(name: str, buckets: tuple = DEFAULT_BUCKETS):
    """The named histogram, or the shared no-op when disabled."""
    state = _ensure()
    return state.registry.histogram(name, buckets) if state.enabled \
        else NOOP_HISTOGRAM


def trace_span(name: str, **attrs):
    """Context manager timing a named span (no-op when disabled)."""
    state = _ensure()
    if state.tracer is None:
        return NOOP_SPAN
    return state.tracer.span(name, attrs)


def snapshot() -> dict:
    """The registry's full snapshot (empty shapes when disabled)."""
    return _ensure().registry.snapshot()


def flush_delta() -> dict | None:
    """Ship-and-reset delta for cross-process piggybacking.

    ``None`` when disabled or when nothing changed — callers omit the
    field from replies entirely in both cases.
    """
    state = _ensure()
    if not state.enabled:
        return None
    return state.registry.flush_delta()


def merge(delta: dict | None) -> None:
    """Fold a worker/shard delta into the local registry."""
    if delta:
        _ensure().registry.merge(delta)


def process_token() -> str:
    """A random name for this process (drawn again in a forked child).

    A shard's welcome carries it; a client never merges the delta of a
    shard whose token equals its own (that shard shares its registry).
    """
    return _token


def summary(since: dict | None = None) -> dict:
    """A JSON-safe roll-up for study provenance and reports.

    ``since`` (an earlier :func:`snapshot`) scopes the roll-up to the
    activity in between.  The ``stages`` section aggregates every
    ``span.<name>.seconds`` histogram to ``{count, seconds}`` — the
    per-stage time breakdown ``repro report --telemetry`` renders.
    """
    snap = snapshot()
    if since is not None:
        snap = diff_snapshots(since, snap)
    stages = {}
    for name, data in snap.get("histograms", {}).items():
        if name.startswith("span.") and name.endswith(".seconds"):
            stage = name[len("span."):-len(".seconds")]
            stages[stage] = {"count": data.get("count", 0),
                             "seconds": round(data.get("sum", 0.0), 6)}
    return {
        "schema": SUMMARY_SCHEMA_VERSION,
        "counters": snap.get("counters", {}),
        "gauges": snap.get("gauges", {}),
        "stages": stages,
    }
