"""repro.telemetry — unified metrics, tracing and profiling.

One observability layer for every tier, and the one place anything
is counted: the engine's rounds, batches and stage timings, both cache
tiers' hit counters, the cluster scheduler's placement and requeue
behaviour, shard-side chunk spans, the service's studies, and retry
attempts all flow through this module.  Metrics are always on: every
counter, histogram and span timing records, in every process, with
no switch to turn them off.

Trace sink
----------
The one setting is where span events go.  ``REPRO_TELEMETRY_DIR=<dir>``
(or ``--telemetry-dir``) opens the JSONL trace sink: every process —
client, pool workers (they follow their owner's :func:`arming`,
shipped with each chunk), autospawned shards (they inherit the
environment) — writes spans to its own ``trace-<pid>-*.jsonl`` under
the directory.  ``repro trace <dir>`` renders the merged tree.
Without a directory nothing touches the disk.

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

from repro.telemetry.metrics import (DEFAULT_BUCKETS, Counter, Histogram,
                                     MetricsRegistry, diff_snapshots)
from repro.telemetry.tracing import Tracer

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "arming",
    "configure",
    "counter",
    "diff_snapshots",
    "flush_delta",
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


class _State:
    __slots__ = ("directory", "registry", "tracer", "sink")

    def __init__(self, directory: str | None):
        self.directory = directory
        self.registry = MetricsRegistry()
        self.sink = None
        if directory:
            from repro.telemetry.sink import JsonlSink

            self.sink = JsonlSink(directory)
            self.sink.register_atexit(self.registry.snapshot)
        self.tracer = Tracer(self.registry, self.sink)


_state: _State | None = None
_state_lock = threading.Lock()
# Names this process to its peers (see process_token()).
_token = os.urandom(8).hex()


def _after_fork() -> None:
    # A forked child's state is its parent's: a pool worker's first
    # flush_delta() would ship the parent's counts back to be merged a
    # second time.  Drop it without writing anything, so the child
    # starts from an empty registry (its sink directory re-read from
    # the environment) and opens its own sink file.  The lock is
    # replaced, not taken: the fork may have copied it mid-hold.  The
    # child is a new peer, so it draws its own token.
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
                state = _state = _State(
                    os.environ.get("REPRO_TELEMETRY_DIR") or None)
    return state


def configure(directory: str | None = None, *,
              metrics_only: bool = False) -> MetricsRegistry:
    """Replace the current state with a fresh registry, and return it.

    ``directory`` also opens the JSONL span sink there and exports
    ``REPRO_TELEMETRY_DIR`` so spawned workers and shards inherit it;
    without one the variable is cleared and no process writes spans.
    Metrics record either way, so ``metrics_only=True`` is the same as
    passing no directory: the keyword stays because callers written
    when it armed the registry (``e2ebench/run.py`` among them) still
    pass it.
    """
    global _state
    with _state_lock:
        if directory:
            os.environ["REPRO_TELEMETRY_DIR"] = directory
        else:
            os.environ.pop("REPRO_TELEMETRY_DIR", None)
        _state = _State(directory or None)
        return _state.registry


def arming() -> str | None:
    """This process's sink directory (``None``: no sink), which a pool
    owner ships with each chunk for :func:`rearm` in the worker."""
    return _ensure().directory


def rearm(directory: str | None) -> None:
    """Match :func:`arming`'s ``directory`` from another process.

    A long-lived pool worker calls this before each chunk: its own
    directory was copied at fork time, and the owner may have
    reconfigured since.  A matching directory keeps the current state
    (and registry); a different one closes it, as :func:`reset` does,
    and reconfigures.
    """
    if arming() == directory:
        return
    reset()
    configure(directory)


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


def trace_dir() -> str | None:
    """The span sink's directory, or ``None``."""
    return _ensure().directory


def registry() -> MetricsRegistry:
    """The live process registry."""
    return _ensure().registry


def counter(name: str) -> Counter:
    """The named counter (created on first use)."""
    return _ensure().registry.counter(name)


def histogram(name: str, buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
    """The named histogram (created with ``buckets`` on first use)."""
    return _ensure().registry.histogram(name, buckets)


def trace_span(name: str, **attrs):
    """Context manager timing a named span: it feeds the
    ``span.<name>.seconds`` histogram, and the sink when one is open."""
    return _ensure().tracer.span(name, attrs)


def snapshot() -> dict:
    """The registry's full snapshot."""
    return _ensure().registry.snapshot()


def flush_delta() -> dict | None:
    """Ship-and-reset delta for cross-process piggybacking.

    ``None`` when nothing changed — callers then omit the field from
    replies entirely.
    """
    return _ensure().registry.flush_delta()


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
        "stages": stages,
    }
