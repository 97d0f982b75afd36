"""Process-local metrics: counters and fixed-bucket histograms.

One :class:`MetricsRegistry` lives per process (module singleton owned
by :mod:`repro.telemetry`).  All instruments are thread-safe behind one
registry lock and deliberately tiny: a counter is an integer, a
histogram is a tuple of bucket boundaries plus per-bucket counts, a
sum and a count.  Everything exports to plain dicts (``snapshot``) so
metrics travel over the cluster protocol and land in study provenance
without any custom serialisation.

Cross-process aggregation uses a delta discipline rather than shared
memory: a worker or shard calls :meth:`MetricsRegistry.flush_delta`
(everything accumulated since the previous flush) and ships the dict
back piggybacked on its normal reply; the client calls
:meth:`MetricsRegistry.merge` to fold it in.  Counters and histograms
add.

The registry is always live: every instrument handed out records, so
it is the one tally of anything the program counts.
"""

from __future__ import annotations

import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
]

# Seconds-scale latency boundaries: wide enough for a 10 us cache probe
# and a multi-minute cluster chunk in the same instrument.  An implicit
# +Inf bucket always terminates the list.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self.value += n


class Histogram:
    """Fixed-boundary histogram of float observations (seconds).

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    is the implicit +Inf bucket.  ``sum``/``count`` give the mean.
    """

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.RLock,
                 buckets: tuple = DEFAULT_BUCKETS):
        self._lock = lock
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class MetricsRegistry:
    """Thread-safe name → instrument map with snapshot/delta export."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        # Watermarks for flush_delta: what has already been shipped.
        self._flushed_counters: dict[str, int] = {}
        self._flushed_histograms: dict[str, tuple] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(self._lock)
            return inst

    def histogram(self, name: str,
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        """The histogram under ``name`` (created with ``buckets``)."""
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(self._lock,
                                                          buckets)
            return inst

    def snapshot(self) -> dict:
        """Everything, as a plain JSON-safe dict."""
        with self._lock:
            return {
                "counters": {n: c.value
                             for n, c in sorted(self._counters.items())},
                "histograms": {
                    n: {"buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum, "count": h.count}
                    for n, h in sorted(self._histograms.items())
                },
            }

    def flush_delta(self) -> dict | None:
        """Counters/histograms accumulated since the previous flush.

        Returns ``None`` when nothing changed, so callers can omit the
        field from wire messages entirely.
        """
        with self._lock:
            counters = {}
            for name, c in self._counters.items():
                delta = c.value - self._flushed_counters.get(name, 0)
                if delta:
                    counters[name] = delta
                    self._flushed_counters[name] = c.value
            histograms = {}
            for name, h in self._histograms.items():
                prev = self._flushed_histograms.get(name)
                if prev is None:
                    prev = ([0] * len(h.counts), 0.0, 0)
                d_counts = [a - b for a, b in zip(h.counts, prev[0])]
                d_count = h.count - prev[2]
                if d_count:
                    histograms[name] = {
                        "buckets": list(h.buckets),
                        "counts": d_counts,
                        "sum": h.sum - prev[1],
                        "count": d_count,
                    }
                    self._flushed_histograms[name] = (
                        list(h.counts), h.sum, h.count)
        if not counters and not histograms:
            return None
        delta: dict = {}
        if counters:
            delta["counters"] = counters
        if histograms:
            delta["histograms"] = histograms
        return delta

    def merge(self, delta: dict | None) -> None:
        """Fold a remote :meth:`flush_delta` dict into this registry."""
        if not delta:
            return
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self.counter(name).value += int(value)
            for name, data in delta.get("histograms", {}).items():
                h = self.histogram(name,
                                   tuple(data.get("buckets",
                                                  DEFAULT_BUCKETS)))
                counts = data.get("counts", [])
                if len(counts) == len(h.counts):
                    for i, n in enumerate(counts):
                        h.counts[i] += int(n)
                else:  # boundary mismatch: keep sum/count, drop shape
                    h.counts[-1] += int(data.get("count", 0))
                h.sum += float(data.get("sum", 0.0))
                h.count += int(data.get("count", 0))


def diff_snapshots(before: dict, after: dict) -> dict:
    """``after - before`` for two :meth:`MetricsRegistry.snapshot` dicts.

    Used to scope a study's provenance summary to the study itself when
    the process registry already holds earlier activity.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, data in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name)
        if prev is None:
            if data.get("count"):
                histograms[name] = data
            continue
        d_count = data.get("count", 0) - prev.get("count", 0)
        if not d_count:
            continue
        histograms[name] = {
            "buckets": data.get("buckets", []),
            "counts": [a - b for a, b in zip(data.get("counts", []),
                                             prev.get("counts", []))],
            "sum": data.get("sum", 0.0) - prev.get("sum", 0.0),
            "count": d_count,
        }
    return {
        "counters": counters,
        "histograms": histograms,
    }
