"""Crash-safe JSONL event sink: one file per process.

Every process with a sink directory appends JSON events (one object per
line) to its own ``trace-<pid>-<token>.jsonl`` under the telemetry
directory.  Writes are line-buffered and flushed per event, so a
``SIGKILL`` at any instant loses at most the final partial line — the
trace viewer (:mod:`repro.telemetry.viewer`) skips unparseable tails
by design.  Per-process files mean no cross-process locking and no
interleaved lines; shard servers, pool workers and the client all just
inherit ``REPRO_TELEMETRY_DIR`` and write beside each other.

At interpreter exit the sink appends one final ``metrics`` event with
the registry snapshot, so a trace directory is self-contained: spans
plus each process's closing counters.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time

__all__ = ["JsonlSink"]


class JsonlSink:
    """Append-only JSONL writer with per-line flushes."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(
            directory,
            f"trace-{os.getpid()}-{time.time_ns() & 0xFFFFFF:06x}.jsonl")
        self._lock = threading.Lock()
        self._fh = None
        self._closed = False

    def _ensure_open(self):
        if self._fh is None and not self._closed:
            os.makedirs(self.directory, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8", buffering=1)
        return self._fh

    def write(self, event: dict) -> None:
        """Append one event; a flush per line bounds crash loss."""
        try:
            line = json.dumps(event, separators=(",", ":"))
        except (TypeError, ValueError):
            return  # never let a bad attr kill the instrumented path
        with self._lock:
            fh = self._ensure_open()
            if fh is None:
                return
            try:
                fh.write(line + "\n")
                fh.flush()
            except OSError:
                self._closed = True  # disk gone: stop trying, keep running

    def close(self, final_event: dict | None = None) -> None:
        """Optionally append a final event, then close the file."""
        if final_event is not None:
            self.write(final_event)
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None
            self._closed = True

    def register_atexit(self, snapshot_fn) -> None:
        """Arrange the closing ``metrics`` event at interpreter exit."""

        def _finalise():
            try:
                self.close({"event": "metrics", "pid": os.getpid(),
                            "ts": time.time(), "metrics": snapshot_fn()})
            except Exception:
                pass

        atexit.register(_finalise)
