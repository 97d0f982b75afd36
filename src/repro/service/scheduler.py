"""The scheduler daemon: leases queued studies and runs them to archive.

A :class:`SchedulerWorker` is the long-lived job-processing loop the
queue implies (the cerebrum scheduled-jobs idiom: declarative job
specs on disk, a daemon that leases and executes them, requeue on
failure, an operator CLI to nudge).  An idle worker sleeps until
:meth:`~SchedulerWorker.wake` (its own replica accepted a submission)
or, at the latest, one ``poll_interval`` — the fallback that finds
submissions and expired leases other replicas left in the shared
directory.  Each pass it

1. reaps stale leases (a dead replica's studies return to the pool);
2. walks the eligible entries in priority order and tries to
   :meth:`~repro.service.queue.StudyQueue.acquire_lease` each — the
   ``O_EXCL`` lease file is the only coordination, so any number of
   workers (threads here, whole daemons across hosts) can share one
   queue and a study runs exactly once;
3. runs the leased study through the ordinary
   :func:`~repro.study.run_study` with ``resume=True`` and the
   service's ``checkpoint_every`` — a worker that dies mid-study
   leaves a checkpoint, and whichever worker adopts the study next
   recomputes **zero** completed rounds;
4. keeps the study's progress counts in memory as rounds land (its
   own replica's status and stream routes read them there), and
   refreshes the lease file only for liveness: once ``lease_ttl / 4``
   has passed since the lease was taken or last refreshed, with the
   counts of the moment — which is what *other* replicas read;
5. on success archives-and-dequeues; on failure requeues with the
   :class:`~repro.resilience.RetryPolicy` backoff schedule until the
   retry budget is spent, then parks the entry ``failed`` with the
   error named for the operator.

After it takes a lease, as progress lands (at most every 0.1 s, and at
each batch end) and after it releases the lease the worker calls
``on_change``, which the service uses to push the new state to open
progress streams instead of leaving them to poll.

Shutdown is cooperative: :meth:`SchedulerWorker.stop` raises
:class:`StudyInterrupted` out of the running study's progress callback;
``run_study`` flushes the checkpoint on the way out (so nothing
completed is lost), the worker releases the lease, and the study stays
``queued`` for the next daemon.
"""

from __future__ import annotations

import threading
import time
import traceback

from repro import telemetry
from repro.resilience import RetryPolicy
from repro.service.config import ServiceConfig
from repro.service.queue import QueueEntry, StudyQueue
from repro.study.runner import run_study
from repro.study.spec import StudySpec

__all__ = ["SchedulerWorker", "StudyInterrupted"]


class StudyInterrupted(Exception):
    """Raised inside a study's progress callback to abort it cleanly."""


class SchedulerWorker(threading.Thread):
    """One scheduler loop over a shared :class:`StudyQueue`.

    Parameters
    ----------
    queue:
        The queue (and archive directory) to serve.
    config:
        Service knobs: poll cadence, lease TTL, retry budget,
        checkpoint cadence.
    engine:
        The shared :class:`~repro.engine.EvaluationEngine` studies run
        on when their spec names no engine of its own (a spec with an
        :class:`~repro.study.EngineConfig` gets a fresh engine built
        from it — the submitter's placement preference wins).
    name:
        Worker name, stamped into lease files (``owner``).
    on_change:
        Called with no arguments, from the worker's thread, whenever the
        state of the study it runs changes (leased, progress landed,
        lease released).
    """

    def __init__(self, queue: StudyQueue, config: ServiceConfig, *,
                 engine=None, name: str = "scheduler-0", on_change=None):
        super().__init__(name=name, daemon=True)
        self.queue = queue
        self.config = config
        self.engine = engine
        self.policy = RetryPolicy(retries=config.retries,
                                  backoff=config.backoff,
                                  max_backoff=max(config.backoff, 30.0))
        self._on_change = on_change or (lambda: None)
        self._stop_event = threading.Event()
        self._wake = threading.Event()
        self._idle = threading.Event()
        # (entry, done, total) of the study this worker runs, replaced
        # whole so a reader on another thread sees one consistent tuple.
        self._running: tuple[QueueEntry, int, int] | None = None

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Ask the worker to finish up: the current study checkpoints
        and requeues, the loop exits."""
        self._stop_event.set()
        self._wake.set()

    def wake(self) -> None:
        """Make an idle worker scan the queue now, not at its next poll."""
        self._wake.set()

    @property
    def running_fingerprint(self) -> str | None:
        """The study this worker is executing right now, if any."""
        running = self._running
        return running[0].fingerprint if running is not None else None

    def running_status(self, fingerprint: str) -> dict | None:
        """``fingerprint``'s ``running`` status if this worker runs it,
        shaped like :meth:`StudyQueue.study_state`'s, with the progress
        counts from memory (the lease file holds those of its last
        refresh only)."""
        running = self._running
        if running is None or running[0].fingerprint != fingerprint:
            return None
        entry, done, total = running
        return {"fingerprint": fingerprint, "state": "running",
                "progress": {"done": done, "total": total},
                "owner": self.name, "attempts": entry.attempts,
                "priority": entry.priority}

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the worker has nothing leased (for tests)."""
        return self._idle.wait(timeout)

    # -- the loop ----------------------------------------------------------

    def run(self) -> None:
        while not self._stop_event.is_set():
            # Cleared before the scan, never between scan and wait: a
            # wake() that lands mid-scan then cuts the next wait short.
            self._wake.clear()
            leased = False
            try:
                self.queue.reap_stale_leases(ttl=self.config.lease_ttl)
                leased = self._lease_and_run_one()
            except Exception:
                # The loop is the daemon's spine: log-and-continue
                # beats dying to a transient filesystem error.
                telemetry.counter("service.scheduler.loop_errors").inc()
                traceback.print_exc()
            if not leased:
                self._idle.set()
                self._wake.wait(self.config.poll_interval)
        self._idle.set()

    def _lease_and_run_one(self) -> bool:
        """Lease the highest-priority eligible study and run it."""
        for listed in self.queue.pending():
            if self._stop_event.is_set():
                return False
            if not self.queue.acquire_lease(listed.fingerprint,
                                            owner=self.name):
                continue
            # The listing may be stale: another worker may have run and
            # removed the study, or failed and backed it off, and
            # released its lease since.  Under the lease, this read is
            # current.
            entry = self.queue.get(listed.fingerprint)
            if entry is None or entry.state != "queued" or \
                    entry.not_before > time.time():
                self.queue.release_lease(listed.fingerprint)
                continue
            self._idle.clear()
            self._running = (entry, 0, 0)
            self._on_change()
            try:
                self._run_entry(entry)
            finally:
                self._running = None
                self.queue.release_lease(entry.fingerprint)
                self._on_change()
            return True
        return False

    def _run_entry(self, entry: QueueEntry) -> None:
        beat_at = time.monotonic()  # acquire_lease stamped the lease
        fingerprint = entry.fingerprint
        try:
            spec = StudySpec.from_obj(entry.study)
        except (TypeError, ValueError, KeyError) as exc:
            # A malformed document can never succeed: park it failed
            # immediately, no retries.
            self._park_failed(entry, f"unloadable StudySpec: {exc}")
            return

        engine = self._engine_for(spec)
        pushed_at = 0.0

        def progress(done: int, total: int) -> None:
            nonlocal pushed_at, beat_at
            if self._stop_event.is_set():
                raise StudyInterrupted(fingerprint)
            self._running = (entry, done, total)
            now = time.monotonic()
            # The lease only proves this worker alive to the reapers: a
            # refresh is an fsync'd file replace, so it comes four times
            # per TTL, never per round.
            if now - beat_at >= self.config.lease_ttl / 4:
                self.queue.heartbeat(fingerprint, done=done, total=total,
                                     owner=self.name)
                beat_at = now
            # Throttled: rounds can land thousands per second from a
            # warm cache.
            if now - pushed_at >= 0.1 or done >= total:
                pushed_at = now
                self._on_change()

        try:
            with telemetry.trace_span("service.study", kind=spec.kind):
                run_study(
                    spec, engine=engine, progress=progress,
                    archive_dir=self.queue.archive_dir, resume=True,
                    checkpoint_every=self.config.checkpoint_every)
        except StudyInterrupted:
            # Graceful shutdown: run_study already flushed the
            # checkpoint; the entry stays queued for the next daemon.
            telemetry.counter("service.scheduler.interrupted").inc()
            return
        except Exception as exc:
            self._requeue_or_fail(entry, exc)
            return
        self.queue.remove(fingerprint)
        telemetry.counter("service.studies.completed").inc()

    def _engine_for(self, spec: StudySpec):
        if spec.engine is not None:
            return spec.engine.build()
        if self.engine is not None:
            return self.engine
        from repro.engine import resolve_engine

        return resolve_engine(None)

    def _requeue_or_fail(self, entry: QueueEntry, exc: Exception) -> None:
        """The requeue-on-failure path: backoff, then park failed."""
        entry = self.queue.get(entry.fingerprint) or entry
        attempt = entry.attempts  # 0-based index into the retry schedule
        entry.attempts += 1
        entry.last_error = f"{type(exc).__name__}: {exc}"
        if attempt < self.policy.retries:
            delay = self.policy.delay(entry.fingerprint, attempt)
            entry.state = "queued"
            entry.not_before = time.time() + delay
            telemetry.counter("service.studies.requeued").inc()
            telemetry.counter("retry.attempts").inc()
        else:
            entry.state = "failed"
            telemetry.counter("service.studies.failed").inc()
        self.queue.update(entry)

    def _park_failed(self, entry: QueueEntry, reason: str) -> None:
        entry = self.queue.get(entry.fingerprint) or entry
        entry.state = "failed"
        entry.last_error = reason
        telemetry.counter("service.studies.failed").inc()
        self.queue.update(entry)
