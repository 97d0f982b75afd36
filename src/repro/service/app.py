"""`repro serve` — studies-as-a-service over one shared archive dir.

:class:`ReproService` composes the tier: the asyncio HTTP front
(:mod:`repro.service.http`), the persistent queue
(:mod:`repro.service.queue`), and one or more scheduler workers
(:mod:`repro.service.scheduler`).  The route table:

====================================  =======================================
``POST /studies``                     submit a StudySpec JSON (optionally
                                      ``{"study": ..., "priority": N}``);
                                      returns the fingerprint; a study
                                      already archived, queued or running is
                                      **never** recomputed (dedupe by
                                      fingerprint)
``GET /studies/{fp}``                 status: queued / running / done /
                                      failed (+ progress counts and queue
                                      position)
``GET /studies/{fp}/stream``          chunked live progress events (JSON
                                      lines) until the study reaches a
                                      terminal state
``GET /studies/{fp}/result``          the archived StudyResult JSON
``GET /studies/{fp}/report``          the rendered report text
``GET /health``                       liveness + queue counts + this
                                      replica's studies completed and
                                      failed + workers
``GET /queue``                        full queue listing + service counters
====================================  =======================================

Every route sits behind bearer-token auth
(:class:`~repro.service.auth.AuthPolicy`; ``REPRO_SERVICE_TOKEN``).

**Multi-instance story**: the service keeps *no* authoritative state in
memory — the archive directory holds the results, the queue directory
holds the submissions, and lease files hold the run locks.  N
instances of ``repro serve`` pointed at one shared ``--archive-dir``
(plus a shard fleet for the compute tier) therefore behave as one
service: any replica answers status/stream/result for any study, and
the ``O_EXCL`` lease guarantees each fingerprint runs exactly once
fleet-wide.  Every route resolves a study's state the same way: the
archive means ``done``; a study one of this replica's workers runs is
``running`` with that worker's in-memory progress; anything else is
read from the queue directory.  Another replica's progress therefore
reaches a stream at the cadence its worker refreshes the lease —
every quarter of the lease TTL.

Within one replica nothing waits on a poll: ``POST /studies`` wakes
the replica's idle workers, and a worker pushes each change of the
study it runs (leased, progress landed, released) to the replica's
open streams.  The ``poll_interval`` remains only as the fallback
cadence at which workers and streams notice changes other replicas
made.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading

from repro import telemetry
from repro.service.auth import AuthPolicy
from repro.service.config import ServiceConfig
from repro.service.http import (HttpError, HttpServer, Request, Response,
                                json_response, text_response)
from repro.service.queue import StudyQueue
from repro.service.scheduler import SchedulerWorker
from repro.study.archive import archive_summary
from repro.study.runner import archive_path
from repro.study.spec import StudySpec

__all__ = ["ReproService", "serve"]

_TERMINAL_STATES = ("done", "failed", "cancelled")


class ReproService:
    """The whole service tier behind one object (start/stop for tests,
    :meth:`serve_forever` for the CLI).

    Parameters
    ----------
    config:
        Validated knobs (:class:`~repro.service.config.ServiceConfig`).
    engine:
        Shared :class:`~repro.engine.EvaluationEngine` for studies
        whose spec names no engine (the CLI builds it from the usual
        ``--backend/--jobs/--shards/--cache-dir`` flags).
    workers:
        Scheduler worker threads in *this* process (more daemons on
        other hosts can share the directory; the leases coordinate).
    """

    def __init__(self, config: ServiceConfig, *, engine=None,
                 workers: int = 1):
        self.config = config
        os.makedirs(config.archive_dir, exist_ok=True)
        self.queue = StudyQueue(config.archive_dir)
        self.auth = AuthPolicy(config.token)
        self.workers = [
            SchedulerWorker(self.queue, config, engine=engine,
                            name=f"scheduler-{i}-pid{os.getpid()}",
                            on_change=self._notify_streams)
            for i in range(max(0, int(workers)))
        ]
        self._http = HttpServer(self._route, host=config.host,
                                port=config.port)
        self._loop: asyncio.AbstractEventLoop | None = None
        # Set (and replaced) on the loop whenever a local worker changes
        # a study's state; every open stream waits on the current one.
        self._changed = asyncio.Event()
        self._loop_thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._start_error: BaseException | None = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._http.host

    @property
    def port(self) -> int:
        return self._http.port

    def start(self) -> "ReproService":
        """Bind the HTTP listener and start the scheduler workers."""
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-service-http", daemon=True)
        self._loop_thread.start()
        self._ready.wait()
        if self._start_error is not None:
            self._loop_thread.join(timeout=5.0)
            raise self._start_error
        for worker in self.workers:
            worker.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, checkpoint, exit.

        Ordering matters and mirrors the SIGTERM contract: (1) the
        listener closes and in-flight connections are cancelled, so no
        new work arrives; (2) workers stop — the running study's
        progress callback raises, ``run_study`` flushes its checkpoint,
        the lease is released and the entry stays queued.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(self._http.stop(),
                                                      self._loop)
            try:
                future.result(timeout=10.0)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        for worker in self.workers:
            worker.stop()
        for worker in self.workers:
            if worker.is_alive():
                worker.join(timeout=30.0)

    def serve_forever(self) -> int:
        """Run until SIGTERM/SIGINT, then shut down gracefully (exit 0)."""
        stop_signal = threading.Event()

        def _on_signal(signum, frame):
            stop_signal.set()

        previous = {sig: signal.signal(sig, _on_signal)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        try:
            self.start()
            self.announce()
            while not stop_signal.is_set():
                stop_signal.wait(0.5)
        finally:
            self.stop()
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        return 0

    def announce(self, stream=None) -> None:
        """Print the machine-parsable READY line (mirrors the shard
        server's; orchestrators parse it for the bound port)."""
        stream = stream if stream is not None else sys.stdout
        print(f"READY host={self.host} port={self.port} "
              f"archive={self.config.archive_dir} "
              f"auth={'on' if self.auth.enabled else 'off'} "
              f"pid={os.getpid()}", file=stream, flush=True)
        if not self.auth.enabled:
            print("WARNING: REPRO_SERVICE_TOKEN is unset — the service "
                  "is running OPEN (no auth); fine on a loopback dev "
                  "box, not in production", file=sys.stderr, flush=True)

    def _run_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._http.start())
        except BaseException as exc:
            self._start_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _notify_streams(self) -> None:
        """Wake every open progress stream (called from worker threads)."""
        try:
            self._loop.call_soon_threadsafe(self._wake_streams)
        except RuntimeError:
            pass  # the loop has closed: no stream is left to wake

    def _wake_streams(self) -> None:
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    # -- routing -----------------------------------------------------------

    async def _route(self, request: Request) -> Response:
        telemetry.counter("service.http.requests").inc()
        refusal = self.auth.refusal(request.header("authorization"))
        if refusal is not None:
            telemetry.counter("service.http.unauthorized").inc()
            return json_response({"error": refusal}, status=401)
        with telemetry.trace_span("service.request", method=request.method,
                                  path=request.path):
            return self._dispatch(request)

    def _dispatch(self, request: Request) -> Response:
        parts = [p for p in request.path.split("/") if p]
        if parts == ["health"]:
            return self._require(request, "GET", self._health)
        if parts == ["queue"]:
            return self._require(request, "GET", self._queue_listing)
        if parts == ["studies"]:
            return self._require(request, "POST", self._submit)
        if len(parts) >= 2 and parts[0] == "studies":
            fingerprint = parts[1]
            tail = parts[2:]
            if not tail:
                return self._require(
                    request, "GET",
                    lambda req: self._status(fingerprint))
            if tail == ["stream"]:
                return self._require(
                    request, "GET",
                    lambda req: self._stream(fingerprint))
            if tail == ["result"]:
                return self._require(
                    request, "GET",
                    lambda req: self._result(fingerprint))
            if tail == ["report"]:
                return self._require(
                    request, "GET",
                    lambda req: self._report(fingerprint))
        raise HttpError(404, f"no route {request.method} {request.path}; "
                             f"see /health, /queue, /studies")

    @staticmethod
    def _require(request: Request, method: str, handler) -> Response:
        if request.method != method:
            raise HttpError(405, f"{request.path} supports {method} only")
        return handler(request)

    # -- state -------------------------------------------------------------

    def _study_state(self, fingerprint: str) -> dict | None:
        """The status every route reports for ``fingerprint``, or ``None``.

        The archive means ``done``; a study a local worker runs is
        ``running`` with the worker's in-memory progress (one ``stat``,
        no file read); the rest — another replica's running study
        included — is :meth:`StudyQueue.study_state` from disk.
        """
        if not os.path.exists(archive_path(self.config.archive_dir,
                                           fingerprint)):
            for worker in self.workers:
                status = worker.running_status(fingerprint)
                if status is not None:
                    return status
        return self.queue.study_state(fingerprint)

    # -- routes ------------------------------------------------------------

    def _submit(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "the body must be a JSON object (a "
                                 "StudySpec document, or {'study': ..., "
                                 "'priority': N})")
        priority = 0
        if "study" in doc and doc.get("type") != "StudySpec":
            try:
                priority = int(doc.get("priority", 0))
            except (TypeError, ValueError):
                raise HttpError(400, f"bad priority "
                                     f"{doc.get('priority')!r}: expected "
                                     f"an integer")
            doc = doc["study"]
        try:
            spec = StudySpec.from_obj(doc)
        except (TypeError, ValueError, KeyError) as exc:
            raise HttpError(400, f"not a loadable StudySpec document: "
                                 f"{exc}")
        if spec.context is None:
            raise HttpError(400, "the service cannot run a StudySpec "
                                 "with context=None: name a ContextSpec "
                                 "in the document")
        fingerprint = spec.fingerprint()
        archived = archive_path(self.config.archive_dir, fingerprint)
        created = False
        # Already computed, ever: the strongest dedupe tier.
        if not os.path.exists(archived):
            _, created = self.queue.submit(spec, priority=priority)
            if created and os.path.exists(archived):
                # A worker archived the study and removed its entry
                # between the check and the submit: withdraw the entry.
                self.queue.remove(fingerprint)
                created = False
        if created:
            telemetry.counter("service.submits.accepted").inc()
            # The state at acceptance, even if a worker (another
            # replica's, or one on its fallback poll) leased it since.
            status = {"state": "queued",
                      "queue_position": self.queue.position(fingerprint)}
        else:
            telemetry.counter("service.submits.deduped").inc()
            status = self._study_state(fingerprint) or {}
        body = {"fingerprint": fingerprint,
                "state": status.get("state", "queued"),
                "deduped": not created}
        if status.get("queue_position") is not None:
            body["queue_position"] = status["queue_position"]
        response = json_response(body, status=202 if created else 200)
        if created:
            for worker in self.workers:
                worker.wake()
        return response

    def _status(self, fingerprint: str) -> Response:
        status = self._study_state(fingerprint)
        if status is None:
            raise HttpError(404, f"unknown study {fingerprint}: not "
                                 f"archived, queued or running here")
        if status["state"] == "done":
            # Reuse the archive-ls scanner for the result's summary.
            try:
                status["summary"] = archive_summary(status.pop("archive"))
            except (OSError, ValueError):
                status.pop("archive", None)
        return json_response(status)

    def _stream(self, fingerprint: str) -> Response:
        if self._study_state(fingerprint) is None:
            raise HttpError(404, f"unknown study {fingerprint}: nothing "
                                 f"to stream")
        return Response(content_type="application/x-ndjson",
                        stream=self._events(fingerprint))

    async def _events(self, fingerprint: str):
        """JSON-line events whenever the study's status changes."""
        last = None
        while True:
            # Taken before the read: a change pushed after the read has
            # set this event, so the wait below returns at once.
            changed = self._changed
            status = self._study_state(fingerprint)
            if status is None:
                yield json.dumps({"fingerprint": fingerprint,
                                  "state": "unknown"},
                                 sort_keys=True) + "\n"
                return
            event = {"fingerprint": fingerprint,
                     "state": status["state"]}
            for key in ("progress", "queue_position", "last_error"):
                if key in status:
                    event[key] = status[key]
            if event != last:
                yield json.dumps(event, sort_keys=True) + "\n"
                last = event
            if status["state"] in _TERMINAL_STATES:
                return
            try:
                await asyncio.wait_for(changed.wait(),
                                       self.config.poll_interval)
            except asyncio.TimeoutError:
                pass  # the fallback poll, for other replicas' changes

    def _result(self, fingerprint: str) -> Response:
        path = archive_path(self.config.archive_dir, fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            self._raise_not_done(fingerprint, "result")
        return Response(body=text.encode("utf-8"),
                        content_type="application/json")

    def _report(self, fingerprint: str) -> Response:
        from repro.study.result import study_result_from_json

        path = archive_path(self.config.archive_dir, fingerprint)
        try:
            result = study_result_from_json(path)
        except (OSError, ValueError, KeyError):
            self._raise_not_done(fingerprint, "report")
        return text_response(result.render() + "\n")

    def _raise_not_done(self, fingerprint: str, what: str):
        status = self._study_state(fingerprint)
        if status is None:
            raise HttpError(404, f"unknown study {fingerprint}: no "
                                 f"{what} to fetch")
        raise HttpError(404, f"study {fingerprint} is "
                             f"{status['state']}, not done: its {what} "
                             f"does not exist yet")

    def _health(self, request: Request) -> Response:
        counters = telemetry.snapshot()["counters"]
        return json_response({
            "status": "ok",
            "pid": os.getpid(),
            "auth": self.auth.enabled,
            "archive_dir": self.config.archive_dir,
            "queue": self.queue.counts(),
            "studies": {state: counters.get(f"service.studies.{state}", 0)
                        for state in ("completed", "failed")},
            "workers": [{"name": w.name, "alive": w.is_alive(),
                         "running": w.running_fingerprint}
                        for w in self.workers],
        })

    def _queue_listing(self, request: Request) -> Response:
        entries = []
        for entry in self.queue.entries():
            status = self._study_state(entry.fingerprint)
            if status is None:
                continue  # removed since the listing
            record = {"fingerprint": entry.fingerprint,
                      "state": status["state"],
                      "kind": entry.study.get("kind", "?"),
                      "priority": entry.priority,
                      "attempts": entry.attempts,
                      "submitted_at": entry.submitted_at}
            for key in ("progress", "owner", "queue_position"):
                if status.get(key) is not None:
                    record[key] = status[key]
            if entry.last_error:
                record["last_error"] = entry.last_error
            entries.append(record)
        counters = telemetry.snapshot().get("counters", {})
        return json_response({
            "counts": self.queue.counts(),
            "entries": entries,
            "counters": {k: v for k, v in sorted(counters.items())
                         if k.startswith(("service.", "retry."))},
        })


def serve(config: ServiceConfig, *, engine=None, workers: int = 1) -> int:
    """Run a :class:`ReproService` until SIGTERM/SIGINT (the CLI face)."""
    return ReproService(config, engine=engine,
                        workers=workers).serve_forever()
