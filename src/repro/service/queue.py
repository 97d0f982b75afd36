"""The persistent study queue: atomic JSON entries + lease-file locks.

The queue is a directory (``<archive_dir>/queue/``) of small,
schema-versioned JSON files — no database, no daemon-private state, so
**any number of API replicas and scheduler workers sharing the archive
directory see the same queue** and survive each other's crashes:

``entry-<fingerprint>.json``
    One submitted study: its full :class:`~repro.study.StudySpec`
    document, priority, submission sequence, retry state.  Created
    *exclusively* (temp file + ``os.link``), which is the
    concurrent-submit dedupe: two simultaneous submissions of the same
    spec race to link the same name; exactly one wins, the loser reads
    the winner's entry back — either way one entry, one computation.
    Updates go through :func:`~repro.utils.serialization.
    atomic_write_text`, so a reader never sees a torn entry.

``lease-<fingerprint>.json``
    The cross-replica run lock.  Created with ``O_CREAT | O_EXCL`` —
    the filesystem's atomic test-and-set — by the worker that will run
    the study; while it exists no other worker touches the entry.  It
    is liveness, not a progress channel: the holder refreshes it
    (atomically, with the progress counts of the moment) once a
    quarter of the TTL has passed since it was taken or last
    refreshed, and a lease whose heartbeat is older than the TTL is
    *stale*: the holder is presumed dead, any worker may break the
    lease and adopt the study, resuming from its checkpoint.

State model: an entry stays ``queued`` while it is leased and running
— so a daemon killed hard leaves exactly the files a recovering worker
needs (queued entry + stale lease), and recovery is the normal path,
not a special case.  Terminal success *removes* the entry (the archive
file is the durable record); ``failed`` (retry budget exhausted) and
``cancelled`` entries stay for the operator CLI to inspect, nudge or
delete.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field

from repro import telemetry
from repro.study.runner import archive_path
from repro.study.spec import StudySpec
from repro.utils.serialization import atomic_write_text

__all__ = ["QUEUE_SCHEMA_VERSION", "QueueEntry", "StudyQueue",
           "queue_dir", "entry_path", "lease_path"]

QUEUE_SCHEMA_VERSION = 1


def queue_dir(archive_dir: str) -> str:
    """The queue directory beside the study archive."""
    return os.path.join(archive_dir, "queue")


def entry_path(archive_dir: str, fingerprint: str) -> str:
    return os.path.join(queue_dir(archive_dir),
                        f"entry-{fingerprint}.json")


def lease_path(archive_dir: str, fingerprint: str) -> str:
    return os.path.join(queue_dir(archive_dir),
                        f"lease-{fingerprint}.json")


@dataclass
class QueueEntry:
    """One queued study, exactly as its entry file records it."""

    fingerprint: str
    study: dict
    priority: int = 0
    seq: int = 0
    state: str = "queued"
    attempts: int = 0
    not_before: float = 0.0
    submitted_at: str = ""
    last_error: str | None = None
    extras: dict = field(default_factory=dict)

    def sort_key(self) -> tuple:
        """Dequeue order: highest priority first, then submission order."""
        return (-int(self.priority), int(self.seq), self.fingerprint)

    def to_obj(self) -> dict:
        return {
            "type": "StudyQueueEntry",
            "schema": QUEUE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "study": self.study,
            "priority": int(self.priority),
            "seq": int(self.seq),
            "state": self.state,
            "attempts": int(self.attempts),
            "not_before": float(self.not_before),
            "submitted_at": self.submitted_at,
            "last_error": self.last_error,
            "extras": self.extras,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "QueueEntry":
        if obj.get("type") != "StudyQueueEntry":
            raise ValueError(
                f"not a StudyQueueEntry document: type={obj.get('type')!r}")
        if int(obj.get("schema", 1)) > QUEUE_SCHEMA_VERSION:
            raise ValueError(
                f"queue entry schema v{obj['schema']} is newer than this "
                f"build's v{QUEUE_SCHEMA_VERSION}")
        return cls(
            fingerprint=str(obj["fingerprint"]),
            study=obj.get("study", {}),
            priority=int(obj.get("priority", 0)),
            seq=int(obj.get("seq", 0)),
            state=str(obj.get("state", "queued")),
            attempts=int(obj.get("attempts", 0)),
            not_before=float(obj.get("not_before", 0.0)),
            submitted_at=str(obj.get("submitted_at", "")),
            last_error=obj.get("last_error"),
            extras=obj.get("extras", {}) or {},
        )


class StudyQueue:
    """File-backed priority queue over one archive directory.

    Every method is safe to call from any process on any host sharing
    the directory; nothing is cached between calls (the files *are*
    the state).
    """

    def __init__(self, archive_dir: str):
        self.archive_dir = archive_dir
        self.directory = queue_dir(archive_dir)
        os.makedirs(self.directory, exist_ok=True)

    # -- submission --------------------------------------------------------

    def submit(self, spec: StudySpec, *,
               priority: int = 0) -> tuple[QueueEntry, bool]:
        """Enqueue ``spec``; returns ``(entry, created)``.

        ``created=False`` is the dedupe hit: an entry for this
        fingerprint already exists (queued, running, failed or
        cancelled) and is returned as-is — the submitter never causes
        a second computation.  Callers check the archive before
        submitting, and again after a ``created`` submit (a worker may
        have archived the study and removed its entry in between): a
        fingerprint that is already archived should never stay queued.
        """
        if spec.context is None:
            raise ValueError(
                "cannot queue a StudySpec with context=None: the service "
                "has no live context to attach; name a ContextSpec in the "
                "document")
        fingerprint = spec.fingerprint()
        entry = QueueEntry(
            fingerprint=fingerprint,
            study=spec.to_obj(),
            priority=int(priority),
            seq=time.time_ns(),
            submitted_at=_utc_now(),
        )
        path = entry_path(self.archive_dir, fingerprint)
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix="entry.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry.to_obj()))
                fh.flush()
                os.fsync(fh.fileno())
            try:
                # Atomic create-exclusive with full content: link the
                # complete temp file under the final name.  EEXIST is
                # the concurrent-submit race resolving to one winner.
                os.link(tmp, path)
            except FileExistsError:
                existing = self.get(fingerprint)
                if existing is not None:
                    return existing, False
                # The holder vanished between link and read (completed
                # that fast, or was removed); treat as a fresh submit.
                atomic_write_text(path, json.dumps(entry.to_obj()))
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        telemetry.counter("service.queue.submitted").inc()
        return entry, True

    # -- reading -----------------------------------------------------------

    def get(self, fingerprint: str) -> QueueEntry | None:
        """The entry for ``fingerprint``, or ``None``."""
        return self._read_entry(entry_path(self.archive_dir, fingerprint))

    def entries(self) -> list[QueueEntry]:
        """Every readable entry, in dequeue order."""
        found = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        for name in names:
            if not (name.startswith("entry-") and name.endswith(".json")):
                continue
            entry = self._read_entry(os.path.join(self.directory, name))
            if entry is not None:
                found.append(entry)
        found.sort(key=QueueEntry.sort_key)
        return found

    def pending(self, *, now: float | None = None) -> list[QueueEntry]:
        """Queued entries eligible to lease right now, in dequeue order."""
        now = time.time() if now is None else now
        return [e for e in self.entries()
                if e.state == "queued" and e.not_before <= now]

    def position(self, fingerprint: str) -> int | None:
        """1-based place of queued ``fingerprint``: one more than the
        unleased queued entries ahead of it (``None`` when it is not
        queued).  Its own lease is not consulted — callers that report a
        leased study as running check for that first."""
        place = 1
        for entry in self.entries():
            if entry.fingerprint == fingerprint:
                return place if entry.state == "queued" else None
            if entry.state == "queued" and \
                    self.lease_info(entry.fingerprint) is None:
                place += 1
        return None

    def counts(self) -> dict:
        """Entry counts by state, plus how many are actively leased."""
        tally = {"queued": 0, "running": 0, "failed": 0, "cancelled": 0}
        for entry in self.entries():
            if entry.state == "queued" and \
                    self.lease_info(entry.fingerprint) is not None:
                tally["running"] += 1
            elif entry.state in tally:
                tally[entry.state] += 1
            else:
                tally[entry.state] = tally.get(entry.state, 0) + 1
        return tally

    def _read_entry(self, path: str) -> QueueEntry | None:
        """Read one entry file; anything torn or foreign reads as absent.

        Tolerance is deliberate: entry files are written atomically, so
        an unreadable one is either mid-creation by a racing submitter
        (it will be complete on the next scan) or operator damage —
        neither should take the whole queue down.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                return QueueEntry.from_obj(json.load(fh))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError) as exc:
            warnings.warn(f"ignoring unreadable queue entry {path}: {exc}",
                          stacklevel=2)
            return None

    # -- mutation ----------------------------------------------------------

    def update(self, entry: QueueEntry) -> None:
        """Rewrite ``entry``'s file atomically."""
        atomic_write_text(entry_path(self.archive_dir, entry.fingerprint),
                          json.dumps(entry.to_obj()))

    def remove(self, fingerprint: str) -> bool:
        """Delete the entry (terminal success, or operator cleanup)."""
        try:
            os.unlink(entry_path(self.archive_dir, fingerprint))
        except OSError:
            return False
        return True

    def cancel(self, fingerprint: str) -> QueueEntry | None:
        """Mark a *waiting* entry cancelled; refuses a leased (running)
        study — the operator stops the runner, not the queue."""
        entry = self.get(fingerprint)
        if entry is None or entry.state != "queued":
            return None
        if self.lease_info(fingerprint) is not None:
            raise ValueError(
                f"study {fingerprint[:12]}… is leased (running); it "
                f"cannot be cancelled from the queue")
        entry.state = "cancelled"
        self.update(entry)
        telemetry.counter("service.queue.cancelled").inc()
        return entry

    def nudge(self, fingerprint: str, *,
              priority: int | None = None) -> QueueEntry | None:
        """Requeue a failed/cancelled/backed-off entry for immediate
        pickup, optionally re-prioritised (the operator's "run it now")."""
        entry = self.get(fingerprint)
        if entry is None:
            return None
        entry.state = "queued"
        entry.not_before = 0.0
        entry.last_error = None
        if priority is not None:
            entry.priority = int(priority)
        self.update(entry)
        telemetry.counter("service.queue.nudged").inc()
        return entry

    # -- leases ------------------------------------------------------------

    def acquire_lease(self, fingerprint: str, *, owner: str) -> bool:
        """Atomically claim the right to run ``fingerprint``.

        ``O_CREAT | O_EXCL``: of N workers racing, the filesystem picks
        exactly one winner — this is the cross-replica lock that makes
        "two API instances over one archive dir never run the same
        study twice" hold without any coordination service.
        """
        path = lease_path(self.archive_dir, fingerprint)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        doc = {"type": "StudyLease", "schema": QUEUE_SCHEMA_VERSION,
               "fingerprint": fingerprint, "owner": owner,
               "pid": os.getpid(), "acquired_at": time.time(),
               "heartbeat_at": time.time(), "done": 0, "total": 0}
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
            fh.flush()
            os.fsync(fh.fileno())
        telemetry.counter("service.queue.leased").inc()
        return True

    def heartbeat(self, fingerprint: str, *, done: int, total: int,
                  owner: str) -> None:
        """Refresh the lease's liveness stamp and progress counts (an
        fsync'd file replace: callers space refreshes by the TTL)."""
        path = lease_path(self.archive_dir, fingerprint)
        doc = self._read_lease(path) or {}
        doc.update(type="StudyLease", schema=QUEUE_SCHEMA_VERSION,
                   fingerprint=fingerprint, owner=owner, pid=os.getpid(),
                   heartbeat_at=time.time(), done=int(done),
                   total=int(total))
        doc.setdefault("acquired_at", time.time())
        atomic_write_text(path, json.dumps(doc))

    def release_lease(self, fingerprint: str) -> None:
        try:
            os.unlink(lease_path(self.archive_dir, fingerprint))
        except OSError:
            pass

    def lease_info(self, fingerprint: str) -> dict | None:
        """The live lease document, or ``None``."""
        return self._read_lease(lease_path(self.archive_dir, fingerprint))

    def _read_lease(self, path: str) -> dict | None:
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def reap_stale_leases(self, *, ttl: float,
                          now: float | None = None) -> list[str]:
        """Break leases whose heartbeat went quiet for longer than ``ttl``.

        Returns the reclaimed fingerprints.  The studies behind them
        stay ``queued``, so the next scheduler pass re-leases and
        resumes them from their checkpoints — recovery from a
        SIGKILLed daemon is just this plus the ordinary loop.
        """
        now = time.time() if now is None else now
        reclaimed = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return reclaimed
        for name in names:
            if not (name.startswith("lease-") and name.endswith(".json")):
                continue
            path = os.path.join(self.directory, name)
            doc = self._read_lease(path) or {}
            try:
                # A lease acquire_lease has created but not yet written
                # reads as empty: judge it by the file's age, since
                # reaping it on sight lets a second worker lease the study.
                beat = float(doc.get("heartbeat_at") or
                             doc.get("acquired_at") or
                             os.path.getmtime(path))
            except OSError:
                continue  # released meanwhile
            if now - beat <= ttl:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            fingerprint = name[len("lease-"):-len(".json")]
            reclaimed.append(fingerprint)
            telemetry.counter("service.queue.leases_reaped").inc()
            warnings.warn(
                f"reaped stale lease for study {fingerprint[:12]}… "
                f"(no heartbeat for more than {ttl:g}s); it will be "
                f"re-leased and resumed from its checkpoint",
                stacklevel=2)
        return reclaimed

    # -- status resolution -------------------------------------------------

    def study_state(self, fingerprint: str) -> dict | None:
        """The service-level status of ``fingerprint``, or ``None``.

        Resolution order mirrors the lifecycle: the archive (done)
        outranks a live lease (running) outranks a bare entry
        (queued / failed / cancelled).  ``None`` means the service has
        never heard of the fingerprint.  A running study's progress is
        the lease's, as of its holder's last refresh.
        """
        archived = archive_path(self.archive_dir, fingerprint)
        if os.path.exists(archived):
            return {"fingerprint": fingerprint, "state": "done",
                    "archive": archived}
        entry = self.get(fingerprint)
        lease = self.lease_info(fingerprint)
        if lease is not None:
            return {"fingerprint": fingerprint, "state": "running",
                    "progress": {"done": int(lease.get("done", 0)),
                                 "total": int(lease.get("total", 0))},
                    "owner": lease.get("owner"),
                    "attempts": entry.attempts if entry else 0,
                    "priority": entry.priority if entry else 0}
        if entry is None:
            return None
        status = {"fingerprint": fingerprint, "state": entry.state,
                  "attempts": entry.attempts, "priority": entry.priority,
                  "submitted_at": entry.submitted_at}
        if entry.state == "queued":
            status["queue_position"] = self.position(fingerprint)
            if entry.not_before > time.time():
                status["retry_at"] = entry.not_before
        if entry.last_error:
            status["last_error"] = entry.last_error
        return status


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
