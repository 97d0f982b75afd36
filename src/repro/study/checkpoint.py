"""Study checkpoints: crash-surviving progress beside the archive.

A long study that dies at round 4 990 of 5 000 used to restart from
whatever the engine's disk cache happened to hold — nothing, for the
default in-memory cache.  :class:`StudyCheckpointer` gives
:func:`~repro.study.run_study` a durable middle ground: as scenario
outcomes land, completed rows (the exact records the final archive's
``scenarios`` section holds) are flushed to
``checkpoint-<study fingerprint>.json`` next to the archive.  On
``run_study(..., resume=True)`` the rows are injected back into the
engine's cache under their original keys — the same ``warm_cache``
machinery study archives use — so every already-completed round is a
cache hit and zero rounds are recomputed.  The checkpoint is discarded
once the real archive lands (the archive subsumes it): its name goes at
once, and a background thread frees its blocks
(:func:`~repro.utils.serialization.discard_file`).

The file is a journal of JSON lines: line 1 is a header (``type``,
``schema``, study fingerprint, cache schema), every later line is one
row.  A checkpointer's first flush writes the header and every row so
far atomically (temp file + ``fsync`` + rename), which also drops a
torn tail a killed writer left; later flushes append only the new
rows to a handle it keeps open, then ``fsync`` it.  A flushed row is
therefore on disk exactly as it was under whole-file rewrites, at the
cost of one line instead of the whole file.

Checkpoints are an *optimisation*, never an authority: a missing,
corrupt or schema-mismatched checkpoint degrades to recomputing (with
a warning), and a torn last line loses only that row, because the
determinism contract makes recomputation bit-identical — only slower.
"""

from __future__ import annotations

import json
import os
import warnings

from repro.utils.serialization import atomic_write_text, discard_file

__all__ = ["StudyCheckpointer", "checkpoint_path", "load_checkpoint"]

CHECKPOINT_SCHEMA_VERSION = 2


def checkpoint_path(archive_dir: str, fingerprint: str) -> str:
    """The checkpoint filename for a study fingerprint."""
    return os.path.join(archive_dir, f"checkpoint-{fingerprint}.json")


class StudyCheckpointer:
    """Accumulates scenario rows and journals them to disk.

    ``every`` is the flush cadence in *new rows* (1 = flush on every
    completed scenario; larger values amortise the write).  ``note``
    deduplicates by cache key, so re-noting a resumed round (which the
    recorder sees again, as a cache hit) costs nothing.  Seed a resumed
    checkpointer with the loaded rows (``seed``) so a second crash
    never regresses the checkpoint below the first one's progress.
    The first flush opens an append handle that :meth:`close` or
    :meth:`discard` releases.
    """

    def __init__(self, archive_dir: str, fingerprint: str, *,
                 every: int = 16):
        self.path = checkpoint_path(archive_dir, fingerprint)
        self.fingerprint = fingerprint
        self.every = max(1, int(every))
        self.rows: list[dict] = []
        self._keys: set[str] = set()
        self._unflushed = 0
        self._journal = None  # append handle, opened by the first flush

    def seed(self, rows) -> None:
        """Adopt already-checkpointed rows without re-flushing them."""
        for row in rows:
            if row["key"] not in self._keys:
                self._keys.add(row["key"])
                self.rows.append(row)

    def note(self, row: dict) -> None:
        """Record one completed scenario row; flush on cadence."""
        if row["key"] in self._keys:
            return
        self._keys.add(row["key"])
        self.rows.append(row)
        self._unflushed += 1
        if self._unflushed >= self.every:
            self.flush()

    @property
    def unflushed(self) -> int:
        """Rows noted since the last flush (0 = the file is current)."""
        return self._unflushed

    def flush(self) -> None:
        """Put every noted row on disk (fsync'd; safe against any crash)."""
        if self._journal is None:
            # The file on disk (if any) is a previous run's: rewrite it
            # whole, seeded rows included, which drops a torn tail.
            from repro.engine.cache import cache_schema_version

            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            header = {"type": "StudyCheckpoint",
                      "schema": CHECKPOINT_SCHEMA_VERSION,
                      "study_fingerprint": self.fingerprint,
                      "cache_schema_version": cache_schema_version()}
            atomic_write_text(self.path, "".join(
                json.dumps(doc) + "\n" for doc in [header, *self.rows]))
            self._journal = open(self.path, "a", encoding="utf-8")
        else:
            self._journal.write("".join(
                json.dumps(row) + "\n"
                for row in self.rows[len(self.rows) - self._unflushed:]))
            self._journal.flush()
            os.fsync(self._journal.fileno())
        self._unflushed = 0

    def close(self) -> None:
        """Flush the rows noted since the last flush, then release the
        append handle (the file stays, for a resume)."""
        try:
            if self._unflushed:
                self.flush()
        finally:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def discard(self) -> None:
        """Delete the checkpoint (the final archive subsumes it).

        The name is gone when this returns; the unlink itself, which
        waits on the trim of the fsync'd blocks where the filesystem
        discards online, runs on the reclaimer thread
        (:func:`~repro.utils.serialization.discard_file`).
        """
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        discard_file(self.path)


def load_checkpoint(archive_dir: str, fingerprint: str) -> list[dict]:
    """The checkpointed scenario rows for a study, or ``[]``.

    Tolerant by design (see module docs): anything unusable — absent
    file, an undecodable header, wrong study, another checkpoint
    schema, a cache schema that no longer names the same rounds —
    yields ``[]``, with a warning for every case except plain absence.
    Rows are read up to the first line that does not parse (a torn
    tail loses only itself).
    """
    path = checkpoint_path(archive_dir, fingerprint)
    if not os.path.exists(path):
        return []
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        warnings.warn(f"ignoring unreadable study checkpoint {path}: "
                      f"{exc}", stacklevel=2)
        return []
    from repro.engine.cache import cache_schema_version

    if not isinstance(header, dict) or \
            header.get("type") != "StudyCheckpoint" or \
            header.get("study_fingerprint") != fingerprint:
        warnings.warn(f"ignoring study checkpoint {path}: it does not "
                      f"belong to study {fingerprint[:12]}…", stacklevel=2)
        return []
    if header.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        warnings.warn(
            f"ignoring study checkpoint {path}: it is checkpoint schema "
            f"v{header.get('schema')}, this build reads "
            f"v{CHECKPOINT_SCHEMA_VERSION}; its rounds will be "
            f"recomputed", stacklevel=2)
        return []
    if header.get("cache_schema_version") != cache_schema_version():
        warnings.warn(
            f"ignoring study checkpoint {path}: its scenario keys use "
            f"cache schema v{header.get('cache_schema_version')}, this "
            f"build uses v{cache_schema_version()}", stacklevel=2)
        return []
    rows = []
    for line in lines:
        try:
            rows.append(json.loads(line))
        except ValueError:
            break
    return rows
