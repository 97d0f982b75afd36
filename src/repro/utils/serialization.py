"""Shared JSON document loading for the archival formats.

Result records, study specs and study results all accept "raw JSON text
or a file path" in their loaders; this is the one implementation of
that sniffing so the three loaders cannot drift.  The writing side is
:func:`atomic_write_text`: archives, queue entries and a checkpoint's
first flush are exactly the files a crashed process must never leave
half-written.

The deleting side is :func:`discard_file`, for a file nothing will read
again (a checkpoint once its archive has landed).  On a filesystem
mounted with online discard, unlinking a file whose blocks were
fsync'd blocks the caller until the blocks are trimmed (tens of ms),
while a rename costs nothing.  So the file gives up its name at once,
by a rename into a ``.reclaim/`` directory beside it, and one daemon
thread per process unlinks the renamed files in order.  At most
:data:`RECLAIM_BOUND` files wait; past that, or when the rename fails,
the unlink runs inline.  :func:`drain_discards`, also an ``atexit``
hook, unlinks what is queued and joins the thread; the first discard
into a ``.reclaim/`` in a process also queues whatever a killed
process left there.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import threading
import uuid
from collections import deque

__all__ = ["RECLAIM_BOUND", "RECLAIM_DIR", "atomic_write_text",
           "discard_file", "drain_discards", "read_json_document"]

# Beside each discarded file: where it waits to be unlinked.
RECLAIM_DIR = ".reclaim"
# Files renamed into a .reclaim/ and not yet unlinked, at most.
RECLAIM_BOUND = 64


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp + fsync + rename).

    A reader never observes a partial file: either the old content (or
    absence) or the complete new content.  The temp file lives in the
    target's directory so the final ``os.replace`` stays on one
    filesystem; it is fsynced before the rename so a crash cannot
    promote an empty inode over good data.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Reclaimer:
    """Unlinks discarded files on one lazily started daemon thread.

    ``_pending`` counts the files renamed into a ``.reclaim/`` and not
    yet unlinked (queued or in flight); a discard that would take it
    past :data:`RECLAIM_BOUND` unlinks inline instead.  Leftovers a
    sweep finds are already on disk, so they are queued whatever the
    count.  ``unlink`` is what the thread frees a file with.
    """

    def __init__(self, unlink=os.unlink):
        self._unlink = unlink
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()
        self._pending = 0
        self._swept: set[str] = set()
        self._thread: threading.Thread | None = None
        self._closing = False
        atexit.register(self.drain)

    def discard(self, path: str) -> None:
        if not os.path.lexists(path):
            return
        directory = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 RECLAIM_DIR)
        with self._cond:
            room = self._pending < RECLAIM_BOUND
            if room:
                self._pending += 1  # held for this file's rename
        if room:
            try:
                os.makedirs(directory, exist_ok=True)
                leftovers = [] if directory in self._swept else [
                    os.path.join(directory, name)
                    for name in os.listdir(directory)]
                doomed = os.path.join(directory, uuid.uuid4().hex)
                os.rename(path, doomed)
            except OSError:
                with self._cond:
                    self._pending -= 1
            else:
                self._submit(directory, [*leftovers, doomed])
                return
        try:
            os.unlink(path)
        except OSError:
            pass

    def _submit(self, directory: str, paths: list[str]) -> None:
        with self._cond:
            self._swept.add(directory)
            self._pending += len(paths) - 1  # the last one is held
            self._queue.extend(paths)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-reclaimer", daemon=True)
                self._thread.start()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    if self._closing:
                        self._thread = None
                        return
                    self._cond.wait()
                path = self._queue.popleft()
            try:
                self._unlink(path)
            except OSError:
                pass  # already gone: another process swept it too
            with self._cond:
                self._pending -= 1

    def drain(self) -> None:
        """Unlink every queued file, then stop the thread (the next
        discard starts it again)."""
        with self._cond:
            thread = self._thread
            if thread is None:
                return
            self._closing = True
            self._cond.notify()
        thread.join()
        with self._cond:
            self._closing = False


# One per process: the thread bounds how many frees run at once.
_reclaimer = _Reclaimer()


def discard_file(path: str) -> None:
    """Take ``path``'s name away now and unlink the file in the background.

    The file is renamed into ``.reclaim/`` beside it and queued for the
    reclaimer thread; when :data:`RECLAIM_BOUND` files already wait, or
    the rename fails, it is unlinked inline.  A missing ``path`` is a
    no-op and creates no ``.reclaim/``.
    """
    _reclaimer.discard(path)


def drain_discards() -> None:
    """Block until every discarded file is unlinked; join the thread."""
    _reclaimer.drain()


def read_json_document(text_or_path: str):
    """Parse ``text_or_path`` as JSON text, or as a path to a JSON file.

    Anything whose first non-whitespace character is ``{`` is treated
    as inline JSON; everything else is opened as a file.
    """
    if text_or_path.lstrip().startswith("{"):
        return json.loads(text_or_path)
    with open(text_or_path, encoding="utf-8") as fh:
        return json.load(fh)
