"""Shared JSON document loading for the archival formats.

Result records, study specs and study results all accept "raw JSON text
or a file path" in their loaders; this is the one implementation of
that sniffing so the three loaders cannot drift.  The writing side is
:func:`atomic_write_text`: archives, queue entries and a checkpoint's
first flush are exactly the files a crashed process must never leave
half-written.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_text", "read_json_document"]


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


def read_json_document(text_or_path: str):
    """Parse ``text_or_path`` as JSON text, or as a path to a JSON file.

    Anything whose first non-whitespace character is ``{`` is treated
    as inline JSON; everything else is opened as a file.
    """
    if text_or_path.lstrip().startswith("{"):
        return json.loads(text_or_path)
    with open(text_or_path, encoding="utf-8") as fh:
        return json.load(fh)
