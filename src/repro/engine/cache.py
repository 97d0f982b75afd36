"""Content-keyed result cache for evaluation rounds.

Keys are SHA-256 digests over ``(context fingerprint, canonical round
spec)`` — see :meth:`repro.experiments.runner.ExperimentContext.fingerprint`
and :meth:`repro.engine.spec.RoundSpec.canonical` — so a cache entry is
valid exactly as long as the data, preprocessing, victim factory and
round parameters it was computed from are unchanged.  There is no
time-based invalidation: content keys cannot go stale.

Two tiers:

* an **in-memory** dict (always on) — serves repeat rounds within a
  process, e.g. the clean baselines shared by every sweep.  Optionally
  capped (``max_entries``) with least-recently-used eviction so long
  multi-seed sweeps stop growing memory without bound; evicted entries
  survive on the disk tier when one is configured.
* an optional **on-disk JSON store** (one file per key, atomic
  writes) — persists results across processes and runs, which is what
  makes an equal-seed experiment rerun almost free.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict

__all__ = [
    "ResultCache",
    "round_key",
    "round_keys",
    "cache_schema_version",
    "outcome_to_dict",
    "outcome_from_dict",
    "read_manifest",
    "write_manifest",
    "prune_cache_dir",
]

# v3: the round identity generalised from (filter_percentile, attack,
# fraction, seed) to (defense, attack, victim, fraction, seed) — the
# canonical spec tuple changed shape, so v2 keys no longer name the
# same rounds.  (v2: the experiment filter moved to the clean-data
# centroid, staling v1 poisoned-round entries.)
_SCHEMA_VERSION = 3

_MANIFEST_NAME = "manifest.json"


def cache_schema_version() -> int:
    """The current round-identity schema version.

    Exposed for the cluster protocol's handshake: a shard and its
    clients must agree on what a round *is* (the canonical spec tuple
    and key recipe) before exchanging results, otherwise a remote
    outcome could enter a cache tier under a key that names a
    different round in the other build.
    """
    return _SCHEMA_VERSION


def round_key(context_fingerprint: str, spec) -> str:
    """Deterministic cache key for one round in one context."""
    payload = json.dumps(
        [_SCHEMA_VERSION, str(context_fingerprint), spec.canonical()],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def round_keys(context_fingerprint: str, specs) -> list[str]:
    """Batch form of :func:`round_key`, aligned with ``specs``.

    The export the cluster tier's ``cache-query`` message batches over:
    the client keys a whole batch once and ships the key list, so the
    shard side answers membership without ever seeing a spec.
    """
    fingerprint = str(context_fingerprint)
    return [round_key(fingerprint, spec) for spec in specs]


def outcome_to_dict(outcome) -> dict:
    """JSON-serialisable form of an ``EvaluationOutcome``."""
    d = asdict(outcome)
    d["schema_version"] = _SCHEMA_VERSION
    return d


def outcome_from_dict(d: dict):
    """Rebuild an ``EvaluationOutcome`` (inverse of :func:`outcome_to_dict`)."""
    from repro.defenses.base import DefenseReport
    from repro.experiments.runner import EvaluationOutcome

    d = dict(d)
    d.pop("schema_version", None)
    report = d.pop("report", None)
    return EvaluationOutcome(
        report=DefenseReport(**report) if report is not None else None, **d
    )


def _atomic_write_json(path: str, payload: dict) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_manifest(disk_dir: str | os.PathLike) -> dict:
    """Summarise a cache directory into its ``manifest.json``.

    The manifest records the current schema version, the number of
    entry files and their total size — enough for operators (and the
    ``repro-cache`` CLI) to reason about a store without opening every
    entry.  Concurrent writers race harmlessly: whoever writes last
    scanned a directory at least as complete as the loser's.
    """
    disk_dir = os.fspath(disk_dir)
    entry_count = 0
    total_bytes = 0
    with os.scandir(disk_dir) as it:
        for entry in it:
            if entry.name.endswith(".json") and entry.name != _MANIFEST_NAME:
                entry_count += 1
                try:
                    total_bytes += entry.stat().st_size
                except OSError:
                    pass
    manifest = {
        "schema_version": _SCHEMA_VERSION,
        "entry_count": entry_count,
        "total_bytes": total_bytes,
    }
    # Provenance survives a rebuild: study fingerprints recorded by
    # ``ResultCache.annotate_study`` describe where entries came from,
    # which a directory scan cannot reconstruct.
    existing = read_manifest(disk_dir)
    if existing is not None and existing.get("studies"):
        manifest["studies"] = sorted(set(existing["studies"]))
    _atomic_write_json(os.path.join(disk_dir, _MANIFEST_NAME), manifest)
    return manifest


def read_manifest(disk_dir: str | os.PathLike) -> dict | None:
    """The cache directory's manifest, or ``None`` when absent/corrupt."""
    path = os.path.join(os.fspath(disk_dir), _MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def prune_cache_dir(disk_dir: str | os.PathLike) -> dict:
    """Drop entries from older schema versions; refresh the manifest.

    Returns the refreshed manifest with an extra ``"removed"`` count.
    Unreadable entries are treated as stale (they can never be served).
    """
    disk_dir = os.fspath(disk_dir)
    removed = 0
    with os.scandir(disk_dir) as it:
        names = [e.name for e in it
                 if e.name.endswith(".json") and e.name != _MANIFEST_NAME]
    for name in names:
        path = os.path.join(disk_dir, name)
        stale = False
        try:
            with open(path, "r", encoding="utf-8") as fh:
                stale = json.load(fh).get("schema_version") != _SCHEMA_VERSION
        except (OSError, json.JSONDecodeError):
            stale = True
        if stale:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
    manifest = write_manifest(disk_dir)
    return {"removed": removed, **manifest}


class ResultCache:
    """In-memory (plus optional on-disk) store of round outcomes.

    Parameters
    ----------
    disk_dir:
        Directory for the persistent JSON tier (created on demand);
        ``None`` keeps the cache memory-only.
    max_entries:
        Size cap for the in-memory tier; the least recently *used*
        entry is evicted first.  ``None`` (default) is unbounded.
        Eviction never touches the disk tier, so capped memory plus a
        ``disk_dir`` behaves like a small hot cache over a complete
        persistent store.
    counter_prefix:
        The telemetry name every counter of this cache starts with:
        ``cache`` (``cache.memory.hits``, ``cache.stores`` ...) for the
        client's cache, ``shard.cache`` for a shard's, so a shard's
        piggybacked delta never counts into the client's tiers.

    The public API is thread-safe (one re-entrant lock around both
    tiers): the cluster scheduler delivers remote results from worker
    threads, and a cache shared across engines may be read while
    another engine's stream is writing.  Remote results enter through
    exactly the same :meth:`put` as local ones — same serialised entry,
    same LRU accounting, same disk tier.
    """

    def __init__(self, disk_dir: str | os.PathLike | None = None,
                 max_entries: int | None = None, *,
                 counter_prefix: str = "cache"):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self._max_entries = max_entries
        self._disk_dir = os.fspath(disk_dir) if disk_dir is not None else None
        self._manifest: dict | None = None  # incremental tally, lazy-seeded
        self._lock = threading.RLock()
        self._prefix = counter_prefix

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    def _remember(self, key: str, entry: dict) -> None:
        """Insert/refresh ``key`` as most recently used, evicting LRU."""
        self._memory[key] = entry
        self._memory.move_to_end(key)
        if self._max_entries is not None:
            from repro import telemetry

            while len(self._memory) > self._max_entries:
                self._memory.popitem(last=False)
                telemetry.counter(f"{self._prefix}.evictions").inc()

    # -- internal disk tier ----------------------------------------------

    def _disk_path(self, key: str) -> str:
        return os.path.join(self._disk_dir, f"{key}.json")

    def _disk_get(self, key: str) -> dict | None:
        if self._disk_dir is None:
            return None
        try:
            with open(self._disk_path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if entry.get("schema_version") != _SCHEMA_VERSION:
            return None
        return entry

    def _disk_put(self, key: str, entry: dict) -> None:
        if self._disk_dir is None:
            return
        os.makedirs(self._disk_dir, exist_ok=True)
        path = self._disk_path(key)
        try:
            old_size = os.path.getsize(path)
        except OSError:
            old_size = None
        # Atomic publish: concurrent writers of the same key race
        # harmlessly (identical content), readers never see a torn file.
        _atomic_write_json(path, entry)
        self._update_manifest(path, old_size)

    def _update_manifest(self, path: str, old_size: int | None) -> None:
        """Refresh ``manifest.json`` incrementally after storing ``path``.

        The tally is seeded once (from the existing manifest, else one
        directory scan) and adjusted per store, so each write costs one
        small-file write instead of a full-directory scan — the scan
        per store made long sweeps quadratic in cache size.  Concurrent
        writers may drift the advisory counts; ``repro-cache info``
        rebuilds them exactly.
        """
        if self._manifest is None:
            existing = read_manifest(self._disk_dir)
            if existing is not None and \
                    existing.get("schema_version") == _SCHEMA_VERSION:
                # A pre-existing manifest already counts everything on
                # disk except the entry just written (unless it was an
                # overwrite) — fall through to the incremental adjust.
                self._manifest = dict(existing)
            else:
                # First store into an untallied directory: one scan
                # (which already sees the entry just written).
                self._manifest = write_manifest(self._disk_dir)
                return
        try:
            new_size = os.path.getsize(path)
        except OSError:
            new_size = 0
        if old_size is None:
            self._manifest["entry_count"] += 1
            self._manifest["total_bytes"] += new_size
        else:
            self._manifest["total_bytes"] += new_size - old_size
        _atomic_write_json(os.path.join(self._disk_dir, _MANIFEST_NAME),
                          self._manifest)

    # -- public API -------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether ``key`` is served by either tier, without side effects.

        A pure probe: no hit/miss accounting, no LRU refresh, no
        promotion from disk — what ``repro describe`` uses to predict a
        run's cache hits without perturbing the cache it inspects.
        """
        with self._lock:
            if key in self._memory:
                return True
        return self._disk_get(key) is not None

    def held_keys(self, keys) -> list[str]:
        """The subset of ``keys`` served by either tier, in input order.

        Batched :meth:`contains` — same side-effect-free semantics (no
        counters, no LRU refresh, no disk promotion).  This is what a shard
        answers a ``cache-query`` message with.
        """
        return [key for key in keys if self.contains(key)]

    def describe(self) -> dict:
        """Operator-facing summary of this cache instance.

        Always reports the schema version and in-memory entry count;
        with a disk tier it adds the directory and the manifest's
        entry/byte tallies (seeding the manifest with one scan if the
        directory has never been tallied).
        """
        info = {
            "schema_version": _SCHEMA_VERSION,
            "memory_entries": len(self._memory),
            "disk_dir": self._disk_dir,
            "entry_count": 0,
            "total_bytes": 0,
        }
        if self._disk_dir is not None and os.path.isdir(self._disk_dir):
            with self._lock:
                manifest = self._manifest or read_manifest(self._disk_dir)
                if manifest is None or \
                        manifest.get("schema_version") != _SCHEMA_VERSION:
                    manifest = write_manifest(self._disk_dir)
            info["entry_count"] = int(manifest.get("entry_count", 0))
            info["total_bytes"] = int(manifest.get("total_bytes", 0))
        return info

    def annotate_study(self, study_fingerprint: str) -> None:
        """Record a study fingerprint in the disk manifest's provenance.

        The manifest's ``"studies"`` list names every study whose rounds
        were stored (or re-served) through this cache directory, so an
        operator can answer "what produced this store?" without the
        original result artifacts.  Memory-only caches have no manifest;
        the call is then a no-op.
        """
        if self._disk_dir is None:
            return
        with self._lock:
            os.makedirs(self._disk_dir, exist_ok=True)
            if self._manifest is None:
                existing = read_manifest(self._disk_dir)
                if existing is not None and \
                        existing.get("schema_version") == _SCHEMA_VERSION:
                    self._manifest = dict(existing)
                else:
                    self._manifest = write_manifest(self._disk_dir)
            # Merge with the on-disk list, not just this instance's
            # cached copy: other processes sharing the directory may
            # have annotated their own studies since we seeded, and a
            # write from our stale copy alone would erase them.
            studies = set(self._manifest.get("studies", ()))
            on_disk = read_manifest(self._disk_dir)
            if on_disk is not None:
                studies.update(on_disk.get("studies", ()))
            if study_fingerprint in studies and \
                    studies == set(self._manifest.get("studies", ())):
                return
            studies.add(study_fingerprint)
            self._manifest["studies"] = sorted(studies)
            _atomic_write_json(os.path.join(self._disk_dir, _MANIFEST_NAME),
                               self._manifest)

    def get(self, key: str):
        """Return the cached ``EvaluationOutcome`` or ``None``."""
        from repro import telemetry

        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)  # refresh recency
                telemetry.counter(f"{self._prefix}.memory.hits").inc()
            else:
                entry = self._disk_get(key)
                if entry is not None:
                    self._remember(key, entry)  # promote for next time
                    telemetry.counter(f"{self._prefix}.disk.hits").inc()
            if entry is None:
                telemetry.counter(f"{self._prefix}.misses").inc()
                return None
        return outcome_from_dict(entry)

    def put(self, key: str, outcome) -> None:
        """Store one outcome under its content key (both tiers)."""
        from repro import telemetry

        entry = outcome_to_dict(outcome)
        with self._lock:
            self._remember(key, entry)
            self._disk_put(key, entry)
        telemetry.counter(f"{self._prefix}.stores").inc()

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory tier (and optionally the disk tier)."""
        with self._lock:
            self._memory.clear()
            if disk and self._disk_dir is not None \
                    and os.path.isdir(self._disk_dir):
                self._manifest = None
                for name in os.listdir(self._disk_dir):
                    if name.endswith(".json"):
                        try:
                            os.unlink(os.path.join(self._disk_dir, name))
                        except OSError:
                            pass
