"""The :class:`StudyResult` — one uniform, archivable experiment artifact.

Whatever the study kind, :func:`repro.study.run_study` returns the same
record: the spec document it ran, provenance stamps (study fingerprint,
context fingerprint(s), engine cache schema version, backend and batch
telemetry), every scenario's outcome under its engine cache key, and
the solved payload (the kind's result dataclass, embedded through
:func:`repro.experiments.results.result_to_payload`).

Three properties the stamps buy:

* **reporting from the archive** — ``repro report result.json``
  renders exactly what the live run printed, years later, with no
  context load;
* **resume** — :meth:`StudyResult.warm_cache` re-injects every
  scenario outcome into an engine cache under its original key, so
  re-running the same study executes zero rounds even on a machine
  that never saw the original disk cache;
* **addressability** — the artifact's filename under
  ``run_study(..., archive_dir=...)`` is its study fingerprint, which
  is what makes "skip if already done" a file-existence check.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

__all__ = ["StudyResult", "study_result_from_json"]

RESULT_SCHEMA_VERSION = 1


@dataclass
class StudyResult:
    """Outcome of one :func:`~repro.study.run_study` call.

    Attributes
    ----------
    kind:
        The study kind that produced this result.
    study:
        The canonical spec document (``StudySpec.to_obj()`` form).
    study_fingerprint:
        Content hash addressing the study (archive filename).
    context_fingerprints:
        Content hash of every context the study's rounds ran in
        (one for single-context kinds; ``n_seeds`` for multi-seed).
    cache_schema_version:
        The engine round-identity schema the scenario keys were
        computed under; a future build whose schema differs must not
        warm its cache from these records.
    engine_stats:
        Backend name plus the records of this run's own batches
        (specs/unique/computed/cache-hits/wall time), even when other
        studies shared the engine.
    scenarios:
        One record per distinct round: its cache key, context
        fingerprint, declarative coordinates (defense/attack/victim/
        fraction/seed) and full outcome dict.
    payload:
        The solved result in ``{"type": ..., "data": ...}`` form
        (kind-specific; see :meth:`payload_object`).
    """

    kind: str
    study: dict
    study_fingerprint: str
    context_fingerprints: list
    cache_schema_version: int
    engine_stats: dict
    scenarios: list
    payload: dict
    n_rounds: int = 0
    n_unique: int = 0
    cache_hits: int = 0
    rounds_computed: int = 0
    wall_time_seconds: float = 0.0
    created_at: str = ""
    schema_version: int = RESULT_SCHEMA_VERSION
    extras: dict = field(default_factory=dict)

    # -- payload ----------------------------------------------------------

    def payload_object(self):
        """The payload as live result objects.

        * ``figure1`` — a :class:`PureSweepResult` (or a list of them,
          one per contamination rate, when the study swept several);
        * ``table1`` — ``{"sweep": PureSweepResult, "rows":
          [MixedStrategyResult, ...]}``;
        * every other kind — its single result dataclass.
        """
        from repro.experiments.results import result_from_payload

        if self.payload.get("type") == "Figure1Study":
            sweeps = [result_from_payload(p)
                      for p in self.payload["sweeps"]]
            return sweeps if len(sweeps) != 1 else sweeps[0]
        if self.payload.get("type") == "Table1Study":
            return {
                "sweep": result_from_payload(self.payload["sweep"]),
                "rows": [result_from_payload(p)
                         for p in self.payload["rows"]],
            }
        return result_from_payload(self.payload)

    # -- resume -----------------------------------------------------------

    def warm_cache(self, cache) -> int:
        """Re-inject every scenario outcome into ``cache`` by key.

        ``cache`` is a :class:`~repro.engine.ResultCache` or an
        :class:`~repro.engine.EvaluationEngine` (its cache is used).
        Returns the number of entries injected.  Refuses to warm a
        cache whose round-identity schema differs from the one the keys
        were computed under — the keys would name different rounds.
        """
        from repro.engine.cache import cache_schema_version, outcome_from_dict

        if self.cache_schema_version != cache_schema_version():
            raise ValueError(
                f"this result's scenario keys use cache schema "
                f"v{self.cache_schema_version}, but this build uses "
                f"v{cache_schema_version()}; they do not name the same "
                f"rounds")
        if hasattr(cache, "cache"):
            cache = cache.cache
        if cache is None:
            raise ValueError("cannot warm a disabled cache")
        for record in self.scenarios:
            cache.put(record["key"], outcome_from_dict(record["outcome"]))
        return len(self.scenarios)

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """The study's full ASCII report (see :mod:`repro.study.report`)."""
        from repro.study.report import render_study_report

        return render_study_report(self)

    # -- serialisation ----------------------------------------------------

    def to_json(self, path: str | None = None) -> str:
        """Serialise to the archival JSON document.

        Writing is atomic (temp + fsync + rename): an archive is a
        study's provenance record, and a crash mid-write must leave
        either the previous archive or none — never a truncated one
        that a later ``run_study`` would trust as complete.
        """
        doc = {"type": "StudyResult", "schema": RESULT_SCHEMA_VERSION,
               "data": asdict(self)}
        text = json.dumps(doc, indent=2)
        if path is not None:
            from repro.utils.serialization import atomic_write_text

            atomic_write_text(path, text)
        return text

    @classmethod
    def from_obj(cls, doc: dict) -> "StudyResult":
        if doc.get("type") != "StudyResult":
            raise ValueError(
                f"not a StudyResult document: type={doc.get('type')!r}")
        if int(doc.get("schema", 1)) > RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"StudyResult schema v{doc['schema']} is newer than this "
                f"build's v{RESULT_SCHEMA_VERSION}")
        return cls(**doc["data"])


def study_result_from_json(text_or_path: str) -> StudyResult:
    """Load a :class:`StudyResult` from a JSON document or file path."""
    from repro.utils.serialization import read_json_document

    return StudyResult.from_obj(read_json_document(text_or_path))


def utc_timestamp() -> str:
    """Second-resolution UTC timestamp for provenance stamps."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
