"""The :class:`EvaluationEngine`: batched, cached, backend-agnostic rounds.

Every experiment driver (Figure-1 sweep, Table 1, empirical game,
multi-seed aggregation) expresses its work as a **batch** of
:class:`~repro.engine.spec.RoundSpec`\\ s and hands it to one engine
call.  The engine then

1. keys every spec by content (context fingerprint + canonical spec),
2. collapses duplicates within the batch,
3. serves whatever the :class:`~repro.engine.cache.ResultCache`
   already holds,
4. runs the remainder on the configured
   :class:`~repro.engine.backends.EvaluationBackend`, and
5. returns outcomes aligned with the input order.

Because per-round seeds are pre-derived by the drivers, results are
bit-identical across backends, worker counts and cache states.

A process-wide default engine (configurable via ``REPRO_BACKEND``,
``REPRO_JOBS``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``,
``REPRO_CACHE_MAX_ENTRIES``) backs drivers that are not handed an
explicit engine, so existing call sites gain caching transparently.
"""

from __future__ import annotations

import os
import time

from repro import telemetry
from repro.engine.backends import EvaluationBackend, make_backend
from repro.engine.cache import ResultCache, round_keys

__all__ = [
    "EvaluationEngine",
    "default_engine",
    "set_default_engine",
    "engine_from_env",
    "resolve_engine",
]


class EvaluationEngine:
    """Executes round batches through a backend, behind a result cache.

    Parameters
    ----------
    backend:
        Registry name (``"serial"``, ``"process"``) or a ready
        :class:`EvaluationBackend` instance.
    jobs:
        Worker count for parallel backends (ignored by ``serial``).
    cache:
        ``True`` (default) for a fresh :class:`ResultCache`, ``False``
        to disable caching entirely, or an existing :class:`ResultCache`
        to share one across engines.
    cache_dir:
        Optional directory for the cache's persistent JSON tier (only
        used when ``cache`` is ``True``).
    cache_max_entries:
        Optional LRU size cap for the in-memory cache tier (only used
        when ``cache`` is ``True``); ``None`` is unbounded.
    """

    def __init__(
        self,
        backend: str | EvaluationBackend = "serial",
        *,
        jobs: int | None = None,
        cache: bool | ResultCache = True,
        cache_dir: str | None = None,
        cache_max_entries: int | None = None,
    ):
        self.backend = make_backend(backend, jobs)
        if isinstance(cache, ResultCache):
            self.cache = cache
        elif cache:
            self.cache = ResultCache(disk_dir=cache_dir,
                                     max_entries=cache_max_entries)
        else:
            self.cache = None
        self.rounds_computed = 0
        self.batch_log: list[dict] = []

    # -- evaluation -------------------------------------------------------

    def evaluate(self, ctx, spec):
        """Evaluate a single round (batch of one)."""
        return self.evaluate_batch(ctx, [spec])[0]

    def evaluate_batch(self, ctx, specs, *, progress=None) -> list:
        """Evaluate a batch of rounds; outcomes align with ``specs``.

        Identical rounds — within the batch or across all previous
        batches — are computed exactly once.

        ``progress`` is an optional ``callback(done, total)`` invoked
        after every spec resolves (cache hits included).  The batch is
        :meth:`evaluate_stream`'s stream collected into input order, so
        outcomes and cache state are the same with or without it.
        """
        specs = list(specs)
        results = [None] * len(specs)
        for done, (index, outcome) in enumerate(
                self._stream_indexed(ctx, specs), 1):
            results[index] = outcome
            if progress is not None:
                progress(done, len(specs))
        return results

    def evaluate_stream(self, ctx, specs):
        """Yield ``(spec, outcome)`` pairs as rounds land.

        The streaming face of :meth:`evaluate_batch`: every input spec
        is yielded exactly once (duplicates included — each position
        gets its pair), cache hits come first in input order, then
        backend completions in arrival order.  Arrival order may vary
        between runs and backends; the outcomes themselves — and the
        cache state left behind — are bit-identical to
        :meth:`evaluate_batch` on the same engine.
        """
        specs = list(specs)
        for index, outcome in self._stream_indexed(ctx, specs):
            yield specs[index], outcome

    def _stream_indexed(self, ctx, specs):
        """Yield ``(index, outcome)``: cache hits first, then the
        backend's :meth:`~repro.engine.backends.EvaluationBackend.
        run_iter` completions.

        The engine's one execution path.  Specs are keyed by content
        and duplicates collapse onto one computation; computed outcomes
        enter the cache in input order whatever order they land in, so
        every backend leaves the same cache behind (LRU order
        included).  A stream abandoned or failed mid-batch still caches
        every round that landed.
        """
        if not specs:
            return
        start = time.perf_counter()
        positions: dict[str, list[int]] = {}
        for index, key in enumerate(round_keys(ctx.fingerprint(), specs)):
            positions.setdefault(key, []).append(index)

        to_run = []
        for key, indices in positions.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is None:
                to_run.append((key, specs[indices[0]]))
            else:
                for index in indices:
                    yield index, cached

        landed: list = [None] * len(to_run)
        committed = 0  # to_run[:committed] are in the cache
        computed = 0
        try:
            if to_run:
                with telemetry.trace_span("batch",
                                          backend=self.backend.name,
                                          rounds=len(to_run)):
                    for j, outcome in self.backend.run_iter(
                            ctx, [spec for _, spec in to_run]):
                        self.rounds_computed += 1
                        computed += 1
                        landed[j] = outcome
                        while committed < len(to_run) and \
                                landed[committed] is not None:
                            self._commit(to_run[committed][0],
                                         landed[committed])
                            committed += 1
                        for index in positions[to_run[j][0]]:
                            yield index, outcome
        finally:
            for j in range(committed, len(to_run)):
                if landed[j] is not None:
                    self._commit(to_run[j][0], landed[j])
            telemetry.counter("engine.rounds_total").inc(len(specs))
            telemetry.counter("engine.rounds_computed").inc(computed)
            telemetry.counter("engine.batches_total").inc()
            entry = {
                "batch": len(self.batch_log) + 1,
                "backend": self.backend.name,
                "n_specs": len(specs),
                "n_unique": len(positions),
                "computed": computed,
                "cache_hits": len(positions) - len(to_run),
                "seconds": time.perf_counter() - start,
            }
            cluster_telemetry = self.backend.batch_telemetry()
            if cluster_telemetry:
                entry["cluster"] = cluster_telemetry
            self.batch_log.append(entry)

    def _commit(self, key: str, outcome) -> None:
        if self.cache is not None:
            self.cache.put(key, outcome)

    # -- introspection ----------------------------------------------------

    @property
    def stats(self) -> dict:
        """Lifetime counters: computed rounds plus cache hit/miss tallies.

        Includes ``batches_run`` and the wall time summed over
        ``batch_log`` (per-batch backend/timing detail lives in
        :attr:`batch_log` itself; :func:`repro.experiments.reporting.
        format_engine_stats` renders both).
        """
        out = {
            "backend": self.backend.name,
            "rounds_computed": self.rounds_computed,
            "batches_run": len(self.batch_log),
            "batch_seconds": sum(b["seconds"] for b in self.batch_log),
        }
        cluster_entries = [b["cluster"] for b in self.batch_log
                           if b.get("cluster")]
        if cluster_entries:
            for counter in ("chunks", "placed_rounds", "placement_hits",
                            "placed_steals", "shard_cache_hits",
                            "requeues", "rejoins"):
                out[counter] = sum(int(c.get(counter, 0))
                                   for c in cluster_entries)
        if self.cache is not None:
            out.update(
                cache_hits=self.cache.stats.hits,
                cache_misses=self.cache.stats.misses,
                cache_evictions=self.cache.stats.evictions,
                cache_entries=len(self.cache),
                cache_hit_rate=self.cache.stats.hit_rate,
            )
        return out

    def __repr__(self) -> str:
        cache = "off" if self.cache is None else f"{len(self.cache)} entries"
        return (f"{type(self).__name__}(backend={self.backend.name!r}, "
                f"cache={cache}, rounds_computed={self.rounds_computed})")


# -- process-wide default ---------------------------------------------------

_TRUTHY_OFF = {"0", "false", "off", "no"}
_default: EvaluationEngine | None = None


def engine_from_env() -> EvaluationEngine:
    """Build an engine from ``REPRO_*`` environment variables.

    * ``REPRO_BACKEND`` — backend name (default ``serial``);
    * ``REPRO_JOBS`` — worker count for parallel backends;
    * ``REPRO_CACHE`` — set to ``0``/``false`` to disable caching;
    * ``REPRO_CACHE_DIR`` — enable the persistent on-disk cache tier;
    * ``REPRO_CACHE_MAX_ENTRIES`` — LRU cap for the in-memory tier
      (default unbounded).
    """
    backend = os.environ.get("REPRO_BACKEND", "serial")
    jobs_raw = os.environ.get("REPRO_JOBS")
    jobs = int(jobs_raw) if jobs_raw else None
    cache_on = os.environ.get("REPRO_CACHE", "1").strip().lower() not in _TRUTHY_OFF
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    max_raw = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
    cache_max_entries = int(max_raw) if max_raw else None
    return EvaluationEngine(backend, jobs=jobs, cache=cache_on,
                            cache_dir=cache_dir,
                            cache_max_entries=cache_max_entries)


def default_engine() -> EvaluationEngine:
    """The process-wide engine used when a driver gets ``engine=None``."""
    global _default
    if _default is None:
        _default = engine_from_env()
    return _default


def set_default_engine(engine: EvaluationEngine | None) -> None:
    """Replace the process-wide default (``None`` re-reads the env)."""
    global _default
    _default = engine


def resolve_engine(engine: EvaluationEngine | None) -> EvaluationEngine:
    """``engine`` itself, or the process-wide default."""
    return engine if engine is not None else default_engine()
