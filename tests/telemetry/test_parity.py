"""Telemetry parity across backends, and bit-identity when disabled.

The same StudySpec must produce the same *shape* of telemetry whether
its rounds run serially, in a process pool (worker deltas merged by the
parent) or on the cluster (shard deltas piggybacked on chunk results).
Stage counts for attack/defense/payoff are exact — one per computed
round — while ``fit`` span *counts* legitimately differ: the batched
fit_many path groups rounds per chunk, and chunking depends on the
backend.  Disabled telemetry must leave no trace at all: no provenance
key, no files, and a bit-identical StudyResult.
"""

import json

import pytest

from repro import telemetry
from repro.engine import EvaluationEngine
from repro.study import run_study, studies

CONTEXT = {"name": "synthetic", "n_samples": 240}
PERCENTILES = (0.0, 0.1, 0.3)


# Two distinct studies run back to back on one engine.  The second
# computes fresh rounds (no cache hit) on its own context, so the
# process backend forks a second pool after the parent registry
# already holds the first study's counts — the shape that exposed
# fork-inherited double counts.
BACK_TO_BACK = ((CONTEXT, PERCENTILES),
                ({**CONTEXT, "seed": 1}, (0.05, 0.2)))
# Client-side spans plus the per-round stages: one per study, batch or
# computed round on every backend.  fit spans are grouping-dependent.
EXACT_SPANS = ("study", "batch", "attack", "defense", "payoff")


def _spec(context=CONTEXT, percentiles=PERCENTILES):
    return studies.figure1(context=context, percentiles=percentiles)


def _run_with_telemetry(engine):
    """Run the back-to-back studies; results plus the process summary."""
    telemetry.reset()
    telemetry.configure(metrics_only=True)
    try:
        results = [run_study(_spec(*study), engine=engine)
                   for study in BACK_TO_BACK]
        summary = telemetry.summary()
    finally:
        close = getattr(engine.backend, "close", None)
        if close is not None:
            close()
    telemetry.configure()  # disarm + scrub env before the next backend
    return results, summary


def _engine_and_cache_counters(summary):
    return {name: value for name, value in summary["counters"].items()
            if name.startswith(("engine.", "cache."))}


class TestBackendParity:
    def test_serial_process_cluster_agree(self):
        serial_results, serial = _run_with_telemetry(
            EvaluationEngine("serial"))
        process_results, process = _run_with_telemetry(
            EvaluationEngine("process", jobs=2))
        cluster_results, cluster = _run_with_telemetry(
            EvaluationEngine("cluster", jobs=2))

        # The numbers themselves are backend-independent.
        assert [r.payload for r in cluster_results] == \
            [r.payload for r in serial_results]

        rounds = sum(r.n_rounds for r in serial_results)
        assert serial["counters"]["engine.rounds_total"] == rounds
        assert serial["stages"]["study"]["count"] == len(BACK_TO_BACK)
        for results, summary in ((serial_results, serial),
                                 (process_results, process),
                                 (cluster_results, cluster)):
            assert summary["schema"] == telemetry.SUMMARY_SCHEMA_VERSION
            # Every engine/cache counter is counted once, in the client,
            # whichever tier executed the rounds.
            assert _engine_and_cache_counters(summary) == \
                _engine_and_cache_counters(serial)
            for stage in EXACT_SPANS:
                assert summary["stages"][stage]["count"] == \
                    serial["stages"][stage]["count"], stage
            assert summary["stages"]["fit"]["count"] >= 1
            # Each study's archived provenance is scoped to that study:
            # a worker or shard delta merged late would move its spans
            # into the next study's summary (or none) while the
            # process-wide totals above stayed equal.
            for result, reference in zip(results, serial_results):
                archived = result.extras["telemetry"]
                expected = reference.extras["telemetry"]
                assert _engine_and_cache_counters(archived) == \
                    _engine_and_cache_counters(expected)
                for stage in ("attack", "defense", "payoff"):
                    assert archived["stages"][stage]["count"] == \
                        expected["stages"][stage]["count"], stage

    def test_cluster_chunk_latency_histogram_lands_clientside(self):
        telemetry.reset()
        telemetry.configure(metrics_only=True)
        engine = EvaluationEngine("cluster", jobs=2)
        try:
            run_study(_spec(), engine=engine)
            snap = telemetry.snapshot()
        finally:
            engine.backend.close()
            telemetry.configure()
        assert snap["histograms"]["cluster.chunk.seconds"]["count"] >= 1


class TestDisabledBitIdentity:
    def test_no_provenance_key_and_no_files(self, tmp_path):
        result = run_study(_spec(), engine=EvaluationEngine("serial"))
        assert "telemetry" not in result.extras
        assert list(tmp_path.iterdir()) == []

    def test_disabled_result_bit_identical_to_enabled_fingerprint(
            self, tmp_path):
        disabled = run_study(_spec(), engine=EvaluationEngine("serial"))

        telemetry.configure(metrics_only=True)
        enabled = run_study(_spec(), engine=EvaluationEngine("serial"))
        telemetry.configure()

        # Identical fingerprints: telemetry never enters the identity.
        assert enabled.study_fingerprint == disabled.study_fingerprint
        assert enabled.payload == disabled.payload

        # And two disabled runs are bit-identical on disk (timings and
        # timestamps normalised away, as the archive round-trip does).
        again = run_study(_spec(), engine=EvaluationEngine("serial"))
        a, b = (str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        disabled.to_json(a)
        again.to_json(b)

        def normalised(path):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh).get("data", {})
            for volatile in ("wall_time_seconds", "created_at"):
                data.pop(volatile, None)
            for batch in data.get("engine_stats", {}).get("batches", []):
                batch.pop("seconds", None)
            return data

        assert normalised(a) == normalised(b)
