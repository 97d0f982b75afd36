"""Telemetry parity across backends, and bit-identity with a sink.

The same StudySpec must produce the same *shape* of telemetry whether
its rounds run serially, in a process pool (worker deltas merged by the
parent) or on the cluster (shard deltas piggybacked on chunk results).
Stage counts for attack/defense/payoff are exact — one per computed
round — while ``fit`` span *counts* legitimately differ: the batched
fit_many path groups rounds per chunk, and chunking depends on the
backend.  Metrics are always on, with no switch to turn them off; an
open trace sink must leave a StudyResult bit-identical.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.experiments.runner import make_synthetic_context
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
    telemetry.configure()  # a fresh registry for this backend
    try:
        results = [run_study(_spec(*study), engine=engine)
                   for study in BACK_TO_BACK]
        summary = telemetry.summary()
    finally:
        close = getattr(engine.backend, "close", None)
        if close is not None:
            close()
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
        engine = EvaluationEngine("cluster", jobs=2)
        try:
            run_study(_spec(), engine=engine)
            snap = telemetry.snapshot()
        finally:
            engine.backend.close()
        assert snap["histograms"]["cluster.chunk.seconds"]["count"] >= 1

    def test_engine_and_cache_counters_agree_over_batches(self, counters):
        """Three batches on a cache capped at two entries (so they hit,
        miss and evict) move every ``engine.*`` and ``cache.*`` counter
        by the same amount on every backend: each is counted once, in
        the client, whichever tier ran the rounds."""
        ctx = make_synthetic_context(seed=5, n_samples=160, n_features=3)
        rounds = [RoundSpec(filter_percentile=0.1,
                            attack=AttackSpec("boundary", 0.05),
                            poison_fraction=0.2, seed=seed)
                  for seed in range(3)]
        batches = [rounds[:2], rounds[1:], [rounds[0], rounds[2]]]
        runs = {}
        for backend in ("serial", "process", "cluster"):
            engine = EvaluationEngine(backend, jobs=2, cache_max_entries=2)
            counters()
            try:
                outcomes = [engine.evaluate_batch(ctx, batch)
                            for batch in batches]
            finally:
                close = getattr(engine.backend, "close", None)
                if close is not None:
                    close()
            runs[backend] = outcomes, {
                name: count for name, count in counters().items()
                if name.startswith(("engine.", "cache."))}
        outcomes, counts = runs["serial"]
        assert counts["engine.batches_total"] == len(batches)
        assert counts["cache.memory.hits"] == 2
        assert counts["cache.evictions"] == 2
        assert counts["engine.rounds_computed"] == 4
        assert runs["process"] == runs["cluster"] == runs["serial"]


@pytest.mark.slow
@pytest.mark.parametrize("setting", [None, "0"], ids=["unset", "zero"])
def test_fresh_interpreter_counts_with_no_switch(setting):
    """No environment setting turns the counters off: a new interpreter
    counts its first batch with ``REPRO_TELEMETRY`` unset or ``0``."""
    import repro

    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_TELEMETRY")}
    if setting is not None:
        env["REPRO_TELEMETRY"] = setting
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    code = (
        "from repro import telemetry\n"
        "from repro.engine import EvaluationEngine, RoundSpec\n"
        "from repro.experiments.runner import make_synthetic_context\n"
        "ctx = make_synthetic_context(seed=0, n_samples=120, n_features=3)\n"
        "EvaluationEngine('serial').evaluate_batch(\n"
        "    ctx, [RoundSpec(filter_percentile=0.1, seed=s)\n"
        "          for s in range(3)])\n"
        "print(telemetry.snapshot()['counters'].get("
        "'engine.rounds_computed', 0))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "3"


class TestDisabledBitIdentity:
    def test_disabled_result_bit_identical_to_enabled_fingerprint(
            self, tmp_path):
        """A study run with the trace sink open archives exactly what a
        run without one does: the same fingerprint, scenarios, payload
        and counters (timings and timestamps normalised away)."""
        trace_dir = tmp_path / "trace"
        off = run_study(_spec(), engine=EvaluationEngine("serial"))
        telemetry.configure(str(trace_dir))
        sinked = run_study(_spec(), engine=EvaluationEngine("serial"))
        telemetry.configure()
        assert os.listdir(trace_dir)  # the sink really was open

        assert sinked.study_fingerprint == off.study_fingerprint
        a, b = (str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        off.to_json(a)
        sinked.to_json(b)

        def normalised(path):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh).get("data", {})
            for volatile in ("wall_time_seconds", "created_at"):
                data.pop(volatile, None)
            for batch in data.get("engine_stats", {}).get("batches", []):
                batch.pop("seconds", None)
            summary = data.get("extras", {}).get("telemetry", {})
            for stage in summary.get("stages", {}).values():
                stage.pop("seconds", None)
            return data

        assert normalised(a) == normalised(b)
