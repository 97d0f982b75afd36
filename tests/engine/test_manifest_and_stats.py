"""Disk-cache manifest, schema pruning, and engine batch telemetry."""

import json
import os

import pytest

from repro import telemetry
from repro.engine import (
    AttackSpec,
    EvaluationEngine,
    ResultCache,
    RoundSpec,
    prune_cache_dir,
    read_manifest,
    write_manifest,
)
from repro.engine.cache import _SCHEMA_VERSION
from repro.experiments.runner import make_synthetic_context


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=1, n_samples=100, n_features=3)


def _outcome():
    from repro.experiments.runner import EvaluationOutcome

    return EvaluationOutcome(accuracy=0.9, n_poison=10, n_removed=5,
                             filter_percentile=0.1, filter_radius=2.0,
                             report=None)


class TestManifest:
    def test_written_on_store(self, tmp_path):
        store = tmp_path / "cache"
        cache = ResultCache(disk_dir=store)
        cache.put("aaaa", _outcome())
        cache.put("bbbb", _outcome())
        manifest = read_manifest(store)
        assert manifest is not None
        assert manifest["schema_version"] == _SCHEMA_VERSION
        assert manifest["entry_count"] == 2
        assert manifest["total_bytes"] > 0

    def test_manifest_excluded_from_its_own_count(self, tmp_path):
        store = tmp_path / "cache"
        ResultCache(disk_dir=store).put("aaaa", _outcome())
        first = read_manifest(store)
        assert write_manifest(store)["entry_count"] == first["entry_count"] == 1

    def test_read_missing_returns_none(self, tmp_path):
        assert read_manifest(tmp_path) is None


class TestPrune:
    def _stale_entry(self, store, name, version):
        os.makedirs(store, exist_ok=True)
        with open(os.path.join(store, f"{name}.json"), "w") as fh:
            json.dump({"schema_version": version, "accuracy": 0.5}, fh)

    def test_drops_old_schema_versions_only(self, tmp_path):
        store = tmp_path / "cache"
        cache = ResultCache(disk_dir=store)
        cache.put("fresh", _outcome())
        self._stale_entry(store, "stale1", _SCHEMA_VERSION - 1)
        self._stale_entry(store, "stale2", 1)
        summary = prune_cache_dir(store)
        assert summary["removed"] == 2
        assert summary["entry_count"] == 1
        assert os.path.exists(store / "fresh.json")
        assert not os.path.exists(store / "stale1.json")

    def test_corrupt_entries_pruned(self, tmp_path):
        store = tmp_path / "cache"
        store.mkdir()
        (store / "bad.json").write_text("{not json")
        summary = prune_cache_dir(store)
        assert summary["removed"] == 1
        assert summary["entry_count"] == 0

    def test_cli_prune_and_info(self, tmp_path, capsys):
        from repro.experiments.cli import main

        store = tmp_path / "cache"
        ResultCache(disk_dir=store).put("fresh", _outcome())
        self._stale_entry(store, "old", 1)
        assert main(["repro-cache", "info", "--cache-dir", str(store)]) == 0
        assert "entries:        2" in capsys.readouterr().out
        assert main(["repro-cache", "prune", "--cache-dir", str(store)]) == 0
        assert "pruned 1 stale entries" in capsys.readouterr().out
        assert read_manifest(store)["entry_count"] == 1

    def test_cli_rejects_missing_dir(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="no such cache directory"):
            main(["repro-cache", "prune", "--cache-dir",
                  str(tmp_path / "nope")])


class TestBatchTelemetry:
    def specs(self):
        return [RoundSpec(filter_percentile=0.1, attack=None, seed=5),
                RoundSpec(filter_percentile=0.1,
                          attack=AttackSpec("boundary", 0.1), seed=5)]

    def test_streams_get_their_own_batch_records(self, ctx, counters):
        """A batch's record goes to the stream that ran it; the
        registry counts every batch."""
        engine = EvaluationEngine("serial")
        cold, warm = [], []
        list(engine._stream_indexed(ctx, self.specs(), cold))
        list(engine._stream_indexed(ctx, self.specs(), warm))  # all hits
        (first,), (second,) = cold, warm
        assert first["batch"] == second["batch"] == 1
        assert first["backend"] == "serial"
        assert first["computed"] == 2 and first["cache_hits"] == 0
        assert second["computed"] == 0 and second["cache_hits"] == 2
        assert first["seconds"] > 0.0 and second["seconds"] >= 0.0
        counts = counters()
        assert counts["engine.batches_total"] == 2
        assert counts["engine.rounds_computed"] == 2

    def test_totals_survive_concurrent_streams(self, ctx, counters):
        """More streams than cores on one engine, switching often: the
        registry's counters lose no update and each stream keeps
        exactly its own records."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.engine import SerialBackend

        class Instant(SerialBackend):
            def run_iter(self, ctx, specs):
                return ((i, _outcome()) for i in range(len(specs)))

        engine = EvaluationEngine(Instant(), cache=False)
        specs = [RoundSpec(filter_percentile=0.01 * i, attack=None, seed=5)
                 for i in range(5)]

        def stream(_):
            batches = []
            for _ in range(200):
                list(engine._stream_indexed(ctx, specs, batches))
            return batches

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                per_stream = list(pool.map(stream, range(8), timeout=60))
        finally:
            sys.setswitchinterval(previous)
        for batches in per_stream:
            assert [b["batch"] for b in batches] == list(range(1, 201))
            assert all(b["computed"] == len(specs) for b in batches)
        counts = counters()
        assert counts["engine.batches_total"] == 8 * 200
        assert counts["engine.rounds_computed"] == 8 * 200 * len(specs)

    def test_stats_include_evictions_and_batches(self, ctx):
        engine = EvaluationEngine("serial", cache_max_entries=1)
        before = telemetry.snapshot()
        engine.evaluate_batch(ctx, self.specs())
        window = telemetry.diff_snapshots(before, telemetry.snapshot())
        assert window["counters"]["engine.batches_total"] == 1
        assert window["counters"]["cache.evictions"] == 1  # cap 1, 2 stores
        assert window["histograms"]["span.batch.seconds"]["sum"] > 0.0

    def test_format_engine_stats_renders_both_tables(self, ctx):
        from repro.experiments.reporting import format_engine_stats

        engine = EvaluationEngine("serial")
        batches = []
        list(engine._stream_indexed(ctx, self.specs(), batches))
        text = format_engine_stats(engine, batches)
        assert "Engine stats" in text
        assert "cache hits" in text
        assert "cache evictions" in text
        assert "backend" in text and "serial" in text
        assert "ms" in text  # the per-batch wall-time column

    def test_format_engine_stats_cache_off(self, ctx):
        from repro.experiments.reporting import format_engine_stats

        engine = EvaluationEngine("serial", cache=False)
        engine.evaluate_batch(ctx, self.specs())
        assert "cache" in format_engine_stats(engine)
