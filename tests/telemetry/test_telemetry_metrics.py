"""The metrics registry: instruments, snapshots, the delta discipline."""

import threading

from repro.telemetry.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                                     diff_snapshots)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5
        # Same name -> same instrument.
        assert reg.counter("a") is reg.counter("a")

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0, 3.0):
            h.observe(v)
        assert h.counts == [1, 1, 2]  # final slot is the +Inf bucket
        assert h.count == 4
        assert abs(h.sum - 5.55) < 1e-9

    def test_default_buckets_span_micro_to_minutes(self):
        assert DEFAULT_BUCKETS[0] <= 1e-4
        assert DEFAULT_BUCKETS[-1] >= 60.0

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("n").inc()
                reg.histogram("h").observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 8000
        assert reg.histogram("h").count == 8000


class TestSnapshotAndDelta:
    def test_snapshot_is_json_plain(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.01)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"] == {"c": 1}
        assert snap["histograms"]["h"]["count"] == 1

    def test_flush_delta_none_when_quiet(self):
        reg = MetricsRegistry()
        assert reg.flush_delta() is None
        reg.counter("c").inc()
        assert reg.flush_delta() == {"counters": {"c": 1}}
        # Watermark advanced: nothing new to ship.
        assert reg.flush_delta() is None
        reg.counter("c").inc(2)
        assert reg.flush_delta() == {"counters": {"c": 2}}

    def test_merge_adds_counters_and_histograms(self):
        worker, client = MetricsRegistry(), MetricsRegistry()
        worker.counter("c").inc(3)
        worker.histogram("h", buckets=(1.0,)).observe(0.5)
        client.counter("c").inc(1)
        client.merge(worker.flush_delta())
        assert client.counter("c").value == 4
        merged = client.histogram("h", buckets=(1.0,))
        assert merged.count == 1 and merged.counts == [1, 0]

    def test_merge_survives_boundary_mismatch(self):
        client = MetricsRegistry()
        client.histogram("h", buckets=(1.0,)).observe(0.5)
        client.merge({"histograms": {"h": {
            "buckets": [0.1, 0.2, 0.3], "counts": [1, 0, 0, 1],
            "sum": 0.4, "count": 2}}})
        h = client.histogram("h", buckets=(1.0,))
        assert h.count == 3  # sum/count kept even when shapes differ
        assert abs(h.sum - 0.9) < 1e-9

    def test_diff_snapshots_scopes_to_the_window(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(0.1)
        before = reg.snapshot()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(0.2)
        diff = diff_snapshots(before, reg.snapshot())
        assert diff["counters"] == {"c": 2}
        assert diff["histograms"]["h"]["count"] == 1
        assert abs(diff["histograms"]["h"]["sum"] - 0.2) < 1e-9
