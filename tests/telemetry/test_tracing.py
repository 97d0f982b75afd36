"""Spans: nesting, sink events, the span.<name>.seconds histograms."""

import json
import os

import pytest

from repro import telemetry
from repro.engine import EvaluationEngine
from repro.study import run_study, studies


def _read_events(directory):
    events = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            events += [json.loads(line) for line in fh if line.strip()]
    return events


class TestDisabled:
    """No sink directory: spans still time, and nothing is written."""

    def test_disabled_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with telemetry.trace_span("fit"):
            pass
        result = run_study(
            studies.figure1(context={"name": "synthetic", "n_samples": 240},
                            percentiles=(0.0, 0.1)),
            engine=EvaluationEngine("serial"))
        assert telemetry.trace_dir() is None
        assert list(tmp_path.iterdir()) == []
        assert "span.fit.seconds" in telemetry.snapshot()["histograms"]
        assert result.extras["telemetry"]["stages"]["study"]["count"] == 1


class TestEnabled:
    def test_span_feeds_stage_histogram(self):
        telemetry.configure(metrics_only=True)
        with telemetry.trace_span("fit"):
            pass
        with telemetry.trace_span("fit"):
            pass
        hist = telemetry.snapshot()["histograms"]["span.fit.seconds"]
        assert hist["count"] == 2
        assert hist["sum"] >= 0.0

    def test_nested_spans_link_parents(self, tmp_path):
        telemetry.configure(str(tmp_path))
        with telemetry.trace_span("outer"):
            with telemetry.trace_span("inner", step=1):
                pass
        telemetry.reset()  # closes the sink
        events = _read_events(tmp_path)
        spans = {e["name"]: e for e in events if e["event"] == "span"}
        # End-emission: the child's line precedes the parent's.
        assert [e["name"] for e in events if e["event"] == "span"] == \
            ["inner", "outer"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["span"]
        assert spans["inner"]["attrs"] == {"step": 1}
        assert spans["inner"]["pid"] == os.getpid()
        assert spans["inner"]["dur"] >= 0.0

    def test_sibling_spans_share_a_parent(self, tmp_path):
        telemetry.configure(str(tmp_path))
        with telemetry.trace_span("batch"):
            with telemetry.trace_span("fit"):
                pass
            with telemetry.trace_span("payoff"):
                pass
        telemetry.reset()
        spans = {e["name"]: e for e in _read_events(tmp_path)
                 if e["event"] == "span"}
        assert spans["fit"]["parent"] == spans["batch"]["span"]
        assert spans["payoff"]["parent"] == spans["batch"]["span"]

    def test_exception_recorded_and_propagated(self, tmp_path):
        telemetry.configure(str(tmp_path))
        with pytest.raises(RuntimeError):
            with telemetry.trace_span("fit"):
                raise RuntimeError("boom")
        telemetry.reset()
        (span,) = [e for e in _read_events(tmp_path)
                   if e["event"] == "span"]
        assert span["error"] == "RuntimeError"

    def test_metrics_only_mode_has_no_sink(self, tmp_path):
        """``configure(metrics_only=True)``, as e2ebench calls it, is a
        fresh registry with no sink."""
        telemetry.counter("engine.rounds_total").inc()
        registry = telemetry.configure(metrics_only=True)
        assert registry is telemetry.registry()
        assert registry.snapshot()["counters"] == {}
        with telemetry.trace_span("fit"):
            pass
        assert telemetry.trace_dir() is None
        assert list(tmp_path.iterdir()) == []

    def test_unserialisable_attr_never_raises(self, tmp_path):
        telemetry.configure(str(tmp_path))
        with telemetry.trace_span("fit", bad=object()):
            pass
        telemetry.reset()
        # The offending line is dropped, not the process.
        assert all(e["event"] != "span" or e["name"] != "fit"
                   for e in _read_events(tmp_path))


class TestSummary:
    def test_summary_derives_stages_from_histograms(self):
        telemetry.configure(metrics_only=True)
        with telemetry.trace_span("fit"):
            pass
        telemetry.counter("cache.misses").inc(3)
        summary = telemetry.summary()
        assert summary["schema"] == telemetry.SUMMARY_SCHEMA_VERSION
        assert summary["stages"]["fit"]["count"] == 1
        assert summary["counters"]["cache.misses"] == 3

    def test_summary_since_scopes_to_the_window(self):
        telemetry.configure(metrics_only=True)
        with telemetry.trace_span("fit"):
            pass
        since = telemetry.snapshot()
        with telemetry.trace_span("fit"):
            pass
        summary = telemetry.summary(since=since)
        assert summary["stages"]["fit"]["count"] == 1
