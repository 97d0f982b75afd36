"""The telemetry CLI surface: --telemetry-dir, repro trace, report
--telemetry, repro-cluster stats, and resume-aware progress counts."""

import json
import threading

import pytest

from repro import telemetry
from repro.experiments.cli import main

SMALL = ["--set", "context=synthetic", "--set", "n_samples=240",
         "--set", "percentiles=0.0,0.1,0.3", "--no-progress"]


class TestTraceWorkflow:
    def test_run_trace_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        trace_dir = str(tmp_path / "trace")
        assert main(["run", "figure1"] + SMALL +
                    ["--out", out, "--telemetry-dir", trace_dir]) == 0
        capsys.readouterr()
        telemetry.reset()  # close the sink: flushes the counters event

        assert main(["trace", trace_dir]) == 0
        rendered = capsys.readouterr().out
        assert "study" in rendered and "fit" in rendered
        assert "engine.rounds_total" in rendered

        assert main(["report", out, "--telemetry"]) == 0
        reported = capsys.readouterr().out
        assert "per-stage breakdown" in reported
        assert "fit" in reported

    def test_trace_missing_directory_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no such telemetry"):
            main(["trace", str(tmp_path / "absent")])

    def test_report_without_telemetry_says_so(self, tmp_path, capsys):
        """Every study archives its telemetry; one archived before
        that was so has none, and the report says so."""
        out = str(tmp_path / "result.json")
        assert main(["run", "figure1"] + SMALL + ["--out", out]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["data"]["extras"]["telemetry"]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["report", out, "--telemetry"]) == 0
        assert "no telemetry in this result" in capsys.readouterr().out


class TestClusterStats:
    def test_probes_a_live_shard(self, capsys):
        from repro.cluster.server import ShardServer
        from repro.experiments.runner import make_synthetic_context

        server = ShardServer(
            make_synthetic_context(seed=3, n_samples=140, n_features=3),
            port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(["repro-cluster", "stats", "--shards",
                         f"{server.host}:{server.port}"])
        finally:
            server.close()
            thread.join(timeout=5.0)
        out = capsys.readouterr().out
        assert code == 0
        assert "rounds executed" in out

    def test_unreachable_shard_reported(self, capsys):
        assert main(["repro-cluster", "stats",
                     "--shards", "127.0.0.1:1"]) == 1
        assert "unreachable" in capsys.readouterr().out

    def test_stats_needs_addresses(self):
        with pytest.raises(SystemExit, match="--shards"):
            main(["repro-cluster", "stats"])


class TestResumeProgress:
    def test_progress_counts_include_checkpointed_rounds(self, tmp_path):
        from repro.engine import EvaluationEngine
        from repro.study import run_study, studies

        spec = studies.figure1(
            context={"name": "synthetic", "n_samples": 240},
            percentiles=(0.0, 0.1, 0.3))
        archive = str(tmp_path / "archive")

        class Abort(RuntimeError):
            pass

        def abort_after(done, total):
            if done >= 3:
                raise Abort

        # Kill the first run mid-sweep; the checkpoint keeps its rounds.
        with pytest.raises(Abort):
            run_study(spec, engine=EvaluationEngine("serial"),
                      archive_dir=archive, checkpoint_every=1,
                      progress=abort_after)

        # The resumed run streams the checkpointed rounds as cache hits
        # first: done/total cover the full study from the start, count
        # monotonically through the resumed rounds, and never restart
        # from zero.
        calls: list = []
        result = run_study(
            spec, engine=EvaluationEngine("serial"),
            archive_dir=archive, resume=True, checkpoint_every=1,
            progress=lambda done, total: calls.append((done, total)))
        resumed = result.extras.get("resumed_scenarios", 0)
        assert resumed >= 3
        total = calls[-1][1]
        assert calls[-1] == (total, total)
        assert total == result.n_rounds
        assert [c[0] for c in calls] == list(range(1, total + 1))
