"""Chaos matrix: armed fault plans at every protocol stage.

Every test asserts the headline property end to end: whatever faults
fire — connect failures, handshake failures, lost chunks, dropped
replies, shard crashes, full degradation to the serial backend — the
surviving run's outcomes are **bit-identical** to the fault-free run.
Fault plans are seeded, so each of these is a regression test, not a
dice roll.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster.backend import ClusterBackend, ClusterDegradedWarning
from repro.cluster.scheduler import ClusterError
from repro.cluster.server import CHAOS_EXIT_CODE
from repro.engine import EvaluationEngine
from repro.resilience import faults

from test_failover import sweep_batch


@pytest.fixture(scope="module")
def reference(cluster_ctx):
    """Serial outcomes for the standard chaos batch (computed once)."""
    return EvaluationEngine("serial", cache=False).evaluate_batch(
        cluster_ctx, sweep_batch(n=4, seeds=2))


def _cluster_run(ctx, addresses, **backend_kwargs):
    backend_kwargs.setdefault("retries", 6)
    backend_kwargs.setdefault("backoff", 0.01)
    backend_kwargs.setdefault("max_chunk", 3)
    backend = ClusterBackend(shards=addresses, **backend_kwargs)
    engine = EvaluationEngine(backend, cache=False)
    outcomes = engine.evaluate_batch(ctx, sweep_batch(n=4, seeds=2))
    return outcomes, backend


class TestChaosMatrix:
    """Deterministic kills at each protocol stage, one per parameter."""

    @pytest.mark.parametrize("plan", [
        "connect:fail_first=1",
        "handshake:fail_first=1",
        "chunk_send:fail_first=1",
        "chunk_reply:drop_first=1",
        "chunk_reply:delay_ms=20",
    ])
    def test_single_stage_fault_is_bit_identical(self, cluster_ctx,
                                                 shard_farm, reference,
                                                 plan):
        addresses = shard_farm(2)
        faults.install(plan)
        outcomes, _ = _cluster_run(cluster_ctx, addresses)
        assert outcomes == reference

    def test_seeded_probabilistic_mix_is_bit_identical(self, cluster_ctx,
                                                       shard_farm,
                                                       reference,
                                                       counters):
        """The ISSUE's flagship mix: flaky connects, slowed and dropped
        replies, all at once, seeded."""
        addresses = shard_farm(2)
        faults.install("connect:fail_prob=0.3;"
                       "chunk_reply:delay_ms=5,drop_prob=0.15;seed=7")
        outcomes, _ = _cluster_run(cluster_ctx, addresses)
        assert outcomes == reference
        # The flaky connects were retried, and the shards (not the
        # serial fallback) ran every chunk.
        counts = counters()
        assert counts["retry.attempts"] >= 1
        assert counts["shard.chunks_total"] >= 4

    def test_same_seed_same_fault_sequence_same_results(self, cluster_ctx,
                                                        shard_farm,
                                                        reference):
        addresses = shard_farm(2)
        for _ in range(2):
            faults.install("chunk_send:fail_prob=0.4;seed=3")
            outcomes, _ = _cluster_run(cluster_ctx, addresses)
            assert outcomes == reference


class TestRestartRejoin:
    def test_restarted_shard_rejoins_mid_sweep(self, cluster_ctx,
                                               tmp_path, counters):
        """The lone shard crashes after 3 rounds (armed via REPRO_FAULTS
        in its environment); a watcher restarts it at the *same*
        address; the worker's retry schedule reconnects and the sweep
        finishes bit-identical — with zero surviving shards in between.
        """
        from repro.experiments.runner import save_context

        ctx_file = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, ctx_file)
        specs = sweep_batch(n=4, seeds=2)
        reference = EvaluationEngine("serial", cache=False).evaluate_batch(
            cluster_ctx, specs)

        procs = []

        def spawn(port, chaos_env=None):
            import repro

            env = dict(os.environ)
            pkg_root = os.path.dirname(os.path.dirname(
                os.path.abspath(repro.__file__)))
            env["PYTHONPATH"] = pkg_root + os.pathsep + \
                env.get("PYTHONPATH", "")
            env.pop("REPRO_FAULTS", None)
            if chaos_env:
                env["REPRO_FAULTS"] = chaos_env
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster",
                 "--context-file", ctx_file, "--port", str(port)],
                stdout=subprocess.PIPE, text=True, env=env)
            procs.append(proc)
            line = proc.stdout.readline()
            assert line.startswith("READY "), f"no READY: {line!r}"
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            return proc, (fields["host"], int(fields["port"]))

        first, address = spawn(0, chaos_env="shard:crash_after_rounds=3")

        def respawner():
            first.wait()
            spawn(address[1])  # same port: the address clients retry

        watcher = threading.Thread(target=respawner, daemon=True)
        watcher.start()
        try:
            backend = ClusterBackend(shards=[address], max_chunk=2,
                                     retries=10, backoff=0.3,
                                     fallback=False)
            engine = EvaluationEngine(backend, cache=False)
            outcomes = engine.evaluate_batch(cluster_ctx, specs)
            assert outcomes == reference
            assert counters()["cluster.rejoins"] >= 1
            watcher.join(timeout=10.0)
            assert first.returncode == CHAOS_EXIT_CODE
        finally:
            watcher.join(timeout=10.0)
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=5.0)
                proc.stdout.close()


class TestGracefulDegradation:
    def test_all_shards_dead_degrades_to_serial(self, cluster_ctx,
                                                reference):
        backend = ClusterBackend(shards=[("127.0.0.1", 1)], timeout=0.5,
                                 retries=0)
        engine = EvaluationEngine(backend, cache=False)
        with pytest.warns(ClusterDegradedWarning, match="serial backend"):
            outcomes = engine.evaluate_batch(cluster_ctx,
                                             sweep_batch(n=4, seeds=2))
        assert outcomes == reference

    def test_mid_sweep_total_loss_degrades_for_the_remainder(
            self, cluster_ctx, tmp_path, reference):
        """The only shard dies mid-sweep and never comes back: once the
        rejoin budget is spent, the remaining rounds run serially and
        the batch still matches bit for bit."""
        from test_failover import _spawn_shard

        from repro.experiments.runner import save_context

        ctx_file = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, ctx_file)
        proc, address = _spawn_shard(ctx_file, "--faults",
                                     "shard:crash_after_rounds=3")
        try:
            backend = ClusterBackend(shards=[address], max_chunk=2,
                                     retries=1, backoff=0.05)
            engine = EvaluationEngine(backend, cache=False)
            with pytest.warns(ClusterDegradedWarning):
                outcomes = engine.evaluate_batch(cluster_ctx,
                                                 sweep_batch(n=4, seeds=2))
            assert outcomes == reference
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=5.0)
            proc.stdout.close()

    def test_env_knob_disables_degradation(self, cluster_ctx, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_FALLBACK", "0")
        backend = ClusterBackend(shards=[("127.0.0.1", 1)], timeout=0.5,
                                 retries=0)
        engine = EvaluationEngine(backend, cache=False)
        with pytest.raises(ClusterError, match="no shard accepted"):
            engine.evaluate_batch(cluster_ctx, sweep_batch(n=2, seeds=1))


class TestZeroOverheadWhenOff:
    def test_disarmed_fire_is_a_cheap_noop(self):
        faults.install(None)
        start = time.perf_counter()
        for _ in range(100_000):
            faults.fire("connect")
        elapsed = time.perf_counter() - start
        # ~a global read + None check per call; generous ceiling so slow
        # CI boxes never flake.
        assert elapsed < 1.0
