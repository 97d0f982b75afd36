"""Failure injection against real shard processes.

These tests spawn actual ``python -m repro.cluster`` subprocesses —
a thread cannot ``os._exit`` — and exercise the two acceptance
behaviours: a shard killed mid-sweep never loses work, and the
autospawned localhost pool gives ``EvaluationEngine("cluster")``
with no configuration at all.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.cluster.backend import ClusterBackend
from repro.cluster.server import CHAOS_EXIT_CODE
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.experiments.runner import save_context


def _spawn_shard(ctx_file, *extra):
    import repro

    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cluster",
         "--context-file", ctx_file, "--port", "0", *extra],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    assert line.startswith("READY "), f"shard never became ready: {line!r}"
    fields = dict(kv.split("=", 1) for kv in line.split()[1:])
    return proc, (fields["host"], int(fields["port"]))


def sweep_batch(n=4, seeds=3):
    specs = []
    for p in np.linspace(0.0, 0.3, n):
        for s in range(seeds):
            specs.append(RoundSpec(filter_percentile=float(p),
                                   attack=AttackSpec("boundary", float(p)),
                                   poison_fraction=0.2, seed=200 + s))
    return specs


@pytest.fixture()
def ctx_file(cluster_ctx, tmp_path):
    path = str(tmp_path / "ctx.pkl")
    save_context(cluster_ctx, path)
    return path


class TestShardDeath:
    def test_killed_shard_mid_sweep_loses_no_work(self, cluster_ctx,
                                                  ctx_file):
        """One shard hard-exits mid-chunk after 3 rounds; the survivor
        absorbs the requeued work and the sweep stays bit-identical."""
        specs = sweep_batch()
        reference = EvaluationEngine("serial",
                                     cache=False).evaluate_batch(
            cluster_ctx, specs)

        survivor, chaotic = None, None
        try:
            survivor, addr_a = _spawn_shard(ctx_file)
            chaotic, addr_b = _spawn_shard(ctx_file,
                                           "--chaos-exit-after", "3")
            backend = ClusterBackend(shards=[addr_a, addr_b],
                                     max_chunk=4)
            engine = EvaluationEngine(backend, cache=False)
            outcomes = engine.evaluate_batch(cluster_ctx, specs)
            assert outcomes == reference
            # the chaotic shard really died, with the chaos exit code
            assert chaotic.wait(timeout=10.0) == CHAOS_EXIT_CODE
        finally:
            for proc in (survivor, chaotic):
                if proc is not None:
                    if proc.poll() is None:
                        proc.terminate()
                        proc.wait(timeout=5.0)
                    proc.stdout.close()


class TestAutospawn:
    def test_cluster_backend_autospawns_localhost_shards(
            self, cluster_ctx, monkeypatch):
        """`EvaluationEngine("cluster")` with nothing configured spawns
        two loopback shards and matches serial bit for bit."""
        monkeypatch.delenv("REPRO_CLUSTER_SHARDS", raising=False)
        specs = sweep_batch(n=3, seeds=2)
        reference = EvaluationEngine("serial",
                                     cache=False).evaluate_batch(
            cluster_ctx, specs)
        engine = EvaluationEngine("cluster", jobs=2, cache=False)
        try:
            assert engine.evaluate_batch(cluster_ctx, specs) == reference
            pool = engine.backend._pool
            assert pool is not None
            procs = list(pool.processes)
            assert len(procs) == 2
            assert all(p.poll() is None for p in procs)
        finally:
            engine.backend.close()
        assert all(p.poll() is not None for p in procs)
