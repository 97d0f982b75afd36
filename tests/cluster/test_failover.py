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
import threading

import numpy as np
import pytest

from repro.cluster.backend import ClusterBackend
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.server import CHAOS_EXIT_CODE
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.experiments.runner import make_synthetic_context, save_context


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
    path = str(tmp_path / "ctx.npz")
    save_context(cluster_ctx, path)
    return path


class TestShardDeath:
    def test_killed_shard_mid_sweep_loses_no_work(self, cluster_ctx,
                                                  ctx_file, monkeypatch):
        """One shard hard-exits mid-chunk after 3 rounds; the survivor
        absorbs the requeued work and the sweep stays bit-identical."""
        specs = sweep_batch()
        reference = EvaluationEngine("serial",
                                     cache=False).evaluate_batch(
            cluster_ctx, specs)

        survivor, chaotic = None, None
        try:
            survivor, addr_a = _spawn_shard(ctx_file)
            chaotic, addr_b = _spawn_shard(
                ctx_file, "--faults", "shard:crash_after_rounds=3")
            # The 12 rounds deal as 4 chunks of 3, and the chaotic
            # shard crashes only as its 4th computed round lands: the
            # survivor takes nothing until the chaotic shard has taken
            # its second chunk, so the crash always comes.
            chaotic_name = f"{addr_b[0]}:{addr_b[1]}"
            chaotic_takes = []
            second_taken = threading.Event()
            real_take = ClusterScheduler._take

            def take(scheduler, owner):
                if owner != chaotic_name:
                    second_taken.wait(timeout=30.0)
                taken = real_take(scheduler, owner)
                if owner == chaotic_name:
                    chaotic_takes.append(taken)
                    if len(chaotic_takes) == 2:
                        second_taken.set()
                return taken

            monkeypatch.setattr(ClusterScheduler, "_take", take)
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

    def test_concurrent_first_use_spawns_one_fleet(self, monkeypatch):
        """Two threads released together on one new context share one
        autospawned pool of ``n_shards`` processes; none is left that
        ``close_local_pools`` cannot reach."""
        from repro.cluster import backend as cluster_backend

        ctx = make_synthetic_context(seed=23, n_samples=100, n_features=3)
        built = []
        real_pool = cluster_backend.LocalShardPool

        def counting_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            built.append(pool)
            return pool

        monkeypatch.setattr(cluster_backend, "LocalShardPool", counting_pool)
        barrier = threading.Barrier(2)
        got = [None, None]

        def start(slot):
            barrier.wait()
            got[slot] = cluster_backend.shared_local_pool(ctx, 2)

        threads = [threading.Thread(target=start, args=(slot,))
                   for slot in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(built) == 1
            assert got[0] is got[1] is built[0]
            assert len(built[0].processes) == 2
        finally:
            cluster_backend.close_local_pools()
            for pool in built:
                pool.close()


class _Alive:
    def poll(self):
        return None


class _FakeFleet:
    """Stands in for LocalShardPool: records its close, spawns nothing.

    ``addresses_for`` maps a context fingerprint to real shard
    addresses, for a fleet a batch actually runs on.
    """

    addresses_for: dict = {}

    def __init__(self, ctx, n_shards, secret=None):
        self.fingerprint = ctx.fingerprint()
        self.addresses = self.addresses_for.get(
            self.fingerprint, [("127.0.0.1", 1)] * n_shards)
        self.processes = [_Alive() for _ in self.addresses]
        self.closed = False

    def close(self):
        self.closed = True


class _Ctx:
    def __init__(self, name):
        self.name = name

    def fingerprint(self):
        return self.name


class TestLocalFleetCache:
    @pytest.fixture()
    def fleets(self, monkeypatch):
        from repro.cluster import backend as cluster_backend

        monkeypatch.setattr(cluster_backend, "LocalShardPool", _FakeFleet)
        monkeypatch.setattr(_FakeFleet, "addresses_for", {})
        yield cluster_backend
        cluster_backend.close_local_pools()

    def test_evicts_the_least_recently_used_fleet(self, fleets):
        """Fleets used A, B, A, then C: B is the one torn down."""
        a = fleets.shared_local_pool(_Ctx("a"), 2)
        b = fleets.shared_local_pool(_Ctx("b"), 2)
        assert fleets.shared_local_pool(_Ctx("a"), 2) is a
        c = fleets.shared_local_pool(_Ctx("c"), 2)
        assert b.closed
        assert not a.closed and not c.closed

    def test_fleet_evicted_mid_batch_closes_when_the_batch_ends(
            self, fleets, cluster_ctx, shard_farm):
        """Newer contexts push a fleet out of the cache while a batch
        runs on it, and a bigger fleet replaces it: the batch keeps its
        shards, and the evicted fleet closes once the batch ends."""
        _FakeFleet.addresses_for[cluster_ctx.fingerprint()] = shard_farm(2)
        specs = sweep_batch(n=2, seeds=2)
        reference = EvaluationEngine("serial", cache=False).evaluate_batch(
            cluster_ctx, specs)
        backend = ClusterBackend(2, max_chunk=1)
        stream = backend.run_iter(cluster_ctx, specs)
        outcomes = dict([next(stream)])
        running = backend._pool
        grown = fleets.shared_local_pool(cluster_ctx, 3)
        assert grown is not running
        fleets.shared_local_pool(_Ctx("b"), 2)
        fleets.shared_local_pool(_Ctx("c"), 2)
        assert not running.closed
        outcomes.update(stream)
        assert running.closed
        assert [outcomes[i] for i in range(len(specs))] == reference
