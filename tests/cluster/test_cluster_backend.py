"""Cluster backend: handshake, parity with serial, scheduler behaviour."""

import numpy as np
import pytest

from repro.cluster.backend import ClusterBackend, parse_shard_addresses
from repro.cluster.scheduler import (
    ClusterError,
    ClusterScheduler,
    ShardClient,
    ShardError,
)
from repro.engine import (
    AttackSpec,
    DefenseSpec,
    EvaluationEngine,
    RoundSpec,
    cache_schema_version,
)
from repro.experiments.runner import make_synthetic_context


def batch(n=3, seeds=2):
    specs = []
    for p in np.linspace(0.0, 0.3, n):
        for s in range(seeds):
            specs.append(RoundSpec(filter_percentile=float(p), attack=None,
                                   seed=50 + s))
            specs.append(RoundSpec(filter_percentile=float(p),
                                   attack=AttackSpec("boundary", float(p)),
                                   poison_fraction=0.2, seed=50 + s))
    return specs


class TestParseAddresses:
    def test_formats(self):
        assert parse_shard_addresses(None) == []
        assert parse_shard_addresses("") == []
        assert parse_shard_addresses("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_shard_addresses("a:1 b:2") == [("a", 1), ("b", 2)]

    def test_bad_address_raises(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_shard_addresses("nocolon")
        with pytest.raises(ValueError, match="not an integer"):
            parse_shard_addresses("host:http")


class TestClusterParity:
    """The acceptance bar: cluster == serial, bit for bit."""

    def test_two_shards_match_serial(self, cluster_ctx, shard_farm):
        specs = batch()
        serial = EvaluationEngine("serial", cache=False)
        cluster = EvaluationEngine(
            ClusterBackend(shards=shard_farm(2)), cache=False)
        assert cluster.evaluate_batch(cluster_ctx, specs) == \
            serial.evaluate_batch(cluster_ctx, specs)

    def test_cache_keys_and_state_match_serial(self, cluster_ctx, shard_farm):
        """Remote results enter the cache under exactly the serial keys."""
        specs = batch(n=2)
        serial = EvaluationEngine("serial", cache=True)
        cluster = EvaluationEngine(
            ClusterBackend(shards=shard_farm(2)), cache=True)
        assert serial.evaluate_batch(cluster_ctx, specs) == \
            cluster.evaluate_batch(cluster_ctx, specs)
        assert sorted(serial.cache._memory) == sorted(cluster.cache._memory)
        assert serial.cache._memory == cluster.cache._memory

    def test_warm_cache_serves_without_shard_contact(self, cluster_ctx,
                                                     shard_farm):
        specs = batch(n=2)
        engine = EvaluationEngine(
            ClusterBackend(shards=shard_farm(1)), cache=True)
        first = engine.evaluate_batch(cluster_ctx, specs)
        computed = engine.rounds_computed
        second = engine.evaluate_batch(cluster_ctx, specs)
        assert first == second
        assert engine.rounds_computed == computed

    def test_mixed_families_run_remotely(self, cluster_ctx, shard_farm):
        """Non-radius defenses and victims materialise shard-side."""
        specs = [
            RoundSpec(defense=DefenseSpec("slab_filter", 0.15),
                      attack=AttackSpec("label-flip"),
                      poison_fraction=0.2, seed=5),
            RoundSpec(defense=DefenseSpec("slab_filter", 0.15,
                                          {"axis": "clean"}),
                      attack=AttackSpec("boundary", 0.1),
                      poison_fraction=0.2, seed=5),
        ]
        serial = EvaluationEngine("serial", cache=False)
        cluster = EvaluationEngine(
            ClusterBackend(shards=shard_farm(2)), cache=False)
        assert cluster.evaluate_batch(cluster_ctx, specs) == \
            serial.evaluate_batch(cluster_ctx, specs)


class TestHandshake:
    def test_mismatched_context_is_refused(self, cluster_ctx, shard_farm):
        addresses = shard_farm(1)
        other = make_synthetic_context(seed=99, n_samples=100, n_features=3)
        backend = ClusterBackend(shards=addresses)
        with pytest.raises(ClusterError, match="fingerprint mismatch"):
            backend.run(other, batch(n=1, seeds=1))

    def test_matching_handshake_reports_capacity(self, cluster_ctx,
                                                 shard_farm):
        (address,) = shard_farm(1)
        client = ShardClient(address)
        try:
            info = client.handshake(cluster_ctx.fingerprint(),
                                    cache_schema_version())
            assert info["type"] == "welcome"
            assert info["capacity"] == 1
        finally:
            client.close()

    def test_wrong_schema_is_refused(self, cluster_ctx, shard_farm):
        (address,) = shard_farm(1)
        client = ShardClient(address)
        try:
            with pytest.raises(ShardError, match="schema mismatch"):
                client.handshake(cluster_ctx.fingerprint(),
                                 cache_schema_version() + 1)
        finally:
            client.close()

    def test_no_live_shard_raises_cluster_error(self, cluster_ctx):
        # fallback=False: the default would degrade to the serial
        # backend instead of raising (covered in test_resilience).
        backend = ClusterBackend(shards=[("127.0.0.1", 1)],
                                 timeout=0.5, retries=0, fallback=False)
        with pytest.raises(ClusterError, match="no shard accepted"):
            backend.run(cluster_ctx, batch(n=1, seeds=1))

    def test_deterministic_round_failure_surfaces_not_cascades(
            self, cluster_ctx, shard_farm):
        """A spec whose *round* raises on a healthy shard aborts the
        batch with that error — the shard is not retired and the chunk
        is not retried elsewhere (it would fail identically and mask
        the real exception)."""
        from repro.cluster.scheduler import ChunkExecutionError

        addresses = shard_farm(2)
        backend = ClusterBackend(shards=addresses)
        engine = EvaluationEngine(backend, cache=False)
        # "mixed" without its required percentiles param raises in the
        # builder, on the shard, deterministically.
        bad = [RoundSpec(attack=AttackSpec("mixed", 0.1),
                         poison_fraction=0.2, seed=1)]
        with pytest.raises(ChunkExecutionError, match="percentiles"):
            engine.evaluate_batch(cluster_ctx, bad)
        # both shards survive and keep serving good batches
        good = batch(n=2, seeds=1)
        reference = EvaluationEngine("serial", cache=False)
        assert engine.evaluate_batch(cluster_ctx, good) == \
            reference.evaluate_batch(cluster_ctx, good)

    def test_slow_chunk_outlasting_timeout_is_not_a_dead_shard(
            self, cluster_ctx, shard_farm):
        """The timeout bounds connect + handshake only.  A chunk whose
        execution outlasts it must complete normally — under TCP a
        timer cannot tell "still computing" from "hung", while a truly
        dead shard surfaces as a reset, so reaping slow chunks would
        retire healthy shards and abort retryable work."""
        addresses = shard_farm(1)
        specs = batch(n=3, seeds=2)  # one chunk, far more than 50ms of work
        backend = ClusterBackend(shards=addresses, timeout=0.05,
                                 max_chunk=len(specs))
        engine = EvaluationEngine(backend, cache=False)
        reference = EvaluationEngine("serial", cache=False)
        assert engine.evaluate_batch(cluster_ctx, specs) == \
            reference.evaluate_batch(cluster_ctx, specs)


class _StubClient:
    """Scheduler stub that serves every chunk instantly and records it."""

    name = "stub"

    def __init__(self, name=None):
        self.calls = 0
        self.received = []
        if name is not None:
            self.name = name

    def run_chunk(self, chunk_id, specs):
        self.calls += 1
        self.received.append(list(specs))
        return [f"out-{s}" for s in specs]

    def close(self):
        pass


class _DyingClient(_StubClient):
    """Fails every chunk; signals ``died`` after the first failure."""

    name = "dying-stub"

    def __init__(self, died):
        super().__init__()
        self.died = died

    def run_chunk(self, chunk_id, specs):
        self.calls += 1
        self.received.append(list(specs))
        self.died.set()
        raise ShardError("stub shard died")


class _WaitingClient(_StubClient):
    """Healthy, but serves its first chunk only after ``died`` fires —
    guarantees the dying shard really took (and lost) a chunk first."""

    name = "waiting-stub"

    def __init__(self, died):
        super().__init__()
        self.died = died

    def run_chunk(self, chunk_id, specs):
        assert self.died.wait(timeout=10.0)
        return super().run_chunk(chunk_id, specs)


class TestScheduler:
    def test_requeued_chunk_is_never_dropped(self):
        import threading

        died = threading.Event()
        healthy = _WaitingClient(died)
        dying = _DyingClient(died)
        scheduler = ClusterScheduler([healthy, dying], max_chunk=4)
        specs = [f"s{i}" for i in range(20)]
        delivered = list(scheduler.run_iter(specs))
        indices = [i for i, _ in delivered]
        # exactly once: the dead shard's chunk came back via the
        # survivor, nothing dropped, nothing duplicated
        assert sorted(indices) == list(range(20))
        assert len(indices) == len(set(indices))
        results = dict(delivered)
        assert all(results[i] == f"out-s{i}" for i in range(20))
        assert dying.calls == 1
        assert len(scheduler.failures) == 1

    def test_all_shards_dead_raises_with_outstanding_count(self):
        import threading

        scheduler = ClusterScheduler([_DyingClient(threading.Event())])
        with pytest.raises(ClusterError, match="outstanding"):
            list(scheduler.run_iter(["a", "b", "c"]))

    @staticmethod
    def _dealt(n, clients, **kwargs):
        """Run ``range(n)`` as the batch; the chunks the stubs received
        (a spec is its own index), ordered by first index."""
        scheduler = ClusterScheduler(clients, **kwargs)
        delivered = dict(scheduler.run_iter(list(range(n))))
        assert delivered == {i: f"out-{i}" for i in range(n)}
        return sorted((chunk for client in clients
                       for chunk in client.received), key=min)

    def test_grid_batch_is_dealt_as_two_fit_windows(self):
        chunks = self._dealt(48, [_StubClient("a"), _StubClient("b")])
        assert chunks == [list(range(0, 48, 2)), list(range(1, 48, 2))]

    def test_paper_game_batch_is_dealt_13_and_12(self):
        chunks = self._dealt(25, [_StubClient("a"), _StubClient("b")])
        assert chunks == [list(range(0, 25, 2)), list(range(1, 25, 2))]
        assert [len(chunk) for chunk in chunks] == [13, 12]

    def test_one_shard_gets_whole_windows(self):
        chunks = self._dealt(40, [_StubClient()])
        assert chunks == [list(range(0, 40, 2)), list(range(1, 40, 2))]

    def test_max_chunk_is_the_deal_window(self):
        chunks = self._dealt(20, [_StubClient("a"), _StubClient("b")],
                             max_chunk=4)
        # 2 shards x ceil(20 / (2 x 4)) chunks, dealt round-robin
        assert chunks == [list(range(first, 20, 6)) for first in range(6)]
        assert max(len(chunk) for chunk in chunks) == 4

    def test_requeued_chunk_is_retaken_whole(self):
        import threading

        died = threading.Event()
        healthy = _WaitingClient(died)
        dying = _DyingClient(died)
        scheduler = ClusterScheduler([healthy, dying])
        delivered = dict(scheduler.run_iter(list(range(48))))
        assert delivered == {i: f"out-{i}" for i in range(48)}
        (lost,) = dying.received
        assert lost in healthy.received
        assert sorted(healthy.received, key=min) == \
            [list(range(0, 48, 2)), list(range(1, 48, 2))]
        assert scheduler.stats()["requeues"] == 1

    def test_placed_chunks_never_mix_with_queue_chunks(self):
        """The owner holds its first placed chunk until the other shard
        has stolen one of its backlog, so both the owner's and the
        thief's path through the placed backlog run."""
        import threading

        placed = {0, 3, 6, 9, 12, 15}
        stolen = threading.Event()

        class Owner(_StubClient):
            def run_chunk(self, chunk_id, specs):
                assert stolen.wait(timeout=10.0)
                return super().run_chunk(chunk_id, specs)

        class Thief(_StubClient):
            def run_chunk(self, chunk_id, specs):
                if set(specs) <= placed:
                    stolen.set()
                return super().run_chunk(chunk_id, specs)

        owner, thief = Owner("owner"), Thief("thief")
        scheduler = ClusterScheduler([owner, thief], max_chunk=2,
                                     placement={"owner": sorted(placed)})
        delivered = dict(scheduler.run_iter(list(range(20))))
        assert delivered == {i: f"out-{i}" for i in range(20)}
        chunks = owner.received + thief.received
        assert all(set(chunk) <= placed or not set(chunk) & placed
                   for chunk in chunks)
        # The owner's backlog is dealt into whole chunks of its own.
        assert sorted(chunk for chunk in chunks if set(chunk) <= placed) \
            == [[0, 9], [3, 12], [6, 15]]
        stats = scheduler.stats()
        assert stats["placed_rounds"] == len(placed)
        assert stats["placed_steals"] >= 1

    def test_many_shards_under_fast_switching_deliver_exactly_once(self):
        """More shard threads than cores, two of which die mid-batch,
        with a shortened switch interval: a lost update to the shared
        queue or the in-flight count would hang, drop or repeat work."""
        import sys
        import threading

        class Flaky(_StubClient):
            def run_chunk(self, chunk_id, specs):
                if self.calls == 1:  # dies on its second chunk
                    self.calls += 1
                    raise ShardError("flaky stub died")
                return super().run_chunk(chunk_id, specs)

        clients = [_StubClient(f"stress-{i}") for i in range(6)] + \
            [Flaky(f"stress-flaky-{i}") for i in range(2)]
        n = 500
        scheduler = ClusterScheduler(clients, max_chunk=3)
        delivered = []
        runner = threading.Thread(
            target=lambda: delivered.extend(
                scheduler.run_iter(list(range(n)))), daemon=True)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive()
        # every shard thread saw the batch end (none left waiting)
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("shard-stress-")]
        assert sorted(i for i, _ in delivered) == list(range(n))
        stats = scheduler.stats()
        assert stats["rounds"] == n
        # every dealt chunk landed once; each failed attempt was requeued
        assert stats["chunks"] == 8 * -(-n // (8 * 3)) + stats["requeues"]

    def test_chunk_bounds_validated(self):
        with pytest.raises(ValueError, match="max_chunk"):
            ClusterScheduler([_StubClient()], max_chunk=0)
        with pytest.raises(ClusterError, match="no live shards"):
            ClusterScheduler([])
