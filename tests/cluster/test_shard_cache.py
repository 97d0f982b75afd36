"""Shard cache tier and cache-aware placement (PR 8 tentpole).

Three layers: the ``cache-query`` / ``cache-info`` protocol messages,
the shard-side disk tier (streaming per-round landing, restart
persistence), and the scheduler's locality-aware placement — including
its composition with the PR 7 fault plans, where every run must stay
bit-identical to the fault-free serial reference.
"""

import socket
import threading

import pytest

from repro.cluster import protocol
from repro.cluster.backend import ClusterBackend, ClusterDegradedWarning
from repro.cluster.scheduler import ShardClient
from repro.cluster.server import CHAOS_EXIT_CODE
from repro.engine import EvaluationEngine, cache_schema_version, round_keys
from repro.experiments.runner import save_context

from test_failover import _spawn_shard, sweep_batch


@pytest.fixture(scope="module")
def reference(cluster_ctx):
    return EvaluationEngine("serial", cache=False).evaluate_batch(
        cluster_ctx, sweep_batch(n=4, seeds=3))


def _client(address, ctx):
    client = ShardClient(address)
    client.handshake(ctx.fingerprint(), cache_schema_version())
    return client


def _probe(address, schema=None, secret=None):
    """Raw pre-handshake cache-info round trip."""
    schema = cache_schema_version() if schema is None else schema
    with socket.create_connection(address, timeout=5.0) as sock:
        protocol.send_message(sock,
                              protocol.cache_info(schema, secret=secret))
        return protocol.recv_message(sock)


class TestCacheQuery:
    def test_held_subset_grows_as_rounds_land(self, cluster_ctx,
                                              shard_farm, tmp_path):
        [address] = shard_farm(1, cache_dir=str(tmp_path / "tier"))
        specs = sweep_batch(n=2, seeds=2)
        keys = round_keys(cluster_ctx.fingerprint(), specs)
        client = _client(address, cluster_ctx)
        try:
            held, stats = client.query_cache(keys)
            assert held == set() and stats["enabled"]
            client.run_chunk(1, specs[:2])
            held, stats = client.query_cache(keys)
            assert held == set(keys[:2])
            assert stats["entry_count"] == 2
        finally:
            client.close()

    def test_cacheless_shard_holds_nothing(self, cluster_ctx, shard_farm):
        [address] = shard_farm(1)
        specs = sweep_batch(n=2, seeds=1)
        client = _client(address, cluster_ctx)
        try:
            client.run_chunk(1, specs)
            held, stats = client.query_cache(
                round_keys(cluster_ctx.fingerprint(), specs))
            assert held == set()
            assert stats["enabled"] is False
        finally:
            client.close()

    def test_repeat_chunk_is_served_from_cache(self, cluster_ctx,
                                               shard_farm, tmp_path):
        [address] = shard_farm(1, cache_dir=str(tmp_path / "tier"))
        specs = sweep_batch(n=2, seeds=2)
        client = _client(address, cluster_ctx)
        try:
            first = client.run_chunk(1, specs)
            assert client.last_cache_hits == 0
            again = client.run_chunk(2, specs)
            assert client.last_cache_hits == len(specs)
            assert again == first
        finally:
            client.close()

    def test_cache_survives_shard_restart(self, cluster_ctx, shard_farm,
                                          tmp_path):
        """The disk tier is the persistence: a new server process (here
        a new in-process server) over the same directory serves the old
        results without recomputing."""
        tier = str(tmp_path / "tier")
        [first_address] = shard_farm(1, cache_dir=tier)
        specs = sweep_batch(n=2, seeds=2)
        client = _client(first_address, cluster_ctx)
        try:
            expected = client.run_chunk(1, specs)
        finally:
            client.close()
        [second_address] = shard_farm(1, cache_dir=tier)
        client = _client(second_address, cluster_ctx)
        try:
            outcomes = client.run_chunk(1, specs)
            assert client.last_cache_hits == len(specs)
            assert outcomes == expected
        finally:
            client.close()


class TestCacheInfoProbe:
    def test_probe_reports_tier_stats(self, cluster_ctx, shard_farm,
                                      tmp_path):
        [address] = shard_farm(1, cache_dir=str(tmp_path / "tier"))
        client = _client(address, cluster_ctx)
        try:
            client.run_chunk(1, sweep_batch(n=2, seeds=1))
        finally:
            client.close()
        reply = _probe(address)
        assert reply["type"] == "cache-report"
        stats = reply["stats"]
        assert stats["enabled"]
        assert stats["schema_version"] == cache_schema_version()
        assert stats["fingerprint"] == cluster_ctx.fingerprint()
        assert stats["entry_count"] == 2
        assert stats["total_bytes"] > 0

    def test_probe_on_cacheless_shard(self, shard_farm):
        [address] = shard_farm(1)
        reply = _probe(address)
        assert reply["type"] == "cache-report"
        assert reply["stats"]["enabled"] is False

    def test_probe_auth_is_enforced(self, shard_farm, tmp_path):
        [address] = shard_farm(1, secret="tier-secret",
                               cache_dir=str(tmp_path / "tier"))
        assert _probe(address)["type"] == "reject"
        assert _probe(address, secret="wrong")["type"] == "reject"
        assert _probe(address, secret="tier-secret")["type"] == \
            "cache-report"

    def test_secretless_shard_rejects_authed_probe(self, shard_farm):
        [address] = shard_farm(1)
        reply = _probe(address, secret="surprise")
        assert reply["type"] == "reject"
        assert "no REPRO_CLUSTER_SECRET" in reply["reason"]


class TestPlacement:
    def _run(self, ctx, addresses, **kwargs):
        backend = ClusterBackend(shards=addresses, max_chunk=4,
                                 **kwargs)
        engine = EvaluationEngine(backend, cache=False)
        outcomes = engine.evaluate_batch(ctx, sweep_batch(n=4, seeds=3))
        return outcomes, engine.batch_log[-1].get("cluster")

    def test_warm_fleet_recomputes_nothing(self, cluster_ctx, shard_farm,
                                           reference, tmp_path):
        addresses = shard_farm(2, cache_dir=str(tmp_path / "tier"))
        cold, telemetry = self._run(cluster_ctx, addresses)
        assert cold == reference
        assert telemetry["shard_cache_hits"] == 0
        # Second sweep from a *cold client* (fresh backend, engine cache
        # off): every round is placed on a holder and served from disk —
        # zero recompute, asserted via the shard-reported telemetry.
        specs = sweep_batch(n=4, seeds=3)
        warm, telemetry = self._run(cluster_ctx, addresses)
        assert warm == reference
        assert telemetry["placed_rounds"] == len(specs)
        assert telemetry["shard_cache_hits"] == len(specs)
        assert 0 < telemetry["placement_hits"] <= len(specs)

    def test_disjoint_tiers_place_to_the_holder(self, cluster_ctx,
                                                shard_farm, reference,
                                                tmp_path):
        """Each shard holds only what it computed; placement still
        covers the batch (every round has exactly one holder) and the
        sweep stays bit-identical whether a round is answered by its
        owner or stolen and recomputed."""
        addresses = shard_farm(1, cache_dir=str(tmp_path / "a")) + \
            shard_farm(1, cache_dir=str(tmp_path / "b"))
        self._run(cluster_ctx, addresses)
        warm, telemetry = self._run(cluster_ctx, addresses)
        assert warm == reference
        assert telemetry["placed_rounds"] == len(sweep_batch(n=4, seeds=3))
        assert telemetry["shard_cache_hits"] > 0

    def test_placement_toggle_off_still_hits_shard_cache(
            self, cluster_ctx, shard_farm, reference, tmp_path):
        addresses = shard_farm(2, cache_dir=str(tmp_path / "shared"))
        self._run(cluster_ctx, addresses)
        warm, telemetry = self._run(cluster_ctx, addresses,
                                    placement=False)
        assert warm == reference
        assert telemetry["placed_rounds"] == 0
        assert telemetry["placement_hits"] == 0
        # The shards still answer from their tier — placement only
        # decides *routing*, the cache serves either way.
        assert telemetry["shard_cache_hits"] == len(sweep_batch(n=4,
                                                               seeds=3))

    def test_engine_stats_aggregate_cluster_telemetry(
            self, cluster_ctx, shard_farm, tmp_path):
        from repro.experiments.reporting import format_engine_stats

        addresses = shard_farm(1, cache_dir=str(tmp_path / "tier"))
        backend = ClusterBackend(shards=addresses, max_chunk=4)
        engine = EvaluationEngine(backend, cache=False)
        specs = sweep_batch(n=2, seeds=2)
        engine.evaluate_batch(cluster_ctx, specs)
        engine.evaluate_batch(cluster_ctx, specs)
        stats = engine.stats
        assert stats["shard_cache_hits"] == len(specs)
        assert stats["placement_hits"] == len(specs)
        rendered = format_engine_stats(engine)
        assert "cluster placement hits" in rendered
        assert "cluster shard-cache hits" in rendered


class TestPlacementUnderChaos:
    def test_placed_shard_killed_mid_chunk_is_bit_identical(
            self, cluster_ctx, reference, tmp_path):
        """A half-warm shard owns placed chunks, crashes mid-chunk; the
        cacheless survivor absorbs the requeue (stealing the remaining
        placed work) and the sweep matches serial bit for bit."""
        ctx_file = str(tmp_path / "ctx.pkl")
        save_context(cluster_ctx, ctx_file)
        tier = str(tmp_path / "tier")
        specs = sweep_batch(n=4, seeds=3)

        warmer, warm_address = _spawn_shard(ctx_file, "--cache-dir", tier)
        try:
            client = _client(warm_address, cluster_ctx)
            try:
                client.run_chunk(1, specs[:6])  # half-warm the tier
            finally:
                client.close()
        finally:
            warmer.terminate()
            warmer.wait(timeout=5.0)
            warmer.stdout.close()

        # Threshold 1: the chaotic shard's first *computed* chunk dies
        # on its second round (cached rounds never arm the chaos
        # counter), so the crash is deterministic as long as it takes
        # any queue work at all — which its instant cache serves
        # guarantee while the survivor is busy computing.
        chaotic, addr_a = _spawn_shard(ctx_file, "--cache-dir", tier,
                                       "--chaos-exit-after", "1")
        survivor, addr_b = _spawn_shard(ctx_file)
        try:
            backend = ClusterBackend(shards=[addr_a, addr_b],
                                     max_chunk=2,
                                     retries=1, backoff=0.05)
            engine = EvaluationEngine(backend, cache=False)
            outcomes = engine.evaluate_batch(cluster_ctx, specs)
            assert outcomes == reference
            telemetry = engine.batch_log[-1]["cluster"]
            assert telemetry["placed_rounds"] == 6
            assert chaotic.wait(timeout=10.0) == CHAOS_EXIT_CODE
        finally:
            for proc in (chaotic, survivor):
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=5.0)
                proc.stdout.close()

    def test_rejoin_replays_partial_chunk_from_disk(self, cluster_ctx,
                                                    reference, tmp_path):
        """The lone shard streams each round to disk, crashes mid-chunk,
        and is restarted at the same address over the same tier: the
        requeued chunk's already-landed rounds replay from disk instead
        of recomputing (visible as shard cache hits on a cold fleet)."""
        ctx_file = str(tmp_path / "ctx.pkl")
        save_context(cluster_ctx, ctx_file)
        tier = str(tmp_path / "tier")
        specs = sweep_batch(n=4, seeds=3)

        procs = []

        def spawn(port, *extra):
            proc, address = _spawn_shard(ctx_file, "--cache-dir", tier,
                                         "--port", str(port), *extra)
            procs.append(proc)
            return proc, address

        # Fixed chunks of 2 with a crash after 3 computed rounds: the
        # second chunk lands its first round in the tier, then dies —
        # a genuinely partial chunk.
        first, address = spawn(0, "--chaos-exit-after", "3")

        def respawner():
            first.wait()
            spawn(address[1])

        watcher = threading.Thread(target=respawner, daemon=True)
        watcher.start()
        try:
            backend = ClusterBackend(shards=[address], max_chunk=2,
                                     retries=10, backoff=0.3,
                                     fallback=False)
            engine = EvaluationEngine(backend, cache=False)
            outcomes = engine.evaluate_batch(cluster_ctx, specs)
            assert outcomes == reference
            assert backend._last_scheduler.rejoins >= 1
            telemetry = engine.batch_log[-1]["cluster"]
            assert telemetry["shard_cache_hits"] >= 1
            watcher.join(timeout=10.0)
            assert first.returncode == CHAOS_EXIT_CODE
        finally:
            watcher.join(timeout=10.0)
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=5.0)
                proc.stdout.close()

    def test_all_dead_with_caches_degrades_bit_identical(
            self, cluster_ctx, reference, tmp_path):
        """PR 7 degradation composed with the cache tier: the only
        (cache-carrying) shard dies past its budget, the remainder runs
        serially, and the batch still matches the reference."""
        ctx_file = str(tmp_path / "ctx.pkl")
        save_context(cluster_ctx, ctx_file)
        proc, address = _spawn_shard(ctx_file, "--cache-dir",
                                     str(tmp_path / "tier"),
                                     "--chaos-exit-after", "3")
        try:
            backend = ClusterBackend(shards=[address], max_chunk=2,
                                     retries=1, backoff=0.05)
            engine = EvaluationEngine(backend, cache=False)
            with pytest.warns(ClusterDegradedWarning):
                outcomes = engine.evaluate_batch(cluster_ctx,
                                                 sweep_batch(n=4, seeds=3))
            assert outcomes == reference
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=5.0)
            proc.stdout.close()
