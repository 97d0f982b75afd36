"""Shard cache tier and cache-aware placement (PR 8 tentpole).

Three layers: the ``cache-query`` / ``info`` protocol messages,
the shard-side disk tier (streaming per-round landing, restart
persistence), and the scheduler's locality-aware placement — including
its composition with the PR 7 fault plans, where every run must stay
bit-identical to the fault-free serial reference.
"""

import os
import socket
import threading
import time

import pytest

from repro.cluster import protocol
from repro.cluster.backend import ClusterBackend, ClusterDegradedWarning
from repro.cluster.scheduler import ClusterScheduler, ShardClient, ShardError
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
    """Raw pre-handshake info round trip."""
    schema = cache_schema_version() if schema is None else schema
    with socket.create_connection(address, timeout=5.0) as sock:
        protocol.send_message(sock, protocol.info(schema, secret=secret))
        return protocol.recv_message(sock)


class TestCacheQuery:
    def test_held_subset_grows_as_rounds_land(self, cluster_ctx,
                                              shard_farm, tmp_path):
        [address] = shard_farm(1, cache_dir=str(tmp_path / "tier"))
        specs = sweep_batch(n=2, seeds=2)
        keys = round_keys(cluster_ctx.fingerprint(), specs)
        client = _client(address, cluster_ctx)
        try:
            assert client.query_cache(keys) == set()
            client.run_chunk(1, specs[:2])
            assert client.query_cache(keys) == set(keys[:2])
        finally:
            client.close()

    def test_cacheless_shard_holds_nothing(self, cluster_ctx, shard_farm):
        [address] = shard_farm(1)
        specs = sweep_batch(n=2, seeds=1)
        client = _client(address, cluster_ctx)
        try:
            client.run_chunk(1, specs)
            held = client.query_cache(
                round_keys(cluster_ctx.fingerprint(), specs))
            assert held == set()
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
        assert reply["type"] == "info-report"
        stats = reply["cache"]
        assert stats["enabled"]
        assert stats["schema_version"] == cache_schema_version()
        assert stats["fingerprint"] == cluster_ctx.fingerprint()
        assert stats["entry_count"] == 2
        assert stats["total_bytes"] > 0

    def test_cli_reports_the_shards_own_hits_and_stores(
            self, cluster_ctx, tmp_path, capsys):
        """``repro-cache info --shard`` prints the tier's hits and
        stores, which the shard reads from its ``shard.cache.*``
        counters (a subprocess shard: a registry of its own)."""
        from repro.experiments.cli import main

        ctx_file = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, ctx_file)
        proc, address = _spawn_shard(ctx_file, "--cache-dir",
                                     str(tmp_path / "tier"))
        try:
            specs = sweep_batch(n=2, seeds=1)
            client = _client(address, cluster_ctx)
            try:
                client.run_chunk(1, specs)
                client.run_chunk(2, specs)  # served from the tier
            finally:
                client.close()
            code = main(["repro-cache", "info", "--shard",
                         f"{address[0]}:{address[1]}"])
        finally:
            proc.terminate()
            proc.wait(timeout=5.0)
            proc.stdout.close()
        out = capsys.readouterr().out
        assert code == 0
        assert f"{len(specs)} entries" in out
        assert f"{len(specs)} hits / {len(specs)} stores" in out

    def test_probe_on_cacheless_shard(self, shard_farm):
        [address] = shard_farm(1)
        reply = _probe(address)
        assert reply["type"] == "info-report"
        assert reply["cache"]["enabled"] is False

    def test_probe_auth_is_enforced(self, shard_farm, tmp_path):
        [address] = shard_farm(1, secret="tier-secret",
                               cache_dir=str(tmp_path / "tier"))
        assert _probe(address)["type"] == "reject"
        assert _probe(address, secret="wrong")["type"] == "reject"
        assert _probe(address, secret="tier-secret")["type"] == \
            "info-report"

    def test_secretless_shard_rejects_authed_probe(self, shard_farm):
        [address] = shard_farm(1)
        reply = _probe(address, secret="surprise")
        assert reply["type"] == "reject"
        assert "no REPRO_CLUSTER_SECRET" in reply["reason"]


class TestPlacement:
    @pytest.fixture(autouse=True)
    def _arm(self, counters):
        self.counters = counters

    def _run(self, ctx, addresses, **kwargs):
        """One sweep from a cold client; its outcomes and the cluster
        counters it moved."""
        backend = ClusterBackend(shards=addresses, max_chunk=4,
                                 **kwargs)
        engine = EvaluationEngine(backend, cache=False)
        outcomes = engine.evaluate_batch(ctx, sweep_batch(n=4, seeds=3))
        return outcomes, self.counters()

    def test_warm_fleet_recomputes_nothing(self, cluster_ctx, shard_farm,
                                           reference, tmp_path):
        addresses = shard_farm(2, cache_dir=str(tmp_path / "tier"))
        cold, counts = self._run(cluster_ctx, addresses)
        assert cold == reference
        assert counts.get("cluster.shard_cache_hits", 0) == 0
        # Second sweep from a *cold client* (fresh backend, engine cache
        # off): every round is placed on a holder and served from disk —
        # zero recompute, asserted via the shard-reported cache hits.
        specs = sweep_batch(n=4, seeds=3)
        warm, counts = self._run(cluster_ctx, addresses)
        assert warm == reference
        assert counts["cluster.placed_rounds"] == len(specs)
        assert counts["cluster.shard_cache_hits"] == len(specs)
        assert 0 < counts["cluster.placement_hits"] <= len(specs)

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
        warm, counts = self._run(cluster_ctx, addresses)
        assert warm == reference
        assert counts["cluster.placed_rounds"] == \
            len(sweep_batch(n=4, seeds=3))
        assert counts["cluster.shard_cache_hits"] > 0

    def test_queue_routed_rounds_still_hit_shard_cache(
            self, cluster_ctx, shard_farm, reference, tmp_path):
        """A scheduler given no placement map routes every round
        through the shared queue, and each shard still serves what its
        tier holds."""
        addresses = shard_farm(2, cache_dir=str(tmp_path / "shared"))
        self._run(cluster_ctx, addresses)
        specs = sweep_batch(n=4, seeds=3)
        clients = [_client(address, cluster_ctx) for address in addresses]
        try:
            landed = dict(ClusterScheduler(clients, max_chunk=4)
                          .run_iter(specs))
        finally:
            for client in clients:
                client.close()
        counts = self.counters()
        assert [landed[i] for i in range(len(specs))] == reference
        assert counts.get("cluster.placed_rounds", 0) == 0
        assert counts.get("cluster.placement_hits", 0) == 0
        # The shards still answer from their tier — placement only
        # decides *routing*, the cache serves either way.
        assert counts["cluster.shard_cache_hits"] == len(specs)

    def test_study_archives_its_cluster_counts(self, cluster_ctx,
                                               shard_farm, tmp_path):
        """A study's cluster counts are archived with its telemetry and
        render like every other layer's (``repro report --telemetry``)."""
        from repro.experiments.reporting import format_telemetry_summary
        from repro.study import run_study, studies

        addresses = shard_farm(1, cache_dir=str(tmp_path / "tier"))
        spec = studies.figure1(context=None, percentiles=(0.0, 0.1),
                               poison_fraction=0.2)

        def run():
            engine = EvaluationEngine(
                ClusterBackend(shards=addresses, max_chunk=4), cache=False)
            return run_study(spec, context=cluster_ctx, engine=engine)

        cold, warm = run(), run()
        assert "cluster.shard_cache_hits" not in \
            cold.extras["telemetry"]["counters"]
        counts = warm.extras["telemetry"]["counters"]
        assert counts["cluster.shard_cache_hits"] == warm.n_unique
        assert counts["cluster.placement_hits"] == warm.n_unique
        rendered = format_telemetry_summary(warm.extras["telemetry"])
        assert "cluster.placement_hits" in rendered
        assert "cluster.shard_cache_hits" in rendered


class TestShardCacheCounters:
    def test_shard_cache_counts_under_its_own_names(
            self, cluster_ctx, reference, tmp_path, counters):
        """A subprocess shard's cache tier counts as
        ``shard.cache.*``: its piggybacked delta leaves a cacheless
        client's own ``cache.*`` counters at 0."""
        ctx_file = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, ctx_file)
        specs = sweep_batch(n=4, seeds=3)
        proc, address = _spawn_shard(ctx_file, "--cache-dir",
                                     str(tmp_path / "tier"))
        try:
            engine = EvaluationEngine(ClusterBackend(shards=[address]),
                                      cache=False)
            assert engine.evaluate_batch(cluster_ctx, specs) == reference
            counts = counters()
        finally:
            proc.terminate()
            proc.wait(timeout=5.0)
            proc.stdout.close()
        assert {name: count for name, count in counts.items()
                if name.startswith("cache.") and count} == {}
        assert counts["engine.rounds_computed"] == len(specs)
        assert counts["shard.cache.stores"] == len(specs)
        assert counts["shard.cache.misses"] == len(specs)


class TestPlacementUnderChaos:
    def test_placed_shard_killed_mid_chunk_is_bit_identical(
            self, cluster_ctx, reference, tmp_path, counters, monkeypatch):
        """A half-warm shard owns placed chunks, crashes mid-chunk; the
        cacheless survivor absorbs the requeue (stealing the remaining
        placed work) and the sweep matches serial bit for bit."""
        ctx_file = str(tmp_path / "ctx.npz")
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

        # Threshold 1: the chaotic shard dies on its second *computed*
        # round (cached rounds never arm the chaos counter).  The six
        # unplaced rounds deal as chunks of 2, 2, 1 and 1, and the
        # survivor takes nothing until the chaotic shard has taken a
        # queue chunk, so that chunk is the first: two rounds, and the
        # crash, whichever shard then takes the rest.
        chaotic, addr_a = _spawn_shard(ctx_file, "--cache-dir", tier,
                                       "--faults",
                                       "shard:crash_after_rounds=1")
        survivor, addr_b = _spawn_shard(ctx_file)
        chaotic_name = f"{addr_a[0]}:{addr_a[1]}"
        chaos_computes = threading.Event()
        real_take = ClusterScheduler._take

        def take(scheduler, owner):
            if owner != chaotic_name:
                chaos_computes.wait(timeout=30.0)
            chunk, source = real_take(scheduler, owner)
            if owner == chaotic_name and source == "queue":
                chaos_computes.set()
            return chunk, source

        monkeypatch.setattr(ClusterScheduler, "_take", take)
        try:
            backend = ClusterBackend(shards=[addr_a, addr_b],
                                     max_chunk=2,
                                     retries=1, backoff=0.05)
            engine = EvaluationEngine(backend, cache=False)
            outcomes = engine.evaluate_batch(cluster_ctx, specs)
            assert outcomes == reference
            assert counters()["cluster.placed_rounds"] == 6
            assert chaotic.wait(timeout=10.0) == CHAOS_EXIT_CODE
        finally:
            for proc in (chaotic, survivor):
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=5.0)
                proc.stdout.close()

    def test_rejoin_replays_partial_chunk_from_disk(self, cluster_ctx,
                                                    reference, tmp_path,
                                                    counters):
        """The lone shard streams each round to disk, crashes mid-chunk,
        and is restarted at the same address over the same tier: the
        requeued chunk's already-landed rounds replay from disk instead
        of recomputing (visible as shard cache hits on a cold fleet)."""
        ctx_file = str(tmp_path / "ctx.npz")
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
        first, address = spawn(0, "--faults", "shard:crash_after_rounds=3")

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
            counts = counters()
            assert counts["cluster.rejoins"] >= 1
            assert counts["cluster.shard_cache_hits"] >= 1
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
        ctx_file = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, ctx_file)
        proc, address = _spawn_shard(ctx_file, "--cache-dir",
                                     str(tmp_path / "tier"),
                                     "--faults",
                                     "shard:crash_after_rounds=3")
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

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="shared-memory segments not listed in "
                        "/dev/shm")
    def test_pooled_shard_crash_stores_exactly_n_rounds(
            self, cluster_ctx, reference, tmp_path):
        """The crash hook on a pooled shard: it stores its first three
        computed rounds, in the order the workers' chunks land, and
        exits as the fourth lands.  A shard restarted on that tier
        serves exactly those three and computes the rest, matching
        serial bit for bit, and no shared-memory segment outlives
        either shard."""
        ctx_file = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, ctx_file)
        tier = str(tmp_path / "tier")
        specs = sweep_batch(n=4, seeds=3)
        before = _segments()

        procs = []
        try:
            chaotic, address = _spawn_shard(
                ctx_file, "--jobs", "2", "--cache-dir", tier,
                "--faults", "shard:crash_after_rounds=3")
            procs.append(chaotic)
            client = _client(address, cluster_ctx)
            try:
                with pytest.raises(ShardError, match="died mid-chunk"):
                    client.run_chunk(1, specs)
            finally:
                client.close()
            assert chaotic.wait(timeout=10.0) == CHAOS_EXIT_CODE

            restarted, address = _spawn_shard(
                ctx_file, "--jobs", "2", "--cache-dir", tier)
            procs.append(restarted)
            assert _probe(address)["cache"]["entry_count"] == 3
            client = _client(address, cluster_ctx)
            try:
                assert client.run_chunk(2, specs) == reference
                assert client.last_cache_hits == 3
            finally:
                client.close()
            assert _probe(address)["cache"]["hits"] == 3
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=5.0)
                proc.stdout.close()
        # The crashed shard's segment is unlinked by its resource
        # tracker once its orphaned workers have exited.
        deadline = time.monotonic() + 15.0
        while _segments() - before and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _segments() - before


def _segments() -> set:
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")}
