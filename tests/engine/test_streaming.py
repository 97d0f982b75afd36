"""Streaming semantics: ``evaluate_stream`` / ``run_iter`` / progress.

The contract under test (ISSUE 4): ``evaluate_stream`` yields every
input spec exactly once; outcomes are bit-identical to
``evaluate_batch``; cache hits arrive first (in input order); arrival
order of computed rounds may vary, but the final results and the cache
state left behind do not.
"""

import numpy as np
import pytest

from repro.engine import (
    AttackSpec,
    EvaluationEngine,
    ProcessPoolBackend,
    RoundSpec,
    SerialBackend,
    round_key,
)
from repro.experiments.runner import make_synthetic_context


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=2, n_samples=120, n_features=3)


class _ReversedBackend(SerialBackend):
    """Serial outcomes landing last-first: arrival order is the exact
    reverse of input order."""

    def run_iter(self, ctx, specs):
        return reversed(list(super().run_iter(ctx, specs)))


def batch(n_percentiles=3, n_seeds=1):
    specs = []
    for p in np.linspace(0.0, 0.3, n_percentiles):
        for s in range(n_seeds):
            specs.append(RoundSpec(filter_percentile=float(p), attack=None,
                                   seed=300 + s))
            specs.append(RoundSpec(filter_percentile=float(p),
                                   attack=AttackSpec("boundary", float(p)),
                                   poison_fraction=0.2, seed=300 + s))
    return specs


class TestEvaluateStream:
    def test_yields_every_spec_exactly_once(self, ctx):
        specs = batch()
        specs = specs + [specs[0], specs[1]]  # in-batch duplicates
        engine = EvaluationEngine("serial")
        pairs = list(engine.evaluate_stream(ctx, specs))
        assert len(pairs) == len(specs)
        yielded = [spec for spec, _ in pairs]
        assert sorted(map(repr, yielded)) == sorted(map(repr, specs))

    def test_outcomes_bit_identical_to_batch(self, ctx):
        specs = batch(n_seeds=2)
        stream_engine = EvaluationEngine("serial", cache=False)
        batch_engine = EvaluationEngine("serial", cache=False)
        streamed = dict(
            (repr(spec), outcome)
            for spec, outcome in stream_engine.evaluate_stream(ctx, specs))
        batched = batch_engine.evaluate_batch(ctx, specs)
        for spec, expected in zip(specs, batched):
            assert streamed[repr(spec)] == expected

    @pytest.mark.parametrize("backend", [SerialBackend, _ReversedBackend],
                             ids=["serial", "reversed"])
    def test_cache_state_identical_to_batch(self, ctx, backend):
        # The caches are OrderedDicts, so equality also pins LRU order:
        # entries commit in input order whatever order rounds land in.
        specs = batch()
        stream_engine = EvaluationEngine(backend())
        batch_engine = EvaluationEngine("serial")
        list(stream_engine.evaluate_stream(ctx, specs))
        batch_engine.evaluate_batch(ctx, specs)
        assert stream_engine.cache._memory == batch_engine.cache._memory
        assert stream_engine.rounds_computed == batch_engine.rounds_computed

    def test_abandoned_stream_caches_every_landed_round(self, ctx):
        specs = batch()
        engine = EvaluationEngine(_ReversedBackend())
        stream = engine.evaluate_stream(ctx, specs)
        spec, outcome = next(stream)  # the last spec lands first
        stream.close()
        assert spec == specs[-1]
        assert len(engine.cache) == 1
        assert engine.cache.get(round_key(ctx.fingerprint(), spec)) == outcome

    def test_cache_hits_come_first(self, ctx):
        engine = EvaluationEngine("serial")
        warm = batch(n_percentiles=2)
        engine.evaluate_batch(ctx, warm)
        cold = batch(n_percentiles=3)  # supersets the warm percentiles
        cold_only = [s for s in cold if s not in warm]
        pairs = list(engine.evaluate_stream(ctx, warm + cold_only))
        head = [spec for spec, _ in pairs[:len(warm)]]
        assert head == warm  # hits, in input order, before any compute

    def test_streamed_duplicates_share_one_computation(self, ctx):
        spec = batch(n_percentiles=1)[1]
        engine = EvaluationEngine("serial")
        pairs = list(engine.evaluate_stream(ctx, [spec, spec, spec]))
        assert len(pairs) == 3
        assert engine.rounds_computed == 1
        assert len({id(outcome) for _, outcome in pairs}) == 1

    def test_stream_appends_batch_log(self, ctx):
        engine = EvaluationEngine("serial")
        specs = batch()
        list(engine.evaluate_stream(ctx, specs))
        assert len(engine.batch_log) == 1
        entry = engine.batch_log[0]
        assert entry["n_specs"] == len(specs)
        assert entry["computed"] == len(specs)
        assert entry["cache_hits"] == 0

    def test_empty_stream(self, ctx):
        engine = EvaluationEngine("serial")
        assert list(engine.evaluate_stream(ctx, [])) == []


class TestRunIter:
    @pytest.mark.parametrize("backend", [SerialBackend(),
                                         ProcessPoolBackend(jobs=2)],
                             ids=["serial", "process"])
    def test_run_iter_matches_run(self, ctx, backend):
        specs = batch(n_seeds=2)
        expected = SerialBackend().run(ctx, specs)
        indexed = dict(backend.run_iter(ctx, specs))
        assert sorted(indexed) == list(range(len(specs)))
        assert [indexed[i] for i in range(len(specs))] == expected


class TestProgressCallback:
    def test_progress_path_matches_plain_batch(self, ctx):
        specs = batch(n_seeds=2)
        plain = EvaluationEngine("serial", cache=False)
        streamed = EvaluationEngine("serial", cache=False)
        calls = []
        got = streamed.evaluate_batch(
            ctx, specs, progress=lambda done, total: calls.append((done, total)))
        assert got == plain.evaluate_batch(ctx, specs)
        assert calls == [(i + 1, len(specs)) for i in range(len(specs))]

    def test_progress_counts_cache_hits(self, ctx):
        engine = EvaluationEngine("serial")
        specs = batch()
        engine.evaluate_batch(ctx, specs)
        calls = []
        engine.evaluate_batch(ctx, specs,
                              progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (len(specs), len(specs))
        assert engine.rounds_computed == len(specs)  # nothing recomputed


class TestClusterStream:
    def test_cluster_stream_matches_serial(self, ctx):
        """evaluate_stream over the cluster backend: exactly-once and
        bit-identical, arrival order free."""
        pytest.importorskip("repro.cluster")
        from repro.cluster.backend import ClusterBackend
        from repro.cluster.server import ShardServer
        import threading

        specs = batch(n_seeds=2)
        expected = {repr(s): o for s, o in zip(
            specs, EvaluationEngine("serial", cache=False)
            .evaluate_batch(ctx, specs))}

        servers = [ShardServer(ctx, port=0) for _ in range(2)]
        threads = [threading.Thread(target=s.serve_forever, daemon=True)
                   for s in servers]
        for t in threads:
            t.start()
        try:
            backend = ClusterBackend(
                shards=[(s.host, s.port) for s in servers])
            engine = EvaluationEngine(backend, cache=False)
            pairs = list(engine.evaluate_stream(ctx, specs))
            assert len(pairs) == len(specs)
            for spec, outcome in pairs:
                assert outcome == expected[repr(spec)]
        finally:
            for s in servers:
                s.close()
            for t in threads:
                t.join(timeout=5.0)
