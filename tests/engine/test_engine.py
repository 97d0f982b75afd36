"""EvaluationEngine: backend parity, caching, batching, configuration."""

import numpy as np
import pytest

from repro.engine import (
    AttackSpec,
    EvaluationEngine,
    ProcessPoolBackend,
    RoundSpec,
    SerialBackend,
    default_engine,
    engine_from_env,
    make_backend,
    materialize_attack,
    resolve_engine,
    set_default_engine,
)
from repro.experiments.runner import make_synthetic_context, save_context
from repro.ml.ridge import RidgeClassifier
from repro.study import run_study, studies


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=1, n_samples=120, n_features=3)


def batch(n_percentiles=3, n_seeds=1):
    specs = []
    for i, p in enumerate(np.linspace(0.0, 0.3, n_percentiles)):
        for s in range(n_seeds):
            specs.append(RoundSpec(filter_percentile=float(p), attack=None,
                                   seed=100 + s))
            specs.append(RoundSpec(filter_percentile=float(p),
                                   attack=AttackSpec("boundary", float(p)),
                                   poison_fraction=0.2, seed=100 + s))
    return specs


class TestBackendParity:
    """The engine's core guarantee: identical outcomes on every backend."""

    def test_process_pool_matches_serial(self, ctx):
        specs = batch(n_percentiles=3, n_seeds=2)
        serial = EvaluationEngine("serial", cache=False)
        parallel = EvaluationEngine("process", jobs=2, cache=False)
        assert serial.evaluate_batch(ctx, specs) == \
            parallel.evaluate_batch(ctx, specs)

    def test_cached_and_uncached_identical(self, ctx):
        specs = batch()
        assert EvaluationEngine(cache=False).evaluate_batch(ctx, specs) == \
            EvaluationEngine(cache=True).evaluate_batch(ctx, specs)

    def test_unpicklable_context_fails_clearly(self, tmp_path):
        bad_ctx = make_synthetic_context(
            seed=3, n_samples=80, n_features=3,
            model_factory=lambda seed: RidgeClassifier(reg=1e-2),
        )
        engine = EvaluationEngine("process", jobs=2, cache=False)
        with pytest.raises(TypeError, match="model_factory"):
            engine.evaluate_batch(bad_ctx, batch(n_percentiles=1))
        with pytest.raises(TypeError, match="model_factory"):
            save_context(bad_ctx, str(tmp_path / "ctx.npz"))
        assert not (tmp_path / "ctx.npz").exists()


class TestCaching:
    def test_repeat_batch_is_served_from_cache(self, ctx, counters):
        engine = EvaluationEngine("serial")
        specs = batch()
        first = engine.evaluate_batch(ctx, specs)
        counters()
        second = engine.evaluate_batch(ctx, specs)
        assert first == second
        counts = counters()
        assert "engine.rounds_computed" not in counts  # nothing recomputed
        assert counts["cache.memory.hits"] == len(specs)

    def test_in_batch_duplicates_computed_once(self, ctx, counters):
        engine = EvaluationEngine("serial", cache=False)
        spec = RoundSpec(filter_percentile=0.1, attack=None, seed=9)
        outcomes = engine.evaluate_batch(ctx, [spec, spec, spec])
        assert counters()["engine.rounds_computed"] == 1
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_cache_off_recomputes(self, ctx, counters):
        engine = EvaluationEngine("serial", cache=False)
        spec = RoundSpec(filter_percentile=0.1, attack=None, seed=9)
        engine.evaluate(ctx, spec)
        engine.evaluate(ctx, spec)
        assert counters()["engine.rounds_computed"] == 2

    def test_disk_cache_survives_engine_restart(self, ctx, tmp_path,
                                                counters):
        spec = RoundSpec(filter_percentile=0.1, attack=None, seed=9)
        first = EvaluationEngine("serial", cache_dir=tmp_path / "cache")
        out1 = first.evaluate(ctx, spec)
        counters()
        second = EvaluationEngine("serial", cache_dir=tmp_path / "cache")
        out2 = second.evaluate(ctx, spec)
        assert out1 == out2
        counts = counters()
        assert "engine.rounds_computed" not in counts
        assert counts["cache.disk.hits"] == 1


class TestDriverCacheReuse:
    """Locks in the clean-baseline dedup across experiment drivers."""

    PERCENTILES = (0.0, 0.1, 0.3)

    def sweep(self, ctx, engine, poison_fraction):
        return run_study(
            studies.figure1(context=None, percentiles=self.PERCENTILES,
                            poison_fraction=poison_fraction, n_repeats=2),
            context=ctx, engine=engine).payload_object()

    def test_sweep_rerun_is_fully_cached(self, ctx, counters):
        engine = EvaluationEngine("serial")
        first = self.sweep(ctx, engine, 0.2)
        counts = counters()
        computed = counts["engine.rounds_computed"]
        assert computed == 2 * 2 * len(self.PERCENTILES)  # clean + attacked
        assert "cache.memory.hits" not in counts
        second = self.sweep(ctx, engine, 0.2)
        counts = counters()
        assert "engine.rounds_computed" not in counts
        assert counts["cache.memory.hits"] == computed
        assert second.acc_clean == first.acc_clean
        assert second.acc_attacked == first.acc_attacked

    def test_clean_baselines_shared_across_poison_fractions(self, ctx,
                                                            counters):
        engine = EvaluationEngine("serial")
        self.sweep(ctx, engine, 0.2)
        counters()
        sweep = self.sweep(ctx, engine, 0.3)
        # Every clean cell (percentile x repeat) is identical work at any
        # contamination rate and must be a cache hit; only the attacked
        # cells are new.
        n_clean_cells = 2 * len(self.PERCENTILES)
        assert counters()["cache.memory.hits"] == n_clean_cells
        assert sweep.poison_fraction == 0.3

    def test_mixed_defense_rerun_is_fully_cached(self, ctx, counters):
        spec = studies.mixed_eval(context=None, percentiles=(0.05, 0.2),
                                  probabilities=(0.6, 0.4), n_repeats=1)
        engine = EvaluationEngine("serial")
        first = run_study(spec, context=ctx, engine=engine).payload_object()
        counters()
        second = run_study(spec, context=ctx, engine=engine).payload_object()
        assert "engine.rounds_computed" not in counters()
        assert np.array_equal(first.accuracy_matrix, second.accuracy_matrix)


class TestLabelFlipSpec:
    """label-flip is a batchable engine attack kind."""

    def test_engine_round_matches_direct_evaluation(self, ctx):
        from repro.attacks.label_flip import LabelFlipAttack
        from repro.experiments.runner import evaluate_configuration

        spec = RoundSpec(filter_percentile=0.1,
                         attack=AttackSpec("label-flip",
                                           params={"strategy": "near_boundary"}),
                         poison_fraction=0.2, seed=21)
        engine_out = EvaluationEngine("serial", cache=False).evaluate(ctx, spec)
        direct = evaluate_configuration(
            ctx, filter_percentile=0.1,
            attack=LabelFlipAttack(strategy="near_boundary"),
            poison_fraction=0.2, seed=21,
        )
        assert engine_out == direct

    def test_default_strategy_is_random(self, ctx):
        attack = materialize_attack(ctx, AttackSpec("label-flip"))
        assert attack.strategy == "random"

    def test_backend_parity(self, ctx):
        specs = [RoundSpec(filter_percentile=0.05,
                           attack=AttackSpec("label-flip", params={"strategy": s}),
                           poison_fraction=0.2, seed=31)
                 for s in ("random", "far_from_own_class", "near_boundary")]
        serial = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        process = EvaluationEngine("process", jobs=2, cache=False).evaluate_batch(ctx, specs)
        assert serial == process

    def test_mixed_family_batch(self, ctx):
        """Sweeps over attack families run through one engine batch."""
        specs = [
            RoundSpec(filter_percentile=0.1,
                      attack=AttackSpec("boundary", 0.05), seed=41),
            RoundSpec(filter_percentile=0.1,
                      attack=AttackSpec("label-flip"), seed=41),
        ]
        outcomes = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        assert len(outcomes) == 2
        assert outcomes[0] != outcomes[1]  # distinct attacks, distinct results


class TestConfiguration:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")

    def test_backend_instances_pass_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_engine_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE", "0")
        engine = engine_from_env()
        assert isinstance(engine.backend, ProcessPoolBackend)
        assert engine.backend.jobs == 3
        assert engine.cache is None

    @pytest.mark.parametrize("name, value", [("REPRO_JOBS", "two"),
                                             ("REPRO_CACHE", "junk"),
                                             ("REPRO_CACHE_MAX_ENTRIES",
                                              "1e3")])
    def test_bad_env_value_names_its_variable(self, monkeypatch, name,
                                              value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"bad {name}="):
            engine_from_env()

    def test_zero_env_values_mean_the_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_JOBS", "0")
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "0")
        engine = engine_from_env()
        assert engine.backend.jobs == ProcessPoolBackend().jobs
        assert engine.cache.max_entries is None

    def test_default_engine_resolution(self):
        previous = default_engine()
        try:
            override = EvaluationEngine("serial", cache=False)
            set_default_engine(override)
            assert resolve_engine(None) is override
            explicit = EvaluationEngine("serial")
            assert resolve_engine(explicit) is explicit
        finally:
            set_default_engine(previous)

    def test_unknown_attack_kind_rejected(self, ctx):
        with pytest.raises(ValueError, match="unknown attack kind"):
            materialize_attack(ctx, AttackSpec("warp", 0.1))

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)
