"""Round specs, cache keys and the two-tier result cache."""

import numpy as np
import pytest

from repro.defenses.base import DefenseReport
from repro.engine import AttackSpec, ResultCache, RoundSpec, round_key
from repro.engine.cache import outcome_from_dict, outcome_to_dict
from repro.experiments.runner import EvaluationOutcome, make_synthetic_context


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=1, n_samples=120, n_features=3)


@pytest.fixture(scope="module")
def other_ctx():
    return make_synthetic_context(seed=2, n_samples=120, n_features=3)


def outcome(accuracy=0.9, with_report=True):
    report = DefenseReport(n_total=100, n_removed=10, poison_recall=0.5,
                          genuine_loss=0.05, precision=0.8) if with_report else None
    return EvaluationOutcome(accuracy=accuracy, n_poison=20, n_removed=10,
                             filter_percentile=0.1, filter_radius=2.5,
                             report=report)


class TestCanonicalisation:
    def test_zero_filter_equals_no_filter(self):
        a = RoundSpec(filter_percentile=0.0, attack=None, seed=7)
        b = RoundSpec(filter_percentile=None, attack=None, seed=7)
        assert a.canonical() == b.canonical()

    def test_clean_rounds_ignore_poison_fraction(self):
        a = RoundSpec(filter_percentile=0.1, attack=None,
                      poison_fraction=0.2, seed=7)
        b = RoundSpec(filter_percentile=0.1, attack=None,
                      poison_fraction=0.3, seed=7)
        assert a.canonical() == b.canonical()

    def test_attacked_rounds_keep_poison_fraction(self):
        attack = AttackSpec("boundary", 0.1)
        a = RoundSpec(filter_percentile=0.1, attack=attack,
                      poison_fraction=0.2, seed=7)
        b = RoundSpec(filter_percentile=0.1, attack=attack,
                      poison_fraction=0.3, seed=7)
        assert a.canonical() != b.canonical()

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            RoundSpec(filter_percentile=1.5)
        with pytest.raises(ValueError):
            AttackSpec("boundary", -0.1)


class TestRoundKey:
    """The key must move with everything a result depends on — and
    nothing else."""

    BASE = RoundSpec(filter_percentile=0.1, attack=AttackSpec("boundary", 0.05),
                     poison_fraction=0.2, seed=11)

    def test_deterministic(self, ctx):
        assert round_key(ctx.fingerprint(), self.BASE) == \
            round_key(ctx.fingerprint(), self.BASE)

    def test_sensitive_to_context(self, ctx, other_ctx):
        assert ctx.fingerprint() != other_ctx.fingerprint()
        assert round_key(ctx.fingerprint(), self.BASE) != \
            round_key(other_ctx.fingerprint(), self.BASE)

    @pytest.mark.parametrize("variant", [
        RoundSpec(filter_percentile=0.2, attack=AttackSpec("boundary", 0.05),
                  poison_fraction=0.2, seed=11),
        RoundSpec(filter_percentile=0.1, attack=AttackSpec("boundary", 0.06),
                  poison_fraction=0.2, seed=11),
        RoundSpec(filter_percentile=0.1, attack=AttackSpec("other", 0.05),
                  poison_fraction=0.2, seed=11),
        RoundSpec(filter_percentile=0.1, attack=None,
                  poison_fraction=0.2, seed=11),
        RoundSpec(filter_percentile=0.1, attack=AttackSpec("boundary", 0.05),
                  poison_fraction=0.25, seed=11),
        RoundSpec(filter_percentile=0.1, attack=AttackSpec("boundary", 0.05),
                  poison_fraction=0.2, seed=12),
    ])
    def test_sensitive_to_each_spec_field(self, ctx, variant):
        assert round_key(ctx.fingerprint(), self.BASE) != \
            round_key(ctx.fingerprint(), variant)

    def test_context_fingerprint_moves_with_data(self, ctx):
        import copy

        mutated = copy.copy(ctx)
        mutated.__dict__.pop("_fingerprint", None)
        mutated.X_train = ctx.X_train + 1e-9
        assert mutated.fingerprint() != ctx.fingerprint()

    def test_opaque_factories_never_share_fingerprints(self):
        # Two closures capturing different hyperparameters are
        # indistinguishable by signature, so the fingerprint must keep
        # their (otherwise identical) contexts apart rather than let
        # the cache serve one victim's results for the other.
        from repro.ml.ridge import RidgeClassifier

        a = make_synthetic_context(seed=5, n_samples=80, n_features=3,
                                   model_factory=lambda s: RidgeClassifier(reg=1e-2))
        b = make_synthetic_context(seed=5, n_samples=80, n_features=3,
                                   model_factory=lambda s: RidgeClassifier(reg=1.0))
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == a.fingerprint()  # stable per instance


class TestOutcomeSerialisation:
    @pytest.mark.parametrize("with_report", [True, False])
    def test_round_trip(self, with_report):
        out = outcome(with_report=with_report)
        assert outcome_from_dict(outcome_to_dict(out)) == out

    def test_dict_is_jsonable(self):
        import json

        json.dumps(outcome_to_dict(outcome()))


class TestCanonicalParams:
    def test_params_mapping_and_pairs_equal(self):
        a = AttackSpec("label-flip", 0.0, params={"strategy": "near_boundary"})
        b = AttackSpec("label-flip", 0.0,
                       params=(("strategy", "near_boundary"),))
        assert a.canonical() == b.canonical()
        assert a == b

    def test_params_order_canonicalised(self):
        a = AttackSpec("x", 0.0, params={"b": 2, "a": 1})
        b = AttackSpec("x", 0.0, params={"a": 1, "b": 2})
        assert a.canonical() == b.canonical()

    def test_params_move_the_key(self, ctx):
        base = RoundSpec(attack=AttackSpec("label-flip"), seed=3)
        other = RoundSpec(attack=AttackSpec("label-flip",
                                            params={"strategy": "near_boundary"}),
                          seed=3)
        assert round_key(ctx.fingerprint(), base) != \
            round_key(ctx.fingerprint(), other)

    def test_unhashable_params_rejected(self):
        with pytest.raises(ValueError, match="params"):
            AttackSpec("x", 0.0, params={"bad": [1, 2]})


class TestLRUCap:
    def test_oldest_entry_evicted(self, counters):
        cache = ResultCache(max_entries=2)
        cache.put("a", outcome(accuracy=0.1))
        cache.put("b", outcome(accuracy=0.2))
        cache.put("c", outcome(accuracy=0.3))
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c").accuracy == 0.3
        assert counters()["cache.evictions"] == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", outcome(accuracy=0.1))
        cache.put("b", outcome(accuracy=0.2))
        assert cache.get("a") is not None  # now "b" is least recently used
        cache.put("c", outcome(accuracy=0.3))
        assert cache.get("b") is None
        assert cache.get("a").accuracy == 0.1

    def test_evicted_entries_survive_on_disk(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "store", max_entries=1)
        cache.put("a", outcome(accuracy=0.1))
        cache.put("b", outcome(accuracy=0.2))  # evicts "a" from memory
        assert len(cache) == 1
        restored = cache.get("a")  # re-read from the disk tier
        assert restored is not None
        assert restored.accuracy == 0.1

    def test_unbounded_by_default(self):
        cache = ResultCache()
        for i in range(100):
            cache.put(f"k{i}", outcome())
        assert len(cache) == 100
        assert cache.max_entries is None

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_engine_env_configuration(self, monkeypatch):
        from repro.engine import engine_from_env

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        engine = engine_from_env()
        assert engine.cache.max_entries == 7


class TestResultCache:
    def test_memory_round_trip(self, counters):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", outcome())
        assert cache.get("k") == outcome()
        counts = counters()
        assert counts["cache.misses"] == 1
        assert counts["cache.memory.hits"] == 1
        assert len(cache) == 1

    def test_disk_tier_persists_across_instances(self, tmp_path, counters):
        first = ResultCache(disk_dir=tmp_path / "store")
        first.put("deadbeef", outcome(accuracy=0.75))
        counters()
        second = ResultCache(disk_dir=tmp_path / "store")
        restored = second.get("deadbeef")
        assert restored is not None
        assert restored.accuracy == 0.75
        assert counters()["cache.disk.hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "bad.json").write_text("{not json")
        cache = ResultCache(disk_dir=store)
        assert cache.get("bad") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "store")
        cache.put("k", outcome())
        cache.clear(disk=True)
        assert len(cache) == 0
        assert cache.get("k") is None
