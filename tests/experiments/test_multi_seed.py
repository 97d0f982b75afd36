"""Tests for multi-seed aggregation."""

import numpy as np
import pytest

from repro.study import ContextSpec, run_study, studies


@pytest.fixture(scope="module")
def aggregated():
    return run_study(studies.multi_seed(
        context=ContextSpec(name="synthetic", n_samples=260,
                            params={"n_features": 4}),
        n_seeds=3,
        percentiles=(0.0, 0.1, 0.3),
        poison_fraction=0.25,
    )).payload_object()


class TestRunMultiSeedSweep:
    def test_shapes(self, aggregated):
        assert aggregated.acc_clean_mean.shape == (3,)
        assert aggregated.acc_attacked_std.shape == (3,)
        assert aggregated.n_seeds == 3
        assert len(aggregated.per_seed) == 3

    def test_stds_non_negative_and_bounded(self, aggregated):
        assert np.all(aggregated.acc_clean_std >= 0)
        assert np.all(aggregated.acc_clean_std < 0.5)

    def test_mean_within_seed_range(self, aggregated):
        per_seed = np.vstack([s.acc_attacked for s in aggregated.per_seed])
        assert np.all(aggregated.acc_attacked_mean <= per_seed.max(axis=0) + 1e-12)
        assert np.all(aggregated.acc_attacked_mean >= per_seed.min(axis=0) - 1e-12)

    def test_best_pure(self, aggregated):
        p, acc = aggregated.best_pure
        assert p in aggregated.percentiles
        assert acc == aggregated.acc_attacked_mean.max()

    def test_as_sweep_result_roundtrip(self, aggregated):
        sweep = aggregated.as_sweep_result("agg-test")
        assert sweep.dataset_name == "agg-test"
        np.testing.assert_allclose(sweep.acc_clean, aggregated.acc_clean_mean)
        assert sweep.n_repeats == 3
