"""The payload codec covers every result type the studies produce."""

import json

import numpy as np
import pytest

from repro.experiments.results import (AggregatedSweep, CrossGameResult,
                                       EmpiricalGameResult, GridResult,
                                       MixedEvalResult, PureSweepResult,
                                       result_from_payload, result_to_payload)


def round_trip(result):
    """Through the payload codec and a JSON text, as archives store it."""
    return result_from_payload(json.loads(json.dumps(
        result_to_payload(result))))


def sweep(seed=0):
    return PureSweepResult(
        percentiles=[0.0, 0.1], acc_clean=[0.9, 0.88],
        acc_attacked=[0.5 + seed / 100, 0.7], n_poison=40,
        poison_fraction=0.2, dataset_name="test", n_repeats=1)


class TestEmpiricalGameRoundTrip:
    def result(self):
        return EmpiricalGameResult(
            percentiles=[0.0, 0.1], accuracy_matrix=[[0.5, 0.6], [0.7, 0.65]],
            defender_mix=[0.4, 0.6], attacker_mix=[0.3, 0.7],
            game_value_accuracy=0.64, best_pure_accuracy=0.6,
            best_pure_percentile=0.1, mixed_advantage=0.04,
            has_saddle_point=False, n_repeats=2,
            defender_support=[(0.1, 0.6)])

    def test_round_trip(self):
        restored = round_trip(self.result())
        assert isinstance(restored, EmpiricalGameResult)
        assert restored.game_value_accuracy == 0.64
        assert restored.support() == [(0.0, 0.4), (0.1, 0.6)]
        # Stable under a second pass (tuples normalise to lists once).
        assert result_to_payload(restored) == \
            result_to_payload(round_trip(restored))


class TestCrossGameRoundTrip:
    def test_round_trip(self):
        result = CrossGameResult(
            defense_labels=["radius@10.0%", "none"],
            attack_labels=["boundary@5.0%", "clean"],
            accuracy_matrix=[[0.6, 0.9], [0.4, 0.91]],
            defender_mix=[1.0, 0.0], attacker_mix=[1.0, 0.0],
            game_value_accuracy=0.6, best_pure_accuracy=0.6,
            best_pure_defense="radius@10.0%", mixed_advantage=0.0,
            has_saddle_point=True, victim="logistic", n_repeats=1)
        assert round_trip(result) == result


class TestAggregatedSweepRoundTrip:
    def test_round_trip_with_ndarrays_and_nesting(self):
        agg = AggregatedSweep(
            percentiles=np.array([0.0, 0.1]),
            acc_clean_mean=np.array([0.9, 0.88]),
            acc_clean_std=np.array([0.01, 0.02]),
            acc_attacked_mean=np.array([0.6, 0.7]),
            acc_attacked_std=np.array([0.05, 0.03]),
            n_seeds=2, per_seed=[sweep(0), sweep(1)])
        restored = round_trip(agg)
        assert isinstance(restored, AggregatedSweep)
        np.testing.assert_array_equal(restored.percentiles, agg.percentiles)
        np.testing.assert_array_equal(restored.acc_attacked_std,
                                      agg.acc_attacked_std)
        assert restored.per_seed == agg.per_seed
        assert restored.best_pure == agg.best_pure
        # The reconstruction is fully usable, not just equal-looking.
        assert restored.as_sweep_result("x").n_repeats == 2


class TestNewRecordTypes:
    def test_mixed_eval_and_grid_round_trip(self):
        mixed = MixedEvalResult(
            percentiles=[0.05, 0.2], probabilities=[0.5, 0.5],
            expected_accuracy=0.7, dispersion=0.1,
            accuracy_matrix=[[0.6, 0.7], [0.8, 0.75]],
            poison_fraction=0.25, n_repeats=1)
        assert round_trip(mixed) == mixed

        grid = GridResult(
            defense_labels=["radius@10.0%"], attack_labels=["clean"],
            victim_labels=["context"], fractions=[0.2],
            accuracy=[[[[0.9]]]], n_repeats=1, dataset_name="test")
        assert round_trip(grid) == grid


class TestUnknownTypes:
    def test_unknown_type_rejected_on_load(self):
        with pytest.raises(ValueError, match="unknown result type"):
            result_from_payload({"type": "Mystery", "data": {}})

    def test_unregistered_dataclass_still_dumps(self):
        from dataclasses import dataclass

        @dataclass
        class Oddball:
            x: int

        assert result_to_payload(Oddball(3)) == \
            {"type": "Oddball", "data": {"x": 3}}
