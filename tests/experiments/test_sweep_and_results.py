"""Tests for the sweep studies, result records and reporting."""

import numpy as np
import pytest

from repro.experiments.reporting import (
    ascii_series,
    ascii_table,
    format_pure_sweep,
    format_table1,
)
from repro.experiments.results import (
    MixedStrategyResult,
    PureSweepResult,
    result_from_payload,
    result_to_payload,
)
from repro.study import run_study, studies, study_result_from_json

PERCENTILES = (0.0, 0.05, 0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def sweep_study(tiny_context):
    return run_study(
        studies.figure1(context=None, percentiles=PERCENTILES,
                        poison_fraction=0.25),
        context=tiny_context)


@pytest.fixture(scope="module")
def sweep(sweep_study):
    return sweep_study.payload_object()


def mixed_eval(tiny_context):
    return run_study(
        studies.mixed_eval(context=None, percentiles=(0.05, 0.2),
                           probabilities=(0.5, 0.5), poison_fraction=0.25),
        context=tiny_context).payload_object()


class TestPureSweep:
    def test_result_alignment(self, sweep):
        assert len(sweep.percentiles) == len(sweep.acc_clean) == len(sweep.acc_attacked)

    def test_attack_hurts_at_weak_filters(self, sweep):
        assert sweep.acc_attacked[0] < sweep.acc_clean[0] - 0.05

    def test_best_pure(self, sweep):
        p, acc = sweep.best_pure
        assert acc == max(sweep.acc_attacked)
        assert p in sweep.percentiles

    def test_clean_baseline_property(self, sweep):
        assert sweep.clean_baseline == sweep.acc_clean[0]

    def test_requires_valid_fraction(self, tiny_context):
        with pytest.raises(ValueError):
            run_study(studies.figure1(context=None, poison_fraction=1.0),
                      context=tiny_context)


class TestMixedDefenseEvaluation:
    def test_matrix_shape_and_bounds(self, tiny_context):
        result = mixed_eval(tiny_context)
        matrix = np.asarray(result.accuracy_matrix)
        assert matrix.shape == (2, 2)
        assert 0.0 <= result.expected_accuracy <= 1.0
        assert result.dispersion >= 0.0

    def test_filtered_attack_scores_higher(self, tiny_context):
        matrix = np.asarray(mixed_eval(tiny_context).accuracy_matrix)
        # strong filter (row 1) vs shallow attack (col 0): poison removed,
        # accuracy above the surviving case (row 0, col 1)
        assert matrix[1, 0] > matrix[0, 1]


class TestTable1Experiment:
    def test_rows_produced(self, tiny_context):
        results = run_study(
            studies.table1(context=None, percentiles=PERCENTILES,
                           n_radii=(2,), poison_fraction=0.25),
            context=tiny_context).payload_object()["rows"]
        assert len(results) == 1
        row = results[0]
        assert row.n_radii == 2
        assert len(row.percentiles) == 2
        assert abs(sum(row.probabilities) - 1.0) < 1e-9
        assert 0.0 <= row.accuracy <= 1.0
        assert row.wall_time_seconds > 0


class TestResultsSerialisation:
    def test_roundtrip_sweep(self, sweep):
        restored = result_from_payload(result_to_payload(sweep))
        assert isinstance(restored, PureSweepResult)
        assert restored.percentiles == sweep.percentiles
        assert restored.acc_attacked == sweep.acc_attacked

    def test_roundtrip_via_file(self, sweep_study, sweep, tmp_path):
        path = str(tmp_path / "result.json")
        sweep_study.to_json(path)
        restored = study_result_from_json(path).payload_object()
        assert restored.dataset_name == sweep.dataset_name

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown result type"):
            result_from_payload({"type": "Bogus", "data": {}})

    def test_mixed_result_roundtrip(self):
        row = MixedStrategyResult(
            n_radii=2, percentiles=[0.1, 0.2], probabilities=[0.6, 0.4],
            accuracy=0.85, accuracy_std=0.01, expected_loss=0.1,
            best_pure_accuracy=0.84, best_pure_percentile=0.15,
        )
        restored = result_from_payload(result_to_payload(row))
        assert restored.percentiles == [0.1, 0.2]


class TestReporting:
    def test_ascii_table_renders(self):
        out = ascii_table(["a", "b"], [(1, 2), (3, 4)], title="T")
        assert "T" in out
        assert "| 1" in out

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            ascii_table(["a", "b"], [(1,)])

    def test_ascii_series_renders(self):
        out = ascii_series([0, 1, 2], [1.0, 0.5, 0.8])
        assert "*" in out

    def test_format_pure_sweep(self, sweep):
        out = format_pure_sweep(sweep)
        assert "Figure 1" in out
        assert "best pure defence" in out

    def test_format_table1(self):
        row = MixedStrategyResult(
            n_radii=2, percentiles=[0.1, 0.2], probabilities=[0.6, 0.4],
            accuracy=0.85, accuracy_std=0.01, expected_loss=0.1,
            best_pure_accuracy=0.84, best_pure_percentile=0.15,
        )
        out = format_table1([row])
        assert "Table 1" in out
        assert "n = 2" in out
