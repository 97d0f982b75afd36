"""Tests for the measured-game LP pipeline."""

import numpy as np
import pytest

from repro.experiments.results import EmpiricalGameResult
from repro.study import run_study, studies
from repro.study.drivers import solve_accuracy_game


@pytest.fixture(scope="module")
def solved(tiny_context):
    return run_study(
        studies.empirical_game(context=None,
                               percentiles=(0.0, 0.05, 0.15, 0.3),
                               poison_fraction=0.25, n_repeats=1),
        context=tiny_context).payload_object()


@pytest.fixture(scope="module")
def measured(solved):
    return np.asarray(solved.percentiles), np.asarray(solved.accuracy_matrix)


class TestBuildEmpiricalGame:
    def test_matrix_shape(self, measured):
        percentiles, matrix = measured
        assert matrix.shape == (4, 4)
        assert np.all((0.0 <= matrix) & (matrix <= 1.0))

    def test_below_diagonal_filtered_attacks_score_high(self, measured):
        _, matrix = measured
        # row i = filter, col j = attack; i > j means attack removed
        for i in range(4):
            for j in range(4):
                if i > j:
                    assert matrix[i, j] > matrix[j, j] - 0.05


class TestSolveEmpiricalGame:
    def test_solution_fields(self, solved):
        res = solved
        assert isinstance(res, EmpiricalGameResult)
        assert abs(sum(res.defender_mix) - 1.0) < 1e-6
        assert abs(sum(res.attacker_mix) - 1.0) < 1e-6
        assert 0.0 <= res.game_value_accuracy <= 1.0

    def test_mixed_never_worse_than_pure(self, solved):
        assert solved.mixed_advantage >= -1e-9

    def test_strict_advantage_iff_no_saddle(self, solved):
        res = solved
        if not res.has_saddle_point:
            assert res.mixed_advantage > 0.0
        else:
            assert res.mixed_advantage == pytest.approx(0.0, abs=1e-9)

    def test_support_helper(self, solved):
        support = solved.support()
        assert all(q > 0.01 for _, q in support)
        assert abs(sum(q for _, q in support) - 1.0) < 0.05

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            solve_accuracy_game(np.zeros((3, 3)), [0.0, 0.1], [0.0, 0.1])

    def test_synthetic_no_saddle_matrix(self):
        # hand-built chase structure: defender wants to match the
        # attacker, attacker wants to mismatch -> no saddle
        A = np.array([[0.5, 0.9], [0.9, 0.5]])
        res = solve_accuracy_game(A, [0.0, 0.1], [0.0, 0.1])
        assert not res["has_saddle_point"]
        assert res["mixed_advantage"] > 0.1
        np.testing.assert_allclose(res["defender_mix"], [0.5, 0.5], atol=1e-6)
