"""Tests for the exact zero-sum LP solver.

Classic games with known solutions anchor the tests; the LP solves
every measured game the studies build.
"""

import numpy as np
import pytest

from repro.gametheory.lp_solver import solve_zero_sum_lp
from repro.gametheory.matrix_game import MatrixGame

MATCHING_PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
# Asymmetric 2x2 game: value = (ad - bc) / (a + d - b - c) for payoffs
# [[a, b], [c, d]] without saddle: [[3, -1], [-2, 4]] -> value 1.0
ASYM = np.array([[3.0, -1.0], [-2.0, 4.0]])
ASYM_VALUE = (3 * 4 - (-1) * (-2)) / (3 + 4 - (-1) - (-2))


class TestLPSolver:
    def test_pennies_value_zero(self):
        sol = solve_zero_sum_lp(MATCHING_PENNIES)
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-8)

    def test_rps_uniform(self):
        sol = solve_zero_sum_lp(RPS)
        np.testing.assert_allclose(sol.row_strategy, 1 / 3, atol=1e-8)
        np.testing.assert_allclose(sol.col_strategy, 1 / 3, atol=1e-8)

    def test_asymmetric_known_value(self):
        sol = solve_zero_sum_lp(ASYM)
        assert sol.value == pytest.approx(ASYM_VALUE, abs=1e-9)

    def test_exploitability_near_zero(self):
        sol = solve_zero_sum_lp(ASYM)
        assert sol.exploitability < 1e-8

    def test_saddle_game(self):
        A = np.array([[5.0, 2.0], [1.0, 0.0]])  # saddle at (0, 1), value 2
        sol = solve_zero_sum_lp(A)
        assert sol.value == pytest.approx(2.0, abs=1e-9)

    def test_accepts_matrix_game(self):
        sol = solve_zero_sum_lp(MatrixGame(RPS))
        assert abs(sol.value) < 1e-9

    def test_rectangular_game(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 7))
        sol = solve_zero_sum_lp(A)
        game = MatrixGame(A)
        assert game.exploitability(sol.row_strategy, sol.col_strategy) < 1e-7
