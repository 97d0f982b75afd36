"""Exact minimax solution of zero-sum matrix games via linear programming.

By the minimax theorem, the value ``v`` of a zero-sum game and the row
player's optimal mix ``p`` solve

    max v   s.t.   A' p >= v 1,   1' p = 1,   p >= 0

which is an LP; the column player's optimal mix falls out of the dual.
We solve both primal LPs with :func:`scipy.optimize.linprog` (HiGHS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gametheory.matrix_game import MatrixGame

__all__ = ["LPSolution", "solve_zero_sum_lp"]


@dataclass(frozen=True)
class LPSolution:
    """Optimal mixed strategies and value of a zero-sum game.

    Attributes
    ----------
    row_strategy, col_strategy:
        The equilibrium mixes for the maximising row player and the
        minimising column player.
    value:
        The game value (expected row payoff at equilibrium).
    exploitability:
        Residual best-response gain of the reported pair (should be ~0;
        kept as a numerical diagnostic).
    """

    row_strategy: np.ndarray
    col_strategy: np.ndarray
    value: float
    exploitability: float


def _solve_row_lp(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Row player's LP: maximise v s.t. A' p >= v, sum p = 1, p >= 0."""
    # Imported here: scipy.optimize costs ~0.45 s, which shards and pool
    # workers (they never solve an LP) should not pay at start-up.
    from scipy.optimize import linprog

    m, n = A.shape
    # Variables: [p_1..p_m, v]; objective: maximise v == minimise -v.
    c = np.zeros(m + 1)
    c[-1] = -1.0
    # Constraints: v - A' p <= 0  for every column.
    A_ub = np.hstack([-A.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * m + [(None, None)]
    result = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                     bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"zero-sum LP failed: {result.message}")
    p = np.clip(result.x[:m], 0.0, None)
    p = p / p.sum()
    return p, float(result.x[-1])


def solve_zero_sum_lp(game: MatrixGame | np.ndarray) -> LPSolution:
    """Solve a zero-sum matrix game exactly.

    Accepts a :class:`MatrixGame` or a raw payoff matrix (row player's
    payoffs).  Returns an :class:`LPSolution`.
    """
    if not isinstance(game, MatrixGame):
        game = MatrixGame(game)
    A = game.payoffs
    p, value_row = _solve_row_lp(A)
    # The column player minimises A, i.e. maximises -A as a row player
    # of the transposed negated game.
    q, value_col = _solve_row_lp(-A.T)
    value = float(p @ A @ q)
    # Consistency: the two independently solved LPs must agree on value.
    if abs(value_row + value_col) > 1e-6 * max(1.0, abs(value_row)):
        raise RuntimeError(
            f"primal/dual value mismatch: row {value_row} vs col {-value_col}"
        )
    return LPSolution(
        row_strategy=p,
        col_strategy=q,
        value=value,
        exploitability=game.exploitability(p, q),
    )
