"""General two-player zero-sum game substrate.

Provides finite matrix games, the exact minimax LP that solves every
measured game (``empirical_game`` and ``cross_game`` studies),
best-response dynamics with cycle detection, a discretisation bridge
for continuous games and the double-oracle algorithm.

The poisoning game in :mod:`repro.core` is an infinite (continuous)
game; the discretisation and double oracle exist so the core results
can be *cross-checked* against exact solutions of fine
discretisations.
"""

from repro.gametheory.matrix_game import MatrixGame
from repro.gametheory.lp_solver import solve_zero_sum_lp, LPSolution
from repro.gametheory.best_response_dynamics import (
    best_response_dynamics,
    BestResponseTrace,
    detect_cycle,
)
from repro.gametheory.continuous import DiscretizedZeroSumGame
from repro.gametheory.double_oracle import double_oracle, DoubleOracleResult

__all__ = [
    "MatrixGame",
    "solve_zero_sum_lp",
    "LPSolution",
    "best_response_dynamics",
    "BestResponseTrace",
    "detect_cycle",
    "DiscretizedZeroSumGame",
    "double_oracle",
    "DoubleOracleResult",
]
