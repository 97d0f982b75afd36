"""The paper's primary contribution: the poisoning attack/defence game.

Modules
-------
* :mod:`repro.core.game` — the zero-sum game model (Section 3):
  strategy spaces, payoff function ``U(S_a, θ_d)`` and the payoff-curve
  containers ``E(p)`` / ``Γ(p)``.
* :mod:`repro.core.best_response` — both players' best-response
  functions and the constructive Proposition-1 machinery showing no
  pure Nash equilibrium exists.
* :mod:`repro.core.mixed_strategy` — the mixed-strategy defence and the
  Section-4.2 equalization conditions characterising its equilibrium.
* :mod:`repro.core.algorithm1` — Algorithm 1: gradient-descent
  approximation of the defender's equilibrium strategy.
* :mod:`repro.core.payoff_estimation` — fitting monotone ``E``/``Γ``
  curves from pure-strategy sweep measurements (how the paper obtains
  the algorithm's inputs from Figure 1).
* :mod:`repro.core.equilibrium` — equilibrium quality metrics and an
  exact LP cross-check on a discretised version of the game.
* :mod:`repro.core.oracle_solver` — the game solved by double oracle
  over the continuous strategy spaces.
* :mod:`repro.core.paper_curves` — curves calibrated to the published
  Figure 1, the inputs behind ``repro paper-table1``.

The equilibrium and oracle modules are reference implementations:
tests check Algorithm 1's equalized defence against them.
"""

from repro.core.game import PayoffCurves, PoisoningGame
from repro.core.best_response import (
    attacker_best_response,
    defender_best_response,
    ta_percentile,
    td_percentile,
    find_pure_equilibrium,
    proposition1_certificate,
    PureEquilibriumSearch,
)
from repro.core.mixed_strategy import (
    MixedDefense,
    equalizing_probabilities,
    equalization_residual,
)
from repro.core.algorithm1 import compute_optimal_defense, DefenseOptimizationResult
from repro.core.payoff_estimation import (
    isotonic_regression,
    fit_monotone_curve,
    estimate_payoff_curves,
)
from repro.core.equilibrium import (
    attacker_best_response_value,
    defense_exploitability,
    cross_check_with_lp,
    EquilibriumCrossCheck,
)
from repro.core.paper_curves import (
    paper_figure1_curves,
    PAPER_N_POISON,
    PAPER_TABLE1_N2,
    PAPER_TABLE1_N3,
)
from repro.core.oracle_solver import (
    solve_poisoning_game_double_oracle,
    OracleSolution,
)

__all__ = [
    "PayoffCurves",
    "PoisoningGame",
    "attacker_best_response",
    "defender_best_response",
    "ta_percentile",
    "td_percentile",
    "find_pure_equilibrium",
    "proposition1_certificate",
    "PureEquilibriumSearch",
    "MixedDefense",
    "equalizing_probabilities",
    "equalization_residual",
    "compute_optimal_defense",
    "DefenseOptimizationResult",
    "isotonic_regression",
    "fit_monotone_curve",
    "estimate_payoff_curves",
    "attacker_best_response_value",
    "defense_exploitability",
    "cross_check_with_lp",
    "EquilibriumCrossCheck",
    "paper_figure1_curves",
    "PAPER_N_POISON",
    "PAPER_TABLE1_N2",
    "PAPER_TABLE1_N3",
    "solve_poisoning_game_double_oracle",
    "OracleSolution",
]
