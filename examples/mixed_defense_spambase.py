"""Mixed vs pure defence on Spambase — the paper's Table-1 story.

Runs the complete Table-1 protocol (sweep -> curves -> Algorithm 1 ->
empirical evaluation) as one ``table1`` study and the measured-game LP
cross-check as one ``empirical_game`` study, then verifies the
equilibrium properties (attacker indifference, no pure saddle point).
Both studies run on the same live context through
``run_study(spec, context=ctx)``; ``repro run table1`` and ``repro run
empirical-game`` run the same studies from the command line.

Run:  python examples/mixed_defense_spambase.py
"""

import numpy as np

from repro.core.best_response import find_pure_equilibrium
from repro.core.equilibrium import attacker_best_response_value
from repro.core.game import PoisoningGame
from repro.core.mixed_strategy import MixedDefense
from repro.core.payoff_estimation import estimate_payoff_curves
from repro.experiments import make_spambase_context
from repro.experiments.reporting import ascii_table, format_table1
from repro.study import run_study, studies


def main() -> None:
    ctx = make_spambase_context(seed=0)
    print(f"dataset: {ctx.dataset_name}, train={ctx.n_train}")

    table1 = run_study(
        studies.table1(context=None, n_radii=(2, 3), poison_fraction=0.2),
        context=ctx).payload_object()
    sweep, results = table1["sweep"], table1["rows"]

    print("\n[1/4] Figure-1 sweep (pure strategies)...")
    best_p, best_acc = sweep.best_pure
    print(f"      best pure filter: {best_p:.0%} -> accuracy {best_acc:.4f}")

    print("\n[2/4] Proposition 1 on the estimated game...")
    curves = estimate_payoff_curves(
        sweep.percentiles, sweep.acc_clean, sweep.acc_attacked, sweep.n_poison
    )
    game = PoisoningGame(curves=curves, n_poison=sweep.n_poison)
    search = find_pure_equilibrium(game, n_grid=101)
    print(f"      pure NE exists: {search.exists} "
          f"(best-response cycle length: {search.trace.cycle_length})")

    print("\n[3/4] Algorithm 1 (paper's protocol)...")
    print(format_table1(results))
    defense = None
    for res in results:
        if res.n_radii == 3:
            defense = MixedDefense(percentiles=np.array(res.percentiles),
                                   probabilities=np.array(res.probabilities))
    if defense is not None:
        br_value, br_p = attacker_best_response_value(game, defense)
        print(f"attacker best response vs n=3 defence: placement {br_p:.2%}, "
              f"modelled damage {br_value:.4f}")

    print("\n[4/4] Measured-game LP cross-check...")
    empirical = run_study(
        studies.empirical_game(
            context=None,
            percentiles=(0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30),
            poison_fraction=0.2),
        context=ctx).payload_object()
    rows = [(f"{p:.0%}", f"{q:.1%}")
            for p, q in zip(empirical.percentiles, empirical.defender_mix)
            if q > 0.001]
    print(ascii_table(["filter", "probability"], rows,
                      title="Measured-game equilibrium defence"))
    print(f"game value:        {empirical.game_value_accuracy:.4f}")
    print(f"best pure:         {empirical.best_pure_accuracy:.4f} "
          f"(filter {empirical.best_pure_percentile:.0%})")
    print(f"mixed advantage:   {empirical.mixed_advantage:+.4f}")
    print(f"saddle point:      {empirical.has_saddle_point}")
    print("\nConclusion: no pure equilibrium exists; randomising the filter")
    print("strength weakly dominates every fixed filter on the measured game.")


if __name__ == "__main__":
    main()
