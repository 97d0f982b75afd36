"""Figure 1 — pure-strategy defence under optimal attack.

Regenerates the paper's Figure 1: test accuracy versus the fraction of
training data removed by the filter, with and without the optimal
boundary attack (20 % contamination, hinge-loss SVM, Spambase 70/30).

Shape criteria (paper):
* the attacked curve starts far below the clean curve at weak filters
  (paper ~50 % vs ~88 %), recovers as the filter strengthens, peaks at
  an interior filter strength (paper: between 10 % and 30 %), and
  declines again at strong filters;
* the clean curve is comparatively flat, mildly decreasing at strong
  filters (the collateral cost Γ);
* the defender "loses incentive to increase filter strength at some
  point between 10 % and 30 %" while the attacker always profits —
  the visual signature of no pure NE.
"""

import os

import numpy as np

from benchmarks.conftest import SWEEP_PERCENTILES
from repro.engine import EvaluationEngine
from repro.experiments.reporting import format_engine_stats, format_pure_sweep
from repro.study.drivers import pure_strategy_sweep


def test_figure1_pure_strategy_sweep(benchmark, spambase_ctx):
    # Explicit cache-free engine (the bench_engine.py style):
    # REPRO_BENCH_BACKEND picks the backend, and the engine-stats block
    # below records how the sweep's rounds were actually produced.
    engine = EvaluationEngine(
        os.environ.get("REPRO_BENCH_BACKEND", "serial"), cache=False)
    result = benchmark.pedantic(
        lambda: pure_strategy_sweep(
            spambase_ctx, percentiles=SWEEP_PERCENTILES,
            poison_fraction=0.2, n_repeats=1, engine=engine,
        ),
        rounds=1, iterations=1,
    )
    print()
    print(format_pure_sweep(result))
    print()
    print(format_engine_stats(engine))

    clean = np.asarray(result.acc_clean)
    attacked = np.asarray(result.acc_attacked)
    # -- shape assertions ------------------------------------------------
    # attack devastates the unfiltered model
    assert attacked[0] < clean[0] - 0.05
    # filtering recovers accuracy substantially
    assert attacked.max() > attacked[0] + 0.03
    # the best pure filter is interior (not the weakest, not the strongest)
    best_idx = int(np.argmax(attacked))
    assert 0 < best_idx < len(SWEEP_PERCENTILES) - 1
    # at strong filters the attacked curve declines from its peak
    assert attacked[-1] < attacked.max() - 0.01
