"""Evaluation-engine benchmarks: cache wins and backend overhead.

Quantifies the two headline properties of :mod:`repro.engine`:

1. **Equal-seed reruns are nearly free.**  Table 1's rows
   (``repro.study.drivers.table1_rows``) re-executed against a warm
   engine touches no victim training at
   all — only Algorithm 1 and cache lookups — and must come in at
   least 5x faster than the cold run, with bit-identical results.
   (On multi-core machines the cold run itself can instead be
   accelerated with ``EvaluationEngine("process")``; the cache win is
   the one that holds even on a single core.)

2. **Batching through the engine costs nothing measurable.**  The
   cache-off serial engine is compared against the historical
   hand-rolled loop over ``evaluate_configuration``.
"""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.experiments.runner import evaluate_configuration, make_synthetic_context
from repro.study.drivers import pure_strategy_sweep, table1_rows
from repro.utils.rng import derive_seed


@pytest.fixture(scope="module")
def engine_ctx():
    """A mid-size synthetic context: big enough that training dominates."""
    return make_synthetic_context(seed=0, n_samples=500, n_features=6)


def test_table1_cached_rerun(benchmark, engine_ctx):
    engine = EvaluationEngine("serial")
    before = telemetry.snapshot()
    sweep = pure_strategy_sweep(engine_ctx, poison_fraction=0.2,
                                n_repeats=1, engine=engine)

    start = time.perf_counter()
    cold = table1_rows(engine_ctx, sweep, n_radii_values=(2, 3),
                       poison_fraction=0.2, n_repeats=2, engine=engine)
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(
        lambda: table1_rows(engine_ctx, sweep, n_radii_values=(2, 3),
                            poison_fraction=0.2, n_repeats=2, engine=engine),
        rounds=3, iterations=1,
    )
    warm_seconds = benchmark.stats.stats.mean
    counts = telemetry.diff_snapshots(before,
                                      telemetry.snapshot())["counters"]

    print()
    print(f"cold run:    {cold_seconds:.3f}s "
          f"({counts.get('engine.rounds_computed', 0)} rounds trained)")
    print(f"cached rerun: {warm_seconds:.3f}s "
          f"(speedup {cold_seconds / warm_seconds:.1f}x, "
          f"{counts.get('cache.memory.hits', 0)} cache hits)")

    for c, w in zip(cold, warm):
        assert c.accuracy == w.accuracy
        assert c.percentiles == w.percentiles
        assert c.probabilities == w.probabilities
    assert cold_seconds / warm_seconds >= 5.0


def test_engine_batching_overhead(benchmark, engine_ctx):
    percentiles = np.array([0.0, 0.05, 0.15, 0.30])
    specs = [
        RoundSpec(filter_percentile=float(p),
                  attack=AttackSpec("boundary", float(p)),
                  poison_fraction=0.2,
                  seed=derive_seed(engine_ctx.seed, "bench-overhead", i))
        for i, p in enumerate(percentiles)
    ]
    engine = EvaluationEngine("serial", cache=False)

    start = time.perf_counter()
    direct = [
        evaluate_configuration(
            engine_ctx, filter_percentile=spec.filter_percentile,
            attack=engine_ctx.boundary_attack(spec.attack.percentile),
            poison_fraction=spec.poison_fraction, seed=spec.seed,
        )
        for spec in specs
    ]
    direct_seconds = time.perf_counter() - start

    batched = benchmark.pedantic(lambda: engine.evaluate_batch(engine_ctx, specs),
                                 rounds=3, iterations=1)
    assert batched == direct

    print()
    print(f"direct loop:    {direct_seconds:.3f}s")
    print(f"engine batch:   {benchmark.stats.stats.mean:.3f}s (cache off)")
