"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures and
prints the rows/series the paper reports (captured with ``-s``).  The
timed portion is the interesting computation (sweep, Algorithm 1, LP);
dataset construction is shared via session fixtures.

Run with::

    pytest benchmarks/ --benchmark-only -s

Set ``REPRO_BENCH_CONTEXT=synthetic`` to swap the Spambase context for
the small Gaussian-blobs setting — the CI smoke run uses this to
exercise every benchmark's code path in seconds instead of minutes.
"""

import os

import numpy as np
import pytest

from repro.engine import EvaluationEngine, set_default_engine
from repro.experiments.runner import make_spambase_context, make_synthetic_context
from repro.study.drivers import pure_strategy_sweep


@pytest.fixture(scope="session", autouse=True)
def _honest_timings():
    """Benchmarks must never time cache hits by accident.

    The process-wide default engine caches results, so a session
    fixture's sweep would silently pre-warm every benchmark that
    re-runs the same rounds.  Swap in a cache-free default for the
    whole benchmark session; benches that *study* caching (e.g.
    bench_engine.py) construct their own engines explicitly.
    """
    set_default_engine(EvaluationEngine("serial", cache=False))
    yield
    set_default_engine(None)

# The percentile grid every experiment shares (the paper's Figure-1 axis).
SWEEP_PERCENTILES = np.array([0.0, 0.01, 0.02, 0.03, 0.05, 0.075, 0.10,
                              0.15, 0.20, 0.25, 0.30, 0.40, 0.50])


@pytest.fixture(scope="session")
def spambase_ctx():
    """The paper's setting: full-size Spambase, 70/30 split, SVM victim.

    With ``REPRO_BENCH_CONTEXT=synthetic`` a small synthetic context is
    substituted (same interface, same drivers) for smoke runs.
    """
    if os.environ.get("REPRO_BENCH_CONTEXT", "").strip().lower() == "synthetic":
        return make_synthetic_context(seed=0, n_samples=600, n_features=8)
    return make_spambase_context(seed=0)


@pytest.fixture(scope="session")
def figure1_sweep(spambase_ctx):
    """The Figure-1 measurement, shared by the table/ablation benches."""
    return pure_strategy_sweep(
        spambase_ctx, percentiles=SWEEP_PERCENTILES,
        poison_fraction=0.2, n_repeats=2,
    )
