"""Experiment substrate: the round pipeline, result records, reporting.

Experiments themselves are studies: build one with
:mod:`repro.study.studies <repro.study.builders>` and run it with
:func:`repro.study.run_study` (or ``repro run <name>`` on the command
line).  This package holds what every study stands on:

* :mod:`repro.experiments.runner` — seeded end-to-end pipeline
  (dataset → attack → filter → train → score) and the contexts it
  runs in.
* :mod:`repro.experiments.results` — the serialisable result records
  every study kind returns, and their payload codec.
* :mod:`repro.experiments.reporting` — ASCII tables/series matching the
  paper's presentation.
* :mod:`repro.experiments.cli` — the ``repro`` command line.
"""

from repro.experiments.runner import (
    ExperimentContext,
    SVMVictimFactory,
    VictimFactory,
    make_spambase_context,
    make_synthetic_context,
    evaluate_configuration,
    EvaluationOutcome,
)
from repro.experiments.results import (
    PureSweepResult,
    MixedStrategyResult,
    Table1Row,
    MixedEvalResult,
    GridResult,
    EmpiricalGameResult,
    CrossGameResult,
    AggregatedSweep,
    result_to_payload,
    result_from_payload,
)
from repro.experiments.reporting import (
    ascii_table,
    format_pure_sweep,
    format_table1,
    format_engine_stats,
    format_cross_game,
    format_empirical_game,
    format_mixed_eval,
    format_aggregated_sweep,
    format_grid_result,
)

__all__ = [
    "ExperimentContext",
    "SVMVictimFactory",
    "VictimFactory",
    "make_spambase_context",
    "make_synthetic_context",
    "evaluate_configuration",
    "EvaluationOutcome",
    "PureSweepResult",
    "MixedStrategyResult",
    "Table1Row",
    "MixedEvalResult",
    "GridResult",
    "EmpiricalGameResult",
    "CrossGameResult",
    "AggregatedSweep",
    "result_to_payload",
    "result_from_payload",
    "ascii_table",
    "format_pure_sweep",
    "format_table1",
    "format_engine_stats",
    "format_cross_game",
    "format_empirical_game",
    "format_mixed_eval",
    "format_aggregated_sweep",
    "format_grid_result",
]
