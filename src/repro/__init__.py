"""repro — reproduction of "Mixed Strategy Game Model Against Data
Poisoning Attacks" (Ou & Samavi, DSN 2019; arXiv:1906.02872).

Top-level convenience re-exports cover the main workflow — declare the
experiment as a study, run it, read its payload:

>>> from repro import (run_study, studies, estimate_payoff_curves,
...                    compute_optimal_defense)
>>> spec = studies.figure1(context={"name": "spambase", "seed": 0,
...                                 "n_samples": 1500})
>>> result = run_study(spec)                        # doctest: +SKIP
>>> sweep = result.payload_object()                 # doctest: +SKIP
>>> curves = estimate_payoff_curves(sweep.percentiles, sweep.acc_clean,
...                                 sweep.acc_attacked, sweep.n_poison)
...                                                 # doctest: +SKIP
>>> compute_optimal_defense(curves, n_radii=3,
...                         n_poison=sweep.n_poison)  # doctest: +SKIP

Subpackages
-----------
``repro.core``
    The paper's contribution: game model, best responses, mixed NE,
    Algorithm 1, payoff-curve estimation, and the LP and double-oracle
    reference solutions Algorithm 1 is checked against.
``repro.gametheory``
    Generic zero-sum substrate: matrix games, the exact minimax LP,
    best-response dynamics, discretisation and double oracle.
``repro.ml``
    From-scratch ML substrate (hinge-loss SVM et al.).
``repro.data``
    Spambase (real or surrogate), synthetic tasks, data geometry.
``repro.attacks`` / ``repro.defenses``
    Poisoning attacks and sanitisation defences.
``repro.engine``
    Batched evaluation engine: pluggable serial/process/cluster
    backends, a streaming batch API and a content-keyed result cache
    shared by all experiments.
``repro.cluster``
    The sharded evaluation service behind the ``cluster`` backend:
    shard servers, socket protocol, failover scheduler.
``repro.experiments``
    The round pipeline and contexts, result records, reporting and the
    ``repro`` command line.
``repro.study``
    The declarative study API: every experiment as one frozen,
    serialisable :class:`~repro.study.StudySpec` submitted to
    :func:`~repro.study.run_study` — the one way to run an experiment
    (``repro run <name>`` on the command line).
``repro.service``
    Studies as a service: ``repro serve``, an HTTP tier over a
    persistent study queue.
``repro.telemetry`` / ``repro.resilience``
    Metrics, tracing and profiling; seeded fault injection, retry and
    validated environment knobs.
"""

from repro.core import (
    PayoffCurves,
    PoisoningGame,
    MixedDefense,
    compute_optimal_defense,
    estimate_payoff_curves,
    find_pure_equilibrium,
)
from repro.engine import (
    AttackSpec,
    DefenseSpec,
    VictimSpec,
    EvaluationEngine,
    RoundSpec,
    set_default_engine,
)
from repro.experiments import (
    make_spambase_context,
    make_synthetic_context,
    evaluate_configuration,
)
from repro.study import (
    ContextSpec,
    ScenarioGrid,
    StudySpec,
    StudyResult,
    describe_study,
    run_study,
    studies,
    study_from_json,
    study_result_from_json,
)

__version__ = "1.0.0"

__all__ = [
    "PayoffCurves",
    "PoisoningGame",
    "MixedDefense",
    "compute_optimal_defense",
    "estimate_payoff_curves",
    "find_pure_equilibrium",
    "AttackSpec",
    "DefenseSpec",
    "VictimSpec",
    "EvaluationEngine",
    "RoundSpec",
    "set_default_engine",
    "make_spambase_context",
    "make_synthetic_context",
    "evaluate_configuration",
    "ContextSpec",
    "ScenarioGrid",
    "StudySpec",
    "StudyResult",
    "describe_study",
    "run_study",
    "studies",
    "study_from_json",
    "study_result_from_json",
    "__version__",
]
