"""Execution layer behind :func:`repro.study.run_study`.

The implementations of the repository's experiments live here: the
Figure-1 sweep, the mixed-defence evaluation, Table 1, the empirical
and cross-family games, multi-seed aggregation and the raw scenario
grid.  Each study kind's runner in :mod:`repro.study.runner` calls one
of them; they are the only code that turns a study into engine
batches.

Each experiment's round construction is factored into a ``*_rounds``
helper that returns the exact :class:`~repro.engine.RoundSpec` batch
the implementation submits.  ``repro.study.runner.describe_study``
expands the same helpers, which is what makes its dry-run round and
cache-hit counts *exact* rather than estimates.  The helpers' seeds
and layouts are the round identities behind every existing cache and
archive, so they never change.
"""

from __future__ import annotations

import time

import numpy as np

from repro.attacks.base import attack_budget
from repro.core.algorithm1 import compute_optimal_defense
from repro.core.mixed_strategy import MixedDefense
from repro.core.payoff_estimation import estimate_payoff_curves
from repro.engine import (AttackSpec, DefenseSpec, EvaluationEngine,
                          RoundSpec, VictimSpec, resolve_engine)
from repro.experiments.results import (AggregatedSweep, CrossGameResult,
                                       EmpiricalGameResult, GridResult,
                                       MixedStrategyResult, PureSweepResult)
from repro.gametheory.lp_solver import solve_zero_sum_lp
from repro.gametheory.matrix_game import MatrixGame
from repro.utils.rng import derive_seed
from repro.utils.validation import check_fraction, check_positive_int

__all__ = [
    "DEFAULT_SWEEP_PERCENTILES",
    "DEFAULT_GAME_PERCENTILES",
    "grid_defense",
    "sweep_rounds",
    "support_rounds",
    "cross_rounds",
    "grid_rounds",
    "pure_strategy_sweep",
    "support_accuracy_matrix",
    "mixed_defense_evaluation",
    "table1_rows",
    "solve_accuracy_game",
    "empirical_game_matrix",
    "empirical_game_solve",
    "cross_game_matrix",
    "cross_game_solve",
    "multi_seed_sweep",
    "grid_study",
]

# The historical default grids (PR 0): the Figure-1 percentile axis and
# the empirical game's support.
DEFAULT_SWEEP_PERCENTILES = (0.0, 0.01, 0.02, 0.03, 0.05, 0.075, 0.10,
                             0.15, 0.20, 0.25, 0.30, 0.40, 0.50)
DEFAULT_GAME_PERCENTILES = (0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30)


def grid_defense(kind: str, percentile: float, params) -> DefenseSpec | None:
    """The defence spec for one grid point of a sweep axis.

    ``kind="radius"`` with no params reproduces the historical
    behaviour exactly (percentile 0 and None are the same (no) filter,
    so both share cache entries — RoundSpec normalises that); other
    kinds reinterpret the grid as that family's strength axis.
    """
    if kind == "radius" and not params and percentile <= 0.0:
        return None
    return DefenseSpec(kind, float(percentile), params)


# -- round expansion ---------------------------------------------------------
# These functions define, exactly, which rounds each experiment runs.
# The implementations below submit them; describe_study enumerates them.


def sweep_rounds(base_seed: int, percentiles, poison_fraction: float,
                 n_repeats: int, victim: VictimSpec | None,
                 defense_kind: str = "radius",
                 defense_params=()) -> list[RoundSpec]:
    """The Figure-1 batch: per percentile and repeat, a clean round and
    an attacked round sharing a seed (layout ``(percentile, repeat,
    [clean, attacked])``)."""
    specs = []
    for i, p in enumerate(percentiles):
        for rep in range(n_repeats):
            seed = derive_seed(base_seed, "sweep", i, rep)
            defense = grid_defense(defense_kind, float(p), defense_params)
            specs.append(RoundSpec(
                defense=defense, attack=None,
                poison_fraction=poison_fraction, seed=seed, victim=victim,
            ))
            specs.append(RoundSpec(
                defense=defense,
                attack=AttackSpec("boundary", float(p)),
                poison_fraction=poison_fraction, seed=seed, victim=victim,
            ))
    return specs


def support_rounds(base_seed: int, support, poison_fraction: float,
                   n_repeats: int, seed_label: str,
                   victim: VictimSpec | None,
                   defense_kind: str = "radius",
                   defense_params=()) -> list[RoundSpec]:
    """The support x support batch behind the mixed evaluation and the
    empirical game (layout ``(attack j, filter i, repeat)``)."""
    support = np.asarray(support, dtype=float)
    return [
        RoundSpec(
            defense=grid_defense(defense_kind, float(p_filter), defense_params),
            attack=AttackSpec("boundary", float(p_attack)),
            poison_fraction=poison_fraction,
            seed=derive_seed(base_seed, seed_label, i, j, rep),
            victim=victim,
        )
        for j, p_attack in enumerate(support)
        for i, p_filter in enumerate(support)
        for rep in range(n_repeats)
    ]


def cross_rounds(base_seed: int, defenses, attacks, poison_fraction: float,
                 n_repeats: int,
                 victim: VictimSpec | None) -> list[RoundSpec]:
    """The cross-family game batch (layout ``(defense i, attack j, rep)``)."""
    return [
        RoundSpec(
            defense=d, attack=a, poison_fraction=poison_fraction,
            seed=derive_seed(base_seed, "cross-game", i, j, rep),
            victim=victim,
        )
        for i, d in enumerate(defenses)
        for j, a in enumerate(attacks)
        for rep in range(n_repeats)
    ]


def grid_rounds(base_seed: int, defenses, attacks, victims, fractions,
                n_repeats: int) -> list[RoundSpec]:
    """The raw scenario-grid batch: the full product ``defenses x
    attacks x victims x fractions x repeats``.

    Seeds derive from the cell's (defence, attack, victim, repeat)
    coordinates but *not* the fraction index, mirroring the sweeps: the
    same placement seed is reused across contamination rates, so clean
    baselines (whose rounds never consult the rate) collapse to one
    cache entry per seed.
    """
    return [
        RoundSpec(
            defense=d, attack=a, victim=v, poison_fraction=float(f),
            seed=derive_seed(base_seed, "grid", i, j, k, rep),
        )
        for i, d in enumerate(defenses)
        for j, a in enumerate(attacks)
        for k, v in enumerate(victims)
        for f in fractions
        for rep in range(n_repeats)
    ]


# -- the Figure-1 sweep and Table 1 -----------------------------------------


def pure_strategy_sweep(
    ctx,
    *,
    percentiles=None,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    engine: EvaluationEngine | None = None,
    victim: VictimSpec | None = None,
    defense_kind: str = "radius",
    defense_params=(),
    progress=None,
):
    """Figure 1: accuracy vs filter strength, clean and under optimal attack.

    The optimal pure attack against a *known* filter at percentile
    ``p`` places every point just inside that radius
    (``OptimalBoundaryAttack(target_percentile=p)``), the paper's
    "place the poisoning points close to the boundary of the filter".

    One engine batch covers the whole grid: per percentile and repeat,
    a clean round and an attacked round sharing a seed.  Clean rounds
    never consult the contamination rate, so their cache entries are
    shared by sweeps at any ``poison_fraction``.
    """
    check_fraction(poison_fraction, name="poison_fraction", inclusive_high=False)
    check_positive_int(n_repeats, name="n_repeats")
    if percentiles is None:
        percentiles = np.array(DEFAULT_SWEEP_PERCENTILES)
    percentiles = np.asarray(percentiles, dtype=float)
    engine = resolve_engine(engine)

    specs = sweep_rounds(ctx.seed, percentiles, poison_fraction, n_repeats,
                         victim, defense_kind, defense_params)
    outcomes = engine.evaluate_batch(ctx, specs, progress=progress)

    # Batch layout: (percentile, repeat, [clean, attacked]).
    accuracies = np.array([o.accuracy for o in outcomes], dtype=float)
    accuracies = accuracies.reshape(percentiles.size, n_repeats, 2)
    acc_clean = accuracies[:, :, 0].mean(axis=1)
    acc_attacked = accuracies[:, :, 1].mean(axis=1)

    return PureSweepResult(
        percentiles=percentiles.tolist(),
        acc_clean=acc_clean.tolist(),
        acc_attacked=acc_attacked.tolist(),
        n_poison=attack_budget(ctx.n_train, poison_fraction),
        poison_fraction=poison_fraction,
        dataset_name=ctx.dataset_name,
        n_repeats=n_repeats,
    )


def support_accuracy_matrix(
    ctx,
    support,
    *,
    poison_fraction: float,
    n_repeats: int,
    seed_label: str,
    engine: EvaluationEngine,
    victim: VictimSpec | None = None,
    defense_kind: str = "radius",
    defense_params=(),
    progress=None,
) -> np.ndarray:
    """Measured accuracy matrix ``A[filter i, attack j]`` over a support.

    The shared core of :func:`mixed_defense_evaluation` and the
    empirical game: for every (attack percentile ``p_j``, filter
    percentile ``p_i``, repeat) cell, one boundary-attack round seeded
    ``derive_seed(ctx.seed, seed_label, i, j, rep)``, run as a single
    engine batch and averaged over repeats.
    """
    support = np.asarray(support, dtype=float)
    k = support.size
    specs = support_rounds(ctx.seed, support, poison_fraction, n_repeats,
                           seed_label, victim, defense_kind, defense_params)
    outcomes = engine.evaluate_batch(ctx, specs, progress=progress)
    accuracies = np.array([o.accuracy for o in outcomes], dtype=float)
    # Batch layout (attack j, filter i, repeat) -> matrix[i, j].
    return accuracies.reshape(k, k, n_repeats).mean(axis=2).T


def mixed_defense_evaluation(
    ctx,
    defense: MixedDefense,
    *,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    engine: EvaluationEngine | None = None,
    victim: VictimSpec | None = None,
    progress=None,
) -> tuple[float, float, np.ndarray]:
    """Expected accuracy of a mixed defence under the optimal mixed attack.

    At the equalized defence the attacker is indifferent over
    placements on the support, so the optimal attack is any mixture of
    them (Section 4.2).  We tabulate the full support x support
    accuracy matrix ``A[i, j]`` (defender draws ``p_i``, attacker
    places at ``p_j``), weight rows by the defender's probabilities,
    and take the **attacker's best column** — the worst case for the
    defender, which upper-bounds what any equilibrium attack mixture
    could do.

    Returns ``(expected_accuracy, dispersion, matrix)`` where the
    dispersion is the probability-weighted std of the defender's
    row-accuracies at the attacker's chosen column.
    """
    support = defense.percentiles
    probs = defense.probabilities
    matrix = support_accuracy_matrix(
        ctx, support, poison_fraction=poison_fraction, n_repeats=n_repeats,
        seed_label="mixed", engine=resolve_engine(engine), victim=victim,
        progress=progress,
    )

    expected_by_attack = probs @ matrix  # one value per attacker column
    worst_j = int(np.argmin(expected_by_attack))
    expected_accuracy = float(expected_by_attack[worst_j])
    deviations = matrix[:, worst_j] - expected_accuracy
    dispersion = float(np.sqrt(probs @ deviations**2))
    return expected_accuracy, dispersion, matrix


def table1_rows(
    ctx,
    sweep,
    *,
    n_radii_values=(2, 3),
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    algorithm_kwargs: dict | None = None,
    engine: EvaluationEngine | None = None,
    victim: VictimSpec | None = None,
    progress=None,
) -> list:
    """Table 1: Algorithm 1's mixed defence for each support size.

    The payoff curves are estimated from ``sweep`` exactly as the paper
    does.  ``engine`` is threaded into every mixed-defence evaluation,
    so an equal-seed rerun of the whole experiment is served from the
    engine's cache.
    """
    engine = resolve_engine(engine)
    curves = estimate_payoff_curves(
        sweep.percentiles, sweep.acc_clean, sweep.acc_attacked, sweep.n_poison
    )
    best_p, best_acc = sweep.best_pure
    results = []
    for n_radii in n_radii_values:
        start = time.perf_counter()
        opt = compute_optimal_defense(
            curves, n_radii, sweep.n_poison, **(algorithm_kwargs or {})
        )
        elapsed = time.perf_counter() - start
        accuracy, dispersion, matrix = mixed_defense_evaluation(
            ctx, opt.defense, poison_fraction=poison_fraction,
            n_repeats=n_repeats, engine=engine, victim=victim,
            progress=progress,
        )
        results.append(
            MixedStrategyResult(
                n_radii=int(n_radii),
                percentiles=opt.defense.percentiles.tolist(),
                probabilities=opt.defense.probabilities.tolist(),
                accuracy=accuracy,
                accuracy_std=dispersion,
                expected_loss=opt.expected_loss,
                best_pure_accuracy=best_acc,
                best_pure_percentile=best_p,
                accuracy_matrix=matrix.tolist(),
                algorithm_iterations=opt.n_iterations,
                wall_time_seconds=elapsed,
            )
        )
    return results


# -- the empirical and cross-family games -----------------------------------


def solve_accuracy_game(accuracy_matrix, defense_labels,
                        attack_labels) -> dict:
    """Solve the measured zero-sum game ``A[defence i, attack j]`` exactly.

    Entries are test accuracies: the defender (rows of ``A``) maximises
    them, the attacker (columns) minimises.  Returns the fields
    :class:`~repro.experiments.results.EmpiricalGameResult` and
    :class:`~repro.experiments.results.CrossGameResult` share, with the
    label of the best pure defence (highest worst-case accuracy) under
    ``"best_pure"``.
    """
    accuracy_matrix = np.asarray(accuracy_matrix, dtype=float)
    if accuracy_matrix.shape != (len(defense_labels), len(attack_labels)):
        raise ValueError(
            f"accuracy matrix shape {accuracy_matrix.shape} does not match "
            f"{len(defense_labels)} defenses x {len(attack_labels)} attacks"
        )
    # Attacker = maximising row player on damage = 1 - accuracy, so the
    # defender (columns) minimises damage i.e. maximises accuracy.
    damage = 1.0 - accuracy_matrix.T  # rows: attacker, cols: defender
    game = MatrixGame(damage, row_labels=list(attack_labels),
                      col_labels=list(defense_labels))
    solution = solve_zero_sum_lp(game)

    worst_case_acc = accuracy_matrix.min(axis=1)
    best_i = int(np.argmax(worst_case_acc))
    value_acc = 1.0 - solution.value
    return {
        "accuracy_matrix": accuracy_matrix.tolist(),
        "defender_mix": solution.col_strategy.tolist(),
        "attacker_mix": solution.row_strategy.tolist(),
        "game_value_accuracy": float(value_acc),
        "best_pure_accuracy": float(worst_case_acc[best_i]),
        "best_pure": defense_labels[best_i],
        "mixed_advantage": float(value_acc - worst_case_acc[best_i]),
        "has_saddle_point": game.has_pure_equilibrium(),
    }


def empirical_game_matrix(
    ctx,
    percentiles,
    *,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    engine: EvaluationEngine | None = None,
    victim: VictimSpec | None = None,
    defense_kind: str = "radius",
    defense_params=(),
    progress=None,
) -> np.ndarray:
    """Measure the accuracy matrix ``A[filter, attack]`` on a grid."""
    check_fraction(poison_fraction, name="poison_fraction", inclusive_high=False)
    check_positive_int(n_repeats, name="n_repeats")
    return support_accuracy_matrix(
        ctx, percentiles, poison_fraction=poison_fraction, n_repeats=n_repeats,
        seed_label="empirical", engine=resolve_engine(engine), victim=victim,
        defense_kind=defense_kind, defense_params=defense_params,
        progress=progress,
    )


def empirical_game_solve(
    ctx,
    *,
    percentiles=None,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    engine: EvaluationEngine | None = None,
    victim: VictimSpec | None = None,
    defense_kind: str = "radius",
    defense_params=(),
    progress=None,
) -> EmpiricalGameResult:
    """Measure the accuracy matrix on a percentile grid and solve it."""
    if percentiles is None:
        percentiles = np.array(DEFAULT_GAME_PERCENTILES)
    percentiles = np.asarray(percentiles, dtype=float)
    matrix = empirical_game_matrix(
        ctx, percentiles, poison_fraction=poison_fraction,
        n_repeats=n_repeats, engine=engine, victim=victim,
        defense_kind=defense_kind, defense_params=defense_params,
        progress=progress,
    )
    labels = percentiles.tolist()
    solved = solve_accuracy_game(matrix, labels, labels)
    best_p = float(solved.pop("best_pure"))
    return EmpiricalGameResult(
        percentiles=labels,
        best_pure_percentile=best_p,
        n_repeats=n_repeats,
        defender_support=[
            (float(p), float(q))
            for p, q in zip(percentiles, solved["defender_mix"])
            if q > 0.01
        ],
        **solved,
    )


def cross_game_matrix(
    ctx,
    defenses,
    attacks,
    *,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    victim: VictimSpec | None = None,
    engine: EvaluationEngine | None = None,
    progress=None,
) -> np.ndarray:
    """Measure ``A[defense i, attack j]`` over arbitrary spec lists."""
    check_fraction(poison_fraction, name="poison_fraction", inclusive_high=False)
    check_positive_int(n_repeats, name="n_repeats")
    defenses = list(defenses)
    attacks = list(attacks)
    if not defenses or not attacks:
        raise ValueError("defenses and attacks must be non-empty")
    for d in defenses:
        if d is not None and not isinstance(d, DefenseSpec):
            raise TypeError(f"expected DefenseSpec or None, got {d!r}")
    for a in attacks:
        if a is not None and not isinstance(a, AttackSpec):
            raise TypeError(f"expected AttackSpec or None, got {a!r}")
    engine = resolve_engine(engine)
    specs = cross_rounds(ctx.seed, defenses, attacks, poison_fraction,
                         n_repeats, victim)
    outcomes = engine.evaluate_batch(ctx, specs, progress=progress)
    accuracies = np.array([o.accuracy for o in outcomes], dtype=float)
    return accuracies.reshape(len(defenses), len(attacks), n_repeats).mean(axis=2)


def cross_game_solve(
    ctx,
    defenses,
    attacks,
    *,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    victim: VictimSpec | None = None,
    engine: EvaluationEngine | None = None,
    progress=None,
) -> CrossGameResult:
    """Measure a cross-family accuracy matrix and solve it."""
    defenses = list(defenses)
    attacks = list(attacks)
    matrix = cross_game_matrix(
        ctx, defenses, attacks, poison_fraction=poison_fraction,
        n_repeats=n_repeats, victim=victim, engine=engine, progress=progress,
    )
    defense_labels = ["none" if d is None else d.describe() for d in defenses]
    attack_labels = ["clean" if a is None else a.describe() for a in attacks]
    solved = solve_accuracy_game(matrix, defense_labels, attack_labels)
    return CrossGameResult(
        defense_labels=defense_labels,
        attack_labels=attack_labels,
        best_pure_defense=solved.pop("best_pure"),
        victim=None if victim is None else victim.describe(),
        n_repeats=n_repeats,
        **solved,
    )


# -- multi-seed aggregation --------------------------------------------------


def multi_seed_sweep(
    *,
    context_factory,
    n_seeds: int = 5,
    base_seed: int = 0,
    percentiles=None,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    engine: EvaluationEngine | None = None,
    progress=None,
) -> AggregatedSweep:
    """Run the Figure-1 sweep across ``n_seeds`` independent contexts.

    ``context_factory(seed)`` builds the context for each derived seed
    (a fresh surrogate draw, a fresh split), so the aggregation covers
    *all* sources of variation, not just SGD noise.  All per-seed
    sweeps share ``engine`` — distinct contexts never collide in its
    cache (keys carry the context fingerprint), but each sweep still
    gains the backend's parallelism and a full rerun of the aggregation
    is served from cache.
    """
    check_positive_int(n_seeds, name="n_seeds")
    engine = resolve_engine(engine)

    sweeps = []
    for k in range(n_seeds):
        ctx = context_factory(derive_seed(base_seed, "multi-seed", k))
        sweeps.append(pure_strategy_sweep(
            ctx, percentiles=percentiles, poison_fraction=poison_fraction,
            n_repeats=n_repeats, engine=engine, progress=progress,
        ))

    ref = np.asarray(sweeps[0].percentiles, dtype=float)
    for s in sweeps[1:]:
        if not np.allclose(np.asarray(s.percentiles), ref):
            raise RuntimeError("sweeps disagree on the percentile grid")
    clean = np.vstack([s.acc_clean for s in sweeps])
    attacked = np.vstack([s.acc_attacked for s in sweeps])
    return AggregatedSweep(
        percentiles=ref,
        acc_clean_mean=clean.mean(axis=0),
        acc_clean_std=clean.std(axis=0),
        acc_attacked_mean=attacked.mean(axis=0),
        acc_attacked_std=attacked.std(axis=0),
        n_seeds=n_seeds,
        per_seed=sweeps,
    )


# -- the raw scenario grid ---------------------------------------------------


def grid_study(
    ctx,
    defenses,
    attacks,
    victims=(None,),
    fractions=(0.2,),
    *,
    n_repeats: int = 1,
    engine: EvaluationEngine | None = None,
    progress=None,
):
    """Measure the full ``defenses x attacks x victims x fractions`` grid.

    The product generalisation of the games: no solving, just the
    measured accuracy tensor over arbitrary spec axes — the shape any
    downstream analysis (games, regressions, dashboards) can consume.
    """
    defenses = list(defenses)
    attacks = list(attacks)
    victims = list(victims) or [None]
    fractions = [check_fraction(float(f), name="poison fraction",
                                inclusive_high=False) for f in fractions]
    if not defenses or not attacks or not fractions:
        raise ValueError("defenses, attacks and fractions must be non-empty")
    check_positive_int(n_repeats, name="n_repeats")
    engine = resolve_engine(engine)
    specs = grid_rounds(ctx.seed, defenses, attacks, victims, fractions,
                        n_repeats)
    outcomes = engine.evaluate_batch(ctx, specs, progress=progress)
    accuracies = np.array([o.accuracy for o in outcomes], dtype=float)
    tensor = accuracies.reshape(len(defenses), len(attacks), len(victims),
                                len(fractions), n_repeats).mean(axis=4)
    return GridResult(
        defense_labels=["none" if d is None else d.describe()
                        for d in defenses],
        attack_labels=["clean" if a is None else a.describe()
                       for a in attacks],
        victim_labels=["context" if v is None else v.describe()
                       for v in victims],
        fractions=[float(f) for f in fractions],
        accuracy=tensor.tolist(),
        n_repeats=int(n_repeats),
        dataset_name=ctx.dataset_name,
    )
