"""StudySpec builders — one per experiment family.

==========================  ==============================================
builder                     study
==========================  ==============================================
:func:`figure1`             the pure-strategy sweep behind Figure 1
:func:`mixed_eval`          one mixed defence under the optimal attack
:func:`table1`              the sweep, Algorithm 1 and its evaluation
:func:`empirical_game`      the measured game on a percentile grid
:func:`cross_game`          the measured game over defence/attack families
:func:`multi_seed`          the sweep aggregated over seeded contexts
:func:`grid`                the raw scenario product, nothing solved
==========================  ==============================================

Builders only *construct* specs — no context is loaded, no round runs.
Submit the result to :func:`repro.study.run_study`, or run a builder by
name from the command line (``repro run figure1 --set n_samples=300``;
``repro figure1`` is an alias).  A builder's defaults are part of its
studies' fingerprints, so they never change.

``context`` accepts a :class:`~repro.study.spec.ContextSpec`, a maker
name string (``"spambase"``/``"synthetic"``) or ``None`` for specs that
will only ever run against a caller-supplied live context.
"""

from __future__ import annotations

from repro.study.spec import ContextSpec, EngineConfig, ScenarioGrid, StudySpec
from repro.utils.validation import check_canonical_params

__all__ = ["figure1", "mixed_eval", "table1", "empirical_game",
           "cross_game", "multi_seed", "grid", "BUILDERS", "build"]


def _context(context) -> ContextSpec | None:
    if context is None or isinstance(context, ContextSpec):
        return context
    return ContextSpec.from_obj(context)


def _engine(engine) -> EngineConfig | None:
    if engine is None or isinstance(engine, EngineConfig):
        return engine
    return EngineConfig.from_obj(engine)


def _axis(value) -> tuple:
    """An axis argument as a tuple: scalars and spec strings wrap.

    ``--set defenses=radius:0.1`` reaches a builder as one string and
    ``--set fractions=0.3`` as one float; a single-element axis must
    mean a one-point axis, never character-/error-producing
    ``tuple(scalar)``.
    """
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def figure1(
    *,
    context="spambase",
    percentiles=None,
    poison_fraction: float = 0.2,
    fractions=None,
    n_repeats: int = 1,
    victim=None,
    defense_kind: str = "radius",
    defense_params=(),
    engine=None,
) -> StudySpec:
    """The Figure-1 sweep: accuracy vs filter strength, clean and attacked.

    ``fractions`` may name several contamination rates — the study then
    runs one sweep per rate (their clean rounds share cache entries);
    with the default single rate the payload is one
    :class:`~repro.experiments.results.PureSweepResult`.
    """
    from repro.study.drivers import DEFAULT_SWEEP_PERCENTILES

    if percentiles is None:
        percentiles = DEFAULT_SWEEP_PERCENTILES
    if fractions is None:
        fractions = (poison_fraction,)
    grid_ = ScenarioGrid(
        percentiles=_axis(percentiles), victims=(victim,),
        fractions=_axis(fractions), n_repeats=n_repeats,
        defense_kind=defense_kind, defense_params=defense_params)
    return StudySpec(kind="figure1", context=_context(context), grid=grid_,
                     engine=_engine(engine))


def mixed_eval(
    *,
    context="spambase",
    percentiles,
    probabilities,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    victim=None,
    engine=None,
) -> StudySpec:
    """Evaluate one mixed defence (support + probabilities) under the
    optimal mixed attack."""
    percentiles = tuple(float(p) for p in _axis(percentiles))
    probabilities = tuple(float(q) for q in _axis(probabilities))
    if len(percentiles) != len(probabilities):
        raise ValueError(
            f"{len(percentiles)} percentiles but "
            f"{len(probabilities)} probabilities")
    grid_ = ScenarioGrid(
        percentiles=percentiles, victims=(victim,),
        fractions=(poison_fraction,), n_repeats=n_repeats)
    return StudySpec(kind="mixed_eval", context=_context(context), grid=grid_,
                     solver=(("probabilities", probabilities),),
                     engine=_engine(engine))


def table1(
    *,
    context="spambase",
    percentiles=None,
    n_radii=(2, 3),
    algorithm_params=(),
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    victim=None,
    engine=None,
) -> StudySpec:
    """Table 1 as one study: the Figure-1 sweep, Algorithm 1 per support
    size in ``n_radii``, and each mixed defence's empirical evaluation."""
    from repro.study.drivers import DEFAULT_SWEEP_PERCENTILES

    if percentiles is None:
        percentiles = DEFAULT_SWEEP_PERCENTILES
    grid_ = ScenarioGrid(
        percentiles=_axis(percentiles), victims=(victim,),
        fractions=(poison_fraction,), n_repeats=n_repeats)
    solver = (
        ("algorithm", check_canonical_params(algorithm_params,
                                             name="algorithm params")),
        ("n_radii", tuple(int(n) for n in _axis(n_radii))),
    )
    return StudySpec(kind="table1", context=_context(context), grid=grid_,
                     solver=solver, engine=_engine(engine))


def empirical_game(
    *,
    context="spambase",
    percentiles=None,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    victim=None,
    defense_kind: str = "radius",
    defense_params=(),
    engine=None,
) -> StudySpec:
    """The measured game on a shared percentile grid, solved exactly."""
    from repro.study.drivers import DEFAULT_GAME_PERCENTILES

    if percentiles is None:
        percentiles = DEFAULT_GAME_PERCENTILES
    grid_ = ScenarioGrid(
        percentiles=_axis(percentiles), victims=(victim,),
        fractions=(poison_fraction,), n_repeats=n_repeats,
        defense_kind=defense_kind, defense_params=defense_params)
    return StudySpec(kind="empirical_game", context=_context(context),
                     grid=grid_, engine=_engine(engine))


# The strategy sets of a bare ``repro cross-game``: one defence per
# family at a 10% strength against three attack families.
DEFAULT_CROSS_DEFENSES = ("radius:0.1", "slab_filter:0.1", "loss_filter:0.1")
DEFAULT_CROSS_ATTACKS = ("boundary:0.05", "label-flip", "random-noise:0.05")


def cross_game(
    *,
    context="spambase",
    defenses=DEFAULT_CROSS_DEFENSES,
    attacks=DEFAULT_CROSS_ATTACKS,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    victim=None,
    engine=None,
) -> StudySpec:
    """The measured game over arbitrary defence/attack spec lists.

    ``defenses``/``attacks`` entries are spec objects, spec strings
    (``"radius:0.1"``, ``"label-flip"``) or ``None``/``"none"``/
    ``"clean"`` for the baselines.  The defaults pit radius, slab and
    loss filtering against boundary, label-flip and random-noise
    attacks.
    """
    defenses = _axis(defenses)
    attacks = _axis(attacks)
    if not defenses or not attacks:
        raise ValueError("defenses and attacks must be non-empty")
    grid_ = ScenarioGrid(
        defenses=defenses, attacks=attacks, victims=(victim,),
        fractions=(poison_fraction,), n_repeats=n_repeats)
    return StudySpec(kind="cross_game", context=_context(context), grid=grid_,
                     engine=_engine(engine))


def multi_seed(
    *,
    context="spambase",
    n_seeds: int = 5,
    base_seed: int = 0,
    percentiles=None,
    poison_fraction: float = 0.2,
    n_repeats: int = 1,
    engine=None,
) -> StudySpec:
    """The Figure-1 sweep across independent seeded contexts, aggregated.

    The study's :class:`~repro.study.spec.ContextSpec` is a template:
    per seed ``k`` its base seed is replaced by
    ``derive_seed(base_seed, "multi-seed", k)`` and a fresh context is
    built.
    """
    from repro.study.drivers import DEFAULT_SWEEP_PERCENTILES

    context = _context(context)
    if context is None:
        raise ValueError(
            "multi_seed studies build their own contexts and need a "
            "ContextSpec (context=None is not supported)")
    if percentiles is None:
        percentiles = DEFAULT_SWEEP_PERCENTILES
    grid_ = ScenarioGrid(
        percentiles=_axis(percentiles), fractions=(poison_fraction,),
        n_repeats=n_repeats)
    solver = (("base_seed", int(base_seed)), ("n_seeds", int(n_seeds)))
    return StudySpec(kind="multi_seed", context=context, grid=grid_,
                     solver=solver, engine=_engine(engine))


def grid(
    *,
    context="spambase",
    defenses,
    attacks,
    victims=(None,),
    fractions=(0.2,),
    n_repeats: int = 1,
    engine=None,
) -> StudySpec:
    """The raw scenario product ``defenses x attacks x victims x
    fractions`` — every cell measured, nothing solved."""
    defenses = _axis(defenses)
    attacks = _axis(attacks)
    if not defenses or not attacks:
        raise ValueError("defenses and attacks must be non-empty")
    grid_ = ScenarioGrid(
        defenses=defenses, attacks=attacks,
        victims=_axis(victims) or (None,),
        fractions=_axis(fractions), n_repeats=n_repeats)
    return StudySpec(kind="grid", context=_context(context), grid=grid_,
                     engine=_engine(engine))


BUILDERS = {
    "figure1": figure1,
    "mixed_eval": mixed_eval,
    "table1": table1,
    "empirical_game": empirical_game,
    "cross_game": cross_game,
    "multi_seed": multi_seed,
    "grid": grid,
}


def build(name: str, **kwargs) -> StudySpec:
    """Build a named study (``"figure1"``, ``"cross-game"``, ...).

    Dashes normalise to underscores so CLI spellings work unchanged.
    """
    key = str(name).replace("-", "_")
    try:
        builder = BUILDERS[key]
    except KeyError:
        raise ValueError(
            f"unknown study {name!r}; known studies: "
            f"{sorted(BUILDERS)}") from None
    return builder(**kwargs)
