"""``run_study`` and ``describe_study`` — the single experiment entry point.

:func:`run_study` takes a :class:`~repro.study.spec.StudySpec` and an
optional engine, executes the study's rounds through the ordinary
evaluation machinery (pass ``progress=`` for per-round callbacks as
rounds land, on any backend including the cluster), and returns a
provenance-stamped :class:`~repro.study.result.StudyResult` whose
scenarios are archived in input order on every backend.

:func:`describe_study` is the dry run: it expands the study's scenario
grid through the *same* round constructors the execution layer uses
(:mod:`repro.study.drivers`'s ``*_rounds`` helpers) and reports exact
round counts, exact unique-round counts and — given an engine to probe
— exact predicted cache hits, without executing anything.  ``table1``
is the one partially-dynamic kind: its mixed-evaluation supports come
out of Algorithm 1 at run time, so their *counts* are exact but their
keys (hence hit predictions) are not enumerable up front.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.engine.cache import cache_schema_version, round_key
from repro.resilience import env_int
from repro.study import drivers
from repro.study.checkpoint import StudyCheckpointer, load_checkpoint
from repro.study.result import StudyResult, utc_timestamp
from repro.study.spec import (StudySpec, attack_to_obj, defense_to_obj,
                              victim_to_obj)
from repro.utils.rng import derive_seed

__all__ = [
    "run_study",
    "describe_study",
    "StudyDescription",
    "PhaseDescription",
    "archive_path",
]


# -- engine recording proxy --------------------------------------------------


class _RecordingEngine:
    """An engine proxy that records every distinct round it resolves.

    Behaves exactly like the wrapped engine (attribute access
    delegates), but notes ``(cache key, context fingerprint, spec,
    outcome)`` for each first-seen round — the raw material of the
    result's ``scenarios`` section.  Every batch rides the engine's
    one stream path: a round is noted (and ``on_record``, the hook
    study checkpointing hangs off, fires) the moment it lands, so a
    run killed mid-batch keeps every completed round — but
    :attr:`records` takes each batch's rounds in input order, so the
    archive is the same whatever order a backend lands them in.
    """

    def __init__(self, engine, on_record=None):
        self._engine = engine
        self._seen: set[str] = set()
        self._on_record = on_record
        self.records: list[dict] = []
        # Study-cumulative progress accounting: batches within one
        # study continue the count instead of restarting at zero, and
        # resumed (checkpointed) rounds land first as cache hits — so
        # a --resume restart picks up where the killed run stopped.
        self._progress_done = 0
        self._progress_total = 0

    def _note(self, fingerprint: str, spec, outcome) -> dict | None:
        """The record of a first-seen round (``None`` for a repeat)."""
        key = round_key(fingerprint, spec)
        if key in self._seen:
            return None
        self._seen.add(key)
        record = {"key": key, "fingerprint": fingerprint,
                  "spec": spec, "outcome": outcome}
        if self._on_record is not None:
            self._on_record(record)
        return record

    def evaluate(self, ctx, spec):
        return self.evaluate_batch(ctx, [spec])[0]

    def evaluate_batch(self, ctx, specs, *, progress=None):
        specs = list(specs)
        results = [None] * len(specs)
        for index, outcome in self._stream(ctx, specs, progress):
            results[index] = outcome
        return results

    def evaluate_stream(self, ctx, specs):
        specs = list(specs)
        for index, outcome in self._stream(ctx, specs, None):
            yield specs[index], outcome

    def _stream(self, ctx, specs, progress):
        fingerprint = ctx.fingerprint()
        base = self._progress_done
        self._progress_total += len(specs)
        landed: list = [None] * len(specs)
        try:
            for index, outcome in self._engine._stream_indexed(ctx, specs):
                landed[index] = self._note(fingerprint, specs[index],
                                           outcome)
                self._progress_done += 1
                if progress is not None:
                    progress(self._progress_done, self._progress_total)
                yield index, outcome
        finally:
            self.records.extend(r for r in landed if r is not None)
            self._progress_done = base + len(specs)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _scenario_row(rec: dict) -> dict:
    """Serialise one recorder note into an archival scenario row."""
    from repro.engine.cache import outcome_to_dict

    spec = rec["spec"]
    return {
        "key": rec["key"],
        "context": rec["fingerprint"],
        "defense": defense_to_obj(spec.defense),
        "attack": attack_to_obj(spec.attack),
        "victim": victim_to_obj(spec.victim),
        "fraction": (float(spec.poison_fraction)
                     if spec.attack is not None else None),
        "seed": int(spec.seed),
        "outcome": outcome_to_dict(rec["outcome"]),
    }


def _scenario_records(records) -> list[dict]:
    """Serialise the recorder's raw notes into archival scenario rows."""
    return [_scenario_row(rec) for rec in records]


# -- kind dispatch -----------------------------------------------------------


def _single_victim(spec: StudySpec):
    if len(spec.grid.victims) != 1:
        raise ValueError(
            f"study kind {spec.kind!r} takes exactly one victim, got "
            f"{len(spec.grid.victims)}")
    return spec.grid.victim


def _single_fraction(spec: StudySpec) -> float:
    if len(spec.grid.fractions) != 1:
        raise ValueError(
            f"study kind {spec.kind!r} takes exactly one poison fraction, "
            f"got {len(spec.grid.fractions)}")
    return spec.grid.fraction


def _run_figure1(spec, ctx, engine, progress):
    from repro.experiments.results import result_to_payload

    g = spec.grid
    victim = _single_victim(spec)
    sweeps = [
        drivers.pure_strategy_sweep(
            ctx, percentiles=np.asarray(g.percentiles, dtype=float),
            poison_fraction=fraction, n_repeats=g.n_repeats, engine=engine,
            victim=victim, defense_kind=g.defense_kind,
            defense_params=g.defense_params, progress=progress)
        for fraction in g.fractions
    ]
    if len(sweeps) == 1:
        return result_to_payload(sweeps[0])
    return {"type": "Figure1Study",
            "sweeps": [result_to_payload(s) for s in sweeps]}


def _run_mixed_eval(spec, ctx, engine, progress):
    from repro.core.mixed_strategy import MixedDefense
    from repro.experiments.results import MixedEvalResult, result_to_payload

    g = spec.grid
    probabilities = spec.solver_param("probabilities")
    if probabilities is None:
        raise ValueError('mixed_eval studies need solver "probabilities"')
    defense = MixedDefense(np.asarray(g.percentiles, dtype=float),
                           np.asarray(probabilities, dtype=float))
    accuracy, dispersion, matrix = drivers.mixed_defense_evaluation(
        ctx, defense, poison_fraction=_single_fraction(spec),
        n_repeats=g.n_repeats, engine=engine, victim=_single_victim(spec),
        progress=progress)
    return result_to_payload(MixedEvalResult(
        percentiles=list(g.percentiles),
        probabilities=[float(q) for q in probabilities],
        expected_accuracy=accuracy,
        dispersion=dispersion,
        accuracy_matrix=matrix.tolist(),
        poison_fraction=_single_fraction(spec),
        n_repeats=g.n_repeats,
    ))


def _run_table1(spec, ctx, engine, progress):
    from repro.experiments.results import result_to_payload

    g = spec.grid
    victim = _single_victim(spec)
    fraction = _single_fraction(spec)
    sweep = drivers.pure_strategy_sweep(
        ctx, percentiles=np.asarray(g.percentiles, dtype=float),
        poison_fraction=fraction, n_repeats=g.n_repeats, engine=engine,
        victim=victim, progress=progress)
    rows = drivers.table1_rows(
        ctx, sweep, n_radii_values=spec.solver_param("n_radii", (2, 3)),
        poison_fraction=fraction, n_repeats=g.n_repeats,
        algorithm_kwargs=dict(spec.solver_param("algorithm", ())) or None,
        engine=engine, victim=victim, progress=progress)
    return {"type": "Table1Study",
            "sweep": result_to_payload(sweep),
            "rows": [result_to_payload(r) for r in rows]}


def _run_empirical_game(spec, ctx, engine, progress):
    from repro.experiments.results import result_to_payload

    g = spec.grid
    result = drivers.empirical_game_solve(
        ctx, percentiles=np.asarray(g.percentiles, dtype=float),
        poison_fraction=_single_fraction(spec), n_repeats=g.n_repeats,
        engine=engine, victim=_single_victim(spec),
        defense_kind=g.defense_kind, defense_params=g.defense_params,
        progress=progress)
    return result_to_payload(result)


def _run_cross_game(spec, ctx, engine, progress):
    from repro.experiments.results import result_to_payload

    g = spec.grid
    result = drivers.cross_game_solve(
        ctx, list(g.defenses), list(g.attacks),
        poison_fraction=_single_fraction(spec), n_repeats=g.n_repeats,
        victim=_single_victim(spec), engine=engine, progress=progress)
    return result_to_payload(result)


def _run_multi_seed(spec, ctx, engine, progress):
    from repro.experiments.results import result_to_payload

    g = spec.grid
    cspec = spec.context
    result = drivers.multi_seed_sweep(
        n_seeds=int(spec.solver_param("n_seeds", 5)),
        base_seed=int(spec.solver_param("base_seed", 0)),
        context_factory=lambda seed: cspec.materialize(seed=seed),
        percentiles=np.asarray(g.percentiles, dtype=float),
        poison_fraction=_single_fraction(spec), n_repeats=g.n_repeats,
        engine=engine, progress=progress)
    return result_to_payload(result)


def _run_grid(spec, ctx, engine, progress):
    from repro.experiments.results import result_to_payload

    g = spec.grid
    if not g.defenses or not g.attacks:
        raise ValueError("grid studies need non-empty defenses and attacks")
    result = drivers.grid_study(
        ctx, list(g.defenses), list(g.attacks), victims=list(g.victims),
        fractions=list(g.fractions), n_repeats=g.n_repeats, engine=engine,
        progress=progress)
    return result_to_payload(result)


_DISPATCH = {
    "figure1": _run_figure1,
    "mixed_eval": _run_mixed_eval,
    "table1": _run_table1,
    "empirical_game": _run_empirical_game,
    "cross_game": _run_cross_game,
    "multi_seed": _run_multi_seed,
    "grid": _run_grid,
}


# -- run ---------------------------------------------------------------------


def archive_path(archive_dir: str, fingerprint: str) -> str:
    """The canonical archive filename for a study fingerprint."""
    return os.path.join(archive_dir, f"study-{fingerprint}.json")


def _resolve_engine(engine, spec: StudySpec):
    from repro.engine import resolve_engine

    if engine is not None:
        return engine
    if spec.engine is not None:
        return spec.engine.build()
    return resolve_engine(None)


def run_study(
    spec: StudySpec,
    *,
    engine=None,
    progress=None,
    context=None,
    archive_dir: str | None = None,
    force: bool = False,
    resume: bool = False,
    checkpoint_every: int | None = None,
) -> StudyResult:
    """Execute a study and return its provenance-stamped result.

    Parameters
    ----------
    spec:
        The study to run (a :class:`~repro.study.spec.StudySpec`, e.g.
        from :mod:`repro.study.builders` or ``study_from_json``).
    engine:
        An :class:`~repro.engine.EvaluationEngine`; falls back to the
        spec's :class:`~repro.study.spec.EngineConfig`, then to the
        process-wide default.  Results are bit-identical whatever runs
        them — serial, process pool or the cluster backend.
    progress:
        Optional ``callback(done, total)``, fired per scenario as
        outcomes land (cache hits first).  Counts are cumulative
        across the study's engine batches, and a resumed run's
        checkpointed rounds land first as cache hits — so after a
        ``resume=True`` restart ``done`` immediately reflects the
        checkpointed progress instead of restarting from zero.
    context:
        A live :class:`~repro.experiments.runner.ExperimentContext`
        for specs built with ``context=None`` — required then, and
        only accepted then (a spec that names its own ContextSpec
        refuses an override).  The study fingerprint covers the live
        context's content hash.
    archive_dir:
        Directory of study archives.  When the study's fingerprint is
        already archived there the stored result is returned without
        running anything (``force=True`` re-runs and overwrites);
        otherwise the fresh result is written there on completion.
    resume:
        Load this study's checkpoint (if any) from ``archive_dir`` and
        warm the engine cache with its completed rounds before running,
        so a killed run recomputes nothing it already finished.
        Requires ``archive_dir``.
    checkpoint_every:
        Flush completed scenario rows to an atomic
        ``checkpoint-<fingerprint>.json`` beside the archive every N
        new rows (``None`` reads ``REPRO_STUDY_CHECKPOINT_EVERY``,
        default 16; ``0`` disables checkpointing).  Only active with
        ``archive_dir`` — the checkpoint lives where the archive will.
        The checkpoint is deleted once the archive is written.

    When telemetry is enabled (:func:`repro.telemetry.configure` or
    ``REPRO_TELEMETRY_DIR``) the result's ``extras["telemetry"]``
    carries a schema-versioned summary of the run's counters and
    per-stage timings.  The key is absent when telemetry is off, and
    the study fingerprint never covers it — archived results stay
    bit-identical either way.
    """
    started = time.perf_counter()
    tel_since = telemetry.snapshot() if telemetry.enabled() else None
    if spec.kind not in _DISPATCH:
        raise ValueError(f"unknown study kind {spec.kind!r}")

    if spec.kind == "multi_seed":
        if context is not None:
            raise ValueError(
                "multi_seed studies build their own contexts; a context "
                "override is not supported")
        ctx = None
        fingerprint = spec.fingerprint()
    else:
        if context is not None:
            if spec.context is not None:
                # A live override on a spec that names its own context
                # would run one setting but archive under the other's
                # fingerprint — refuse rather than mis-file results.
                raise ValueError(
                    "this StudySpec names its own ContextSpec; a live "
                    "context override is only accepted for specs built "
                    "with context=None")
            ctx = context
            fingerprint = spec.fingerprint(
                context_fingerprint=ctx.fingerprint())
        elif spec.context is not None:
            ctx = spec.context.materialize()
            fingerprint = spec.fingerprint()
        else:
            raise ValueError(
                "this StudySpec has no ContextSpec; pass context= (a live "
                "ExperimentContext)")

    if archive_dir is not None and not force:
        path = archive_path(archive_dir, fingerprint)
        if os.path.exists(path):
            from repro.study.result import study_result_from_json

            return study_result_from_json(path)

    if resume and archive_dir is None:
        raise ValueError("resume=True needs archive_dir= — checkpoints "
                         "live beside the archive")
    engine = _resolve_engine(engine, spec)

    checkpointer = None
    resumed_rows: list[dict] = []
    if archive_dir is not None:
        every = checkpoint_every if checkpoint_every is not None else \
            env_int("REPRO_STUDY_CHECKPOINT_EVERY", 16, lo=0, hi=100000)
        if resume:
            resumed_rows = load_checkpoint(archive_dir, fingerprint)
        if resumed_rows:
            cache = getattr(engine, "cache", None)
            if cache is None:
                warnings.warn(
                    f"resume: checkpoint holds {len(resumed_rows)} "
                    f"completed rounds but the engine has no cache to "
                    f"warm; they will be recomputed", stacklevel=2)
                resumed_rows = []
            else:
                from repro.engine.cache import outcome_from_dict

                for row in resumed_rows:
                    cache.put(row["key"],
                              outcome_from_dict(row["outcome"]))
        if every:
            checkpointer = StudyCheckpointer(archive_dir, fingerprint,
                                             every=every)
            # Seeding with the resumed rows means a second crash can
            # never regress the checkpoint below this one's progress.
            checkpointer.seed(resumed_rows)

    on_record = (lambda rec: checkpointer.note(_scenario_row(rec))) \
        if checkpointer is not None else None
    recorder = _RecordingEngine(engine, on_record=on_record)
    batches_before = len(engine.batch_log)

    try:
        with telemetry.trace_span("study", kind=spec.kind):
            payload = _DISPATCH[spec.kind](spec, ctx, recorder, progress)
    except BaseException:
        # An aborted study (cancellation raised from the progress
        # callback, SIGTERM unwinding, a crash) keeps every completed
        # round: flush the rows noted since the last cadence write, so
        # a resume recomputes nothing that already finished.
        if checkpointer is not None and checkpointer.unflushed:
            checkpointer.flush()
        raise

    batches = [dict(b) for b in engine.batch_log[batches_before:]]
    scenarios = _scenario_records(recorder.records)
    context_fingerprints = []
    for row in scenarios:
        if row["context"] not in context_fingerprints:
            context_fingerprints.append(row["context"])

    result = StudyResult(
        kind=spec.kind,
        study=spec.to_obj(),
        study_fingerprint=fingerprint,
        context_fingerprints=context_fingerprints,
        cache_schema_version=cache_schema_version(),
        engine_stats={"backend": engine.backend.name, "batches": batches},
        scenarios=scenarios,
        payload=payload,
        n_rounds=sum(b["n_specs"] for b in batches),
        n_unique=len(scenarios),
        cache_hits=sum(b["cache_hits"] for b in batches),
        rounds_computed=sum(b["computed"] for b in batches),
        wall_time_seconds=time.perf_counter() - started,
        created_at=utc_timestamp(),
    )
    if resumed_rows:
        result.extras["resumed_scenarios"] = len(resumed_rows)
    if tel_since is not None:
        result.extras["telemetry"] = telemetry.summary(since=tel_since)

    if getattr(engine, "cache", None) is not None:
        engine.cache.annotate_study(fingerprint)
    if archive_dir is not None:
        os.makedirs(archive_dir, exist_ok=True)
        result.to_json(archive_path(archive_dir, fingerprint))
        if checkpointer is not None:
            checkpointer.discard()
    return result


# -- describe ----------------------------------------------------------------


@dataclass
class PhaseDescription:
    """One engine batch of a study, as the dry run predicts it.

    ``rounds`` holds the exact :class:`~repro.engine.RoundSpec` batch
    for statically-enumerable phases and ``None`` for dynamic ones
    (table1's mixed evaluations, whose supports Algorithm 1 chooses at
    run time); ``n_rounds`` is exact either way.
    """

    label: str
    n_rounds: int
    rounds: list | None = None
    context_seed: int | None = None
    n_unique: int | None = None
    predicted_cache_hits: int | None = None


@dataclass
class StudyDescription:
    """What a study *would* run — counts first, keys when probeable.

    ``n_rounds`` (total specs) and per-phase counts are always exact.
    ``n_unique``/``predicted_cache_hits`` are exact whenever every
    phase is statically enumerable (``exact=True``); prediction
    additionally needs an engine whose cache to probe, and modelling
    of batch sequencing (a later phase's repeat of an earlier phase's
    round predicts as a hit even on a cold cache).
    """

    kind: str
    fingerprint: str | None
    phases: list = field(default_factory=list)
    n_rounds: int = 0
    n_unique: int | None = None
    predicted_cache_hits: int | None = None
    exact: bool = True
    grid_lines: list = field(default_factory=list)


def _expand_phases(spec: StudySpec,
                   base_seed: int) -> list[PhaseDescription]:
    g = spec.grid
    phases: list[PhaseDescription] = []

    def static(label, rounds, *, seed=base_seed):
        phases.append(PhaseDescription(
            label=label, n_rounds=len(rounds), rounds=rounds,
            context_seed=seed))

    # The same axis validation run_study applies: a dry run must refuse
    # exactly the specs the real run would refuse, not plan around them.
    if spec.kind in ("figure1", "mixed_eval", "table1", "empirical_game",
                     "cross_game"):
        _single_victim(spec)
    if spec.kind in ("mixed_eval", "table1", "empirical_game",
                     "cross_game", "multi_seed"):
        _single_fraction(spec)
    if spec.kind in ("cross_game", "grid") and \
            (not g.defenses or not g.attacks):
        raise ValueError(
            f"{spec.kind} studies need non-empty defenses and attacks")
    if spec.kind == "mixed_eval" and \
            spec.solver_param("probabilities") is None:
        raise ValueError('mixed_eval studies need solver "probabilities"')

    if spec.kind == "figure1":
        for fraction in g.fractions:
            label = f"sweep(fraction={fraction:g})" \
                if len(g.fractions) > 1 else "sweep"
            static(label, drivers.sweep_rounds(
                base_seed, g.percentiles, fraction, g.n_repeats, g.victim,
                g.defense_kind, g.defense_params))
    elif spec.kind == "mixed_eval":
        static("mixed evaluation", drivers.support_rounds(
            base_seed, g.percentiles, g.fraction, g.n_repeats, "mixed",
            g.victim))
    elif spec.kind == "table1":
        static("sweep", drivers.sweep_rounds(
            base_seed, g.percentiles, g.fraction, g.n_repeats, g.victim))
        for n in spec.solver_param("n_radii", (2, 3)):
            phases.append(PhaseDescription(
                label=f"mixed evaluation (n={n})",
                n_rounds=int(n) * int(n) * g.n_repeats))
    elif spec.kind == "empirical_game":
        static("game matrix", drivers.support_rounds(
            base_seed, g.percentiles, g.fraction, g.n_repeats, "empirical",
            g.victim, g.defense_kind, g.defense_params))
    elif spec.kind == "cross_game":
        static("game matrix", drivers.cross_rounds(
            base_seed, list(g.defenses), list(g.attacks), g.fraction,
            g.n_repeats, g.victim))
    elif spec.kind == "multi_seed":
        n_seeds = int(spec.solver_param("n_seeds", 5))
        study_base = int(spec.solver_param("base_seed", 0))
        for k in range(n_seeds):
            seed = derive_seed(study_base, "multi-seed", k)
            static(f"sweep(seed {k})", drivers.sweep_rounds(
                seed, g.percentiles, g.fraction, g.n_repeats, None),
                seed=seed)
    elif spec.kind == "grid":
        static("grid", drivers.grid_rounds(
            base_seed, list(g.defenses), list(g.attacks), list(g.victims),
            list(g.fractions), g.n_repeats))
    else:
        raise ValueError(f"unknown study kind {spec.kind!r}")
    return phases


def _grid_lines(spec: StudySpec) -> list[str]:
    g = spec.grid
    lines = []
    if spec.context is not None:
        c = spec.context
        size = "full" if c.n_samples is None else str(c.n_samples)
        lines.append(f"context:    {c.name} (seed {c.seed}, n_samples {size})")
    else:
        lines.append("context:    (caller-supplied)")
    if g.percentiles:
        lines.append("percentiles: " +
                     ", ".join(f"{p:g}" for p in g.percentiles))
    if g.defenses:
        lines.append("defenses:   " + ", ".join(
            "none" if d is None else d.describe() for d in g.defenses))
    if g.defense_kind != "radius" or g.defense_params:
        lines.append(f"defense axis: {g.defense_kind} "
                     f"{dict(g.defense_params) or ''}".rstrip())
    if g.attacks:
        lines.append("attacks:    " + ", ".join(
            "clean" if a is None else a.describe() for a in g.attacks))
    lines.append("victims:    " + ", ".join(
        "context" if v is None else v.describe() for v in g.victims))
    lines.append("fractions:  " + ", ".join(f"{f:g}" for f in g.fractions))
    lines.append(f"repeats:    {g.n_repeats}")
    if spec.solver:
        lines.append(f"solver:     {dict(spec.solver)}")
    return lines


def describe_study(
    spec: StudySpec,
    *,
    engine=None,
    context=None,
) -> StudyDescription:
    """Expand a study without running it: grid, round counts, cache hits.

    With ``engine`` (whose cache is probed through the side-effect-free
    :meth:`~repro.engine.ResultCache.contains`), the prediction is
    exact for statically-enumerable studies: a subsequent
    :func:`run_study` on the same engine will report exactly the
    predicted specs/unique/cache-hit counts in its batch telemetry.
    ``context`` supplies the live context for specs built with
    ``context=None`` — like :func:`run_study`, it is consulted only
    then; a spec that names its own ContextSpec is materialised from
    the spec (one dataset load; ``n_seeds`` loads for ``multi_seed``),
    which still runs no rounds.
    """
    if spec.context is not None:
        base_seed = spec.context.seed
    elif context is not None:
        base_seed = context.seed
    else:
        raise ValueError(
            "this StudySpec has no ContextSpec; pass context= (round seeds "
            "derive from the context's base seed)")
    phases = _expand_phases(spec, base_seed)
    exact = all(p.rounds is not None for p in phases)
    fingerprint = None
    try:
        fingerprint = spec.fingerprint(
            context_fingerprint=(context.fingerprint()
                                 if context is not None else None))
    except ValueError:
        pass

    cache = getattr(engine, "cache", None) if engine is not None else None
    need_keys = cache is not None
    contexts: dict[int, object] = {}

    def context_for(phase):
        # The live override stands in only for specs without their own
        # ContextSpec — mirroring run_study, which refuses the
        # ambiguous combination outright.
        if spec.context is None:
            return context
        if phase.context_seed not in contexts:
            contexts[phase.context_seed] = spec.context.materialize(
                seed=(phase.context_seed
                      if spec.kind == "multi_seed" else None))
        return contexts[phase.context_seed]

    n_unique_total: int | None = 0
    predicted_total: int | None = 0
    will_have: set[str] = set()
    seen_rounds: set[tuple] = set()  # (context seed, canonical) study-wide
    for phase in phases:
        if phase.rounds is None:
            n_unique_total = None
            predicted_total = None
            continue
        # Unique rounds: canonical-spec dedupe within the phase (one
        # engine batch — this matches the batch's n_unique telemetry);
        # the study-wide total additionally dedupes across phases, so a
        # multi-fraction sweep's shared clean rounds count once, like
        # the run artifact's unique-scenario count.  Exact without any
        # context materialisation.
        canon = []
        seen = set()
        for r in phase.rounds:
            c = r.canonical()
            if c not in seen:
                seen.add(c)
                canon.append(r)
            if n_unique_total is not None and \
                    (phase.context_seed, c) not in seen_rounds:
                seen_rounds.add((phase.context_seed, c))
                n_unique_total += 1
        phase.n_unique = len(canon)
        if not need_keys:
            continue
        ctx = context_for(phase)
        if ctx is None:
            predicted_total = None
            continue
        fp = ctx.fingerprint()
        hits = 0
        for r in canon:
            key = round_key(fp, r)
            if key in will_have or cache.contains(key):
                hits += 1
            will_have.add(key)
        phase.predicted_cache_hits = hits
        if predicted_total is not None:
            predicted_total += hits

    return StudyDescription(
        kind=spec.kind,
        fingerprint=fingerprint,
        phases=phases,
        n_rounds=sum(p.n_rounds for p in phases),
        n_unique=n_unique_total,
        predicted_cache_hits=predicted_total if need_keys else None,
        exact=exact,
        grid_lines=_grid_lines(spec),
    )
