"""Round-kernel hot-path benchmark: the uncached round, stage by stage.

Where :mod:`bench_engine` quantifies what the cache saves on *repeated*
rounds, this file quantifies what the round kernel saves on the *first*
evaluation of every round — the cost that dominates fresh sweeps, new
seeds and CI:

* **per stage** — attack / filter / victim-fit timings for the kernel
  path against a faithful reconstruction of the pre-kernel path
  (per-round surrogate refit, clean-geometry recomputation, the seed
  Pegasos trainer with its always-on per-epoch objective, the
  contaminated-set filter centroid);
* **end to end** — an uncached pure-strategy sweep (serial backend)
  against the verbatim pre-PR round loop, plus the same sweep on the
  process backend asserted **bit-identical** to serial.

Speedup floors (asserted; measured values land in the JSON):

* the attack stage drops a whole surrogate fit plus the clean-data
  geometry -> ``>= 5x`` (measured: 30-170x);
* an uncached attacked round -> ``>= 2x`` (measured: ~2.7-3.5x);
* the victim fit (fast Pegasos path, objective trace off) ->
  ``>= 1.1x`` (measured: ~1.4-1.8x);
* the full mixed sweep -> ``>= 1.7x`` (measured: ~2.1-2.5x).  The mixed
  sweep is capped below the attacked-round ratio by its clean rounds,
  which are almost pure victim training: the trainer must reproduce
  the seed trainer bit for bit, so its speedup is bounded by
  interpreter overhead alone and the clean-round ratio cannot reach
  the attacked-round ratio.

Results are written as machine-readable JSON to ``BENCH_hotpath.json``
(override with ``REPRO_BENCH_JSON``) so the perf trajectory is tracked
across PRs; CI uploads the file as an artifact.
"""

import copy
import json
import os
import time
from contextlib import contextmanager

import numpy as np

from repro.attacks.base import poison_dataset
from repro.attacks.optimal_boundary import OptimalBoundaryAttack
from repro.defenses.base import defense_report
from repro.defenses.radius_filter import RadiusFilter
from repro.engine import (AttackSpec, EvaluationBackend, EvaluationEngine,
                          RoundSpec, execute_round)
from repro.experiments.runner import EvaluationOutcome
from repro.ml.base import signed_labels
from repro.ml.linear_svm import LinearSVM
from repro.ml.metrics import hinge_loss
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_X_y, check_fraction

# Conservative floors: measured ratios run well above these (see the
# module docstring), but CI shares noisy hardware and a required job
# must not flap; BENCH_hotpath.json records the actual values.
ATTACK_STAGE_FLOOR = 5.0
FIT_FLOOR = 1.1
ATTACKED_ROUND_FLOOR = 2.0
# Raised from 1.6 after PR 6: the batched-fit dispatch lifts the
# measured sweep ratio to ~2.2x, but the legacy leg only runs once per
# bench so the floor keeps generous noise headroom.
SWEEP_FLOOR = 1.7
# PR 6 batched-fit floors.  At the engine's grid scale fits are
# dispatch-bound and B-way lockstep training wins big (measured:
# 4.0-4.5x at B=32); at paper scale one training matrix is L2-resident
# and the stacked step is memory-bound — the gathered (B, batch, d)
# block is written once and re-read by the score and gradient kernels,
# all at memcpy speed — so the honest ceiling is far lower (measured:
# 1.7-2.1x with the shared-prefix gather).
FIT_MANY_FLOOR = 3.0
FIT_MANY_PAPER_FLOOR = 1.25
# Ragged lockstep at grid scale: B=32 problems of 32 different row
# counts train as one group, each with its own step counter and tail
# (measured: 2.5-3.9x on a 2-CPU host; the floor keeps CI headroom).
FIT_MANY_RAGGED_FLOOR = 1.8
# Whole uncached repeat sweep, batched fits vs a backend that runs
# each round through execute_round (pre-PR-6 execution, stage for
# stage).
# Asserted at the grid scale study repeats actually run at (measured:
# ~2.3x); the paper-scale sweep inherits the memory-bound fit ceiling
# (measured: ~1.3-1.4x) and carries its own conservative floor.
SWEEP_BATCH_FLOOR = 1.5
SWEEP_BATCH_PAPER_FLOOR = 1.2
# RONI stacked-ridge fast path: the per-candidate gram matmul is
# irreducible under bit-identity, so the ratio is scale-dependent —
# asserted at grid scale (measured: ~6-18x), recorded at paper scale
# (~1x, compute-bound).
RONI_FAST_FLOOR = 3.0
# PR 8 cache-aware cluster scheduling: a warm-fleet re-sweep from a
# *cold client* answers every round from the shards' disk tiers —
# zero recompute (asserted exactly via shard telemetry), so the warm
# pass is bounded by round trips and JSON reads, not training
# (measured: ~5-15x at grid scale; floor keeps CI headroom).
CLUSTER_LOCALITY_FLOOR = 3.0
SWEEP_PERCENTILES = np.array([0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50])


# -- the pre-PR reference, reconstructed verbatim ---------------------------


def legacy_svm_fit(self, X, y):
    """The seed Pegasos trainer, kept verbatim: per-epoch RNG draws,
    fancy indexing per mini-batch, fresh arrays per step, two
    ``np.any`` calls, and the full-data objective every epoch.
    Patched over ``LinearSVM.fit`` to time the pre-PR baseline
    honestly."""
    X, y = check_X_y(X, y)
    y_signed = signed_labels(y).astype(float)
    n, d = X.shape
    rng = as_generator(self.seed)

    w = np.zeros(d)
    b = 0.0
    w_sum = np.zeros(d)
    b_sum = 0.0
    n_averaged = 0
    self.objective_trace_ = []

    t = 0
    prev_obj = np.inf
    averaging_starts = max(1, self.epochs // 2)
    for epoch in range(self.epochs):
        order = rng.permutation(n)
        for start in range(0, n, self.batch_size):
            t += 1
            batch = order[start : start + self.batch_size]
            Xb, yb = X[batch], y_signed[batch]
            margins = yb * (Xb @ w + b)
            active = margins < 1.0
            eta = 1.0 / (self.reg * t)
            grad_w = self.reg * w
            if np.any(active):
                grad_w = grad_w - (yb[active, None] * Xb[active]).sum(axis=0) / len(batch)
            w = w - eta * grad_w
            if self.fit_intercept and np.any(active):
                b = b + eta * yb[active].sum() / len(batch)
            norm = np.linalg.norm(w)
            radius = 1.0 / np.sqrt(self.reg)
            if norm > radius:
                w = w * (radius / norm)
            if self.average and epoch >= averaging_starts:
                w_sum += w
                b_sum += b
                n_averaged += 1

        obj = 0.5 * self.reg * float(w @ w) + hinge_loss(y_signed, X @ w + b)
        self.objective_trace_.append(obj)
        if self.tol is not None and abs(prev_obj - obj) < self.tol:
            break
        prev_obj = obj

    if self.average and n_averaged > 0:
        self.coef_ = w_sum / n_averaged
        self.intercept_ = float(b_sum / n_averaged)
    else:
        self.coef_ = w
        self.intercept_ = float(b)
    return self


@contextmanager
def legacy_trainer():
    original = LinearSVM.fit
    LinearSVM.fit = legacy_svm_fit
    try:
        yield
    finally:
        LinearSVM.fit = original


def legacy_attack(ctx, percentile):
    """The pre-PR attack: no precomputed geometry, surrogate refit per
    ``generate()`` call."""
    return OptimalBoundaryAttack(
        target_percentile=float(percentile),
        surrogate=ctx.attack_surrogate(),
        centroid_method=ctx.centroid_method,
    )


def legacy_round(ctx, *, filter_percentile=None, attack=None,
                 poison_fraction=0.2, seed=None):
    """The pre-PR ``evaluate_configuration``, verbatim: fresh attack
    geometry and surrogate fit per round, filter centroid re-estimated
    from the (possibly contaminated) training set.  Combine with
    :func:`legacy_trainer` for the full pre-PR cost."""
    round_seed = ctx.seed if seed is None else seed
    rng = as_generator(derive_seed(round_seed, "round"))
    X_tr, y_tr = ctx.X_train, ctx.y_train

    is_poison = np.zeros(X_tr.shape[0], dtype=bool)
    n_poison = 0
    if attack is not None:
        check_fraction(poison_fraction, name="poison_fraction", inclusive_high=False)
        X_tr, y_tr, is_poison = poison_dataset(
            ctx.X_train, ctx.y_train, attack, fraction=poison_fraction, seed=rng
        )
        n_poison = int(is_poison.sum())

    report = None
    filter_radius = None
    n_removed = 0
    if filter_percentile is not None and filter_percentile > 0.0:
        filter_radius = ctx.radius_map.radius(filter_percentile)
        defense = RadiusFilter(filter_radius, centroid_method=ctx.centroid_method)
        keep = defense.mask(X_tr, y_tr)
        report = defense_report(keep, is_poison)
        n_removed = int((~keep).sum())
        X_tr, y_tr = X_tr[keep], y_tr[keep]

    model = ctx.model_factory(derive_seed(round_seed, "model"))
    model.fit(X_tr, y_tr)
    accuracy = model.score(ctx.X_test, ctx.y_test)
    return EvaluationOutcome(
        accuracy=float(accuracy), n_poison=n_poison, n_removed=n_removed,
        filter_percentile=filter_percentile, filter_radius=filter_radius,
        report=report,
    )


def legacy_sweep(ctx, percentiles, poison_fraction=0.2):
    """The pre-PR pure-strategy sweep: legacy trainer, legacy rounds,
    per-round surrogate refits — the pre-kernel code path, stage for
    stage."""
    outcomes = []
    with legacy_trainer():
        for i, p in enumerate(percentiles):
            seed = derive_seed(ctx.seed, "sweep", i, 0)
            outcomes.append(legacy_round(
                ctx, filter_percentile=float(p), attack=None,
                poison_fraction=poison_fraction, seed=seed))
            outcomes.append(legacy_round(
                ctx, filter_percentile=float(p), attack=legacy_attack(ctx, p),
                poison_fraction=poison_fraction, seed=seed))
    return outcomes


def sweep_specs(ctx, percentiles, poison_fraction=0.2, n_repeats=1):
    specs = []
    for i, p in enumerate(percentiles):
        for r in range(n_repeats):
            seed = derive_seed(ctx.seed, "sweep", i, r)
            specs.append(RoundSpec(filter_percentile=float(p), attack=None,
                                   poison_fraction=poison_fraction, seed=seed))
            specs.append(RoundSpec(filter_percentile=float(p),
                                   attack=AttackSpec("boundary", float(p)),
                                   poison_fraction=poison_fraction, seed=seed))
    return specs


def fresh(ctx):
    """A copy of ``ctx`` with the kernel/fingerprint caches dropped, so
    every timed run pays (and amortises) its own one-time costs."""
    c = copy.copy(ctx)
    c.__dict__.pop("_kernel", None)
    c.__dict__.pop("_fingerprint", None)
    return c


def best_of(fn, repeats=3):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def write_results(payload):
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_hotpath.json")
    merged = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                merged = json.load(fh)
        except (OSError, json.JSONDecodeError):
            merged = {}
    merged.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_stage_timings(spambase_ctx):
    """Attack / filter / fit / round, kernel path vs pre-PR path."""
    ctx = fresh(spambase_ctx)
    n_poison = max(1, ctx.n_train // 16)
    seed = 123
    victim = ctx.model_factory(derive_seed(seed, "model"))

    # attack stage: poison placement on the clean data
    kernel_attack = ctx.boundary_attack(0.1)
    kernel_attack.generate(ctx.X_train, ctx.y_train, n_poison, seed=seed)  # warm
    attack_s, _ = best_of(
        lambda: kernel_attack.generate(ctx.X_train, ctx.y_train, n_poison, seed=seed))
    with legacy_trainer():
        legacy_attack_s, _ = best_of(
            lambda: legacy_attack(ctx, 0.1).generate(
                ctx.X_train, ctx.y_train, n_poison, seed=seed))

    # filter stage: keep-mask over a poisoned mixture
    X_mix, y_mix, is_poison, sources = poison_dataset(
        ctx.X_train, ctx.y_train, kernel_attack, fraction=0.2, seed=seed,
        return_sources=True)
    kernel = ctx.kernel()
    radius = kernel.filter_radius(0.1)
    filter_s, _ = best_of(
        lambda: kernel.keep_mask(X_mix, y_mix, is_poison, sources, radius))
    legacy_filter_s, _ = best_of(
        lambda: RadiusFilter(radius, centroid_method=ctx.centroid_method)
        .mask(X_mix, y_mix))

    # victim fit stage
    fit_s, _ = best_of(lambda: victim.fit(X_mix, y_mix))
    with legacy_trainer():
        legacy_fit_s, _ = best_of(lambda: victim.fit(X_mix, y_mix))

    # one whole uncached attacked round
    spec = RoundSpec(filter_percentile=0.1, attack=AttackSpec("boundary", 0.1),
                     poison_fraction=0.2, seed=seed)
    engine = EvaluationEngine("serial", cache=False)
    round_s, round_out = best_of(lambda: engine.evaluate(ctx, spec))
    with legacy_trainer():
        legacy_round_s, _ = best_of(lambda: legacy_round(
            ctx, filter_percentile=0.1, attack=legacy_attack(ctx, 0.1),
            poison_fraction=0.2, seed=seed))

    stages = {
        "attack_seconds": attack_s,
        "filter_seconds": filter_s,
        "fit_seconds": fit_s,
        "round_total_seconds": round_s,
        "legacy_attack_seconds": legacy_attack_s,
        "legacy_filter_seconds": legacy_filter_s,
        "legacy_fit_seconds": legacy_fit_s,
        "legacy_round_total_seconds": legacy_round_s,
    }
    path = write_results({
        "context": {
            "dataset": ctx.dataset_name,
            "n_train": ctx.n_train,
            "n_features": int(ctx.X_train.shape[1]),
        },
        "stages": stages,
    })

    print()
    for name in ("attack", "filter", "fit", "round_total"):
        new = stages[f"{name}_seconds"]
        old = stages[f"legacy_{name}_seconds"]
        print(f"{name:>12}: {old * 1e3:8.2f} ms -> {new * 1e3:8.2f} ms "
              f"({old / new:5.1f}x)")
    print(f"stage timings written to {path}")

    assert round_out.n_poison > 0  # the timed round really attacked
    assert legacy_attack_s / attack_s >= ATTACK_STAGE_FLOOR
    assert legacy_fit_s / fit_s >= FIT_FLOOR
    assert legacy_round_s / round_s >= ATTACKED_ROUND_FLOOR


def test_defense_stage_timings(spambase_ctx):
    """Every registered defence kind's mask on the paper-scale mixture.

    No floors — the families span three orders of magnitude by design
    (a quantile filter vs RONI's retrain loop); the value of this
    section is the recorded trajectory in ``BENCH_hotpath.json``, which
    makes a regression in any one family visible across PRs.
    """
    from repro.engine import (DefenseSpec, materialize_defense,
                              registered_defense_kinds)
    from repro.utils.rng import derive_seed as _derive

    ctx = fresh(spambase_ctx)
    attack = ctx.boundary_attack(0.1)
    X_mix, y_mix, _, _ = poison_dataset(
        ctx.X_train, ctx.y_train, attack, fraction=0.2, seed=123,
        return_sources=True)

    spec_overrides = {
        # Keep the families comparable on one strength axis where one
        # exists; parameterise the rest at their defaults.
        "radius": DefenseSpec("radius", 0.1, params={"centroid": "clean"}),
        "percentile_filter": DefenseSpec("percentile_filter", 0.1),
        "slab_filter": DefenseSpec("slab_filter", 0.1),
        "loss_filter": DefenseSpec("loss_filter", 0.1),
        "pca_detector": DefenseSpec("pca_detector", 0.1),
        "certified": DefenseSpec("certified", 0.1),
        "mixed_defense": DefenseSpec(
            "mixed_defense", params={"percentiles": (0.05, 0.2),
                                     "probabilities": (0.5, 0.5)}),
    }

    timings = {}
    print()
    for kind in registered_defense_kinds():
        dspec = spec_overrides.get(kind, DefenseSpec(kind))
        defense = materialize_defense(ctx, dspec,
                                      seed=_derive(123, "defense"))
        # RONI retrains per candidate batch; one repeat is plenty.
        repeats = 1 if kind in ("roni", "certified") else 3
        seconds, keep = best_of(lambda: defense.mask(X_mix, y_mix),
                                repeats=repeats)
        timings[kind] = seconds
        n_removed = int((~np.asarray(keep, dtype=bool)).sum())
        print(f"{kind:>18}: {seconds * 1e3:9.2f} ms  (removed {n_removed})")
        assert keep.shape == (X_mix.shape[0],)

    path = write_results({"defense_stages": timings})
    print(f"defense stage timings written to {path}")


def test_fit_many_speedup(spambase_ctx):
    """B-way batched victim training vs B sequential fits (PR 6).

    Grid scale (the study grids' repeat axis, where fits are pure
    dispatch) carries the asserted ``>= 3x`` floor; the ragged grid
    case (one group of 32 different row counts) carries its own; the
    paper-scale shared-dataset case — the engine's multi-seed repeat —
    is memory-bound and is asserted against its own honest floor.
    Every path must agree bit for bit before any timing counts.
    """
    from repro.data.synthetic import make_gaussian_blobs

    def bench_case(models_factory, datasets, repeats):
        seq_s, seq_models = best_of(
            lambda: [m.fit(X, y) for m, (X, y) in
                     zip(models_factory(), datasets)], repeats=repeats)
        many_s, many_models = best_of(
            lambda: LinearSVM.fit_many(models_factory(), datasets),
            repeats=repeats)
        for got, want in zip(many_models, seq_models):
            assert got.coef_.tobytes() == want.coef_.tobytes()
            assert got.intercept_ == want.intercept_
        return seq_s, many_s

    # Grid scale: B=32 distinct problems, the shape of a study's
    # repeat/seed axis after materialisation.
    b_grid = 32
    grid_datasets = [make_gaussian_blobs(n_samples=260, n_features=4,
                                         separation=1.5, seed=11 + i)
                     for i in range(b_grid)]
    grid_models = lambda: [LinearSVM(reg=1e-4, epochs=20, batch_size=64,
                                     seed=100 + i) for i in range(b_grid)]
    grid_seq_s, grid_many_s = bench_case(grid_models, grid_datasets, repeats=3)

    # Ragged grid scale: the same B=32 and shape, but 32 different row
    # counts (3 to 6 steps per epoch, every tail distinct) — the group a
    # fit window of mixed defences and poison fractions trains.
    ragged_datasets = [make_gaussian_blobs(n_samples=180 + 5 * i,
                                           n_features=4, separation=1.5,
                                           seed=11 + i)
                       for i in range(b_grid)]
    ragged_seq_s, ragged_many_s = bench_case(grid_models, ragged_datasets,
                                             repeats=3)

    # Paper scale: B=8 rounds on one shared training matrix (the
    # multi-seed repeat case execute_rounds actually groups).
    ctx = fresh(spambase_ctx)
    b_paper = 8
    paper_datasets = [(ctx.X_train, ctx.y_train)] * b_paper
    paper_models = lambda: [ctx.model_factory(derive_seed(s, "model"))
                            for s in range(b_paper)]
    paper_seq_s, paper_many_s = bench_case(paper_models, paper_datasets,
                                           repeats=2)

    grid_speedup = grid_seq_s / grid_many_s
    ragged_speedup = ragged_seq_s / ragged_many_s
    paper_speedup = paper_seq_s / paper_many_s
    path = write_results({
        "fit_many": {
            "grid_b": b_grid,
            "grid_sequential_seconds": grid_seq_s,
            "grid_batched_seconds": grid_many_s,
            "grid_speedup": grid_speedup,
            "ragged_sequential_seconds": ragged_seq_s,
            "ragged_batched_seconds": ragged_many_s,
            "ragged_speedup": ragged_speedup,
            "paper_b": b_paper,
            "paper_sequential_seconds": paper_seq_s,
            "paper_batched_seconds": paper_many_s,
            "paper_speedup": paper_speedup,
        },
    })

    print()
    print(f"fit_many grid  (B={b_grid}): {grid_seq_s * 1e3:8.1f} ms -> "
          f"{grid_many_s * 1e3:8.1f} ms ({grid_speedup:.1f}x)")
    print(f"fit_many ragged (B={b_grid}): {ragged_seq_s * 1e3:7.1f} ms -> "
          f"{ragged_many_s * 1e3:8.1f} ms ({ragged_speedup:.1f}x)")
    print(f"fit_many paper (B={b_paper}): {paper_seq_s * 1e3:8.1f} ms -> "
          f"{paper_many_s * 1e3:8.1f} ms ({paper_speedup:.1f}x)")
    print(f"fit_many timings written to {path}")

    assert grid_speedup >= FIT_MANY_FLOOR
    assert ragged_speedup >= FIT_MANY_RAGGED_FLOOR
    assert paper_speedup >= FIT_MANY_PAPER_FLOOR


class PerRoundBackend(EvaluationBackend):
    """The unbatched reference: one ``execute_round`` per spec."""

    name = "per-round"

    def run_iter(self, ctx, specs):
        for index, spec in enumerate(specs):
            yield index, execute_round(ctx, spec)


def test_batched_sweep_vs_unbatched(spambase_ctx):
    """The whole uncached repeat sweep, batched fits on vs off.

    :class:`PerRoundBackend` runs the identical rounds minus the
    fit_many dispatch — i.e. pre-PR-6 execution, stage for stage — so
    this ratio isolates what round batching buys end to end.  Measured
    at both the grid scale study repeats run at (dispatch-bound fits,
    the asserted ``>= 1.5x``) and paper scale (memory-bound fits, its
    own conservative floor).  Outcomes must be equal on both before
    the timings count.
    """
    from repro.experiments.runner import make_synthetic_context

    def ab_sweep(ctx, repeats):
        """Interleaved off/on timings (min of ``repeats`` each)."""
        specs = sweep_specs(ctx, SWEEP_PERCENTILES, n_repeats=8)

        timings = {"off": np.inf, "on": np.inf}
        outcomes = {}
        for _ in range(repeats):
            for key, backend in (("off", PerRoundBackend()),
                                 ("on", "serial")):
                engine = EvaluationEngine(backend, cache=False)
                start = time.perf_counter()
                outcomes[key] = engine.evaluate_batch(fresh(ctx), specs)
                timings[key] = min(timings[key],
                                   time.perf_counter() - start)
        return (len(specs), timings["off"], timings["on"],
                outcomes["on"] == outcomes["off"])

    grid_ctx = make_synthetic_context(seed=0, n_samples=260, n_features=4)
    grid_n, grid_off_s, grid_on_s, grid_equal = ab_sweep(grid_ctx, repeats=3)
    paper_n, paper_off_s, paper_on_s, paper_equal = ab_sweep(
        spambase_ctx, repeats=2)

    grid_speedup = grid_off_s / grid_on_s
    paper_speedup = paper_off_s / paper_on_s
    path = write_results({
        "sweep_batched_fits": {
            "grid_n_rounds": grid_n,
            "grid_unbatched_seconds": grid_off_s,
            "grid_batched_seconds": grid_on_s,
            "grid_speedup": grid_speedup,
            "paper_n_rounds": paper_n,
            "paper_unbatched_seconds": paper_off_s,
            "paper_batched_seconds": paper_on_s,
            "paper_speedup": paper_speedup,
            "outcomes_equal": grid_equal and paper_equal,
        },
    })

    print()
    print(f"grid repeat sweep:  {grid_off_s:.3f}s -> {grid_on_s:.3f}s "
          f"(speedup {grid_speedup:.2f}x)")
    print(f"paper repeat sweep: {paper_off_s:.3f}s -> {paper_on_s:.3f}s "
          f"(speedup {paper_speedup:.2f}x)")
    print(f"batched sweep timings written to {path}")

    assert grid_equal and paper_equal  # bit-identical with fits batched
    assert grid_speedup >= SWEEP_BATCH_FLOOR
    assert paper_speedup >= SWEEP_BATCH_PAPER_FLOOR


def test_fast_path_defense_timings(spambase_ctx):
    """PR 6 defence fast paths: RONI's stacked-ridge scorer and the
    kNN sanitiser's persistent distance block, both against their
    sequential/expression forms at paper scale.

    RONI's ratio is scale-dependent (the per-candidate gram matmul is
    irreducible under bit-identity, so it dominates at paper scale
    while grid-scale rounds drop almost all their dispatch overhead):
    the grid-scale ratio carries the asserted floor, the paper-scale
    ratio is recorded floor-free.  kNN's win is peak memory, asserted
    directly.
    """
    import tracemalloc

    from repro.defenses.knn_sanitizer import KNNSanitizer
    from repro.defenses.radius_filter import ensure_class_survival
    from repro.defenses.roni import RONIDefense
    from repro.experiments.runner import make_synthetic_context

    def roni_ab(ctx, seq_repeats):
        attack = ctx.boundary_attack(0.1)
        X, y, is_poison, sources = poison_dataset(
            ctx.X_train, ctx.y_train, attack, fraction=0.2, seed=123,
            return_sources=True)
        roni = RONIDefense(seed=3)
        kernel = ctx.kernel()
        seq_s, seq_keep = best_of(lambda: roni.mask(X, y),
                                  repeats=seq_repeats)
        fast_s, fast_keep = best_of(
            lambda: roni.kernel_mask(kernel, X, y, is_poison, sources),
            repeats=3)
        assert np.array_equal(seq_keep, fast_keep)
        return seq_s, fast_s

    grid_ctx = make_synthetic_context(seed=0, n_samples=260, n_features=4)
    roni_grid_seq_s, roni_grid_fast_s = roni_ab(fresh(grid_ctx),
                                                seq_repeats=3)
    ctx = fresh(spambase_ctx)
    roni_seq_s, roni_fast_s = roni_ab(ctx, seq_repeats=1)

    attack = ctx.boundary_attack(0.1)
    X_mix, y_mix, _, _ = poison_dataset(
        ctx.X_train, ctx.y_train, attack, fraction=0.2, seed=123,
        return_sources=True)

    # kNN: persistent-block distances vs the old expression form.
    sanitizer = KNNSanitizer(k=10, chunk_size=512)

    def knn_expression_form():
        X, y = check_X_y(X_mix, y_mix)
        y_signed = signed_labels(y)
        n = X.shape[0]
        k = min(10, n - 1)
        sq_norms = np.einsum("ij,ij->i", X, X)
        keep = np.ones(n, dtype=bool)
        for start in range(0, n, 512):
            stop = min(start + 512, n)
            d2 = (sq_norms[start:stop, None]
                  - 2.0 * (X[start:stop] @ X.T)
                  + sq_norms[None, :])
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
            idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
            agree = (y_signed[idx] == y_signed[start:stop, None]).mean(axis=1)
            keep[start:stop] = agree >= 0.5
        return ensure_class_survival(keep, y)

    def peak_bytes(fn):
        tracemalloc.start()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, result

    knn_old_s, old_keep = best_of(knn_expression_form, repeats=3)
    knn_new_s, new_keep = best_of(lambda: sanitizer.mask(X_mix, y_mix),
                                  repeats=3)
    assert np.array_equal(old_keep, new_keep)
    knn_old_peak, _ = peak_bytes(knn_expression_form)
    knn_new_peak, _ = peak_bytes(lambda: sanitizer.mask(X_mix, y_mix))

    path = write_results({
        "fast_paths": {
            "roni_grid_sequential_seconds": roni_grid_seq_s,
            "roni_grid_fast_seconds": roni_grid_fast_s,
            "roni_grid_speedup": roni_grid_seq_s / roni_grid_fast_s,
            "roni_paper_sequential_seconds": roni_seq_s,
            "roni_paper_fast_seconds": roni_fast_s,
            "roni_paper_speedup": roni_seq_s / roni_fast_s,
            "knn_expression_seconds": knn_old_s,
            "knn_block_seconds": knn_new_s,
            "knn_expression_peak_bytes": int(knn_old_peak),
            "knn_block_peak_bytes": int(knn_new_peak),
        },
    })

    print()
    print(f"roni mask (grid):  {roni_grid_seq_s * 1e3:8.1f} ms -> "
          f"{roni_grid_fast_s * 1e3:8.1f} ms "
          f"({roni_grid_seq_s / roni_grid_fast_s:.1f}x)")
    print(f"roni mask (paper): {roni_seq_s * 1e3:8.1f} ms -> "
          f"{roni_fast_s * 1e3:8.1f} ms ({roni_seq_s / roni_fast_s:.1f}x)")
    print(f"knn mask:  {knn_old_s * 1e3:8.1f} ms -> {knn_new_s * 1e3:8.1f} ms"
          f"  peak {knn_old_peak / 1e6:.1f} MB -> {knn_new_peak / 1e6:.1f} MB")
    print(f"fast-path timings written to {path}")

    assert roni_grid_seq_s / roni_grid_fast_s >= RONI_FAST_FLOOR
    # The persistent block replaces the chunk-sized temporaries the
    # expression form allocated per iteration; a solid slice of the
    # transient peak must be gone (measured: ~25%).  The synthetic
    # smoke context barely overflows one 512-row chunk, so there is no
    # per-iteration churn to reclaim there — the floor only means
    # something at paper scale.
    if ctx.dataset_name.startswith("spambase"):
        assert knn_new_peak <= 0.85 * knn_old_peak


def test_uncached_sweep_speedup_and_parity(spambase_ctx):
    """An uncached pure-strategy sweep against the verbatim pre-PR
    loop (serial), with process-backend outcomes bit-identical to
    serial."""
    percentiles = SWEEP_PERCENTILES

    baseline_s, _ = best_of(
        lambda: legacy_sweep(fresh(spambase_ctx), percentiles), repeats=1)

    specs = sweep_specs(spambase_ctx, percentiles)
    serial_s, serial_outcomes = best_of(
        lambda: EvaluationEngine("serial", cache=False).evaluate_batch(
            fresh(spambase_ctx), specs),
        repeats=2)

    process_s, process_outcomes = best_of(
        lambda: EvaluationEngine("process", cache=False).evaluate_batch(
            fresh(spambase_ctx), specs),
        repeats=1)

    speedup = baseline_s / serial_s
    path = write_results({
        "sweep": {
            "n_rounds": 2 * int(percentiles.size),
            "baseline_seconds": baseline_s,
            "kernel_serial_seconds": serial_s,
            "kernel_process_seconds": process_s,
            "speedup_serial": speedup,
            "serial_equals_process": serial_outcomes == process_outcomes,
        },
    })

    print()
    print(f"pre-PR sweep (serial):  {baseline_s:.3f}s")
    print(f"kernel sweep (serial):  {serial_s:.3f}s  (speedup {speedup:.1f}x)")
    print(f"kernel sweep (process): {process_s:.3f}s")
    print(f"sweep timings written to {path}")

    assert serial_outcomes == process_outcomes  # bit-identical across backends
    assert speedup >= SWEEP_FLOOR


def test_cluster_locality(spambase_ctx):
    """Cold vs warm-fleet cluster sweep, both from a cold client.

    The fleet (two autospawned localhost shards sharing one cache-tier
    directory) is spawned *before* either timed leg, so neither pays
    process startup.  The cold leg computes every round; the warm leg
    is a brand-new client (fresh backend, engine cache off) against the
    now-warm fleet — cache-aware placement routes every round to a
    holder and the shards answer from disk, which the telemetry must
    confirm as literally zero recomputes.
    """
    import shutil
    import tempfile

    from repro import telemetry
    from repro.cluster.backend import ClusterBackend, close_local_pools, \
        shared_local_pool
    from repro.experiments.runner import make_synthetic_context

    grid_ctx = make_synthetic_context(seed=0, n_samples=260, n_features=4)
    specs = sweep_specs(grid_ctx, SWEEP_PERCENTILES, n_repeats=4)

    tier = tempfile.mkdtemp(prefix="repro-bench-shard-cache-")
    saved = os.environ.get("REPRO_SHARD_CACHE_DIR")
    os.environ["REPRO_SHARD_CACHE_DIR"] = tier
    close_local_pools()  # force a fresh spawn that inherits the tier
    try:
        shared_local_pool(grid_ctx, 2)  # spawn outside the timed legs

        # A pass's cluster counts are the diff of the client's
        # counters around it.
        def cluster_pass():
            before = telemetry.snapshot()
            backend = ClusterBackend(2)
            engine = EvaluationEngine(backend, cache=False)
            outcomes = engine.evaluate_batch(grid_ctx, specs)
            counts = telemetry.diff_snapshots(
                before, telemetry.snapshot())["counters"]
            return outcomes, {name: counts.get(f"cluster.{name}", 0)
                              for name in ("shard_cache_hits",
                                           "placed_rounds",
                                           "placement_hits",
                                           "chunks_stolen")}

        cold_s, (cold_outcomes, cold_stats) = best_of(cluster_pass,
                                                      repeats=1)
        warm_s, (warm_outcomes, warm_stats) = best_of(cluster_pass,
                                                      repeats=3)
        serial_outcomes = EvaluationEngine(
            "serial", cache=False).evaluate_batch(fresh(grid_ctx), specs)
    finally:
        close_local_pools()
        if saved is None:
            os.environ.pop("REPRO_SHARD_CACHE_DIR", None)
        else:
            os.environ["REPRO_SHARD_CACHE_DIR"] = saved
        shutil.rmtree(tier, ignore_errors=True)

    speedup = cold_s / warm_s
    path = write_results({
        "cluster_locality": {
            "n_rounds": len(specs),
            "cold_fleet_seconds": cold_s,
            "warm_fleet_seconds": warm_s,
            "speedup": speedup,
            "cold_shard_cache_hits": cold_stats["shard_cache_hits"],
            "warm_shard_cache_hits": warm_stats["shard_cache_hits"],
            "warm_placed_rounds": warm_stats["placed_rounds"],
            "warm_placement_hits": warm_stats["placement_hits"],
            "warm_placed_steals": warm_stats["chunks_stolen"],
        },
    })

    print()
    print(f"cold-fleet cluster sweep: {cold_s:.3f}s "
          f"({cold_stats['shard_cache_hits']} cache hits)")
    print(f"warm-fleet cluster sweep: {warm_s:.3f}s "
          f"({warm_stats['shard_cache_hits']} cache hits, "
          f"speedup {speedup:.1f}x)")
    print(f"cluster locality timings written to {path}")

    assert cold_outcomes == serial_outcomes
    assert warm_outcomes == serial_outcomes
    assert cold_stats["shard_cache_hits"] == 0
    # Zero recompute on the warm fleet: every unique round answered
    # from a shard's disk tier.
    assert warm_stats["shard_cache_hits"] == len(specs)
    assert warm_stats["placed_rounds"] == len(specs)
    assert speedup >= CLUSTER_LOCALITY_FLOOR
