"""Ablation benches for the design choices DESIGN.md calls out.

* centroid estimator (mean vs median vs trimmed mean) under contamination;
* poisoning-fraction sweep (5-30 %);
* equalized vs uniform vs pure defence strategies against the optimal attack;
* idealised (genuine-percentile radius) vs operational (contaminated-set
  quantile) filtering;
* attack-surrogate choice (victim-matched vs mismatched ridge).

Round-based ablations run through an explicit cache-free
:class:`~repro.engine.EvaluationEngine` (the same style as
bench_engine.py), declaring their rounds as
:class:`~repro.engine.RoundSpec` batches — so they exercise the
spec/registry path the experiments use and honour
``REPRO_BENCH_BACKEND`` for backend selection.  Absolute accuracy
thresholds are calibrated to the paper's Spambase setting and apply
only there (the synthetic smoke context exercises the code paths, but
its geometry makes the boundary attack far more damaging and its
contamination barely moves *any* centroid estimator).
"""

import os

import numpy as np

from repro.attacks.optimal_boundary import OptimalBoundaryAttack
from repro.core.mixed_strategy import MixedDefense
from repro.core.payoff_estimation import estimate_payoff_curves
from repro.data.geometry import compute_centroid
from repro.engine import AttackSpec, DefenseSpec, EvaluationEngine, RoundSpec
from repro.attacks.base import poison_dataset
from repro.experiments.reporting import ascii_table
from repro.experiments.runner import evaluate_configuration
from repro.ml.ridge import RidgeClassifier
from repro.study.drivers import mixed_defense_evaluation
from repro.utils.rng import derive_seed


def _is_paper_setting(ctx) -> bool:
    """Absolute thresholds apply only on the Spambase setting (the
    synthetic smoke context exercises the paths, not the calibration)."""
    return ctx.dataset_name.startswith("spambase")


def _fresh_engine() -> EvaluationEngine:
    """A cache-free engine for honestly timed ablation rounds
    (``REPRO_BENCH_BACKEND`` selects the backend, default serial)."""
    return EvaluationEngine(os.environ.get("REPRO_BENCH_BACKEND", "serial"),
                            cache=False)


def test_ablation_centroid_estimators(benchmark, spambase_ctx):
    """The paper's robustness argument: a robust centroid barely moves
    under 20 % contamination; the mean moves with the attack."""
    ctx = spambase_ctx
    attack = ctx.boundary_attack(0.0)

    def run():
        X_mix, y_mix, _ = poison_dataset(ctx.X_train, ctx.y_train, attack,
                                         fraction=0.2, seed=derive_seed(ctx.seed, "abl"))
        rows = []
        for method in ("mean", "median", "trimmed_mean"):
            clean_c = compute_centroid(ctx.X_train, method=method).location
            dirty_c = compute_centroid(X_mix, method=method).location
            shift = float(np.linalg.norm(dirty_c - clean_c))
            scale = float(np.median(ctx.radius_map.distances))
            rows.append((method, shift, shift / scale))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        ["centroid", "shift under 20% poisoning", "shift / median radius"],
        [(m, f"{s:.3f}", f"{rel:.3f}") for m, s, rel in rows],
        title="Centroid robustness ablation",
    ))
    shifts = {m: rel for m, _, rel in rows}
    assert shifts["median"] < 0.5  # robust centroid barely moves
    if _is_paper_setting(ctx):
        # On Spambase's heavy-tailed geometry the mean visibly follows
        # the attack while the median holds.  The synthetic smoke
        # context's attack sits at the centroid percentile, so *no*
        # estimator moves materially and the comparison is noise.
        assert shifts["median"] < shifts["mean"]


def test_ablation_poison_fraction_sweep(benchmark, spambase_ctx):
    """Damage grows with the contamination budget at a fixed filter."""
    ctx = spambase_ctx
    fractions = [0.05, 0.10, 0.20, 0.30]
    engine = _fresh_engine()

    def run():
        specs = [
            RoundSpec(filter_percentile=0.05,
                      attack=AttackSpec("boundary", 0.05),
                      poison_fraction=frac,
                      seed=derive_seed(ctx.seed, "frac", frac))
            for frac in fractions
        ]
        outcomes = engine.evaluate_batch(ctx, specs)
        return list(zip(fractions, [o.accuracy for o in outcomes]))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(["poison fraction", "accuracy under optimal attack"],
                      [(f"{f:.0%}", f"{a:.4f}") for f, a in rows],
                      title="Contamination budget ablation"))
    accs = [a for _, a in rows]
    assert accs[-1] < accs[0]  # more poison, more damage


def test_ablation_strategy_families(benchmark, spambase_ctx, figure1_sweep):
    """Equalized vs uniform probabilities on the same support, and the
    best pure strategy, all evaluated against the optimal attack."""
    ctx = spambase_ctx
    sweep = figure1_sweep
    engine = _fresh_engine()
    curves = estimate_payoff_curves(
        sweep.percentiles, sweep.acc_clean, sweep.acc_attacked, sweep.n_poison
    )
    support = np.array([0.03, 0.10, 0.20])
    equalized = MixedDefense.equalized(
        support[support <= curves.p_max] if np.any(support <= curves.p_max)
        else support[:2], curves
    ) if np.all(curves.E_vec(support) > 0) else None

    def run():
        rows = []
        if equalized is not None:
            acc_eq, _, _ = mixed_defense_evaluation(ctx, equalized,
                                                    poison_fraction=0.2,
                                                    engine=engine)
            rows.append(("equalized (Sec. 4.2)", acc_eq))
        uniform = MixedDefense(percentiles=support,
                               probabilities=np.full(3, 1 / 3))
        acc_un, _, _ = mixed_defense_evaluation(ctx, uniform,
                                                poison_fraction=0.2,
                                                engine=engine)
        rows.append(("uniform probabilities", acc_un))
        best_p, best_acc = sweep.best_pure
        rows.append((f"best pure (filter {best_p:.0%})", best_acc))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(["defence strategy", "accuracy under optimal attack"],
                      [(name, f"{a:.4f}") for name, a in rows],
                      title="Strategy-family ablation"))
    accs = dict(rows)
    assert all(0.0 < a <= 1.0 for a in accs.values())
    if _is_paper_setting(ctx):
        # Spambase calibration: every strategy keeps the model usable.
        assert all(0.5 < a for a in accs.values())


def test_ablation_idealised_vs_operational_filter(benchmark, spambase_ctx):
    """The harness filters at the genuine-percentile radius (the paper's
    idealisation); a real defender quantiles the contaminated set.  The
    two must agree closely when the centroid is robust.

    Both filters run as engine rounds sharing one seed (same poison
    set), the idealised one as the kernel-served radius spec, the
    operational one as the registered ``percentile_filter`` family."""
    ctx = spambase_ctx
    engine = _fresh_engine()
    seed = derive_seed(ctx.seed, "op")

    def run():
        operational, idealised = engine.evaluate_batch(ctx, [
            RoundSpec(defense=DefenseSpec("percentile_filter", 0.15),
                      attack=AttackSpec("boundary", 0.15),
                      poison_fraction=0.2, seed=seed),
            RoundSpec(filter_percentile=0.15,
                      attack=AttackSpec("boundary", 0.15),
                      poison_fraction=0.2, seed=seed),
        ])
        return operational.report, idealised
    report_op, idealised = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        ["filter", "poison recall", "genuine loss"],
        [
            ("operational (quantile on mixed set)",
             f"{report_op.poison_recall:.3f}", f"{report_op.genuine_loss:.3f}"),
            ("idealised (genuine-percentile radius)",
             f"{idealised.report.poison_recall:.3f}",
             f"{idealised.report.genuine_loss:.3f}"),
        ],
        title="Idealised vs operational filtering at 15%",
    ))
    # the operational filter cuts deeper (it removes 15% of the *mixed*
    # set), so it catches at least as much poison as the idealised one
    assert report_op.poison_recall >= idealised.report.poison_recall - 0.05


def test_ablation_attack_surrogate_choice(benchmark, spambase_ctx):
    """Victim-matched surrogate vs mismatched ridge surrogate: the
    matched attack transfers far better (full-knowledge threat model).

    The matched attack is the engine's ``boundary`` kind; the
    mismatched surrogate is deliberately *not* a registered family, so
    it runs whole-object through ``evaluate_configuration`` — the
    uniform escape hatch for unregistered strategies."""
    ctx = spambase_ctx
    engine = _fresh_engine()

    def run():
        matched = engine.evaluate(ctx, RoundSpec(
            attack=AttackSpec("boundary", 0.0), poison_fraction=0.2,
            seed=derive_seed(ctx.seed, "surr", "victim-matched SVM"),
        )).accuracy
        mismatched = evaluate_configuration(
            ctx, attack=OptimalBoundaryAttack(
                0.0, surrogate=RidgeClassifier(reg=1e-2),
                centroid_method=ctx.centroid_method),
            poison_fraction=0.2,
            seed=derive_seed(ctx.seed, "surr", "mismatched ridge"),
        ).accuracy
        return [("victim-matched SVM", matched),
                ("mismatched ridge", mismatched)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(["attack surrogate", "victim accuracy (lower = stronger attack)"],
                      [(n, f"{a:.4f}") for n, a in rows],
                      title="Attack-surrogate ablation"))
    accs = dict(rows)
    assert accs["victim-matched SVM"] <= accs["mismatched ridge"] + 0.02
