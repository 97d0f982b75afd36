"""Defense/victim specs: parity with direct application, every family.

Mirrors ``TestBackendParity``: for every registered defence kind, a
spec-driven round through ``EvaluationEngine.evaluate_batch`` must be
bit-identical to applying the materialised defence object directly via
``evaluate_configuration(defense=...)`` — across the serial and process
backends and across cache states.  Likewise for victim specs.
"""

import numpy as np
import pytest

from repro.defenses import (
    CertifiedRadiusDefense,
    KNNSanitizer,
    LossFilter,
    MixedDefenseFilter,
    PCADetector,
    PercentileFilter,
    RadiusFilter,
    SlabFilter,
)
from repro.defenses.roni import RONIDefense
from repro.engine import (
    AttackSpec,
    DefenseSpec,
    EvaluationEngine,
    RoundSpec,
    VictimSpec,
    materialize_defense,
    materialize_victim,
    registered_defense_kinds,
    registered_victim_kinds,
)
from repro.experiments.runner import (
    VictimFactory,
    evaluate_configuration,
    make_synthetic_context,
)
from repro.utils.rng import derive_seed

SEED = 17


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=1, n_samples=120, n_features=3)


def _clean_centroid(ctx):
    from repro.data.geometry import compute_centroid

    return compute_centroid(ctx.X_train, method=ctx.centroid_method)


# One spec per registered family, with the direct-construction recipe
# the builder mirrors.  ``direct(ctx, seed)`` builds the defence object
# the old-fashioned way — no engine, no registry.
DEFENSE_CASES = {
    "radius": (
        DefenseSpec("radius", 0.15),
        lambda ctx, seed: RadiusFilter(
            ctx.radius_map.radius(0.15), centroid_method=ctx.centroid_method,
            centroid=_clean_centroid(ctx)),
    ),
    "percentile_filter": (
        DefenseSpec("percentile_filter", 0.12),
        lambda ctx, seed: PercentileFilter(
            0.12, centroid_method=ctx.centroid_method),
    ),
    "slab_filter": (
        DefenseSpec("slab_filter", 0.1),
        lambda ctx, seed: SlabFilter(
            remove_fraction=0.1, centroid_method=ctx.centroid_method),
    ),
    "knn_sanitizer": (
        DefenseSpec("knn_sanitizer", params={"k": 5, "agreement": 0.4}),
        lambda ctx, seed: KNNSanitizer(k=5, agreement=0.4),
    ),
    "roni": (
        DefenseSpec("roni", params={"batch_size": 30}),
        lambda ctx, seed: RONIDefense(batch_size=30,
                                      seed=derive_seed(seed, "defense")),
    ),
    "loss_filter": (
        DefenseSpec("loss_filter", 0.1, params={"n_rounds": 1}),
        lambda ctx, seed: LossFilter(0.1, n_rounds=1),
    ),
    "pca_detector": (
        DefenseSpec("pca_detector", 0.1, params={"n_components": 2}),
        lambda ctx, seed: PCADetector(n_components=2, remove_fraction=0.1),
    ),
    "certified": (
        DefenseSpec("certified", 0.1, params={"n_iter": 20}),
        lambda ctx, seed: CertifiedRadiusDefense(
            0.1, n_iter=20, centroid_method=ctx.centroid_method),
    ),
    "mixed_defense": (
        DefenseSpec("mixed_defense",
                    params={"percentiles": (0.05, 0.2),
                            "probabilities": (0.5, 0.5)}),
        lambda ctx, seed: MixedDefenseFilter(
            (0.05, 0.2), (0.5, 0.5), seed=derive_seed(seed, "defense"),
            centroid_method=ctx.centroid_method),
    ),
}


def _round_spec(dspec):
    return RoundSpec(defense=dspec, attack=AttackSpec("boundary", 0.05),
                     poison_fraction=0.2, seed=SEED)


class TestEveryFamilyRegistered:
    def test_all_defense_families_covered(self):
        assert sorted(DEFENSE_CASES) == registered_defense_kinds()

    def test_all_victim_families_covered(self):
        assert registered_victim_kinds() == \
            ["logistic", "naive_bayes", "perceptron", "ridge", "svm"]


class TestDefenseSpecParity:
    """Spec-driven rounds == direct defence application, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(DEFENSE_CASES))
    def test_spec_matches_direct_application(self, ctx, kind):
        dspec, direct = DEFENSE_CASES[kind]
        engine_out = EvaluationEngine("serial", cache=False).evaluate(
            ctx, _round_spec(dspec))
        attack = ctx.boundary_attack(0.05)
        direct_out = evaluate_configuration(
            ctx, defense=direct(ctx, SEED), attack=attack,
            poison_fraction=0.2, seed=SEED,
        )
        if kind == "radius":
            # The engine serves plain radius specs through the kernel
            # fast path, whose outcome labels the round by percentile
            # rather than by the realised object; the measured physics
            # must still agree exactly.
            assert engine_out.accuracy == direct_out.accuracy
            assert engine_out.n_removed == direct_out.n_removed
            assert engine_out.report == direct_out.report
        else:
            assert engine_out == direct_out

    @pytest.mark.parametrize("kind", sorted(DEFENSE_CASES))
    def test_materializer_matches_direct_construction(self, ctx, kind):
        dspec, direct = DEFENSE_CASES[kind]
        built = materialize_defense(ctx, dspec,
                                    seed=derive_seed(SEED, "defense"))
        a = built.mask(ctx.X_train, ctx.y_train)
        b = direct(ctx, SEED).mask(ctx.X_train, ctx.y_train)
        assert np.array_equal(a, b)

    def test_cached_and_uncached_identical(self, ctx, counters):
        specs = [_round_spec(d) for d, _ in DEFENSE_CASES.values()]
        uncached = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        counters()
        engine = EvaluationEngine("serial", cache=True)
        first = engine.evaluate_batch(ctx, specs)
        second = engine.evaluate_batch(ctx, specs)  # pure cache hits
        assert uncached == first == second
        assert counters()["engine.rounds_computed"] == len(specs)

    def test_process_backend_parity(self, ctx):
        specs = [_round_spec(d) for d, _ in DEFENSE_CASES.values()]
        serial = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        process = EvaluationEngine("process", jobs=2, cache=False).evaluate_batch(ctx, specs)
        assert serial == process

    def test_radius_variant_params_supported(self, ctx):
        # per_class / contaminated-centroid variants route through the
        # builder path and stay distinct from the fast path in the key.
        fast = _round_spec(DefenseSpec("radius", 0.15))
        variant = _round_spec(DefenseSpec("radius", 0.15,
                                          params={"per_class": True,
                                                  "centroid": "contaminated"}))
        assert fast.canonical() != variant.canonical()
        outs = EvaluationEngine("serial", cache=False).evaluate_batch(
            ctx, [fast, variant])
        assert outs[0].accuracy != outs[1].accuracy or \
            outs[0].n_removed != outs[1].n_removed

    def test_unknown_defense_kind_rejected(self, ctx):
        with pytest.raises(ValueError, match="unknown defense kind"):
            materialize_defense(ctx, DefenseSpec("fortress", 0.1))


class TestRoundSpecCanonicalisation:
    def test_filter_percentile_is_radius_sugar(self):
        sugar = RoundSpec(filter_percentile=0.1, seed=3)
        explicit = RoundSpec(defense=DefenseSpec("radius", 0.1), seed=3)
        assert sugar == explicit
        assert sugar.canonical() == explicit.canonical()
        assert explicit.filter_percentile == 0.1  # mirrored back

    def test_zero_radius_is_no_defense(self):
        assert RoundSpec(defense=DefenseSpec("radius", 0.0), seed=3) == \
            RoundSpec(seed=3)

    def test_both_spellings_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            RoundSpec(filter_percentile=0.1,
                      defense=DefenseSpec("slab_filter", 0.1))

    def test_defense_moves_the_key(self):
        a = RoundSpec(defense=DefenseSpec("slab_filter", 0.1), seed=3)
        b = RoundSpec(defense=DefenseSpec("loss_filter", 0.1), seed=3)
        c = RoundSpec(defense=DefenseSpec("slab_filter", 0.2), seed=3)
        assert len({a.canonical(), b.canonical(), c.canonical()}) == 3

    def test_victim_moves_the_key(self):
        a = RoundSpec(filter_percentile=0.1, seed=3)
        b = RoundSpec(filter_percentile=0.1, victim=VictimSpec("logistic"), seed=3)
        c = RoundSpec(filter_percentile=0.1,
                      victim=VictimSpec("logistic", params={"reg": 0.5}), seed=3)
        assert len({a.canonical(), b.canonical(), c.canonical()}) == 3

    def test_clean_rounds_still_share_poison_fractions(self):
        a = RoundSpec(defense=DefenseSpec("slab_filter", 0.1), attack=None,
                      poison_fraction=0.2, seed=3)
        b = RoundSpec(defense=DefenseSpec("slab_filter", 0.1), attack=None,
                      poison_fraction=0.3, seed=3)
        assert a.canonical() == b.canonical()

    def test_bad_types_rejected(self):
        with pytest.raises(TypeError, match="DefenseSpec"):
            RoundSpec(defense="slab_filter")
        with pytest.raises(TypeError, match="VictimSpec"):
            RoundSpec(victim="svm")


class TestVictimSpecParity:
    @pytest.mark.parametrize("kind", ["svm", "logistic", "perceptron",
                                      "ridge", "naive_bayes"])
    def test_spec_matches_direct_factory(self, ctx, kind):
        spec = RoundSpec(filter_percentile=0.1,
                         attack=AttackSpec("boundary", 0.05),
                         victim=VictimSpec(kind), seed=SEED)
        engine_out = EvaluationEngine("serial", cache=False).evaluate(ctx, spec)
        direct = evaluate_configuration(
            ctx, filter_percentile=0.1, attack=ctx.boundary_attack(0.05),
            poison_fraction=0.2, seed=SEED,
            victim_factory=VictimFactory(kind),
        )
        assert engine_out == direct

    def test_params_reach_the_estimator(self, ctx):
        factory = materialize_victim(ctx, VictimSpec("svm", params={"epochs": 7}))
        assert factory(0).epochs == 7

    def test_factories_pickle(self):
        import pickle

        f = VictimFactory("logistic", params={"reg": 0.5})
        assert pickle.loads(pickle.dumps(f)) == f

    def test_process_backend_parity(self, ctx):
        specs = [RoundSpec(filter_percentile=0.1,
                           attack=AttackSpec("boundary", 0.05),
                           victim=VictimSpec(kind), seed=SEED)
                 for kind in ("logistic", "perceptron", "naive_bayes")]
        serial = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        process = EvaluationEngine("process", jobs=2, cache=False).evaluate_batch(ctx, specs)
        assert serial == process

    def test_unknown_victim_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown victim kind"):
            VictimFactory("oracle")


class TestNewAttackKinds:
    """The remaining attack families are engine-runnable and distinct."""

    CASES = [
        AttackSpec("targeted", 0.05),
        AttackSpec("random-noise", 0.05),
        AttackSpec("furthest-point", 0.1),
        AttackSpec("mixed", params={"percentiles": (0.02, 0.1)}),
        AttackSpec("bilevel", 0.05, params={"n_outer": 2}),
    ]

    def test_all_run_and_differ_from_boundary(self, ctx):
        engine = EvaluationEngine("serial", cache=False)
        base = engine.evaluate(ctx, RoundSpec(
            filter_percentile=0.1, attack=AttackSpec("boundary", 0.05), seed=SEED))
        for aspec in self.CASES:
            out = engine.evaluate(ctx, RoundSpec(
                filter_percentile=0.1, attack=aspec, seed=SEED))
            assert out.n_poison == base.n_poison
            assert 0.0 <= out.accuracy <= 1.0

    def test_process_backend_parity(self, ctx):
        specs = [RoundSpec(filter_percentile=0.1, attack=a, seed=SEED)
                 for a in self.CASES]
        serial = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        process = EvaluationEngine("process", jobs=2, cache=False).evaluate_batch(ctx, specs)
        assert serial == process

    def test_kinds_move_the_key(self):
        keys = {RoundSpec(filter_percentile=0.1, attack=a, seed=SEED).canonical()
                for a in self.CASES}
        assert len(keys) == len(self.CASES)

    def test_spec_matches_direct_attack_objects(self, ctx):
        """Spec-driven rounds == rounds with literally-built attacks."""
        from repro.attacks import RandomNoiseAttack, TargetedClassAttack

        cases = [
            (AttackSpec("targeted", 0.05, params={"victim_label": -1}),
             TargetedClassAttack(victim_label=-1, target_percentile=0.05,
                                 centroid_method=ctx.centroid_method)),
            (AttackSpec("random-noise", 0.05, params={"fill": True}),
             RandomNoiseAttack(target_percentile=0.05, fill=True,
                               centroid_method=ctx.centroid_method)),
        ]
        engine = EvaluationEngine("serial", cache=False)
        for aspec, attack in cases:
            spec_out = engine.evaluate(ctx, RoundSpec(
                filter_percentile=0.1, attack=aspec, seed=SEED))
            direct = evaluate_configuration(
                ctx, filter_percentile=0.1, attack=attack,
                poison_fraction=0.2, seed=SEED)
            assert spec_out == direct


class TestCrossFamilyGame:
    DEFENSES = [
        DefenseSpec("radius", 0.1),
        DefenseSpec("slab_filter", 0.1),
        DefenseSpec("loss_filter", 0.1, params={"n_rounds": 1}),
    ]
    ATTACKS = [
        AttackSpec("boundary", 0.05),
        AttackSpec("label-flip"),
        None,  # clean baseline column
    ]

    def test_game_runs_and_solves(self, ctx):
        from repro.study import run_study, studies

        result = run_study(
            studies.cross_game(context=None, defenses=self.DEFENSES,
                               attacks=self.ATTACKS, n_repeats=1),
            context=ctx, engine=EvaluationEngine("serial", cache=False),
        ).payload_object()
        matrix = np.asarray(result.accuracy_matrix)
        assert matrix.shape == (3, 3)
        assert np.all((matrix >= 0.0) & (matrix <= 1.0))
        assert result.mixed_advantage >= -1e-9
        assert abs(sum(result.defender_mix) - 1.0) < 1e-6
        assert len({result.best_pure_defense} | set(result.defense_labels)) == 3

    def test_serial_process_identical(self, ctx):
        from repro.study.drivers import cross_game_matrix

        serial = cross_game_matrix(
            ctx, self.DEFENSES, self.ATTACKS,
            engine=EvaluationEngine("serial", cache=False))
        process = cross_game_matrix(
            ctx, self.DEFENSES, self.ATTACKS,
            engine=EvaluationEngine("process", jobs=2, cache=False))
        assert np.array_equal(serial, process)

    def test_bad_inputs_rejected(self, ctx):
        from repro.study.drivers import cross_game_matrix

        with pytest.raises(ValueError, match="non-empty"):
            cross_game_matrix(ctx, [], self.ATTACKS)
        with pytest.raises(TypeError, match="DefenseSpec"):
            cross_game_matrix(ctx, ["radius"], self.ATTACKS)
