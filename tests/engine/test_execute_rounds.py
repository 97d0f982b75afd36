"""execute_rounds: the batch-aware sibling of execute_round.

Contract: grouping same-victim rounds (of any training-set size)
through ``LinearSVM.fit_many`` is an execution strategy — outcomes must be
bit-identical to per-spec ``execute_round`` calls, in input order,
for windows of any size, one spec included.
"""

import pytest

from repro.engine import (
    AttackSpec,
    DefenseSpec,
    RoundSpec,
    VictimSpec,
    execute_round,
    execute_rounds,
)
from repro.engine import backends as backends_mod
from repro.engine.backends import _round_kwargs
from repro.experiments.runner import (
    make_synthetic_context,
    prepare_configuration,
    resident_source,
)
from repro.ml.base import signed_labels
from repro.ml.linear_svm import LinearSVM


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=2, n_samples=140, n_features=3)


def mixed_specs(n_seeds=3):
    """Clean + attacked + slow-defense + foreign-victim rounds: every
    dispatch arm of execute_round, with groupable repeats inside."""
    specs = []
    for seed in range(n_seeds):
        specs.append(RoundSpec(filter_percentile=0.1, attack=None, seed=seed))
        specs.append(RoundSpec(filter_percentile=0.1,
                               attack=AttackSpec("boundary", 0.05),
                               poison_fraction=0.2, seed=seed))
    specs.append(RoundSpec(attack=AttackSpec("boundary", 0.05),
                           poison_fraction=0.2, seed=0,
                           defense=DefenseSpec("slab_filter", 0.1)))
    specs.append(RoundSpec(filter_percentile=0.1, attack=None, seed=0,
                           victim=VictimSpec("ridge", (("reg", 0.01),))))
    return specs


class TestBitIdentity:
    def test_matches_per_round_execution(self, ctx):
        specs = mixed_specs()
        batched = execute_rounds(ctx, specs)
        reference = [execute_round(ctx, spec) for spec in specs]
        assert batched == reference

    def test_windowing_preserves_order(self, ctx, monkeypatch):
        # Tiny windows force multiple prepare/fit/finish cycles.
        monkeypatch.setattr(backends_mod, "_FIT_WINDOW", 3)
        specs = mixed_specs(n_seeds=4)
        assert execute_rounds(ctx, specs) == \
            [execute_round(ctx, spec) for spec in specs]

    def test_single_spec_window_matches(self, ctx):
        spec = RoundSpec(filter_percentile=0.1, attack=None, seed=5)
        assert execute_rounds(ctx, [spec]) == [execute_round(ctx, spec)]
        assert execute_rounds(ctx, []) == []


class TestBatchedDispatch:
    def test_fit_many_engages_for_repeat_rounds(self, ctx, monkeypatch):
        calls = []
        original = LinearSVM.fit_many.__func__

        def counting_fit_many(cls, models, datasets):
            calls.append(len(models))
            return original(cls, models, datasets)

        monkeypatch.setattr(LinearSVM, "fit_many",
                            classmethod(counting_fit_many))
        specs = [RoundSpec(filter_percentile=0.1, attack=None, seed=s)
                 for s in range(4)]
        execute_rounds(ctx, specs)
        # The repeat axis (same percentile, different seeds) yields
        # same-shape training sets -> one batched fit of all four.
        assert calls == [4]

    def test_ragged_window_dispatches_one_group(self, ctx, monkeypatch):
        calls = []
        original = LinearSVM.fit_many.__func__

        def counting_fit_many(cls, models, datasets):
            calls.append(len(models))
            return original(cls, models, datasets)

        monkeypatch.setattr(LinearSVM, "fit_many",
                            classmethod(counting_fit_many))
        specs = [RoundSpec(filter_percentile=percentile,
                           attack=AttackSpec("boundary", 0.3),
                           poison_fraction=fraction, seed=0)
                 for percentile, fraction in ((0.02, 0.05), (0.02, 0.2),
                                              (0.05, 0.1), (0.05, 0.3),
                                              (0.1, 0.05), (0.1, 0.3),
                                              (0.2, 0.1), (0.3, 0.2))]
        sizes = {prepare_configuration(ctx, **_round_kwargs(ctx, spec))
                 .X_tr.shape[0] for spec in specs}
        assert len(sizes) == len(specs)  # every training-set size differs
        assert execute_rounds(ctx, specs) == \
            [execute_round(ctx, spec) for spec in specs]
        assert calls == [len(specs)]

    def test_resident_source_reproduces_each_training_set(self, ctx):
        prepared = [prepare_configuration(ctx, **_round_kwargs(ctx, spec))
                    for spec in mixed_specs()]
        X, y, rows = resident_source(ctx, prepared)
        for p, r in zip(prepared, rows):
            assert X[r].tobytes() == p.X_tr.tobytes()
            assert y[r].tobytes() == \
                signed_labels(p.y_tr).astype(float).tobytes()
