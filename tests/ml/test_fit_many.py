"""Batched (lockstep) Pegasos: bit-identity with sequential fits.

``LinearSVM.fit_many`` runs B problems of one width ``d`` as one
stacked tensor program, whatever their row counts: a ragged lockstep
where each problem keeps its own step counter and tail, gathering its
rows from one resident source.  Batching is an execution strategy,
never an approximation — every assertion here is exact, against models
fitted by the plain sequential ``fit`` (itself pinned bit-for-bit to
the seed trainer by ``test_linear_svm.py``).  The probe tests pin that
a failed kernel probe sends only the problems whose step plan contains
the failed shape to sequential fits.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.synthetic import make_gaussian_blobs
from repro.ml import batched
from repro.ml.linear_svm import LinearSVM


def _problems(b, n=230, d=6, seed=0):
    """B distinct same-shape problems (different data and seeds)."""
    datasets = []
    for i in range(b):
        X, y = make_gaussian_blobs(n_samples=n, n_features=d,
                                   separation=1.5, seed=seed + 17 * i)
        datasets.append((X, y))
    return datasets


def _ragged(ns, d=6, seed=0):
    """Distinct problems of ``ns`` rows each."""
    return [make_gaussian_blobs(n_samples=n, n_features=d, separation=1.5,
                                seed=seed + 17 * i)
            for i, n in enumerate(ns)]


def _fit_sequentially(configs, datasets):
    models = [LinearSVM(**cfg) for cfg in configs]
    for model, dataset in zip(models, datasets):
        X, y = dataset[0], dataset[1]
        if len(dataset) == 3:
            X, y = X[dataset[2]], y[dataset[2]]
        model.fit(X, y)
    return models


def _assert_batches_identically(datasets, **config):
    """fit_many batches every problem, bit-identical to sequential fits."""
    configs = [dict(config, seed=31 * i + 5) for i in range(len(datasets))]
    assert LinearSVM.can_fit_many([LinearSVM(**c) for c in configs],
                                  datasets)
    models = LinearSVM.fit_many([LinearSVM(**c) for c in configs], datasets)
    assert_models_identical(models, _fit_sequentially(configs, datasets))


def assert_models_identical(batched_models, sequential_models):
    for got, want in zip(batched_models, sequential_models):
        np.testing.assert_array_equal(got.coef_, want.coef_)
        assert got.intercept_ == want.intercept_
        assert got.objective_trace_ == want.objective_trace_


class TestLockstepBitIdentity:
    @pytest.mark.parametrize("b", [1, 2, 7, 32])
    def test_default_hyperparameters(self, b):
        datasets = _problems(b)
        configs = [dict(epochs=6, seed=100 + i) for i in range(b)]
        assert LinearSVM.can_fit_many([LinearSVM(**c) for c in configs],
                                      datasets)
        models = LinearSVM.fit_many([LinearSVM(**c) for c in configs],
                                    datasets)
        assert_models_identical(models, _fit_sequentially(configs, datasets))

    @pytest.mark.parametrize("config", [
        dict(reg=1e-2, epochs=7, batch_size=32),
        dict(reg=1.0, epochs=9, batch_size=1),          # heavy projection
        dict(epochs=5, batch_size=512),                 # one batch/epoch
        dict(epochs=8, batch_size=17, average=False),   # ragged batches
        dict(epochs=6, batch_size=64, fit_intercept=False),
        dict(epochs=1, batch_size=64),                  # single epoch
    ])
    def test_hyperparameter_grid(self, config):
        b = 5
        datasets = _problems(b, n=190, d=5, seed=3)
        configs = [dict(config, seed=7 * i) for i in range(b)]
        models = LinearSVM.fit_many([LinearSVM(**c) for c in configs],
                                    datasets)
        assert_models_identical(models, _fit_sequentially(configs, datasets))

    def test_shared_dataset_distinct_seeds(self):
        # The engine's common case: one training matrix, many round seeds.
        X, y = make_gaussian_blobs(n_samples=260, n_features=6, seed=9)
        configs = [dict(epochs=6, seed=i) for i in range(4)]
        datasets = [(X, y)] * 4
        models = LinearSVM.fit_many([LinearSVM(**c) for c in configs],
                                    datasets)
        assert_models_identical(models, _fit_sequentially(configs, datasets))

    def test_ragged_shapes_batch_identically(self):
        datasets = [_problems(1, n=200)[0], _problems(1, n=150, seed=5)[0]]
        models = [LinearSVM(epochs=5, seed=0), LinearSVM(epochs=5, seed=1)]
        assert LinearSVM.can_fit_many(models, datasets)
        fitted = LinearSVM.fit_many(models, datasets)
        reference = _fit_sequentially(
            [dict(epochs=5, seed=0), dict(epochs=5, seed=1)], datasets)
        assert_models_identical(fitted, reference)

    def test_kernel_probe_passes_on_this_platform(self):
        # The batched path must actually engage here — a silent fallback
        # would leave the perf claims untested on CI's own hardware.
        assert batched.pegasos_kernels_verified(230, 6, 64)
        assert LinearSVM.can_fit_many(
            [LinearSVM(epochs=4, seed=i) for i in range(3)],
            _problems(3))


class TestRaggedLockstep:
    """Problems of different row counts share one lockstep group."""

    def test_mixed_sizes_with_distinct_tails(self):
        # batch 64: tails 38, 9, 62, 43 and 22, over 3 or 4 steps.
        _assert_batches_identically(_ragged([230, 201, 190, 171, 150]),
                                    epochs=6, batch_size=64)

    def test_below_and_at_multiples_of_the_batch_size(self):
        # 40 < 64 is one short batch; 64 and 128 have no tail at all.
        _assert_batches_identically(_ragged([40, 64, 128, 100, 63]),
                                    epochs=7, batch_size=64)

    def test_steps_per_epoch_differ_by_two_or_more(self):
        # 6, 3, 2 and 1 steps per epoch: the active prefix shrinks by
        # several problems per step.
        _assert_batches_identically(_ragged([330, 170, 100, 20]),
                                    epochs=5, batch_size=64)

    def test_empty_active_sets(self):
        # One single-class problem far from the origin: after its first
        # step every one of its batches has no margin-active row, while
        # the other problems' batches still do.
        rng = np.random.default_rng(4)
        X_far = 5.0 + 0.1 * rng.standard_normal((150, 6))
        y_far = np.ones(150, dtype=int)
        datasets = _ragged([230, 97]) + [(X_far, y_far)]
        _assert_batches_identically(datasets, epochs=6, batch_size=64)

    @pytest.mark.parametrize("config", [
        dict(reg=1.0, epochs=9, batch_size=32),     # projection hits
        dict(epochs=8, batch_size=17, average=False),
        dict(epochs=6, batch_size=64, fit_intercept=False),
    ])
    def test_hyperparameters(self, config):
        _assert_batches_identically(_ragged([190, 161, 120, 75], d=5,
                                            seed=3), **config)

    def test_shared_dataset_objects(self):
        # One dataset object reused by several models shares one block
        # of the resident source; row subsets of one matrix do too.
        shared = _problems(1, n=260, seed=9)[0]
        X, y = shared
        other = _ragged([140], seed=40)[0]
        rows = np.random.default_rng(1).permutation(260)
        datasets = [shared, other, shared, (X, y, rows[:171]),
                    (X, y, rows[50:]), shared]
        _assert_batches_identically(datasets, epochs=5, batch_size=64)

    def test_bad_rows_are_rejected(self):
        X, y = _problems(1, n=50)[0]
        for rows in ([0, 50], [-1, 3], [[0, 1]]):
            with pytest.raises(ValueError, match="rows"):
                LinearSVM.fit_many([LinearSVM()], [(X, y, rows)])


class TestFallbacks:
    def test_mixed_hyperparameters_fall_back_identically(self):
        datasets = _problems(2)
        configs = [dict(epochs=5, seed=0), dict(epochs=6, seed=1)]
        models = [LinearSVM(**c) for c in configs]
        assert not LinearSVM.can_fit_many(models, datasets)
        assert_models_identical(LinearSVM.fit_many(models, datasets),
                                _fit_sequentially(configs, datasets))

    def test_objective_tracking_falls_back_identically(self):
        datasets = _problems(2)
        configs = [dict(epochs=5, seed=0, tol=1e-3),
                   dict(epochs=5, seed=1, tol=1e-3)]
        models = [LinearSVM(**c) for c in configs]
        assert not LinearSVM.can_fit_many(models, datasets)
        fitted = LinearSVM.fit_many(models, datasets)
        reference = _fit_sequentially(configs, datasets)
        assert_models_identical(fitted, reference)
        assert fitted[0].objective_trace_  # the trace really was tracked

    def test_single_feature_falls_back_identically(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((120, 1))
        y = (X[:, 0] > 0).astype(int)
        configs = [dict(epochs=5, seed=0), dict(epochs=5, seed=1)]
        models = [LinearSVM(**c) for c in configs]
        assert not LinearSVM.can_fit_many(models, [(X, y)] * 2)
        assert_models_identical(LinearSVM.fit_many(models, [(X, y)] * 2),
                                _fit_sequentially(configs, [(X, y)] * 2))

    def test_failed_probe_falls_back_identically(self, monkeypatch):
        monkeypatch.setattr(batched, "_probe_pegasos",
                            lambda *a: False)
        monkeypatch.setattr(batched, "_pegasos_probe_cache", {})
        datasets = _problems(3)
        configs = [dict(epochs=5, seed=i) for i in range(3)]
        models = [LinearSVM(**c) for c in configs]
        assert not LinearSVM.can_fit_many(models, datasets)
        assert_models_identical(LinearSVM.fit_many(models, datasets),
                                _fit_sequentially(configs, datasets))

    def test_empty_and_mismatched_inputs(self):
        assert LinearSVM.fit_many([], []) == []
        with pytest.raises(ValueError, match="models"):
            LinearSVM.fit_many([LinearSVM()], [])


class TestProbeMemo:
    """The kernel probe runs once per ``(d, mini-batch length)``."""

    @pytest.fixture()
    def probes(self, monkeypatch):
        """Record every real probe; setting ``.fail`` to a length makes
        that length's probe fail."""
        record = SimpleNamespace(calls=[], fail=None)
        real = batched._probe_pegasos

        def probe(d, length):
            record.calls.append((d, length))
            return length != record.fail and real(d, length)

        monkeypatch.setattr(batched, "_probe_pegasos", probe)
        monkeypatch.setattr(batched, "_pegasos_probe_cache", {})
        return record

    def test_new_size_with_a_seen_tail_probes_nothing(self, probes):
        # 3954 = 30 * 128 + 114 and 4082 = 31 * 128 + 114: the same two
        # mini-batch shapes, so the second size reuses both verdicts.
        assert batched.pegasos_kernels_verified(3954, 57, 128)
        assert sorted(probes.calls) == [(57, 114), (57, 128)]
        assert batched.pegasos_kernels_verified(4082, 57, 128)
        assert len(probes.calls) == 2

    def test_failed_length_falls_back_wherever_it_occurs(self, probes,
                                                         monkeypatch):
        probes.fail = 38
        lockstep = []
        real_fit_many = batched.pegasos_fit_many

        def recording_fit_many(models, problems):
            lockstep.append(len(problems[0][0]))
            real_fit_many(models, problems)

        monkeypatch.setattr(batched, "pegasos_fit_many", recording_fit_many)
        # With batch_size 64: 230 = 3 * 64 + 38 and 102 = 64 + 38 end on
        # the failed length, 38 is it, and 192 = 3 * 64 never meets it.
        for n, batches in ((230, False), (102, False), (38, False),
                           (192, True)):
            datasets = _problems(3, n=n)
            configs = [dict(epochs=5, batch_size=64, seed=i)
                       for i in range(3)]
            models = [LinearSVM(**c) for c in configs]
            assert LinearSVM.can_fit_many(models, datasets) is batches, n
            assert_models_identical(LinearSVM.fit_many(models, datasets),
                                    _fit_sequentially(configs, datasets))
        assert lockstep == [192]

    @pytest.mark.parametrize("probe_name", ["_probe_tail_scores",
                                            "_probe_padded_einsum"])
    def test_failed_tail_probe_falls_back_only_its_problems(
            self, probes, monkeypatch, probe_name):
        # batch 64: at step 3, 230 rows run at width 38 and the two
        # 200-row problems are 8-row tails of it; 192 has ended.
        real = getattr(batched, probe_name)
        tail_calls = []

        def probe(d, width, tail):
            tail_calls.append((d, width, tail))
            return tail != 8 and real(d, width, tail)

        monkeypatch.setattr(batched, probe_name, probe)
        lockstep = []
        real_fit_many = batched.pegasos_fit_many

        def recording_fit_many(models, problems):
            lockstep.append([len(p[0]) for p in problems])
            real_fit_many(models, problems)

        monkeypatch.setattr(batched, "pegasos_fit_many", recording_fit_many)
        datasets = _ragged([230, 200, 192, 200])
        configs = [dict(epochs=5, batch_size=64, seed=i) for i in range(4)]
        assert not LinearSVM.can_fit_many(
            [LinearSVM(**c) for c in configs], datasets)
        assert (6, 38, 8) in tail_calls
        assert_models_identical(
            LinearSVM.fit_many([LinearSVM(**c) for c in configs], datasets),
            _fit_sequentially(configs, datasets))
        assert lockstep == [[230, 192]]
