"""Round-kernel equivalence: cached geometry must change no bits.

The contract of :mod:`repro.experiments.kernel`: threading the
precomputed context geometry (clean centroid/distances, radius lookups,
fitted surrogate direction) through a round produces outcomes
**bit-identical** to computing everything from scratch — across
backends and cache states.
"""

import os
import threading

import numpy as np
import pytest

from repro.attacks.optimal_boundary import OptimalBoundaryAttack, surrogate_direction
from repro.data.geometry import compute_centroid, distances_to_centroid
from repro.defenses.radius_filter import RadiusFilter
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.experiments.kernel import build_context_kernel
from repro.experiments.runner import (evaluate_configuration, load_context,
                                     make_synthetic_context, save_context)
from repro.utils.rng import derive_seed


@pytest.fixture(scope="module")
def ctx():
    return make_synthetic_context(seed=7, n_samples=240, n_features=5)


def reference_outcome(ctx, *, filter_percentile=None, percentile=None,
                      poison_fraction=0.25, seed=0):
    """One round computed entirely from scratch (no kernel anywhere)."""
    attack = None
    if percentile is not None:
        attack = OptimalBoundaryAttack(
            target_percentile=float(percentile),
            surrogate=ctx.attack_surrogate(),
            centroid_method=ctx.centroid_method,
        )
    return evaluate_configuration(
        ctx, filter_percentile=filter_percentile, attack=attack,
        poison_fraction=poison_fraction, seed=seed, use_kernel=False,
    )


def kernel_spec(filter_percentile, percentile, seed, poison_fraction=0.25):
    attack = None if percentile is None else AttackSpec("boundary", percentile)
    return RoundSpec(filter_percentile=filter_percentile, attack=attack,
                     poison_fraction=poison_fraction, seed=seed)


CASES = [
    # (filter percentile, attack percentile)
    (None, None),
    (0.15, None),
    (None, 0.05),
    (0.1, 0.05),     # filter above the attack: poison removed
    (0.05, 0.2),     # attack inside the filter: poison survives
    (0.3, 0.3),
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("filt,att", CASES)
    def test_kernel_round_equals_from_scratch(self, ctx, filt, att):
        seed = derive_seed(99, "kernel-eq", filt, att)
        ref = reference_outcome(ctx, filter_percentile=filt, percentile=att,
                                seed=seed)
        engine = EvaluationEngine("serial", cache=False)
        out = engine.evaluate(ctx, kernel_spec(filt, att, seed))
        assert out == ref

    def test_kernel_round_equals_from_scratch_process(self, ctx):
        specs = [kernel_spec(f, a, derive_seed(99, "kernel-eq-proc", f, a))
                 for f, a in CASES]
        refs = [reference_outcome(ctx, filter_percentile=f, percentile=a,
                                  seed=derive_seed(99, "kernel-eq-proc", f, a))
                for f, a in CASES]
        engine = EvaluationEngine("process", jobs=2, cache=False)
        assert engine.evaluate_batch(ctx, specs) == refs

    def test_cache_states_identical(self, ctx):
        specs = [kernel_spec(f, a, derive_seed(5, "kernel-cache", f, a))
                 for f, a in CASES]
        cold = EvaluationEngine("serial", cache=True)
        first = cold.evaluate_batch(ctx, specs)
        second = cold.evaluate_batch(ctx, specs)  # all cache hits
        uncached = EvaluationEngine("serial", cache=False).evaluate_batch(ctx, specs)
        assert first == second == uncached


class TestAttackPrecomputedParity:
    def test_generate_identical_with_and_without_kernel(self, ctx):
        n_poison = 40
        with_kernel = ctx.boundary_attack(0.1)
        assert with_kernel.precomputed is not None
        without = OptimalBoundaryAttack(
            target_percentile=0.1, surrogate=ctx.attack_surrogate(),
            centroid_method=ctx.centroid_method,
        )
        Xa, ya = with_kernel.generate(ctx.X_train, ctx.y_train, n_poison, seed=3)
        Xb, yb = without.generate(ctx.X_train, ctx.y_train, n_poison, seed=3)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_kernel_ignored_for_foreign_data(self, ctx):
        """On any array but the context's own, the kernel must not apply."""
        attack = ctx.boundary_attack(0.0)
        X_other = ctx.X_train[:100] * 2.0 + 1.0
        y_other = ctx.y_train[:100]
        X_p, _ = attack.generate(X_other, y_other, 10, seed=0)
        centroid = compute_centroid(X_other, method=ctx.centroid_method)
        dist = distances_to_centroid(X_p, centroid)
        max_r = distances_to_centroid(X_other, centroid).max()
        # Points sit (just) inside the *foreign* data's boundary radius,
        # which differs from the context's — proof the fallback ran.
        assert np.all(dist <= max_r)
        assert not np.allclose(max_r, ctx.kernel().attack_radius(0.0))

    def test_direction_matches_surrogate_fit(self, ctx):
        direction = ctx.kernel().direction
        expected = surrogate_direction(ctx.X_train, ctx.y_train,
                                       ctx.attack_surrogate())
        np.testing.assert_array_equal(direction, expected)

    @pytest.mark.parametrize("transport", ["fresh", "reloaded"])
    def test_surrogate_fitted_once_per_context(self, monkeypatch, tmp_path,
                                               transport):
        from repro.attacks import optimal_boundary

        fits = []

        def counting_direction(X, y, surrogate):
            fits.append(X.shape)
            return surrogate_direction(X, y, surrogate)

        # Every surrogate fit, from the kernel or from an attack that
        # computes its own direction, goes through this one function.
        monkeypatch.setattr(optimal_boundary, "surrogate_direction",
                            counting_direction)
        ctx = make_synthetic_context(seed=11, n_samples=160, n_features=4)
        if transport == "reloaded":
            # The shard path: a context saved for `--context-file` and
            # loaded back from its npz arrays.  The kernel guard must
            # recognise those arrays behind input validation's
            # `np.asarray(X, dtype=float)` to keep serving the
            # surrogate direction.
            ctx = load_context(save_context(ctx, str(tmp_path / "ctx.npz")))
        engine = EvaluationEngine("serial", cache=False)
        specs = [kernel_spec(0.1, 0.05, seed) for seed in range(4)]
        engine.evaluate_batch(ctx, specs)
        # One surrogate fit, shared via the kernel; the pre-kernel path
        # needed a surrogate refit every round.
        assert len(fits) == 1


class TestFilterFastPath:
    def test_keep_mask_matches_radius_filter(self, ctx):
        """Genuine-row distance reuse is bitwise equal to full recompute."""
        kernel = build_context_kernel(ctx)
        attack = ctx.boundary_attack(0.05)
        from repro.attacks.base import poison_dataset

        X_mix, y_mix, is_poison, sources = poison_dataset(
            ctx.X_train, ctx.y_train, attack, fraction=0.25, seed=13,
            return_sources=True,
        )
        radius = kernel.filter_radius(0.1)
        fast = kernel.keep_mask(X_mix, y_mix, is_poison, sources, radius)
        clean_centroid = compute_centroid(ctx.X_train,
                                          method=ctx.centroid_method)
        reference = RadiusFilter(radius, centroid_method=ctx.centroid_method,
                                 centroid=clean_centroid).mask(X_mix, y_mix)
        np.testing.assert_array_equal(fast, reference)

    def test_filter_radius_matches_radius_map(self, ctx):
        kernel = ctx.kernel()
        for p in (0.01, 0.1, 0.25, 0.5):
            assert kernel.filter_radius(p) == ctx.radius_map.radius(p)

    def test_precomputed_centroid_rejected_with_per_class(self):
        with pytest.raises(ValueError, match="per_class"):
            RadiusFilter(1.0, per_class=True, centroid=np.zeros(3))


class TestKernelHousekeeping:
    def test_kernel_cached_on_context(self, ctx):
        assert ctx.kernel() is ctx.kernel()

    def test_kernel_never_pickled_with_context(self, ctx):
        import pickle

        ctx.kernel()  # ensure it exists
        clone = pickle.loads(pickle.dumps(ctx))
        assert "_kernel" not in clone.__dict__
        np.testing.assert_array_equal(clone.X_train, ctx.X_train)

    def test_describes_same_buffer_view_with_equal_dtype(self, ctx):
        import pickle

        kernel = ctx.kernel()
        X = kernel.X_train
        # An equal but non-canonical dtype instance, as unpickling makes.
        dtype = pickle.loads(pickle.dumps(X.dtype))
        assert dtype is not X.dtype
        view = X.view(dtype)
        assert view is not X
        assert kernel.describes(X)
        assert kernel.describes(view)

    @pytest.mark.parametrize("derive", [np.copy, lambda X: X[:-1],
                                        lambda X: X.T],
                             ids=["copy", "slice", "transpose"])
    def test_describes_rejects_other_buffers_and_layouts(self, ctx, derive):
        kernel = ctx.kernel()
        assert not kernel.describes(derive(kernel.X_train))

    def test_clean_distances_alignment(self, ctx):
        kernel = ctx.kernel()
        assert kernel.clean_distances.shape == (ctx.n_train,)
        centroid = compute_centroid(ctx.X_train, method=ctx.centroid_method)
        np.testing.assert_array_equal(
            kernel.clean_distances, distances_to_centroid(ctx.X_train, centroid)
        )


def _park_first_call(monkeypatch, module, name):
    """Patch ``module.name`` so its first call blocks until released.

    Returns ``(entered, release)`` events: ``entered`` is set once the
    first caller is parked inside the patched function, which then runs
    the real one after ``release``.  Later calls pass straight through.
    """
    real = getattr(module, name)
    entered, release = threading.Event(), threading.Event()
    calls = []

    def parked(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            entered.set()
            release.wait(timeout=60.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, parked)
    return entered, release


def _while_parked(entered, release, target, read):
    """Run ``target`` on a thread; once it is parked, ``read()`` here.

    Returns ``(what the thread got, what read() got)``.
    """
    got = []
    thread = threading.Thread(target=lambda: got.append(target()))
    thread.start()
    try:
        assert entered.wait(timeout=60.0), "the thread never parked"
        mine = read()
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive() and len(got) == 1
    return got[0], mine


class TestKernelPublishOnce:
    """Lazily built kernel state is published with one assignment, so a
    context shared across threads never shows another thread a
    half-built value."""

    def test_slab_geometry_never_read_half_built(self, monkeypatch):
        from repro.defenses import slab_filter

        kernel = build_context_kernel(
            make_synthetic_context(seed=3, n_samples=200, n_features=4))
        entered, release = _park_first_call(monkeypatch, slab_filter,
                                            "slab_axis_midpoint")
        # The thread is parked inside the geometry computation: a read
        # from here must not see "degenerate" (None), which would make
        # slab_filter axis="clean" refuse the round.
        theirs, mine = _while_parked(
            entered, release, lambda: kernel.class_centroids,
            lambda: kernel.class_centroids)
        assert mine is not None
        for a, b in zip(theirs, mine):
            np.testing.assert_array_equal(a, b)

    def test_racing_threads_get_one_kernel(self, monkeypatch):
        from repro.experiments import kernel as kernel_module

        shared = make_synthetic_context(seed=3, n_samples=200, n_features=4)
        entered, release = _park_first_call(monkeypatch, kernel_module,
                                            "build_context_kernel")
        theirs, mine = _while_parked(entered, release, shared.kernel,
                                     shared.kernel)
        assert theirs is mine is shared.kernel()

    def test_many_threads_one_context_stress(self):
        """More threads than cores, a tiny switch interval: every reader
        of a fresh shared context sees one kernel, the real slab
        geometry and one fingerprint."""
        import sys

        n_threads = 2 * (os.cpu_count() or 1) + 2
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(5):
                shared = make_synthetic_context(seed=trial, n_samples=200,
                                                n_features=4)
                start = threading.Barrier(n_threads, timeout=60.0)
                seen = []

                def read():
                    start.wait()
                    kernel = shared.kernel()
                    seen.append((kernel, kernel.class_centroids,
                                 shared.fingerprint()))

                threads = [threading.Thread(target=read)
                           for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == n_threads
                kernel, _, fingerprint = seen[0]
                assert all(k is kernel for k, _, _ in seen)
                assert all(c is not None for _, c, _ in seen)
                assert {fp for _, _, fp in seen} == {fingerprint}
        finally:
            sys.setswitchinterval(previous)
