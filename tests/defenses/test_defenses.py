"""Tests for the sanitisation defences."""

import numpy as np
import pytest

from repro.attacks.base import poison_dataset
from repro.attacks.optimal_boundary import OptimalBoundaryAttack
from repro.defenses.base import defense_report
from repro.defenses.knn_sanitizer import KNNSanitizer
from repro.defenses.loss_filter import LossFilter
from repro.defenses.mixed_defense import MixedDefenseFilter
from repro.defenses.pca_detector import PCADetector
from repro.defenses.percentile_filter import PercentileFilter
from repro.defenses.radius_filter import RadiusFilter
from repro.defenses.roni import RONIDefense
from repro.data.geometry import compute_centroid, distances_to_centroid

ALL_DEFENSES = [
    RadiusFilter(5.0),
    RadiusFilter(5.0, per_class=True),
    PercentileFilter(0.1),
    KNNSanitizer(k=5),
    PCADetector(n_components=2, remove_fraction=0.1),
    LossFilter(0.1),
    RONIDefense(seed=0, batch_size=50),
]


@pytest.mark.parametrize("defense", ALL_DEFENSES, ids=lambda d: d.name())
class TestDefenseContract:
    def test_mask_shape_and_dtype(self, blobs, defense):
        X, y = blobs
        mask = defense.mask(X, y)
        assert mask.shape == (len(X),)
        assert mask.dtype == bool

    def test_sanitize_consistent_with_mask(self, blobs, defense):
        X, y = blobs
        X_s, y_s = defense.sanitize(X, y)
        assert len(X_s) == len(y_s) <= len(X)
        assert len(X_s) > 0

    def test_both_classes_survive(self, blobs, defense):
        X, y = blobs
        _, y_s = defense.sanitize(X, y)
        assert len(np.unique(y_s)) == 2


class TestRadiusFilter:
    def test_keeps_inside_sphere(self, blobs):
        X, y = blobs
        theta = 2.0
        mask = RadiusFilter(theta).mask(X, y)
        centroid = compute_centroid(X, method="median")
        d = distances_to_centroid(X, centroid)
        # everything kept is within theta (modulo class-survival guard)
        kept_d = d[mask]
        assert (kept_d <= theta).mean() > 0.99

    def test_huge_theta_keeps_everything(self, blobs):
        X, y = blobs
        assert RadiusFilter(1e9).mask(X, y).all()

    def test_tiny_theta_triggers_class_guard(self, blobs):
        X, y = blobs
        mask = RadiusFilter(1e-9).mask(X, y)
        y_kept = y[mask]
        assert set(np.unique(y_kept)) == {0, 1}

    def test_per_class_uses_class_centroids(self, blobs):
        X, y = blobs
        global_mask = RadiusFilter(3.0, per_class=False).mask(X, y)
        per_class_mask = RadiusFilter(3.0, per_class=True).mask(X, y)
        # per-class spheres centred on each class keep more points at
        # the same radius on well-separated blobs
        assert per_class_mask.sum() >= global_mask.sum()

    def test_negative_theta_raises(self):
        with pytest.raises(ValueError):
            RadiusFilter(-1.0)

    def test_removes_boundary_poison(self, blobs):
        X, y = blobs
        X_m, y_m, is_poison = poison_dataset(
            X, y, OptimalBoundaryAttack(0.0), fraction=0.2, seed=0
        )
        centroid = compute_centroid(X, method="median")
        theta = np.quantile(distances_to_centroid(X, centroid), 0.95)
        mask = RadiusFilter(theta).mask(X_m, y_m)
        report = defense_report(mask, is_poison)
        assert report.poison_recall > 0.95


class TestPercentileFilter:
    def test_removes_expected_fraction(self, blobs):
        X, y = blobs
        mask = PercentileFilter(0.2).mask(X, y)
        removed = 1.0 - mask.mean()
        assert removed == pytest.approx(0.2, abs=0.03)

    def test_zero_fraction_noop(self, blobs):
        X, y = blobs
        filt = PercentileFilter(0.0)
        assert filt.mask(X, y).all()
        assert filt.theta_ == float("inf")

    def test_theta_recorded(self, blobs):
        X, y = blobs
        filt = PercentileFilter(0.1)
        filt.mask(X, y)
        assert np.isfinite(filt.theta_)
        assert filt.theta_ > 0

    def test_removes_farthest_first(self, blobs):
        X, y = blobs
        mask = PercentileFilter(0.1).mask(X, y)
        centroid = compute_centroid(X, method="median")
        d = distances_to_centroid(X, centroid)
        assert d[~mask].min() >= d[mask].max() - 1e-9

    def test_full_fraction_rejected(self):
        with pytest.raises(ValueError):
            PercentileFilter(1.0)


class TestMixedDefenseFilter:
    def test_draws_from_support(self, blobs):
        X, y = blobs
        filt = MixedDefenseFilter([0.05, 0.2], [0.5, 0.5], seed=0)
        draws = {filt.draw() for _ in range(40)}
        assert draws == {0.05, 0.2}

    def test_mask_uses_last_draw(self, blobs):
        X, y = blobs
        filt = MixedDefenseFilter([0.05, 0.2], [0.5, 0.5], seed=1)
        mask = filt.mask(X, y)
        removed = 1.0 - mask.mean()
        assert removed == pytest.approx(filt.last_draw_, abs=0.03)

    def test_expected_fraction(self):
        filt = MixedDefenseFilter([0.1, 0.3], [0.75, 0.25], seed=0)
        assert filt.expected_fraction_removed() == pytest.approx(0.15)

    def test_degenerate_distribution(self, blobs):
        X, y = blobs
        filt = MixedDefenseFilter([0.1], [1.0], seed=0)
        assert filt.draw() == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedDefenseFilter([0.1, 0.2], [0.6, 0.6])
        with pytest.raises(ValueError):
            MixedDefenseFilter([1.0], [1.0])  # percentile 1.0 not allowed


class TestKNNSanitizer:
    def test_flags_label_flips(self, blobs):
        X, y = blobs
        # flip 10 labels deep inside class 1's cluster
        y_flipped = y.copy()
        ones = np.flatnonzero(y == 1)[:10]
        y_flipped[ones] = 0
        mask = KNNSanitizer(k=7, agreement=0.5).mask(X, y_flipped)
        assert (~mask[ones]).mean() > 0.8  # most flips caught

    def test_keeps_consistent_points(self, blobs):
        X, y = blobs
        mask = KNNSanitizer(k=7).mask(X, y)
        assert mask.mean() > 0.9

    def test_k_larger_than_n(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = np.array([0, 0, 1])
        mask = KNNSanitizer(k=10, agreement=0.4).mask(X, y)
        assert mask.shape == (3,)

    def test_chunking_equivalent(self, blobs):
        X, y = blobs
        big = KNNSanitizer(k=5, chunk_size=10_000).mask(X, y)
        small = KNNSanitizer(k=5, chunk_size=16).mask(X, y)
        np.testing.assert_array_equal(big, small)

    @pytest.mark.parametrize("chunk_size", [16, 100, 10_000])
    def test_inplace_block_matches_expression_form(self, blobs, chunk_size):
        """The persistent-block distance path (PR 6) is a memory
        optimisation only: keep masks must equal the old chunked
        expression form ``col - 2.0 * gram + row`` exactly."""
        from repro.defenses.radius_filter import ensure_class_survival
        from repro.ml.base import signed_labels

        X, y = blobs
        sanitizer = KNNSanitizer(k=5, agreement=0.5, chunk_size=chunk_size)

        y_signed = signed_labels(y)
        n = X.shape[0]
        k = min(5, n - 1)
        sq_norms = np.einsum("ij,ij->i", X, X)
        keep = np.ones(n, dtype=bool)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            d2 = (sq_norms[start:stop, None]
                  - 2.0 * (X[start:stop] @ X.T)
                  + sq_norms[None, :])
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
            idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
            agree = (y_signed[idx] == y_signed[start:stop, None]).mean(axis=1)
            keep[start:stop] = agree >= 0.5
        reference = ensure_class_survival(keep, y)

        np.testing.assert_array_equal(sanitizer.mask(X, y), reference)


class TestPCADetector:
    def test_flags_off_subspace_outliers(self):
        rng = np.random.default_rng(0)
        # data on a 2-d plane inside 5-d space
        basis = rng.normal(size=(2, 5))
        X = rng.normal(size=(150, 2)) @ basis
        outliers = rng.normal(size=(10, 5)) * 5.0
        X_all = np.vstack([X, outliers])
        y = np.concatenate([np.zeros(75, int), np.ones(75, int),
                            rng.integers(0, 2, 10)])
        mask = PCADetector(n_components=2, remove_fraction=10 / 160).mask(X_all, y)
        assert (~mask[-10:]).mean() > 0.7

    def test_zero_fraction_noop(self, blobs):
        X, y = blobs
        assert PCADetector(remove_fraction=0.0).mask(X, y).all()

    def test_robust_refit_differs(self, blobs):
        X, y = blobs
        X = X.copy()
        X[:5] *= 50.0
        robust = PCADetector(n_components=2, remove_fraction=0.1, robust=True).mask(X, y)
        naive = PCADetector(n_components=2, remove_fraction=0.1, robust=False).mask(X, y)
        assert robust.shape == naive.shape


class TestLossFilter:
    def test_removes_high_loss_flips(self, blobs):
        X, y = blobs
        y_flipped = y.copy()
        ones = np.flatnonzero(y == 1)[:12]
        y_flipped[ones] = 0
        mask = LossFilter(remove_fraction=12 / len(X), n_rounds=2).mask(X, y_flipped)
        assert (~mask[ones]).mean() > 0.6

    def test_zero_fraction_noop(self, blobs):
        X, y = blobs
        assert LossFilter(remove_fraction=0.0).mask(X, y).all()

    def test_removal_budget_respected(self, blobs):
        X, y = blobs
        mask = LossFilter(remove_fraction=0.2, n_rounds=2).mask(X, y)
        assert (~mask).sum() <= int(0.2 * len(X)) + 1


class TestRONI:
    def test_rejects_planted_flips(self, blobs):
        X, y = blobs
        rng = np.random.default_rng(0)
        n_flip = 20
        idx = rng.choice(len(X), n_flip, replace=False)
        y_bad = y.copy()
        y_bad[idx] = 1 - y_bad[idx]
        mask = RONIDefense(seed=1, tolerance=0.0).mask(X, y_bad)
        flipped_removed = (~mask[idx]).mean()
        genuine_removed = (~mask[np.setdiff1d(np.arange(len(X)), idx)]).mean()
        assert flipped_removed > genuine_removed

    def test_report_metrics(self):
        keep = np.array([True, False, False, True])
        is_poison = np.array([False, True, False, False])
        report = defense_report(keep, is_poison)
        assert report.n_removed == 2
        assert report.poison_recall == 1.0
        assert report.genuine_loss == pytest.approx(1 / 3)
        assert report.precision == 0.5

    def test_report_shape_mismatch(self):
        with pytest.raises(ValueError):
            defense_report(np.ones(3, bool), np.ones(4, bool))
