"""Reject On Negative Impact (Nelson et al., 2009).

RONI scores every candidate training point by the change in held-out
accuracy caused by adding it to a calibration set; points whose impact
is negative beyond a tolerance are rejected.  It is the most expensive
defence in the library (one retrain per candidate batch), so it scores
*batches* of candidates with a shared calibration model and uses the
fast closed-form :class:`RidgeClassifier` by default.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.defenses.radius_filter import ensure_class_survival
from repro.ml.base import clone_estimator, signed_labels
from repro.ml.batched import ridge_kernels_verified, ridge_scores_many
from repro.ml.ridge import RidgeClassifier
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_positive_int, check_X_y

# Candidates per stacked ridge solve on the fast path: large enough to
# amortise dispatch, small enough that the (chunk, n_base+1, d) stack of
# augmented calibration matrices stays cache-resident.
_FAST_CHUNK = 256

__all__ = ["RONIDefense"]


class RONIDefense(Defense):
    """Reject points whose marginal effect on held-out accuracy is negative.

    Parameters
    ----------
    base_fraction:
        Fraction of the data used as the trusted calibration training
        set (sampled randomly; under moderate contamination the sample
        is mostly clean, which is all RONI needs).
    val_fraction:
        Fraction used as the held-out accuracy probe.
    tolerance:
        Allowed accuracy drop before a point is rejected.  Small
        positive values avoid rejecting genuine points on noise.
    learner:
        Unfitted estimator used for the impact probes.
    seed:
        RNG seed for the calibration split.
    batch_size:
        Candidates are scored in batches of this size: the marginal
        impact of each batch member is measured against the same
        calibration model, trading a little fidelity for a large
        constant-factor speedup.
    """

    def __init__(self, *, base_fraction: float = 0.2, val_fraction: float = 0.2,
                 tolerance: float = 0.0, learner=None,
                 seed: int | np.random.Generator | None = 0, batch_size: int = 25):
        self.base_fraction = check_fraction(base_fraction, name="base_fraction",
                                            inclusive_low=False, inclusive_high=False)
        self.val_fraction = check_fraction(val_fraction, name="val_fraction",
                                           inclusive_low=False, inclusive_high=False)
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.tolerance = float(tolerance)
        self.learner = learner if learner is not None else RidgeClassifier(reg=1e-2)
        self.seed = seed
        self.batch_size = check_positive_int(batch_size, name="batch_size")

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        rng = as_generator(self.seed)
        n = X.shape[0]
        perm = rng.permutation(n)
        n_base = max(2, int(round(self.base_fraction * n)))
        n_val = max(2, int(round(self.val_fraction * n)))
        base_idx = perm[:n_base]
        val_idx = perm[n_base : n_base + n_val]
        candidate_idx = perm[n_base + n_val :]

        X_base, y_base = X[base_idx], y[base_idx]
        X_val, y_val = X[val_idx], y[val_idx]
        if len(np.unique(y_base)) < 2 or len(np.unique(y_val)) < 2:
            # Degenerate split; RONI cannot calibrate — keep everything.
            return np.ones(n, dtype=bool)

        baseline = clone_estimator(self.learner).fit(X_base, y_base).score(X_val, y_val)

        keep = np.ones(n, dtype=bool)
        for start in range(0, len(candidate_idx), self.batch_size):
            batch = candidate_idx[start : start + self.batch_size]
            for i in batch:
                model = clone_estimator(self.learner).fit(
                    np.vstack([X_base, X[i : i + 1]]),
                    np.concatenate([y_base, y[i : i + 1]]),
                )
                impact = model.score(X_val, y_val) - baseline
                if impact < -self.tolerance:
                    keep[i] = False
        return ensure_class_survival(keep, y)

    def kernel_mask(self, kernel, X, y, is_poison, sources):
        """Keep mask from the vectorised (stacked-ridge) impact scorer.

        The per-family fast-path hook ``evaluate_configuration``
        consults before :meth:`mask`.  RONI's probes reuse no kernel
        geometry — the hook is simply the engine's entry point to the
        batched scorer: every candidate's augmented calibration matrix
        ``[X_base; x_i]`` is stacked and all the closed-form ridge fits
        plus held-out scorings run as a handful of tensor ops
        (:func:`~repro.ml.batched.ridge_scores_many`) instead of one
        retrain per candidate.  Bit-identity with :meth:`mask` is
        guaranteed the same way as the batched SVM trainer: only
        probe-verified stacked kernels are used
        (:func:`~repro.ml.batched.ridge_kernels_verified`), and the
        method returns ``None`` — fall back to the sequential loop —
        for non-ridge learners or a failed probe.
        """
        if type(self.learner) is not RidgeClassifier:
            return None  # only the closed-form solve stacks losslessly
        X, y = check_X_y(X, y)
        rng = as_generator(self.seed)
        n = X.shape[0]
        perm = rng.permutation(n)
        n_base = max(2, int(round(self.base_fraction * n)))
        n_val = max(2, int(round(self.val_fraction * n)))
        base_idx = perm[:n_base]
        val_idx = perm[n_base : n_base + n_val]
        candidate_idx = perm[n_base + n_val :]

        X_base, y_base = X[base_idx], y[base_idx]
        X_val, y_val = X[val_idx], y[val_idx]
        if len(np.unique(y_base)) < 2 or len(np.unique(y_val)) < 2:
            return np.ones(n, dtype=bool)
        m, d = n_base + 1, X.shape[1]
        if not ridge_kernels_verified(m, d, X_val.shape[0]):
            return None

        baseline = clone_estimator(self.learner).fit(X_base, y_base).score(X_val, y_val)
        t_base = signed_labels(y_base).astype(float)
        t_cand = signed_labels(y).astype(float)
        t_val = signed_labels(y_val)

        keep = np.ones(n, dtype=bool)
        for start in range(0, len(candidate_idx), _FAST_CHUNK):
            cands = candidate_idx[start : start + _FAST_CHUNK]
            X_stack = np.empty((len(cands), m, d))
            X_stack[:, :n_base] = X_base
            X_stack[:, n_base] = X[cands]
            t_stack = np.empty((len(cands), m))
            t_stack[:, :n_base] = t_base
            t_stack[:, n_base] = t_cand[cands]
            scores = ridge_scores_many(
                X_stack, t_stack, X_val,
                reg=self.learner.reg,
                fit_intercept=self.learner.fit_intercept,
            )
            # Exactly score(): sign threshold, bool match, exact mean.
            accuracy = np.mean(np.where(scores >= 0.0, 1, -1) == t_val, axis=1)
            keep[cands[accuracy - baseline < -self.tolerance]] = False
        return ensure_class_survival(keep, y)
