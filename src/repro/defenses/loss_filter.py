"""Loss-based trimming (Steinhardt et al., 2017 flavour).

Train a provisional model on everything, then drop the points with the
highest training loss and retrain.  Poisoning points engineered to be
margin-violating (like the paper's optimal attack) carry the largest
hinge losses, so one or two trimming rounds remove most of them — at
the cost of also trimming genuinely hard examples, the same
accuracy-vs-robustness trade-off the radius filter exhibits.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.defenses.radius_filter import ensure_class_survival
from repro.ml.base import clone_estimator, signed_labels
from repro.ml.metrics import hinge_loss
from repro.ml.ridge import RidgeClassifier
from repro.utils.validation import check_fraction, check_positive_int, check_X_y

__all__ = ["LossFilter"]


class LossFilter(Defense):
    """Iteratively remove the highest-loss fraction of the training set.

    Parameters
    ----------
    remove_fraction:
        Total fraction of points to remove (split across rounds).
    n_rounds:
        Number of trim-retrain rounds.
    learner:
        Unfitted estimator used for the provisional fits.
    """

    def __init__(self, remove_fraction: float = 0.1, *, n_rounds: int = 2, learner=None):
        self.remove_fraction = check_fraction(remove_fraction, name="remove_fraction",
                                              inclusive_high=False)
        self.n_rounds = check_positive_int(n_rounds, name="n_rounds")
        self.learner = learner if learner is not None else RidgeClassifier(reg=1e-2)

    def kernel_mask(self, kernel, X, y, is_poison, sources):
        """Serve the clean-data mask from the context kernel's memo.

        The trim loop is deterministic given ``(X, y)`` and the filter
        parameters — no per-round randomness — so on *clean* rounds
        (no poison present) every round of a sweep recomputes the
        identical mask, two ridge fits per round.  When ``X`` is the
        kernel's own clean training matrix, delegate to
        :meth:`~repro.experiments.kernel.ContextKernel.reuse_mask`,
        which memoises it behind a one-time replay probe (bit-compare
        on second use, permanent sequential fallback on mismatch).
        ``None`` — poisoned round, foreign matrix, or a non-ridge
        learner whose clone semantics we have not verified — means
        "not applicable": the runner falls through to :meth:`mask`.
        Cache keys are untouched; the mask is bit-identical.
        """
        if type(self.learner) is not RidgeClassifier:
            return None
        if is_poison is not None and np.asarray(is_poison).any():
            return None
        if not kernel.describes(X):
            return None
        key = ("loss_filter", float(self.remove_fraction),
               int(self.n_rounds), float(self.learner.reg),
               bool(self.learner.fit_intercept))
        return kernel.reuse_mask(key, lambda: self.mask(X, y))

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        n = X.shape[0]
        if self.remove_fraction == 0.0:
            return np.ones(n, dtype=bool)
        keep = np.ones(n, dtype=bool)
        per_round = int(np.floor(self.remove_fraction * n / self.n_rounds))
        if per_round == 0:
            return np.ones(n, dtype=bool)
        for _ in range(self.n_rounds):
            active = np.flatnonzero(keep)
            if len(np.unique(y[active])) < 2 or len(active) <= per_round:
                break
            model = clone_estimator(self.learner).fit(X[active], y[active])
            scores = model.decision_function(X[active])
            losses = hinge_loss(signed_labels(y[active]), scores, reduce=False)
            worst = active[np.argsort(-losses)[:per_round]]
            keep[worst] = False
        return ensure_class_survival(keep, y)
