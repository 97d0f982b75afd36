"""PCA-subspace anomaly detection (Rubinstein et al., 2009, "ANTIDOTE" style).

Genuine data concentrates near a low-dimensional principal subspace;
poisoning points placed far out along adversarial directions tend to
have large residuals off that subspace.  The detector fits the top-q
principal components (optionally on a robust, trimmed pass) and removes
the points with the largest reconstruction residuals.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.defenses.radius_filter import ensure_class_survival
from repro.utils.validation import check_fraction, check_positive_int, check_X_y

__all__ = ["PCADetector"]


class PCADetector(Defense):
    """Remove the points with the largest off-subspace residuals.

    Parameters
    ----------
    n_components:
        Dimension of the principal subspace.
    remove_fraction:
        Fraction of points (largest residuals) to remove.
    robust:
        If true, the subspace is re-fitted once after provisionally
        dropping the initial outliers — a one-step trimmed PCA that
        blunts the attacker's influence on the subspace itself.
    """

    def __init__(self, n_components: int = 5, *, remove_fraction: float = 0.1,
                 robust: bool = True):
        self.n_components = check_positive_int(n_components, name="n_components")
        self.remove_fraction = check_fraction(remove_fraction, name="remove_fraction",
                                              inclusive_high=False)
        self.robust = bool(robust)

    def _residuals(self, X: np.ndarray, fit_rows: np.ndarray) -> np.ndarray:
        center = X[fit_rows].mean(axis=0)
        Xc = X - center
        q = min(self.n_components, X.shape[1], int(fit_rows.sum()) - 1)
        if q < 1:
            return np.zeros(X.shape[0])
        # Principal directions of the fitting subset.
        _, _, vt = np.linalg.svd(Xc[fit_rows], full_matrices=False)
        basis = vt[:q]
        projected = (Xc @ basis.T) @ basis
        return np.linalg.norm(Xc - projected, axis=1)

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        n = X.shape[0]
        if self.remove_fraction == 0.0:
            return np.ones(n, dtype=bool)
        all_rows = np.ones(n, dtype=bool)
        residuals = self._residuals(X, all_rows)
        n_remove = int(np.floor(self.remove_fraction * n))
        if n_remove == 0:
            return np.ones(n, dtype=bool)
        if self.robust:
            provisional_keep = np.ones(n, dtype=bool)
            provisional_keep[np.argsort(-residuals)[:n_remove]] = False
            residuals = self._residuals(X, provisional_keep)
        keep = np.ones(n, dtype=bool)
        keep[np.argsort(-residuals)[:n_remove]] = False
        return ensure_class_survival(keep, y)
