"""The slab defence (Steinhardt, Koh & Liang, 2017).

Complements the sphere (radius) filter: instead of distance *from* the
class centroids, the slab scores each point by its displacement *along
the line connecting the two class centroids*,

    s(x) = | (x - (μ₊ + μ₋)/2) · (μ₊ - μ₋) | / ||μ₊ - μ₋||,

and removes the points that sit implausibly far along that axis.  The
sphere catches points that flee the data; the slab catches points that
camp between/beyond the classes along the discriminative direction —
exactly where label-opposed poisoning wants to live.  Together they
form the sphere+slab sanitisation of the certified-defences paper the
related-work section cites.

By default the class centroids are estimated from the (possibly
contaminated) data handed to :meth:`SlabFilter.mask` — the operational
defence.  ``centroids=`` pins the axis to precomputed per-class
centroids instead (the engine's ``slab_filter`` family passes the
*clean* ones for ``axis="clean"`` specs), which makes every score a
row-local dot product against fixed geometry — and therefore lets the
round kernel serve genuine rows' scores from a per-context cache
(:meth:`kernel_mask`), bit-identically to scoring them fresh.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.defenses.radius_filter import ensure_class_survival
from repro.data.geometry import compute_centroid
from repro.ml.base import signed_labels
from repro.utils.validation import check_fraction, check_X_y

__all__ = ["SlabFilter", "slab_axis_midpoint", "slab_displacement"]


def slab_axis_midpoint(mu_pos: np.ndarray, mu_neg: np.ndarray):
    """Unit class-centroid axis and its midpoint, or ``None`` if the
    centroids coincide.

    Module-level so the round kernel's cached slab geometry and the
    filter's from-scratch path share one implementation — the fast
    path's bit-identity contract depends on the two never diverging.
    """
    axis = mu_pos - mu_neg
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        return None
    return axis / norm, 0.5 * (mu_pos + mu_neg)


def slab_displacement(X: np.ndarray, axis: np.ndarray,
                      midpoint: np.ndarray) -> np.ndarray:
    """Absolute displacement of each row along ``axis`` from ``midpoint``.

    Row-local (one dot product per row), which is what makes cached
    per-row scores bit-identical to recomputing them in any batch.
    """
    return np.abs((X - midpoint) @ axis)


class SlabFilter(Defense):
    """Remove the fraction of points farthest along the class-mean axis.

    Parameters
    ----------
    remove_fraction:
        Fraction of the training set to remove (largest slab scores).
    centroid_method:
        Robust estimator for the per-class centroids (used when
        ``centroids`` is not given).
    centroids:
        Optional precomputed ``(mu_pos, mu_neg)`` pair pinning the slab
        axis; ``None`` (default) estimates both from the data being
        filtered.
    """

    def __init__(self, remove_fraction: float = 0.1, *,
                 centroid_method: str = "median", centroids=None):
        self.remove_fraction = check_fraction(remove_fraction,
                                              name="remove_fraction",
                                              inclusive_high=False)
        self.centroid_method = centroid_method
        self.centroids = None
        if centroids is not None:
            mu_pos, mu_neg = centroids
            self.centroids = (np.asarray(mu_pos, dtype=float),
                              np.asarray(mu_neg, dtype=float))

    def slab_scores(self, X, y) -> np.ndarray:
        """Absolute displacement along the class-centroid axis."""
        X, y = check_X_y(X, y)
        if self.centroids is not None:
            mu_pos, mu_neg = self.centroids
        else:
            y_signed = signed_labels(y)
            if len(np.unique(y_signed)) < 2:
                return np.zeros(X.shape[0])
            mu_pos = compute_centroid(X[y_signed == 1],
                                      method=self.centroid_method).location
            mu_neg = compute_centroid(X[y_signed == -1],
                                      method=self.centroid_method).location
        geometry = slab_axis_midpoint(mu_pos, mu_neg)
        if geometry is None:
            return np.zeros(X.shape[0])
        axis, midpoint = geometry
        return slab_displacement(X, axis, midpoint)

    def _keep_from_scores(self, scores: np.ndarray, y) -> np.ndarray:
        """Selection shared by the direct and kernel-served paths."""
        n_remove = int(np.floor(self.remove_fraction * scores.shape[0]))
        if n_remove == 0:
            return np.ones(scores.shape[0], dtype=bool)
        keep = np.ones(scores.shape[0], dtype=bool)
        keep[np.argsort(-scores)[:n_remove]] = False
        return ensure_class_survival(keep, y)

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        if self.remove_fraction == 0.0:
            return np.ones(X.shape[0], dtype=bool)
        return self._keep_from_scores(self.slab_scores(X, y), y)

    def kernel_mask(self, kernel, X, y, is_poison, sources):
        """Keep mask reusing the round kernel's cached clean slab scores.

        The per-family fast-path hook ``evaluate_configuration``
        consults for any defence: return the keep mask when this round
        can be served from the kernel, ``None`` to fall back to
        :meth:`mask`.  Applicable only when this filter's pinned
        ``centroids`` *are* the kernel's cached clean pair (identity,
        not equality — same convention as the kernel's attack-direction
        reuse), so cached genuine-row scores are bit-identical to what
        :meth:`mask` would recompute.
        """
        if self.centroids is None:
            return None
        pair = kernel.class_centroids
        if pair is None or self.centroids[0] is not pair[0] \
                or self.centroids[1] is not pair[1]:
            return None
        if self.remove_fraction == 0.0:
            return np.ones(np.asarray(X).shape[0], dtype=bool)
        scores = kernel.slab_scores(X, is_poison, sources)
        if scores is None:
            return None
        return self._keep_from_scores(scores, y)
