"""The paper's defence: remove points outside a centroid-centred sphere.

"The defender also chooses θ_d as the radius of the filter.  Any data
points outside the hypersphere centered at the centroid of the original
dataset with radius θ_d will be removed."

The defender computes the centroid from the (possibly contaminated)
training set it actually has; the paper argues a robust estimator
(median) keeps this valid under moderate contamination.  Both a single
global sphere and per-class spheres (the Steinhardt et al. variant) are
supported.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.data.geometry import compute_centroid, distances_to_centroid
from repro.ml.base import signed_labels
from repro.utils.validation import check_X_y

__all__ = ["RadiusFilter", "ensure_class_survival"]


class RadiusFilter(Defense):
    """Keep only points within ``theta`` of the centroid.

    Parameters
    ----------
    theta:
        Filter radius (geometric units of the feature space).
    centroid_method:
        ``"median"`` (robust default), ``"mean"`` or ``"trimmed_mean"``.
    per_class:
        Apply a separate sphere around each class's centroid (same
        radius).  With ``False`` (the paper's model) one global sphere
        is used.
    centroid:
        Optional precomputed centroid (a
        :class:`~repro.data.geometry.Centroid` or location array).
        When given, the sphere is centred there instead of on an
        estimate from the filtered set itself — this is how the
        experiment pipeline realises the paper's "hypersphere centered
        at the centroid of the *original* dataset" exactly, reusing
        the clean-data centroid its context precomputed.  Incompatible
        with ``per_class``.
    """

    def __init__(self, theta: float, *, centroid_method: str = "median",
                 per_class: bool = False, centroid=None):
        if theta < 0 or not np.isfinite(theta):
            raise ValueError(f"theta must be a finite non-negative radius, got {theta}")
        if centroid is not None and per_class:
            raise ValueError("a precomputed centroid cannot be combined with "
                             "per_class=True (per-class centroids are "
                             "estimated from each class's own points)")
        self.theta = float(theta)
        self.centroid_method = centroid_method
        self.per_class = bool(per_class)
        self.centroid = centroid

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        if not self.per_class:
            centroid = self.centroid
            if centroid is None:
                centroid = compute_centroid(X, method=self.centroid_method)
            keep = distances_to_centroid(X, centroid) <= self.theta
        else:
            y_signed = signed_labels(y)
            keep = np.zeros(X.shape[0], dtype=bool)
            for label in (-1, 1):
                members = y_signed == label
                if not members.any():
                    continue
                centroid = compute_centroid(X[members], method=self.centroid_method)
                dist = distances_to_centroid(X[members], centroid)
                keep[np.flatnonzero(members)[dist <= self.theta]] = True
        keep = ensure_class_survival(keep, y)
        return keep


def ensure_class_survival(keep: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Guarantee at least one kept sample per present class.

    If a filter removes an entire class, re-admit that class's single
    innermost point — training is otherwise impossible and downstream
    code would crash on degenerate labels.
    """
    y_signed = signed_labels(y)
    keep = keep.copy()
    for label in np.unique(y_signed):
        members = np.flatnonzero(y_signed == label)
        if not keep[members].any():
            keep[members[0]] = True
    return keep
