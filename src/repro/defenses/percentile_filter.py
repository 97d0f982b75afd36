"""Percentile-parameterised distance filter (the paper's x-axis).

Figure 1 sweeps "the percentage of data points removed by the filter";
this defence takes that percentage directly and derives the radius from
the training set it is given.  It is the operational form of
:class:`repro.defenses.RadiusFilter` — the defender does not know the
genuine distance distribution, so it computes the cut-off quantile on
the (possibly contaminated) data it has, exactly as a real deployment
would.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.defenses.radius_filter import ensure_class_survival
from repro.data.geometry import compute_centroid, distances_to_centroid
from repro.utils.validation import check_fraction, check_X_y

__all__ = ["PercentileFilter"]


class PercentileFilter(Defense):
    """Remove the ``fraction`` of training points farthest from the centroid.

    Parameters
    ----------
    fraction:
        Fraction of the training set to remove (``0`` disables the
        filter entirely — the boundary strategy ``B``).
    centroid_method:
        Centroid estimator; the robust ``"median"`` default is what
        keeps the filter meaningful under contamination.

    Attributes (after :meth:`mask`)
    -------------------------------
    theta_:
        The geometric radius the fraction translated to on the last
        dataset seen — this is the defender's realised θ_d.
    """

    def __init__(self, fraction: float, *, centroid_method: str = "median"):
        self.fraction = check_fraction(fraction, name="fraction", inclusive_high=False)
        self.centroid_method = centroid_method
        self.theta_: float | None = None

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        if self.fraction == 0.0:
            self.theta_ = float("inf")
            return np.ones(X.shape[0], dtype=bool)
        centroid = compute_centroid(X, method=self.centroid_method)
        distances = distances_to_centroid(X, centroid)
        cutoff = float(np.quantile(distances, 1.0 - self.fraction))
        self.theta_ = cutoff
        keep = distances <= cutoff
        return ensure_class_survival(keep, y)
