"""k-NN label sanitisation (Paudice et al., 2018 style).

A point is suspicious when its label disagrees with the dominant label
of its k nearest neighbours — poisoning points planted deep in the
opposite class's region trip this immediately, even when they sit at
an inconspicuous distance from the global centroid.  Kept as a
comparison defence in the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense
from repro.defenses.radius_filter import ensure_class_survival
from repro.ml.base import signed_labels
from repro.utils.validation import check_fraction, check_positive_int, check_X_y

__all__ = ["KNNSanitizer"]


class KNNSanitizer(Defense):
    """Remove points whose neighbourhood label agreement is too low.

    Parameters
    ----------
    k:
        Number of neighbours (the point itself excluded).
    agreement:
        Minimum fraction of neighbours sharing the point's label for it
        to be kept.
    chunk_size:
        Pairwise distances are computed in row chunks of this size to
        bound memory at ``O(chunk_size * n)``.
    """

    def __init__(self, k: int = 10, *, agreement: float = 0.5, chunk_size: int = 512):
        self.k = check_positive_int(k, name="k")
        self.agreement = check_fraction(agreement, name="agreement")
        self.chunk_size = check_positive_int(chunk_size, name="chunk_size")

    def mask(self, X, y):
        X, y = check_X_y(X, y)
        y_signed = signed_labels(y)
        n = X.shape[0]
        k = min(self.k, n - 1)
        if k == 0:
            return np.ones(n, dtype=bool)
        sq_norms = np.einsum("ij,ij->i", X, X)
        keep = np.ones(n, dtype=bool)
        # One persistent (chunk, n) block serves every iteration: the
        # gemm writes straight into it and the norm terms fold in
        # place, so peak extra memory is a single fixed-size block
        # instead of the four chunk-sized temporaries the expression
        # form ``col - 2.0 * gram + row`` allocated per chunk.  Bits
        # are unchanged: ``(-2.0) * g == -(2.0 * g)`` (sign flips are
        # exact) and ``a - b == a + (-b)`` in IEEE-754, with the same
        # left-to-right accumulation order as the expression.
        block = np.empty((min(self.chunk_size, n), n))
        for start in range(0, n, self.chunk_size):
            stop = min(start + self.chunk_size, n)
            # Squared Euclidean distances from this chunk to everything.
            d2 = block[: stop - start]
            np.dot(X[start:stop], X.T, out=d2)
            np.multiply(d2, -2.0, out=d2)
            np.add(d2, sq_norms[start:stop, None], out=d2)
            np.add(d2, sq_norms[None, :], out=d2)
            rows = np.arange(stop - start)
            d2[rows, np.arange(start, stop)] = np.inf  # exclude self
            neighbour_idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
            neighbour_labels = y_signed[neighbour_idx]
            agree = (neighbour_labels == y_signed[start:stop, None]).mean(axis=1)
            keep[start:stop] = agree >= self.agreement
        return ensure_class_survival(keep, y)
