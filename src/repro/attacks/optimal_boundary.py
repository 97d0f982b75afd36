"""The paper's optimal radius-targeted poisoning attack.

"For each radius r_i, n_i poisoning points will be placed optimally
within r_i distance from the centroid of the original dataset.  Since
the poisoning points are placed optimally, we can expect their
locations to be near the boundary of the hypersphere with radius r_i."

Optimal placement against a margin classifier: a poisoning point with
label ``y`` does maximal damage when it sits as deep as allowed inside
the region the current model assigns to ``-y`` — it then has maximal
hinge loss and drags the decision boundary furthest.  Concretely, with
surrogate weights ``w`` trained on clean data, a point labelled ``y``
is placed at

    centroid + r * unit(-y * w + jitter)

i.e. at exact distance ``r`` from the centroid, in the direction that
opposes its own label, with a small random angular jitter so the ``n``
points do not coincide (coincident points are trivially detectable and
numerically degenerate).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import PoisoningAttack
from repro.data.geometry import Centroid, compute_centroid, distances_to_centroid, \
    radius_for_percentile
from repro.ml.base import clone_estimator, signed_labels
from repro.ml.ridge import RidgeClassifier
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_X_y

__all__ = ["OptimalBoundaryAttack", "surrogate_direction"]


def surrogate_direction(X, y, surrogate) -> np.ndarray | None:
    """The attack's unit direction: fitted surrogate, or fallbacks.

    Deterministic in ``(X, y, surrogate params)`` — this is the
    per-round computation that
    :class:`~repro.experiments.kernel.ContextKernel` hoists out of the
    hot path, so it must consume no RNG.  Returns ``None`` when both
    the surrogate weights and the class-mean difference are zero; the
    caller then falls back to a seeded random direction.
    """
    model = clone_estimator(surrogate).fit(X, y)
    w = np.asarray(model.coef_, dtype=float)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        # Degenerate surrogate (e.g. constant labels after filtering);
        # fall back to the class-mean difference direction.
        y_signed = signed_labels(y)
        w = X[y_signed == 1].mean(axis=0) - X[y_signed == -1].mean(axis=0)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return None
    return w / norm


class OptimalBoundaryAttack(PoisoningAttack):
    """Place poisoning points optimally at a target radius.

    Parameters
    ----------
    target_percentile:
        The radius expressed on the paper's percentile axis: the
        fraction of *genuine* points farther than the placement radius.
        ``0.0`` places points at the very boundary of the data
        (maximum damage, maximum detectability); larger values move the
        points inward, hiding them below stronger filters.
    surrogate:
        Unfitted estimator the attacker trains on the clean data to
        obtain the damaging direction.  Defaults to a
        :class:`RidgeClassifier` (fast, deterministic); the direction
        only needs to be roughly right.
    centroid_method:
        How the attacker estimates the defender's centroid.
    label_balance:
        Fraction of poisoning points given the positive label
        (default 0.5: both classes attacked symmetrically).
    jitter:
        Angular jitter magnitude relative to the main direction.
    inset:
        Points are placed at ``(1 - inset) * r`` — strictly *within*
        the target radius, as the paper requires ("within r_i
        distance"), so a filter at exactly that radius keeps them.
    precomputed:
        Optional :class:`~repro.experiments.kernel.ContextKernel`
        (or any object with ``describes(X)``, ``centroid``,
        ``attack_radius(p)`` and ``direction``) carrying the clean
        data's centroid, percentile->radius lookup and fitted surrogate
        direction.  When it describes the ``X`` handed to
        :meth:`generate` (the same buffer with the same layout and
        dtype — never a value comparison), the per-round surrogate
        refit and geometry recomputation are skipped — bit-identically.
        For any other ``X``, copies included, the attack computes
        everything from scratch as if ``precomputed`` were ``None``.
    """

    def __init__(
        self,
        target_percentile: float = 0.0,
        *,
        surrogate=None,
        centroid_method: str = "median",
        label_balance: float = 0.5,
        jitter: float = 0.25,
        inset: float = 1e-3,
        precomputed=None,
    ):
        self.target_percentile = check_fraction(target_percentile,
                                                name="target_percentile")
        self.surrogate = surrogate if surrogate is not None else RidgeClassifier(reg=1e-2)
        self.centroid_method = centroid_method
        self.label_balance = check_fraction(label_balance, name="label_balance")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.jitter = float(jitter)
        self.inset = check_fraction(inset, name="inset", inclusive_high=False)
        self.precomputed = precomputed

    def generate(self, X, y, n_poison, *, seed=None):
        X, y = check_X_y(X, y)
        rng = as_generator(seed)
        pre = self.precomputed
        if pre is not None and pre.describes(X):
            centroid = pre.centroid
            radius = pre.attack_radius(self.target_percentile)
            w_unit = pre.direction
        else:
            centroid = compute_centroid(X, method=self.centroid_method)
            distances = distances_to_centroid(X, centroid)
            radius = radius_for_percentile(distances, self.target_percentile)
            w_unit = surrogate_direction(X, y, self.surrogate)
        if w_unit is None:
            # Fully degenerate clean data: seeded random direction.
            w = rng.normal(size=X.shape[1])
            w_unit = w / np.linalg.norm(w)

        n_pos = int(round(self.label_balance * n_poison))
        labels = np.concatenate([
            np.ones(n_pos, dtype=int),
            -np.ones(n_poison - n_pos, dtype=int),
        ])
        rng.shuffle(labels)

        directions = -labels[:, None] * w_unit[None, :]
        if self.jitter > 0:
            noise = rng.normal(size=(n_poison, X.shape[1]))
            noise -= (noise @ w_unit)[:, None] * w_unit[None, :]  # orthogonal jitter
            row_norms = np.linalg.norm(noise, axis=1, keepdims=True)
            row_norms[row_norms == 0] = 1.0
            directions = directions + self.jitter * noise / row_norms
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

        placement_radius = (1.0 - self.inset) * radius
        X_poison = centroid.location[None, :] + placement_radius * directions
        return X_poison, labels

    def placement_radius(self, X, y=None) -> float:
        """The geometric radius this attack targets on dataset ``X``."""
        X = np.asarray(X, dtype=float)
        centroid = compute_centroid(X, method=self.centroid_method)
        distances = distances_to_centroid(X, centroid)
        return (1.0 - self.inset) * radius_for_percentile(distances, self.target_percentile)
