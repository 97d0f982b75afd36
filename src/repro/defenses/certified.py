"""Certified upper bound on poisoning damage (Steinhardt et al., 2017 style).

The certified-defences framework the paper's related work builds on:
for a *fixed* sanitisation rule (here: the radius filter at percentile
``p``) and a contamination budget ``eps``, compute an upper bound on
the training loss any attacker confined to the feasible set (the
filter's interior) can force, by simulating the worst case directly —
an online mirror-descent game where each round the attacker inserts
the feasible point with the highest current hinge loss.

The returned certificate bounds the *training* hinge loss of the
regularised learner under the worst feasible attack; by the standard
online-to-batch argument it upper-bounds what any fixed-filter defence
can guarantee, which is the quantity the paper's E(p) curve measures
empirically.  Comparing ``certificate(p)`` across ``p`` reproduces the
qualitative trade-off of Figure 1 from first principles (no attack
simulation needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.geometry import compute_centroid, distances_to_centroid, \
    radius_for_percentile
from repro.defenses.base import Defense
from repro.ml.base import signed_labels
from repro.utils.validation import check_fraction, check_positive_int, check_X_y

__all__ = ["CertificateResult", "certify_radius_defense",
           "CertifiedRadiusDefense"]


@dataclass
class CertificateResult:
    """Certified worst-case analysis of a radius defence.

    Attributes
    ----------
    certified_loss:
        Upper bound on the regularised training hinge loss under any
        ``eps``-fraction attack confined to the filter's interior.
    clean_loss:
        The same learner's loss on clean data (the bound's floor).
    attack_contribution:
        ``certified_loss - clean_loss`` — how much the feasible attack
        can add; this is the certificate's counterpart of ``N·E(p)``.
    worst_points:
        The worst-case poisoning locations the certificate constructed
        (one per iteration), usable as an attack in their own right.
    loss_trace:
        Per-iteration averaged losses (the certificate is their mean).
    """

    certified_loss: float
    clean_loss: float
    attack_contribution: float
    worst_points: np.ndarray
    worst_labels: np.ndarray
    loss_trace: list = field(default_factory=list)
    weights: np.ndarray | None = None


def certify_radius_defense(
    X,
    y,
    *,
    filter_percentile: float,
    eps: float = 0.2,
    reg: float = 0.05,
    n_iter: int = 100,
    step: float = 0.5,
    centroid_method: str = "median",
) -> CertificateResult:
    """Certify the radius filter at ``filter_percentile`` against ``eps`` poisoning.

    Implements the online-learning certificate: at each round the model
    takes a gradient step on the mixture of the clean data and the
    current worst-case feasible point, and the attacker re-picks the
    feasible point with maximal hinge loss.  The averaged mixture loss
    upper-bounds the minimax training loss (regret analysis of online
    gradient descent on a linear game).

    The attacker's feasible set is the filter's interior: the ball of
    radius ``r(filter_percentile)`` around the (robust) centroid, with
    either label.  The worst feasible point for weights ``w`` and label
    ``y`` is the interior point minimising ``y·w·x`` — i.e.
    ``centroid + r·(-y)·w/||w||`` — so the inner maximisation is closed
    form for hinge loss.
    """
    X, y = check_X_y(X, y)
    check_fraction(filter_percentile, name="filter_percentile")
    eps = check_fraction(eps, name="eps", inclusive_high=False)
    check_positive_int(n_iter, name="n_iter")
    if reg <= 0 or step <= 0:
        raise ValueError("reg and step must be positive")

    y_signed = signed_labels(y).astype(float)
    centroid = compute_centroid(X, method=centroid_method)
    radius = radius_for_percentile(distances_to_centroid(X, centroid),
                                   filter_percentile)
    center = centroid.location

    d = X.shape[1]
    w = np.zeros(d)
    w_sum = np.zeros(d)
    worst_points, worst_labels = [], []
    mixture_losses = []
    clean_losses = []

    for t in range(1, n_iter + 1):
        w_sum += w  # the iterate whose losses this round measures
        # --- attacker's closed-form inner maximisation ----------------
        norm = np.linalg.norm(w)
        direction = w / norm if norm > 0 else np.zeros(d)
        candidates = []
        for label in (-1.0, 1.0):
            x_bad = center - label * radius * direction
            loss = max(0.0, 1.0 - label * float(x_bad @ w))
            candidates.append((loss, x_bad, label))
        worst_loss, x_star, y_star = max(candidates, key=lambda c: c[0])
        worst_points.append(x_star)
        worst_labels.append(int(y_star))

        # --- losses of the current iterate ----------------------------
        clean_scores = X @ w
        clean_hinge = np.maximum(0.0, 1.0 - y_signed * clean_scores).mean()
        mixture = (1.0 - eps) * clean_hinge + eps * worst_loss \
            + 0.5 * reg * float(w @ w)
        mixture_losses.append(mixture)
        clean_losses.append(clean_hinge + 0.5 * reg * float(w @ w))

        # --- defender's gradient step on the mixture -------------------
        grad = reg * w
        active = (y_signed * clean_scores) < 1.0
        if np.any(active):
            grad = grad - (1.0 - eps) * (
                (y_signed[active, None] * X[active]).sum(axis=0) / X.shape[0]
            )
        if worst_loss > 0.0:
            grad = grad - eps * y_star * x_star
        w = w - (step / np.sqrt(t)) * grad

    certified = float(np.mean(mixture_losses))
    clean = float(np.mean(clean_losses))
    return CertificateResult(
        certified_loss=certified,
        clean_loss=clean,
        attack_contribution=max(0.0, certified - clean),
        worst_points=np.vstack(worst_points),
        worst_labels=np.asarray(worst_labels),
        loss_trace=mixture_losses,
        weights=w_sum / n_iter,
    )


class CertifiedRadiusDefense(Defense):
    """The certificate turned into an operational sanitiser.

    The certificate analyses the radius filter at ``filter_percentile``:
    under ``eps``-contamination confined to that filter's interior, the
    averaged robust iterate the online game produced suffers at most
    ``certified_loss`` (mixture mean).  This defence applies that
    analysis to the data it receives:

    * points outside the ball (radius at ``filter_percentile`` of the
      received data's distance distribution, like the operational
      :class:`~repro.defenses.PercentileFilter`) are removed — they sit
      where the certificate grants the attacker nothing;
    * of the points *inside* the ball, those whose hinge loss under the
      certificate's averaged robust model exceeds ``certified_loss``
      are trimmed, worst first, up to the ``eps`` contamination budget
      the certificate assumed.  Margin-violating poison (the optimal
      attack's signature) carries exactly such losses, while the
      robust model — unlike the provisional fits of
      :class:`~repro.defenses.LossFilter` — was trained *not* to bend
      toward it; the budget cap keeps the trim inside the threat model
      instead of eating genuinely hard examples without bound.

    Deterministic (no RNG), so spec-driven rounds are bit-identical to
    direct application.
    """

    def __init__(self, filter_percentile: float = 0.1, *, eps: float = 0.2,
                 reg: float = 0.05, n_iter: int = 100, step: float = 0.5,
                 centroid_method: str = "median"):
        self.filter_percentile = check_fraction(filter_percentile,
                                                name="filter_percentile")
        self.eps = check_fraction(eps, name="eps", inclusive_high=False)
        self.reg = float(reg)
        self.n_iter = check_positive_int(n_iter, name="n_iter")
        self.step = float(step)
        self.centroid_method = centroid_method
        self.theta_: float | None = None
        self.certificate_: CertificateResult | None = None

    def mask(self, X, y):
        from repro.defenses.radius_filter import ensure_class_survival

        X, y = check_X_y(X, y)
        cert = certify_radius_defense(
            X, y, filter_percentile=self.filter_percentile, eps=self.eps,
            reg=self.reg, n_iter=self.n_iter, step=self.step,
            centroid_method=self.centroid_method,
        )
        self.certificate_ = cert
        centroid = compute_centroid(X, method=self.centroid_method)
        distances = distances_to_centroid(X, centroid)
        radius = radius_for_percentile(distances, self.filter_percentile)
        self.theta_ = radius
        keep = distances <= radius

        w = cert.weights
        budget = int(np.floor(self.eps * X.shape[0]))
        if w is not None and np.linalg.norm(w) > 0.0 and budget > 0:
            losses = np.maximum(0.0, 1.0 - signed_labels(y) * (X @ w))
            offenders = np.flatnonzero(keep & (losses > cert.certified_loss))
            worst = offenders[np.argsort(-losses[offenders])][:budget]
            keep[worst] = False
        return ensure_class_survival(keep, y)
