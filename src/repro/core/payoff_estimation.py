"""Estimating ``E(p)`` and ``Γ(p)`` from pure-strategy sweep measurements.

The paper: "The input of the algorithm, E(p) and Γ(p), are approximated
using the results in Fig. 1."  Concretely:

* ``Γ(p)`` — collateral cost — is the accuracy the *clean* model loses
  when a filter removes fraction ``p`` of genuine data:
  ``Γ(p) = acc_clean(0) - acc_clean(p)``.
* ``E(p)`` — per-point damage — comes from the attacked curve: when
  the optimal attack places all ``N`` points just inside a filter at
  ``p`` (so they survive), the measured accuracy satisfies
  ``acc_attacked(p) ≈ acc_clean(p) - N * E(p)``, hence
  ``E(p) = (acc_clean(p) - acc_attacked(p)) / N``.

Raw sweep measurements are noisy (SVM training is stochastic), so both
curves are regularised to their known shapes — ``Γ`` non-decreasing,
``E`` non-increasing — by isotonic regression (pool-adjacent-violators)
and then interpolated with a shape-preserving monotone cubic (PCHIP).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.game import PayoffCurves
from repro.utils.validation import check_positive_int, check_sorted_increasing

__all__ = ["MonotoneCurve", "isotonic_regression", "fit_monotone_curve",
           "estimate_payoff_curves"]


def isotonic_regression(y, *, increasing: bool = True, weights=None) -> np.ndarray:
    """Pool-adjacent-violators (PAVA) isotonic fit.

    Returns the monotone sequence minimising the (weighted) squared
    distance to ``y``.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a non-empty 1-d array")
    if weights is None:
        weights = np.ones_like(y)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != y.shape or np.any(weights <= 0):
            raise ValueError("weights must be positive and match y's shape")
    if not increasing:
        return -isotonic_regression(-y, increasing=True, weights=weights)

    # Blocks of (value, weight, count), merged while out of order.
    values = list(y)
    w = list(weights)
    counts = [1] * len(values)
    i = 0
    while i < len(values) - 1:
        if values[i] > values[i + 1] + 1e-15:
            total_w = w[i] + w[i + 1]
            merged = (values[i] * w[i] + values[i + 1] * w[i + 1]) / total_w
            values[i : i + 2] = [merged]
            counts[i : i + 2] = [counts[i] + counts[i + 1]]
            w[i : i + 2] = [total_w]
            if i > 0:
                i -= 1
        else:
            i += 1
    return np.repeat(values, counts)


class MonotoneCurve:
    """A fitted monotone curve, callable on scalars *and* arrays.

    Wraps PCHIP through already-monotone knots (PCHIP through monotone
    data is monotone) with endpoint clamping.  Three properties the
    payoff layer relies on:

    * ``curve(p)`` keeps the legacy scalar ``float -> float`` contract;
    * ``curve.evaluate(ps)`` evaluates a whole grid in one vectorised
      interpolant call (``PayoffCurves.E_vec``/``gamma_vec`` dispatch
      on this method), elementwise-identical to the scalar path;
    * instances pickle by their knots, so curves ride along with
      experiment contexts and round batches across process boundaries.
    """

    def __init__(self, x, y, clamp: bool = True):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 1 or self.x.size == 0 or self.y.shape != self.x.shape:
            raise ValueError(
                f"knots must be matching 1-d arrays, got {self.x.shape} vs "
                f"{self.y.shape}"
            )
        self.clamp = bool(clamp)
        # Imported here so that importing repro loads no scipy (shards and
        # pool workers never fit a curve).
        from scipy.interpolate import PchipInterpolator

        # PCHIP needs strictly increasing x but handles flat stretches
        # in y fine; a single knot degenerates to a constant curve.
        self._interp = (PchipInterpolator(self.x, self.y, extrapolate=False)
                        if self.x.size > 1 else None)

    def __reduce__(self):
        return (type(self), (self.x, self.y, self.clamp))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.x.size} knots on "
                f"[{self.x[0]:g}, {self.x[-1]:g}], clamp={self.clamp})")

    def evaluate(self, ps) -> np.ndarray | float:
        """Vectorised evaluation; scalar in, scalar out."""
        ps = np.asarray(ps, dtype=float)
        scalar = ps.ndim == 0
        grid = np.atleast_1d(ps)
        if self._interp is None:
            out = np.full(grid.shape, float(self.y[0]))
        else:
            out = np.asarray(self._interp(grid), dtype=float)
            if self.clamp:
                out = np.where(grid <= self.x[0], self.y[0], out)
                out = np.where(grid >= self.x[-1], self.y[-1], out)
            nan = np.isnan(out)
            if nan.any():
                raise ValueError(
                    f"curve evaluated outside fitted range at p={grid[nan][0]}"
                )
        return float(out[0]) if scalar else out

    def __call__(self, p: float) -> float:
        return float(self.evaluate(float(p)))


def fit_monotone_curve(x, y, *, increasing: bool = True,
                       clamp: bool = True) -> MonotoneCurve:
    """Fit a smooth monotone curve through noisy samples.

    PAVA enforces the shape, PCHIP interpolates it without overshoot.
    Outside the sampled range the curve is clamped to its endpoint
    values when ``clamp`` (sensible for accuracy-derived curves, which
    saturate).  Returns a :class:`MonotoneCurve` — callable like the
    plain function it used to be, but vectorisation-aware.
    """
    x = check_sorted_increasing(x, name="x", strict=True)
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"x and y must match, got {x.shape} vs {y.shape}")
    y_iso = isotonic_regression(y, increasing=increasing)
    return MonotoneCurve(x, y_iso, clamp=clamp)


def estimate_payoff_curves(
    percentiles,
    acc_clean,
    acc_attacked,
    n_poison: int,
    *,
    p_max: float | None = None,
) -> PayoffCurves:
    """Build :class:`PayoffCurves` from a Figure-1 style sweep.

    Parameters
    ----------
    percentiles:
        Filter strengths swept (must include 0 — the no-filter
        baseline that anchors ``Γ(0) = 0``).
    acc_clean:
        Test accuracy with the filter but **no attack** at each
        percentile.
    acc_attacked:
        Test accuracy with the filter and the optimal boundary attack
        surviving at each percentile.
    n_poison:
        The attack budget ``N`` used in the sweep.
    p_max:
        Domain bound for the curves.  ``None`` (default) truncates
        automatically at the percentile where the measured damage gap
        ``acc_clean - acc_attacked`` reaches its minimum: beyond that
        point the empirical damage *rises* again (stronger filters
        amplify the surviving poison's relative mass), which violates
        the game model's premise that ``E`` is non-increasing — those
        filter strengths are outside the model's validity range, and a
        rational defender never uses them anyway (both ``E`` and ``Γ``
        grow there).
    """
    percentiles = check_sorted_increasing(percentiles, name="percentiles", strict=True)
    acc_clean = np.asarray(acc_clean, dtype=float)
    acc_attacked = np.asarray(acc_attacked, dtype=float)
    n_poison = check_positive_int(n_poison, name="n_poison")
    if acc_clean.shape != percentiles.shape or acc_attacked.shape != percentiles.shape:
        raise ValueError("percentiles, acc_clean and acc_attacked must align")
    if percentiles[0] != 0.0:
        raise ValueError(
            "the sweep must include percentile 0 (the unfiltered baseline); "
            f"got minimum {percentiles[0]}"
        )

    baseline = float(acc_clean[0])
    gamma_samples = np.clip(baseline - acc_clean, 0.0, None)
    gamma_samples[0] = 0.0  # exact anchor: no filter, no collateral cost
    # Non-negative samples with a zero first entry keep PAVA from ever
    # pooling the anchor upward, so gamma(0) == 0 exactly.
    gamma = fit_monotone_curve(percentiles, gamma_samples, increasing=True)

    damage_samples = (acc_clean - acc_attacked) / n_poison
    E = fit_monotone_curve(percentiles, damage_samples, increasing=False)

    if p_max is not None:
        domain = float(p_max)
    else:
        gap_min_idx = int(np.argmin(acc_clean - acc_attacked))
        domain = float(percentiles[gap_min_idx])
        if domain <= 0.0:
            domain = float(percentiles[-1])
    return PayoffCurves(E=E, gamma=gamma, p_max=domain)
