"""Precomputed per-context geometry — the round kernel's constant part.

Profiling one uncached attack/filter/train/score round shows most of
its time recomputing quantities that never change within a context:

* the clean-data centroid and the distance of every clean training row
  to it (the attack recomputes both on the identical ``X_train`` every
  round, and the filter recomputes the genuine-row distances);
* percentile -> radius conversions (a quantile over the same distance
  vector, once per round for the attack and once for the filter);
* the attacker's surrogate direction (a full victim-model fit on the
  clean data whose result is a deterministic function of the context).

A :class:`ContextKernel` computes each of these once, lazily, and is
cached on the :class:`~repro.experiments.runner.ExperimentContext`
(``ctx.kernel()``).  ``evaluate_configuration`` threads it through the
attack (:class:`~repro.attacks.optimal_boundary.OptimalBoundaryAttack`
accepts it as ``precomputed=``) and the filter stage, where genuine
rows reuse the cached clean distances and only poison rows need fresh
distance computation.

Bit-identity contract
---------------------
Everything the kernel serves is **bit-identical** to computing it from
scratch: per-row distance computations are row-local (``np.linalg.norm``
reduces each row independently), quantiles are order statistics
(independent of input order), and the surrogate direction is a
deterministic function of the clean split and the context seed.  The
equivalence tests in ``tests/experiments/test_round_kernel.py`` enforce
this against a from-scratch reference path.

The kernel never leaves its process with the context: it is
derivable, and the engine's process backend ships only the one
expensive field (the fitted surrogate direction) beside the context's
arrays in its shared block — see :mod:`repro.engine.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.data.geometry import (
    Centroid,
    compute_centroid,
    distances_to_centroid,
    radius_for_percentile,
)
from repro.defenses.radius_filter import ensure_class_survival
from repro.utils.blas import pin_one_blas_thread
from repro.utils.rng import derive_seed

__all__ = ["ContextKernel", "build_context_kernel"]

# Sentinel: "direction not computed yet" (None is a valid computed value,
# meaning the clean data is degenerate and the attack must fall back to
# its seeded random direction).
_UNSET = "unset"


@dataclass
class ContextKernel:
    """Cached clean-data geometry plus the fitted attack direction.

    Attributes
    ----------
    X_train:
        The clean training matrix this kernel describes (held by
        reference; used for a same-buffer check, never copied).
    centroid:
        Clean-data centroid under the context's ``centroid_method``.
    clean_distances:
        Distance of every clean training row to ``centroid``, aligned
        with ``X_train`` rows.
    map_distances:
        The context's :class:`~repro.data.geometry.RadiusPercentileMap`
        distance vector (sorted), kept so filter radii are produced by
        exactly the same lookup as before the kernel existed.
    """

    X_train: np.ndarray
    y_train: np.ndarray
    centroid: Centroid
    clean_distances: np.ndarray
    map_distances: np.ndarray
    surrogate_factory: object = None
    centroid_method: str = "median"
    _direction: object = _UNSET
    _attack_radii: dict = field(default_factory=dict)
    _filter_radii: dict = field(default_factory=dict)
    _slab: object = _UNSET
    _mask_cache: dict = field(default_factory=dict)

    # -- percentile -> radius lookups --------------------------------------

    def attack_radius(self, percentile: float) -> float:
        """Placement radius at ``percentile`` over the clean distances.

        Identical to ``radius_for_percentile`` on a freshly computed
        distance vector (quantiles are order statistics), memoised.
        """
        key = float(percentile)
        r = self._attack_radii.get(key)
        if r is None:
            r = radius_for_percentile(self.clean_distances, key)
            self._attack_radii[key] = r
        return r

    def filter_radius(self, percentile: float) -> float:
        """Filter radius at ``percentile``; memoised
        ``ctx.radius_map.radius`` (same array, same quantile)."""
        key = float(percentile)
        r = self._filter_radii.get(key)
        if r is None:
            r = radius_for_percentile(self.map_distances, key)
            self._filter_radii[key] = r
        return r

    # -- attack direction ---------------------------------------------------

    @property
    def direction(self) -> np.ndarray | None:
        """Unit attack direction of the surrogate fitted on clean data.

        Computed on first access (one victim-model fit per context, the
        single most expensive per-round saving) and ``None`` when the
        clean data is degenerate — the attack then falls back to its
        seeded random direction exactly as the from-scratch path does.
        """
        if isinstance(self._direction, str):
            from repro.attacks.optimal_boundary import surrogate_direction

            self._direction = surrogate_direction(
                self.X_train, self.y_train, self.surrogate_factory()
            )
        return self._direction

    @property
    def direction_computed(self) -> bool:
        """Whether :attr:`direction` has been materialised yet."""
        return not isinstance(self._direction, str)

    def prewarm(self) -> None:
        """Compute the fitted attack direction and the clean slab
        geometry now.

        Pooled executors (the process backend, on a context's first
        batch, and the shard server, at start-up) call this before
        packing the context, so the surrogate fit happens once per
        context instead of once per worker.
        """
        self.direction
        self.clean_slab_scores

    def reuse_mask(self, key, compute) -> np.ndarray:
        """Memoise a clean-data keep mask under ``key``, probe-verified.

        A defence whose mask over the *clean* training matrix is a pure
        function of its parameters (e.g. the loss filter's iterative
        trim — no poison, no per-round seed in the computation) may
        serve it from the kernel instead of recomputing per round.
        Trust is earned, not assumed: the first call computes and
        stores, the **second** call recomputes and bit-compares — any
        mismatch permanently disables reuse for ``key`` (every later
        call recomputes sequentially), so a defence whose mask turns
        out not to be round-invariant degrades to exactly the
        from-scratch behaviour instead of serving a wrong mask.
        """
        cached = self._mask_cache.get(key)
        if cached is False:
            # Failed its replay probe once: permanent fallback.
            return np.asarray(compute(), dtype=bool)
        if cached is None:
            mask = np.asarray(compute(), dtype=bool)
            self._mask_cache[key] = ("unverified", mask)
            return mask.copy()
        state, mask = cached
        if state == "unverified":
            replay = np.asarray(compute(), dtype=bool)
            if not np.array_equal(replay, mask):
                self._mask_cache[key] = False
                return replay
            self._mask_cache[key] = ("verified", mask)
        return mask.copy()

    def describes(self, X: np.ndarray) -> bool:
        """``True`` when ``X`` is the clean training matrix's own memory.

        A same-buffer, same-layout (not equality) check: ``X`` must
        start at the address of :attr:`X_train` with the same shape
        and strides and an equal dtype.  Values are never compared, so
        a copy — however equal — and any slice or transpose stay
        foreign, and a kernel-carrying attack applied to them silently
        falls back to the from-scratch path.  Object identity alone is
        too strict: for an array whose dtype equals float64 without
        being its canonical instance, input validation's
        ``np.asarray(X, dtype=float)`` hands back a fresh view of the
        very same buffer rather than ``X_train`` itself.
        """
        if X is self.X_train:
            return True
        own = self.X_train
        return (isinstance(X, np.ndarray)
                and X.__array_interface__["data"][0]
                == own.__array_interface__["data"][0]
                and X.shape == own.shape and X.strides == own.strides
                and X.dtype == own.dtype)

    # -- per-class slab geometry -------------------------------------------

    def _slab_geometry(self):
        """Lazily computed clean slab geometry, or ``None`` if degenerate.

        Returns ``(class_centroids, axis, midpoint, clean_scores)``:
        the per-class clean centroids ``(mu_pos, mu_neg)``, the unit
        class-centroid axis, its midpoint, and every clean training
        row's absolute displacement along it — the quantities a
        :class:`~repro.defenses.slab_filter.SlabFilter` pinned to the
        clean axis recomputes identically every round.  ``None`` when
        the clean data has fewer than two classes or a zero axis (the
        filter then scores everything zero anyway).

        Computed into locals and published with one assignment: a
        context shared across scheduler threads must never show another
        thread a half-built (``None``, i.e. "degenerate") geometry.
        """
        slab = self._slab
        if isinstance(slab, str):
            # Shared with SlabFilter's from-scratch path: the fast
            # path's bit-identity holds because both compute geometry
            # and scores through the same two helpers.
            from repro.defenses.slab_filter import (slab_axis_midpoint,
                                                    slab_displacement)
            from repro.ml.base import signed_labels

            slab = None
            y_signed = signed_labels(self.y_train)
            if len(np.unique(y_signed)) == 2:
                mu_pos = compute_centroid(self.X_train[y_signed == 1],
                                          method=self.centroid_method).location
                mu_neg = compute_centroid(self.X_train[y_signed == -1],
                                          method=self.centroid_method).location
                geometry = slab_axis_midpoint(mu_pos, mu_neg)
                if geometry is not None:
                    axis, midpoint = geometry
                    scores = slab_displacement(self.X_train, axis, midpoint)
                    slab = ((mu_pos, mu_neg), axis, midpoint, scores)
            self._slab = slab
        return slab

    @property
    def class_centroids(self):
        """Clean per-class centroids ``(mu_pos, mu_neg)`` (memoised), or
        ``None`` on degenerate data.  Hand these to a ``SlabFilter`` as
        its ``centroids=`` to pin it to the clean axis — the engine's
        ``slab_filter`` family does exactly that for ``axis="clean"``
        specs, which is what routes its rounds through
        :meth:`slab_scores`."""
        slab = self._slab_geometry()
        return None if slab is None else slab[0]

    @property
    def clean_slab_scores(self) -> np.ndarray | None:
        """Each clean row's slab score along the clean axis (memoised)."""
        slab = self._slab_geometry()
        return None if slab is None else slab[3]

    def slab_scores(self, X_mix, is_poison, sources) -> np.ndarray | None:
        """Slab scores of a mixed matrix, genuine rows served from cache.

        Mirrors :meth:`keep_mask`'s trick for the radius filter: rows
        that came from the clean training set reuse
        :attr:`clean_slab_scores` (scores are row-local — one
        vector dot per row — so reuse is bit-identical); only poison
        rows are scored fresh.  ``None`` when the slab geometry is
        degenerate or ``X_mix`` is not traceable to this kernel's
        training matrix.
        """
        slab = self._slab_geometry()
        if slab is None:
            return None
        _, axis, midpoint, clean_scores = slab
        if sources is None:
            return clean_scores if self.describes(X_mix) else None
        from repro.defenses.slab_filter import slab_displacement

        d = np.empty(X_mix.shape[0], dtype=float)
        genuine = ~is_poison
        d[genuine] = clean_scores[sources[genuine]]
        if is_poison.any():
            d[is_poison] = slab_displacement(X_mix[is_poison], axis, midpoint)
        return d

    # -- filter fast path ---------------------------------------------------

    def keep_mask(
        self,
        X_mix: np.ndarray,
        y_mix: np.ndarray,
        is_poison: np.ndarray,
        sources: np.ndarray | None,
        radius: float,
    ) -> np.ndarray:
        """Radius-filter keep mask reusing the cached clean distances.

        ``sources`` maps each row of ``X_mix`` to its index in the
        pre-shuffle stacked ``[X_train; X_poison]`` array (see
        :func:`repro.attacks.base.poison_dataset`); ``None`` means
        ``X_mix`` is exactly ``X_train``.  Genuine rows reuse
        ``clean_distances``; only poison rows get a fresh distance
        computation — bit-identical to computing every row's distance
        from scratch because row norms are row-local.
        """
        if sources is None:
            keep = self.clean_distances <= radius
        else:
            d = np.empty(X_mix.shape[0], dtype=float)
            genuine = ~is_poison
            d[genuine] = self.clean_distances[sources[genuine]]
            if is_poison.any():
                d[is_poison] = distances_to_centroid(X_mix[is_poison], self.centroid)
            keep = d <= radius
        return ensure_class_survival(keep, y_mix)


def build_context_kernel(ctx, *, direction=_UNSET) -> ContextKernel:
    """Build the kernel for an experiment context.

    ``direction`` pre-fills the attack direction fitted in another
    process (``None`` included: a computed degenerate direction), so
    this kernel never refits it.  The process runs BLAS at one thread
    from here on (:func:`~repro.utils.blas.pin_one_blas_thread`), so a
    pool's parent is pinned before it forks and a shard by its
    start-up warm-up.
    """
    pin_one_blas_thread()
    centroid = compute_centroid(ctx.X_train, method=ctx.centroid_method)
    return ContextKernel(
        X_train=ctx.X_train,
        y_train=ctx.y_train,
        centroid=centroid,
        clean_distances=distances_to_centroid(ctx.X_train, centroid),
        map_distances=ctx.radius_map.distances,
        centroid_method=ctx.centroid_method,
        # Same construction as ctx.attack_surrogate(), captured without
        # a bound method: the kernel must not hold a back-reference to
        # the context (the context caches the kernel, and a cycle would
        # keep worker shared-memory views alive past refcount death).
        surrogate_factory=partial(ctx.model_factory,
                                  derive_seed(ctx.seed, "attack-surrogate")),
        _direction=direction,
    )
