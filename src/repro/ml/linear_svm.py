"""Hinge-loss linear SVM trained by Pegasos-style subgradient descent.

This is the model the paper evaluates ("Support Vector Machine (SVM)
with hinge loss ... trained for 5000 epoch in every iteration").  The
primal objective is

    min_w  (lambda/2) ||w||^2 + (1/n) sum_i max(0, 1 - y_i (w.x_i + b))

solved with mini-batch subgradient steps on the classic ``1/(lambda t)``
Pegasos schedule (Shalev-Shwartz et al., 2011).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml.base import BaseEstimator, LinearClassifierMixin, signed_labels
from repro.ml.metrics import hinge_loss
from repro.utils.rng import as_generator
from repro.utils.validation import check_X_y

__all__ = ["LinearSVM"]

# Upper bound (in index entries, ~8 bytes each) on the pre-drawn shuffle
# buffer; fits above it draw per-epoch permutations instead, which is
# bit-identical because RNG consumption order is unchanged.
_PREDRAW_MAX_ENTRIES = 16_777_216  # ~128 MB


class LinearSVM(LinearClassifierMixin, BaseEstimator):
    """Primal linear SVM with hinge loss.

    Parameters
    ----------
    reg:
        L2 regularisation strength ``lambda`` (must be positive).
    epochs:
        Number of passes over the training data.  The paper uses 5000;
        the default here is smaller because the Pegasos schedule
        converges to useful accuracy far sooner on standardised data,
        and experiments override it where fidelity matters.
    batch_size:
        Mini-batch size for each subgradient step.
    fit_intercept:
        Learn an unregularised bias term.
    seed:
        RNG seed used to shuffle the data each epoch.
    average:
        If true, return the tail-averaged iterate (averaging the last
        half of the trajectory), which markedly stabilises accuracy
        measurements — important because the game experiments compare
        accuracies that differ by a point or two.
    tol:
        Optional early-stopping tolerance on the epoch-to-epoch change
        of the objective; ``None`` disables early stopping.  Setting it
        implies ``track_objective`` (the stopping rule needs the trace).
    track_objective:
        Record the full-data regularised objective after every epoch in
        ``objective_trace_``.  Off by default: the per-epoch objective
        costs as much as an entire epoch of mini-batch steps, and the
        hot experiment path never reads it.  ``None`` (default) means
        "only when ``tol`` requires it".

    Attributes
    ----------
    coef_, intercept_:
        Learned weights and bias.
    objective_trace_:
        Regularised objective value after each epoch when tracked
        (``track_objective=True`` or ``tol`` set), else empty.
    """

    def __init__(
        self,
        reg: float = 1e-4,
        epochs: int = 60,
        batch_size: int = 64,
        fit_intercept: bool = True,
        seed: int | None = 0,
        average: bool = True,
        tol: float | None = None,
        track_objective: bool | None = None,
    ):
        if reg <= 0:
            raise ValueError(f"reg must be positive, got {reg}")
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.reg = float(reg)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.fit_intercept = bool(fit_intercept)
        self.seed = seed
        self.average = bool(average)
        self.tol = tol
        self.track_objective = track_objective
        self.coef_ = None
        self.intercept_ = 0.0

    def fit(self, X, y) -> "LinearSVM":
        """Pegasos mini-batch subgradient descent, fast path.

        The loop is reworked for speed but stays **bit-identical** to
        the original trainer (same seed, same data -> exactly the same
        ``coef_``/``intercept_``; enforced by the equivalence tests).
        The step arithmetic is dispatch-bound, not flop-bound (each
        mini-batch is tiny), so every rework targets interpreter and
        allocation overhead while performing the exact same float
        operations in the exact same order:

        * all epoch shuffles are drawn before the hot loop, in the same
          order a per-epoch ``rng.permutation(n)`` would draw them;
        * each epoch gathers the shuffled data into one pair of reused
          buffers (no per-epoch allocation/page faulting), so every
          mini-batch is a prebuilt slice view instead of a fancy index;
        * all step temporaries live in preallocated buffers written
          with ``out=`` ufunc calls — same elementwise operations,
          zero allocations in the common path;
        * when the whole batch is margin-active (common early in
          training) the boolean compress is skipped: an all-``True``
          mask copy is value- and order-identical to the direct view;
        * ``np.linalg.norm(w)`` is ``sqrt(w.dot(w))`` for 1-d input —
          called directly;
        * the per-epoch full-data objective (a whole extra pass over
          the data per epoch) is only computed when tracked.
        """
        X, y = check_X_y(X, y)
        y_signed = signed_labels(y).astype(float)
        n, d = X.shape
        rng = as_generator(self.seed)
        track = (self.track_objective is True) or (self.tol is not None)

        # Locals for everything the hot loop touches: global/attribute
        # lookups cost real time at ~500 dispatch-bound steps per fit.
        reg = self.reg
        fit_intercept = self.fit_intercept
        sqrt = math.sqrt
        count_nonzero = np.count_nonzero
        einsum = np.einsum
        dot = np.dot
        add = np.add
        multiply = np.multiply
        subtract = np.subtract
        divide = np.divide
        less = np.less
        # The batch subgradient sum ``(yb[:,None] * Xb).sum(axis=0)`` is
        # an axis-0 reduction of a C-ordered array: NumPy accumulates it
        # row by row, sequentially — exactly the accumulation order of
        # einsum's sum-of-products loop, so einsum computes the same
        # bits without materialising the (batch, d) product.  (For
        # d == 1 the reduction degenerates to a contiguous sum, which
        # NumPy computes pairwise instead; keep the original expression
        # there.  The bit-identity property tests cover both branches.)
        fused_grad_sum = d > 1

        w = np.zeros(d)
        b = 0.0
        w_sum = np.zeros(d)
        b_sum = 0.0
        n_averaged = 0
        self.objective_trace_ = []

        # Pre-drawn shuffles: identical streams to one permutation call
        # per epoch, hoisted out of the hot loop.  Sequential RNG
        # consumption makes pre-drawing and per-epoch drawing produce
        # the same permutations, so the buffer is skipped (not chunked)
        # when epochs x n would make it large.
        predraw = self.epochs * n <= _PREDRAW_MAX_ENTRIES
        if predraw:
            perms = np.empty((self.epochs, n), dtype=np.intp)
            for epoch in range(self.epochs):
                perms[epoch] = rng.permutation(n)

        # Per-batch step buffers, built once (sizes never change across
        # epochs); the shuffled epoch arrays are fresh per epoch — a
        # plain fancy gather, measurably faster than ``np.take`` with
        # ``out=`` — so the data views are sliced inside the loop.
        batch_size = self.batch_size
        scores_buf = np.empty(min(batch_size, n))
        active_buf = np.empty(min(batch_size, n), dtype=bool)
        prod_buf = np.empty((min(batch_size, n), d))
        grad_w = np.empty(d)
        grad_sum = np.empty(d)
        batches = []
        for start in range(0, n, batch_size):
            length = min(batch_size, n - start)
            batches.append((
                start,
                start + length,
                scores_buf[:length],
                active_buf[:length],
                prod_buf[:length],
                float(length),
            ))

        t = 0
        prev_obj = np.inf
        averaging_starts = max(1, self.epochs // 2)
        radius = 1.0 / np.sqrt(reg)
        for epoch in range(self.epochs):
            order = perms[epoch] if predraw else rng.permutation(n)
            Xs = X[order]  # one contiguous gather; batches are views
            ys = y_signed[order]
            averaging = self.average and epoch >= averaging_starts
            for start, stop, scores, active, prod, length in batches:
                t += 1
                Xb = Xs[start:stop]
                yb = ys[start:stop]
                # margins = yb * (Xb @ w + b), in place
                dot(Xb, w, out=scores)
                add(scores, b, out=scores)
                multiply(scores, yb, out=scores)
                less(scores, 1.0, out=active)
                n_active = count_nonzero(active)
                eta = 1.0 / (reg * t)
                # Subgradient of the regularised objective on the batch.
                multiply(w, reg, out=grad_w)
                if n_active:
                    if n_active == length:
                        # Whole batch active: the all-True compress is
                        # identical to the direct view.
                        yb_active, Xb_active = yb, Xb
                    else:
                        yb_active, Xb_active = yb[active], Xb[active]
                    if fused_grad_sum:
                        einsum("i,ij->j", yb_active, Xb_active,
                               out=grad_sum)
                    else:
                        multiply(yb_active[:, None], Xb_active,
                                 out=prod[:int(n_active)])
                        prod[:int(n_active)].sum(axis=0, out=grad_sum)
                    divide(grad_sum, length, out=grad_sum)
                    subtract(grad_w, grad_sum, out=grad_w)
                    if fit_intercept:
                        # float64 scalar arithmetic is IEEE double either
                        # way; plain-float math skips NumPy scalar
                        # dispatch without changing a bit.
                        b = b + eta * float(yb_active.sum()) / length
                multiply(grad_w, eta, out=grad_w)
                subtract(w, grad_w, out=w)
                # Pegasos projection onto the ball of radius 1/sqrt(reg).
                norm = sqrt(w.dot(w))
                if norm > radius:
                    multiply(w, radius / norm, out=w)
                if averaging:
                    add(w_sum, w, out=w_sum)
                    b_sum = b_sum + b
                    n_averaged += 1

            if track:
                obj = self._objective(X, y_signed, w, b)
                self.objective_trace_.append(obj)
                if self.tol is not None and abs(prev_obj - obj) < self.tol:
                    break
                prev_obj = obj

        if self.average and n_averaged > 0:
            self.coef_ = w_sum / n_averaged
            self.intercept_ = float(b_sum / n_averaged)
        else:
            self.coef_ = w
            self.intercept_ = float(b)
        return self

    @classmethod
    def fit_many(cls, models, datasets) -> list:
        """Fit ``models[i]`` on ``datasets[i]``, batched when safe.

        ``datasets[i]`` is ``(X, y)``, or ``(X, y, rows)`` to train on
        ``X[rows], y[rows]``.  The result is always bit-identical to
        ``[m.fit(X, y) for ...]``: the problems :meth:`can_fit_many`
        admits run in ragged lockstep through
        :func:`repro.ml.batched.pegasos_fit_many` (one stacked tensor
        program instead of B dispatch-bound loops, whatever their row
        counts), and the rest — mixed hyperparameters, ``d == 1``,
        objective tracking, or a failed kernel probe at one of their
        step shapes — fall back to their own sequential :meth:`fit`.
        Datasets passing the same ``X`` and ``y`` objects share one
        block of the resident source every lockstep gather reads.
        Returns the models.
        """
        models = list(models)
        datasets = list(datasets)
        if len(models) != len(datasets):
            raise ValueError(
                f"got {len(models)} models but {len(datasets)} datasets")
        if not models:
            return models
        X, y, rows = _resident_source(datasets)
        lockstep = cls._lockstep_subset(models, X, rows)
        batched = set(lockstep)
        for i, model in enumerate(models):
            if i not in batched:
                model.fit(*_training_set(datasets[i]))
        if lockstep:
            from repro.ml.batched import pegasos_fit_many

            pegasos_fit_many([models[i] for i in lockstep],
                             [(rows[i], X, y) for i in lockstep])
        return models

    @classmethod
    def can_fit_many(cls, models, datasets) -> bool:
        """Whether ``fit_many`` runs every one of these problems in
        lockstep.

        Requires: plain ``LinearSVM`` instances whose hyperparameters
        (everything except ``seed``) agree; 2-d problems of one width
        ``d > 1`` (the sequential ``d == 1`` branch uses a pairwise
        reduction no stacked kernel reproduces), of any row counts; no
        objective tracking or early stopping (the per-epoch trace would
        desynchronise the trajectories); and the runtime kernel probes
        (:func:`repro.ml.batched.pegasos_lockstep_subset`) passing at
        every exact step shape of the group's plan.
        """
        models = list(models)
        X, _, rows = _resident_source(datasets)
        return len(cls._lockstep_subset(models, X, rows)) == len(models)

    @classmethod
    def _lockstep_subset(cls, models, X, rows) -> list[int]:
        """Indices of the problems ``fit_many`` trains in lockstep."""
        first = models[0]
        if type(first) is not cls:
            return []
        if first.tol is not None or first.track_objective is True:
            return []
        for model in models[1:]:
            if type(model) is not cls:
                return []
            if (model.reg, model.epochs, model.batch_size,
                    model.fit_intercept, model.average, model.tol,
                    model.track_objective is True) != \
                    (first.reg, first.epochs, first.batch_size,
                     first.fit_intercept, first.average, first.tol,
                     first.track_objective is True):
                return []
        if X is None or X.shape[1] < 2:
            return []
        from repro.ml.batched import pegasos_lockstep_subset

        return pegasos_lockstep_subset([len(r) for r in rows], X.shape[1],
                                       first.batch_size)

    def _objective(self, X: np.ndarray, y_signed: np.ndarray, w: np.ndarray,
                   b: float) -> float:
        scores = X @ w + b
        return 0.5 * self.reg * float(w @ w) + hinge_loss(y_signed, scores)

    def objective(self, X, y) -> float:
        """Regularised hinge objective of the fitted model on ``(X, y)``."""
        self._check_is_fitted()
        X, y = check_X_y(X, y)
        return self._objective(X, signed_labels(y).astype(float), self.coef_,
                               self.intercept_)


def _resident_source(datasets):
    """One resident training source for ``fit_many``'s datasets.

    Returns ``(X, y_signed, rows)``: the validated float64 ``X`` and
    signed float labels of every distinct dataset, stacked (datasets
    passing the same ``X`` and ``y`` objects share one block), and per
    dataset the row indices it trains on.  ``X`` is ``None`` when the
    datasets differ in width, which no lockstep group spans.
    """
    blocks: dict[tuple, tuple] = {}
    rows = []
    offset = 0
    for dataset in datasets:
        if len(dataset) not in (2, 3):
            raise ValueError(
                "each dataset must be (X, y) or (X, y, rows), got "
                f"{len(dataset)} items")
        X, y = dataset[0], dataset[1]
        key = (id(X), id(y))
        block = blocks.get(key)
        if block is None:
            Xv, yv = check_X_y(X, y)
            block = blocks[key] = (offset, Xv, signed_labels(yv).astype(float))
            offset += Xv.shape[0]
        start, Xv, _ = block
        if len(dataset) == 2:
            rows.append(np.arange(start, start + Xv.shape[0]))
            continue
        r = np.asarray(dataset[2], dtype=np.intp)
        if r.ndim != 1 or (r.size and (r.min() < 0
                                       or r.max() >= Xv.shape[0])):
            raise ValueError(
                f"rows must be 1-d indices into the {Xv.shape[0]} rows of X")
        rows.append(r + start if start else r)
    parts = list(blocks.values())
    if len({Xv.shape[1] for _, Xv, _ in parts}) != 1:
        return None, None, rows
    if len(parts) == 1:
        _, X, y = parts[0]
    else:
        X = np.concatenate([Xv for _, Xv, _ in parts])
        y = np.concatenate([yv for _, _, yv in parts])
    return X, y, rows


def _training_set(dataset):
    """The ``(X, y)`` one of ``fit_many``'s datasets trains on."""
    if len(dataset) == 2:
        return dataset
    X, y, rows = dataset
    return np.asarray(X)[rows], np.asarray(y)[rows]
