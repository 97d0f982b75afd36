"""Lockstep trainers: B independent problems as one stacked tensor program.

The victim fit dominates an uncached round (~95% of its wall time, see
``BENCH_hotpath.json``), and PR 2 showed the single-problem loop is
dispatch-bound: each mini-batch step is a handful of tiny NumPy calls
whose interpreter overhead dwarfs their flops.  Running B same-shape
problems *simultaneously* — ``(B, batch, d)`` gathers, one stacked
matmul/einsum per step, ``(B, d)`` weight buffers — pays that overhead
once per step instead of B times.

Bit-identity contract
---------------------
Every batched kernel here must reproduce the sequential trainers'
results **bit for bit** — batching is an execution strategy, never an
approximation, because round outcomes feed a content-addressed cache.
Two mechanisms enforce it:

* *Kernel choice.*  Stacked ``np.matmul`` reproduces per-problem
  ``np.dot`` (both lower to the same BLAS GEMM/GEMV microkernels, and
  the batch axis is an outer loop), and a zero-masked stacked
  ``einsum("bi,bij->bj")`` accumulates each problem's subgradient sum
  in the same order as the sequential compressed
  ``einsum("i,ij->j")`` — inactive terms contribute exact ``±0.0``
  addends, which cannot perturb the accumulator.  Stacked ``einsum``
  contractions for the *score* products are **not** used: they do not
  match BLAS accumulation order.
* *Runtime probes.*  The equivalences above are properties of this
  NumPy/BLAS build, not of IEEE-754, so they are verified at runtime
  on deterministic data at every exact mini-batch shape before the
  batched path engages (memoised per ``(d, mini-batch length)``, so a
  new training-set size only probes a tail length not seen before).
  A failed probe — or any shape /
  dtype / hyperparameter combination outside the verified envelope —
  falls back to plain sequential fits rather than silently diverging.

The module is deliberately free of model-class imports at top level so
``repro.ml`` stays cycle-free; callers hand in plain arrays and
hyperparameters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pegasos_kernels_verified",
    "ridge_kernels_verified",
    "pegasos_fit_many",
    "ridge_scores_many",
]

# Problems verified per probe call: enough to exercise the batch axis
# (first / middle / last slices behave differently only through
# strides, which three problems already cover).
_PROBE_B = 3
_PROBE_SEED = 0x5EED

_pegasos_probe_cache: dict[tuple, bool] = {}
_ridge_probe_cache: dict[tuple, bool] = {}


def _batch_plan(n: int, batch_size: int) -> list[tuple[int, int, int]]:
    """The sequential trainer's mini-batch slicing: (start, stop, length)."""
    plan = []
    for start in range(0, n, batch_size):
        length = min(batch_size, n - start)
        plan.append((start, start + length, length))
    return plan


def pegasos_kernels_verified(n: int, d: int, batch_size: int) -> bool:
    """True when the stacked Pegasos kernels reproduce the sequential
    trainer's bits at this problem shape.

    The hot loop only ever runs its kernels on ``(B, length, d)``
    mini-batches, so the shape that matters is each distinct mini-batch
    length of the ``(n, batch_size)`` plan (at most two: the full batch
    and the tail).  Each length is probed once per ``(d, length)`` by
    :func:`_probe_pegasos`, memoised in ``_pegasos_probe_cache``; the
    shape passes only if every one of its lengths does.
    """
    d = int(d)
    lengths = sorted({length for _, _, length in
                      _batch_plan(int(n), int(batch_size))})
    for length in lengths:
        key = (d, length)
        ok = _pegasos_probe_cache.get(key)
        if ok is None:
            ok = _pegasos_probe_cache[key] = _probe_pegasos(d, length)
        if not ok:
            return False
    return True


def _probe_pegasos(d: int, length: int) -> bool:
    """Probe the stacked kernels at one exact ``(B, length, d)`` shape.

    Checks, with the array forms the hot loop uses (fresh C-contiguous
    gathered batches, ``out=`` score buffers):

    * stacked ``matmul(Xb, W[:, :, None])`` == per-problem
      ``dot(Xb[b], w)``;
    * zero-masked stacked ``einsum("bi,bij->bj")`` == per-problem
      compressed ``einsum("i,ij->j")`` (full and partial masks);
    * stacked ``matmul(W[:, None, :], W[:, :, None])`` == per-problem
      ``w.dot(w)`` (the projection's squared norm).
    """
    rng = np.random.default_rng(_PROBE_SEED)
    B = _PROBE_B
    Xb = rng.standard_normal((B, length, d))
    yb = rng.choice([-1.0, 1.0], size=(B, length))
    W = rng.standard_normal((B, d))

    scores = np.empty((B, length, 1))
    np.matmul(Xb, W[:, :, None], out=scores)
    for b in range(B):
        if scores[b, :, 0].tobytes() != np.dot(Xb[b], W[b]).tobytes():
            return False

    active = rng.random((B, length)) < 0.5
    active[0] = True  # whole batch active (the compress-skip branch)
    ym = yb * active
    grad = np.einsum("bi,bij->bj", ym, Xb)
    for b in range(B):
        m = active[b]
        n_active = int(np.count_nonzero(m))
        if n_active == 0:
            continue  # handled by explicit zeroing, nothing to compare
        if n_active == length:
            ref = np.einsum("i,ij->j", yb[b], Xb[b])
        else:
            ref = np.einsum("i,ij->j", yb[b][m], Xb[b][m])
        if grad[b].tobytes() != ref.tobytes():
            return False

    normsq = np.matmul(W[:, None, :], W[:, :, None])
    for b in range(B):
        if np.float64(normsq[b, 0, 0]).tobytes() != \
                np.float64(W[b].dot(W[b])).tobytes():
            return False
    return True


def pegasos_fit_many(models, problems) -> None:
    """Run the Pegasos schedule on B same-shape problems in lockstep.

    ``problems`` is a list of validated ``(X, y_signed)`` float64 pairs,
    all of shape ``(n, d)``; ``models`` the matching ``LinearSVM``
    instances, whose hyperparameters (everything except ``seed``) must
    agree.  The caller (``LinearSVM.fit_many``) is responsible for the
    eligibility checks and the :func:`pegasos_kernels_verified` probe —
    this function assumes the batched kernels are exact and writes each
    model's ``coef_`` / ``intercept_`` / ``objective_trace_`` with the
    precise bits a sequential ``fit`` would have produced.

    Why lockstep works: every problem shares ``(epochs, batch_size)``,
    so all B trajectories take the same steps at the same ``t`` and the
    per-step scalars (``eta``, the projection radius) are shared.  Each
    problem keeps its *own* RNG stream, drawn one permutation per epoch
    in epoch order — exactly the sequential consumption order.  All
    cross-problem arithmetic is elementwise along the batch axis or a
    probed stacked kernel; problems whose mini-batch has no
    margin-active rows get their subgradient-sum row forced to ``+0.0``
    (subtracting ``+0.0`` is the IEEE identity for every float,
    including ``-0.0``) and their intercept left untouched, matching
    the sequential trainer's skipped branch.
    """
    from repro.utils.rng import as_generator

    B = len(models)
    m0 = models[0]
    reg = m0.reg
    epochs = m0.epochs
    batch_size = m0.batch_size
    fit_intercept = m0.fit_intercept
    average = m0.average
    n, d = problems[0][0].shape

    rngs = [as_generator(m.seed) for m in models]

    # The engine's grouped rounds share most of their training bytes:
    # multi-seed repeats of a clean round are *identical* problems (only
    # the model seed differs), and attacked repeats share the clean
    # prefix of ``vstack([clean, poison])``, differing only in the
    # poison tail.  Deduplicating the longest common ``(X, y)`` prefix
    # into one source block keeps the per-step gathers reading mostly
    # cache-resident rows instead of B spread-out copies — the gathered
    # values (and therefore the bits) are identical either way.
    X0, y0 = problems[0]
    prefix = n
    for X, y in problems[1:]:
        if X is not X0:
            mism = (X != X0).any(axis=1)
            hit = int(np.argmax(mism))
            if mism[hit]:
                prefix = min(prefix, hit)
        if y is not y0:
            mism = y != y0
            hit = int(np.argmax(mism))
            if mism[hit]:
                prefix = min(prefix, hit)
        if prefix == 0:
            break
    tail_n = n - prefix
    if tail_n == 0:
        X_src, y_src = X0, y0
    else:
        X_src = np.concatenate([X0[:prefix]] + [X[prefix:] for X, _ in problems])
        y_src = np.concatenate([y0[:prefix]] + [y[prefix:] for _, y in problems])
        # Row r >= prefix of problem b lives at r + b * tail_n in the
        # packed source; prefix rows keep their own index.
        tail_offsets = (np.arange(B) * tail_n)[:, None]
        in_tail = np.empty((B, n), dtype=bool)
    ys = np.empty((B, n))

    add = np.add
    multiply = np.multiply
    subtract = np.subtract
    divide = np.divide
    less = np.less
    matmul = np.matmul
    einsum = np.einsum

    W = np.zeros((B, d))
    b_vec = np.zeros(B)
    b_col = b_vec[:, None]          # broadcast view; b_vec mutated in place
    W_sum = np.zeros((B, d))
    b_sum = np.zeros(B)
    n_averaged = 0

    grad_w = np.empty((B, d))
    grad_sum = np.empty((B, d))
    deltas = np.empty(B)
    normsq = np.empty((B, 1, 1))
    norms = normsq.reshape(B)
    over = np.empty(B, dtype=bool)
    factors = np.empty(B)
    counts = np.empty(B, dtype=np.intp)

    # One contiguous (scores3, scores2, active, ym) buffer set per
    # distinct mini-batch length (there are at most two: the full batch
    # and the tail).
    buffers: dict[int, tuple] = {}
    plan = []
    for start, stop, length in _batch_plan(n, batch_size):
        bufs = buffers.get(length)
        if bufs is None:
            scores3 = np.empty((B, length, 1))
            bufs = (scores3, scores3.reshape(B, length),
                    np.empty((B, length), dtype=bool),
                    np.empty((B, length)))
            buffers[length] = bufs
        plan.append((start, stop, float(length)) + bufs)

    perms = np.empty((B, n), dtype=np.intp)
    flat_idx = np.empty((B, n), dtype=np.intp)

    t = 0
    averaging_starts = max(1, epochs // 2)
    radius = 1.0 / np.sqrt(reg)
    for epoch in range(epochs):
        # Per-problem shuffles, one permutation per epoch in epoch
        # order — each problem's RNG consumption order is exactly the
        # sequential trainer's.
        for b in range(B):
            perms[b] = rngs[b].permutation(n)
        if tail_n == 0:
            idx = perms
        else:
            np.greater_equal(perms, prefix, out=in_tail)
            multiply(in_tail, tail_offsets, out=flat_idx)
            add(flat_idx, perms, out=flat_idx)
            idx = flat_idx
        np.take(y_src, idx, out=ys)                   # whole epoch's labels
        averaging = average and epoch >= averaging_starts
        for start, stop, length, scores3, scores2, active, ym in plan:
            t += 1
            # Gather this step's rows for all B problems in one fancy
            # index — a fresh C-contiguous (B, length, d) batch.  No
            # (B, n, d) permuted copy is ever materialised.
            Xb = X_src[idx[:, start:stop]]
            yb = ys[:, start:stop]
            # margins = yb * (Xb @ w + b) for all B problems at once
            matmul(Xb, W[:, :, None], out=scores3)
            add(scores2, b_col, out=scores2)
            multiply(scores2, yb, out=scores2)
            less(scores2, 1.0, out=active)
            # Per-problem active counts, needed only to detect (and fix
            # up) problems whose mini-batch has no margin-active rows.
            np.sum(active, axis=1, out=counts)
            no_empty = bool(counts.all())
            eta = 1.0 / (reg * t)
            multiply(W, reg, out=grad_w)
            # Zero-masked subgradient sums: inactive rows contribute
            # exact +/-0.0 addends, preserving each accumulator's bits.
            multiply(yb, active, out=ym)
            einsum("bi,bij->bj", ym, Xb, out=grad_sum)
            if not no_empty:
                # Problems with an empty active set skip the whole
                # subgradient branch sequentially; forcing their row to
                # +0.0 makes the batched subtract the IEEE identity.
                grad_sum[counts == 0] = 0.0
            divide(grad_sum, length, out=grad_sum)
            subtract(grad_w, grad_sum, out=grad_w)
            if fit_intercept:
                np.sum(ym, axis=1, out=deltas)  # exact: sums of {-1, 0, +1}
                multiply(deltas, eta, out=deltas)
                divide(deltas, length, out=deltas)
                if no_empty:
                    add(b_vec, deltas, out=b_vec)
                else:
                    hit = counts != 0
                    b_vec[hit] += deltas[hit]
            multiply(grad_w, eta, out=grad_w)
            subtract(W, grad_w, out=W)
            # Pegasos projection onto the ball of radius 1/sqrt(reg):
            # scale only the problems outside it (x * 1.0 would be
            # exact too, but the sequential trainer skips them).
            matmul(W[:, None, :], W[:, :, None], out=normsq)
            np.sqrt(norms, out=norms)
            np.greater(norms, radius, out=over)
            if over.any():
                factors.fill(1.0)
                factors[over] = radius / norms[over]
                multiply(W, factors[:, None], out=W)
            if averaging:
                add(W_sum, W, out=W_sum)
                add(b_sum, b_vec, out=b_sum)
                n_averaged += 1

    if average and n_averaged > 0:
        coef = W_sum / n_averaged
        intercept = b_sum / n_averaged
    else:
        coef, intercept = W, b_vec
    for i, model in enumerate(models):
        model.objective_trace_ = []
        model.coef_ = coef[i].copy()
        model.intercept_ = float(intercept[i])


# -- batched closed-form ridge (RONI's candidate probes) -------------------


def ridge_kernels_verified(m: int, d: int, n_val: int) -> bool:
    """True when the stacked ridge-fit-and-score kernels reproduce the
    per-candidate bits at this problem shape (memoised per shape).

    Checks stacked row means, the gram/rhs matmuls, the batched
    ``np.linalg.solve`` and the validation-set scoring against their
    per-slice sequential forms.
    """
    key = (int(m), int(d), int(n_val))
    cached = _ridge_probe_cache.get(key)
    if cached is not None:
        return cached
    ok = _probe_ridge(*key)
    _ridge_probe_cache[key] = ok
    return ok


def _probe_ridge(m: int, d: int, n_val: int) -> bool:
    rng = np.random.default_rng(_PROBE_SEED)
    B = _PROBE_B
    X = rng.standard_normal((B, m, d))
    t = rng.choice([-1.0, 1.0], size=(B, m))
    X_val = rng.standard_normal((n_val, d))

    stacked = ridge_scores_many(X, t, X_val, reg=1e-2, fit_intercept=True)
    for b in range(B):
        x_mean = X[b].mean(axis=0)
        t_mean = t[b].mean()
        Xc = X[b] - x_mean
        tc = t[b] - t_mean
        gram = Xc.T @ Xc + 1e-2 * m * np.eye(d)
        w = np.linalg.solve(gram, Xc.T @ tc)
        ref = X_val @ w + float(t_mean - x_mean @ w)
        if stacked[b].tobytes() != ref.tobytes():
            return False

    plain = ridge_scores_many(X, t, X_val, reg=1e-2, fit_intercept=False)
    for b in range(B):
        gram = X[b].T @ X[b] + 1e-2 * m * np.eye(d)
        w = np.linalg.solve(gram, X[b].T @ t[b])
        if plain[b].tobytes() != (X_val @ w).tobytes():
            return False
    return True


def ridge_scores_many(X_stack, t_stack, X_val, *, reg, fit_intercept):
    """Closed-form ridge fit of every stacked problem plus decision
    scores on a shared validation matrix, all at once.

    ``X_stack`` is ``(C, m, d)``, ``t_stack`` the ``(C, m)`` *signed*
    float targets; returns the ``(C, n_val)`` decision scores.  Each
    stacked operation is the per-slice sequential operation verified by
    :func:`ridge_kernels_verified` — the result matches C independent
    ``RidgeClassifier(reg, fit_intercept).fit(...).decision_function(
    X_val)`` calls bit for bit.
    """
    C, m, d = X_stack.shape
    if fit_intercept:
        x_mean = X_stack.mean(axis=1)                      # (C, d)
        t_mean = t_stack.mean(axis=1)                      # (C,)
        Xc = X_stack - x_mean[:, None, :]
        tc = t_stack - t_mean[:, None]
    else:
        Xc, tc = X_stack, t_stack
    XcT = np.transpose(Xc, (0, 2, 1))
    gram = np.matmul(XcT, Xc) + reg * m * np.eye(d)
    w = np.linalg.solve(gram, np.matmul(XcT, tc[:, :, None]))  # (C, d, 1)
    scores = np.matmul(X_val[None, :, :], w)[:, :, 0]          # (C, n_val)
    if fit_intercept:
        # intercept = float(t_mean - x_mean @ w), slice by slice
        intercept = t_mean - np.matmul(x_mean[:, None, :], w)[:, 0, 0]
        scores = scores + intercept[:, None]
    return scores
