"""Lockstep trainers: B independent problems as one stacked tensor program.

The victim fit dominates an uncached round (see ``BENCH_hotpath.json``),
and the single-problem loop is dispatch-bound: each mini-batch step is a
handful of tiny NumPy calls whose interpreter overhead dwarfs their
flops.  Running B problems *simultaneously* — ``(B, batch, d)`` gathers,
one stacked matmul/einsum per step, ``(B, d)`` weight buffers — pays
that overhead once per step instead of B times.

Ragged lockstep
---------------
The B problems share hyperparameters and ``d`` but not their row counts
(every defence keeps a different number of rows).  Each problem keeps
its own step counter, step size ``1/(reg t)`` and averaging count as
``(B,)`` vectors.  Problems are sorted by steps per epoch, then by tail
length, so at every step the problems still inside their epoch are a
prefix ``W[:k]`` whose batch lengths never increase along it: the
leading ``kf`` run at the step's full width, the rest are runs of equal
shorter tails.  Tails are padded to the full width for the gather and
the zero-masked ``einsum`` (padding is never margin-active), but they
are scored by unpadded per-tail-length ``matmul``s: BLAS takes another
remainder path on a padded block, so padded score rows do not match a
per-problem ``dot``.  A group of equal sizes is the case with no tails.

Every problem gathers its rows from one resident source: a problem is a
row-index vector into one shared ``(X, y)`` block (for the engine, the
clean training matrix followed by each round's surviving poison rows),
so the per-step gathers read mostly cache-resident rows instead of B
spread-out copies.

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
  ``einsum("i,ij->j")`` — inactive and padding terms contribute exact
  ``±0.0`` addends, which cannot perturb the accumulator.  Stacked
  ``einsum`` contractions for the *score* products are **not** used:
  they do not match BLAS accumulation order.  The per-problem step
  sizes, lengths and averaging counts are elementwise IEEE operations,
  correctly rounded per element, so vectors of them need no probe.
* *Runtime probes.*  The kernel equivalences are properties of this
  NumPy/BLAS build, not of IEEE-754, so they are verified at runtime on
  deterministic data at every exact step shape a group's plan uses
  before the batched path engages: the full-width kernels per
  ``(d, width)`` (:func:`_probe_pegasos`), and the strided tail scores
  and the padded ``einsum`` per ``(d, width, tail)``
  (:func:`_probe_tail_scores`, :func:`_probe_padded_einsum`).  Verdicts
  are memoised, so a new training-set size only probes shapes not seen
  before.  A failed probe sends just the problems whose plan contains
  that shape to plain sequential fits, and the rest still batch; a
  shape / dtype / hyperparameter combination outside the envelope falls
  back the same way rather than silently diverging.

The module is deliberately free of model-class imports at top level so
``repro.ml`` stays cycle-free; callers hand in plain arrays and
hyperparameters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pegasos_kernels_verified",
    "pegasos_lockstep_subset",
    "ridge_kernels_verified",
    "pegasos_fit_many",
    "ridge_scores_many",
]

# Problems verified per probe call: enough to exercise the batch axis
# (first / middle / last slices behave differently only through
# strides, which three problems already cover).
_PROBE_B = 3
_PROBE_SEED = 0x5EED

# Probe verdicts: (d, width) for the full-width kernels, (d, width,
# tail) for the tail kernels.
_pegasos_probe_cache: dict[tuple, bool] = {}
_ridge_probe_cache: dict[tuple, bool] = {}


def _n_steps(n: int, batch_size: int) -> int:
    """Mini-batch steps per epoch of the sequential trainer."""
    return -(-n // batch_size)


def _lockstep_order(ns, batch_size: int) -> list[int]:
    """Positions of the problems sized ``ns`` in lockstep order: most
    steps per epoch first, then longest tail first."""
    def key(i):
        steps = _n_steps(ns[i], batch_size)
        return (-steps, (steps - 1) * batch_size - ns[i])
    return sorted(range(len(ns)), key=key)


def _step_plan(ns, batch_size: int) -> list[tuple]:
    """One epoch's steps for problems sized ``ns``, in lockstep order.

    Each step is ``(start, k, width, kf, tails, lengths)``: the first
    ``k`` problems are inside their epoch, with batch lengths
    ``lengths`` (non-increasing) over rows ``start:start + width``; the
    first ``kf`` run at the full ``width`` and ``tails`` holds the runs
    ``(lo, hi, length)`` of equal shorter lengths.
    """
    plan = []
    for start in range(0, ns[0], batch_size):
        lengths = [min(batch_size, n - start) for n in ns if n > start]
        runs = []
        lo = 0
        for i in range(1, len(lengths) + 1):
            if i == len(lengths) or lengths[i] != lengths[lo]:
                runs.append((lo, i, lengths[lo]))
                lo = i
        plan.append((start, len(lengths), lengths[0], runs[0][1], runs[1:],
                     lengths))
    return plan


def _verdict(key: tuple, probe, *args) -> bool:
    """``probe(*args)``, memoised under ``key``."""
    ok = _pegasos_probe_cache.get(key)
    if ok is None:
        ok = _pegasos_probe_cache[key] = bool(probe(*args))
    return ok


def pegasos_lockstep_subset(ns, d: int, batch_size: int) -> list[int]:
    """The problems, of ``ns`` rows each, that may train in one lockstep
    group: their indices, ascending.

    Every step shape of the group's plan is probed (memoised per
    ``(d, width)`` and ``(d, width, tail)``).  A failed full-width
    probe drops the problems running at that width, a failed tail probe
    the problems with that tail; the plan of the survivors is then
    checked again, since dropping problems can change the widths.
    Empty problems never batch (the sequential ``fit`` rejects them).
    """
    d = int(d)
    batch_size = int(batch_size)
    members = [i for i, n in enumerate(ns) if n > 0]
    while members:
        order = _lockstep_order([ns[i] for i in members], batch_size)
        members = [members[i] for i in order]
        failed = set()
        for _, _, width, kf, tails, _ in _step_plan(
                [ns[i] for i in members], batch_size):
            if not _verdict((d, width), _probe_pegasos, d, width):
                failed.update(range(kf))
            for lo, hi, length in tails:
                if not (_verdict((d, width, length), _probe_tail_scores,
                                 d, width, length)
                        and _verdict(("einsum", d, width, length),
                                     _probe_padded_einsum, d, width, length)):
                    failed.update(range(lo, hi))
        if not failed:
            return sorted(members)
        members = [i for pos, i in enumerate(members) if pos not in failed]
    return []


def pegasos_kernels_verified(n: int, d: int, batch_size: int) -> bool:
    """True when the stacked Pegasos kernels reproduce the sequential
    trainer's bits for problems of ``n`` rows: every step shape of the
    ``(n, batch_size)`` plan (the full batch and the tail) passes
    :func:`_probe_pegasos`, memoised per ``(d, length)``."""
    return bool(pegasos_lockstep_subset([int(n)], d, batch_size))


def _probe_pegasos(d: int, width: int) -> bool:
    """Probe the full-width kernels at one exact ``(B, width, d)`` shape.

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
    Xb = rng.standard_normal((B, width, d))
    yb = rng.choice([-1.0, 1.0], size=(B, width))
    W = rng.standard_normal((B, d))

    scores = np.empty((B, width, 1))
    np.matmul(Xb, W[:, :, None], out=scores)
    for b in range(B):
        if scores[b, :, 0].tobytes() != np.dot(Xb[b], W[b]).tobytes():
            return False

    active = rng.random((B, width)) < 0.5
    active[0] = True  # whole batch active (the compress-skip branch)
    if not _masked_einsum_matches(Xb, yb, active, width):
        return False

    normsq = np.matmul(W[:, None, :], W[:, :, None])
    for b in range(B):
        if np.float64(normsq[b, 0, 0]).tobytes() != \
                np.float64(W[b].dot(W[b])).tobytes():
            return False
    return True


def _probe_tail_scores(d: int, width: int, tail: int) -> bool:
    """Probe the tail score kernel: a stacked ``matmul`` over the first
    ``tail`` rows of each ``(width, d)`` block of a gathered batch (a
    strided view), written into the same slice of the score buffer,
    must equal the per-problem ``dot`` of the contiguous tail."""
    rng = np.random.default_rng(_PROBE_SEED)
    B = _PROBE_B
    Xb = rng.standard_normal((B, width, d))
    W = rng.standard_normal((B, d))
    scores = np.zeros((B, width, 1))
    np.matmul(Xb[:, :tail], W[:, :, None], out=scores[:, :tail])
    for b in range(B):
        if scores[b, :tail, 0].tobytes() != \
                np.dot(Xb[b, :tail], W[b]).tobytes():
            return False
    return True


def _probe_padded_einsum(d: int, width: int, tail: int) -> bool:
    """Probe the padded subgradient sum: tails padded to ``width`` with
    a repeated source row whose mask is off must give the compressed
    ``einsum`` over the tail's active rows (all-active row included)."""
    rng = np.random.default_rng(_PROBE_SEED)
    B = _PROBE_B
    Xb = rng.standard_normal((B, width, d))
    yb = rng.choice([-1.0, 1.0], size=(B, width))
    Xb[:, tail:] = Xb[0, 0]      # the hot loop pads with source row 0
    yb[:, tail:] = yb[0, 0]
    active = rng.random((B, width)) < 0.5
    active[0] = True
    active[:, tail:] = False
    return _masked_einsum_matches(Xb, yb, active, tail)


def _masked_einsum_matches(Xb, yb, active, length) -> bool:
    """Zero-masked stacked ``einsum`` over the whole batch == each
    problem's compressed ``einsum`` over its first ``length`` rows."""
    grad = np.einsum("bi,bij->bj", yb * active, Xb)
    for b in range(Xb.shape[0]):
        m = active[b, :length]
        n_active = int(np.count_nonzero(m))
        if n_active == 0:
            continue  # handled by explicit zeroing, nothing to compare
        if n_active == length:
            ref = np.einsum("i,ij->j", yb[b, :length], Xb[b, :length])
        else:
            ref = np.einsum("i,ij->j", yb[b, :length][m], Xb[b, :length][m])
        if grad[b].tobytes() != ref.tobytes():
            return False
    return True


def pegasos_fit_many(models, problems) -> None:
    """Run the Pegasos schedule on B problems in ragged lockstep.

    ``problems[i]`` is ``(rows, X, y_signed)``: model ``i`` trains on
    ``X[rows], y_signed[rows]``, where every problem shares the one
    resident float64 ``X`` and signed float ``y_signed``.  ``models``
    are the matching ``LinearSVM`` instances, whose hyperparameters
    (everything except ``seed``) must agree.  The caller
    (``LinearSVM.fit_many``) is responsible for the eligibility checks
    and for passing only problems :func:`pegasos_lockstep_subset`
    admits — this function assumes the batched kernels are exact and
    writes each model's ``coef_`` / ``intercept_`` /
    ``objective_trace_`` with the precise bits a sequential ``fit``
    would have produced.

    Each problem keeps its *own* RNG stream, drawn one permutation per
    epoch in epoch order — exactly the sequential consumption order —
    and its own step counter, so its ``eta`` sequence is the sequential
    one however many steps its epochs take.  All cross-problem
    arithmetic is elementwise along the batch axis or a probed stacked
    kernel; problems whose mini-batch has no margin-active rows get
    their subgradient-sum row forced to ``+0.0`` (subtracting ``+0.0``
    is the IEEE identity for every float, including ``-0.0``) and their
    intercept left untouched, matching the sequential trainer's skipped
    branch.
    """
    from repro.utils.rng import as_generator

    m0 = models[0]
    reg = m0.reg
    epochs = m0.epochs
    batch_size = m0.batch_size
    fit_intercept = m0.fit_intercept
    average = m0.average
    _, X_src, y_src = problems[0]
    d = X_src.shape[1]

    order = _lockstep_order([len(p[0]) for p in problems], batch_size)
    models = [models[i] for i in order]
    rows = [problems[i][0] for i in order]
    ns = [len(r) for r in rows]
    B = len(models)
    plan = _step_plan(ns, batch_size)
    n_steps = len(plan)
    steps = np.array([_n_steps(n, batch_size) for n in ns], dtype=float)

    add = np.add
    multiply = np.multiply
    subtract = np.subtract
    divide = np.divide
    less = np.less
    matmul = np.matmul
    einsum = np.einsum

    # Each epoch's gather indices into the source, one row per problem.
    # Columns past a problem's own rows stay 0: its tail's padding
    # gathers source row 0, never margin-active.
    span = plan[-1][0] + plan[-1][2]
    idx = np.zeros((B, span), dtype=np.intp)
    ys = np.empty((B, span))
    shuffles = [(as_generator(m.seed), n, r, idx[b, :n])
                for b, (m, n, r) in enumerate(zip(models, ns, rows))]

    W = np.zeros((B, d))
    b_vec = np.zeros(B)
    W_sum = np.zeros((B, d))
    b_sum = np.zeros(B)
    grad_w = np.empty((B, d))
    grad_sum = np.empty((B, d))
    deltas = np.empty(B)
    normsq = np.empty((B, 1, 1))
    norms = normsq.reshape(B)
    over = np.empty(B, dtype=bool)
    factors = np.empty(B)
    counts = np.empty(B, dtype=np.intp)
    # eta[j, b] = 1 / (reg * t) at step j of the current epoch, where
    # problem b's counter is t = epoch * steps[b] + j + 1.
    eta = np.empty((n_steps, B))
    step_numbers = np.arange(1.0, n_steps + 1.0)[:, None]

    # One (scores3, scores2, active, ym) buffer set per distinct width
    # (at most two: the full batch and a last step of tails only), and
    # every view a step touches, built once: the plan repeats each epoch.
    buffers: dict[int, tuple] = {}
    step_views = []
    for j, (start, k, width, kf, tails, lengths) in enumerate(plan):
        bufs = buffers.get(width)
        if bufs is None:
            scores3 = np.zeros((B, width, 1))
            bufs = buffers[width] = (scores3, scores3.reshape(B, width),
                                     np.empty((B, width), dtype=bool),
                                     np.empty((B, width)))
        scores3, scores2, active, ym = bufs
        length_vec = np.array(lengths, dtype=float)
        step_views.append((
            idx[:k, start:start + width], ys[:k, start:start + width],
            kf, W[:kf, :, None], scores3[:kf],
            [(lo, hi, length, W[lo:hi, :, None],
              scores3[lo:hi, :length], active[lo:hi, length:])
             for lo, hi, length in tails],
            scores2[:k], active[:k], ym[:k], counts[:k],
            W[:k], b_vec[:k], b_vec[:k, None], grad_w[:k], grad_sum[:k],
            deltas[:k], eta[j, :k], eta[j, :k, None],
            length_vec, length_vec[:, None],
            W[:k, None, :], W[:k, :, None], normsq[:k], norms[:k],
            over[:k], factors[:k], factors[:k, None],
            W_sum[:k], b_sum[:k],
        ))

    averaging_starts = max(1, epochs // 2)
    radius = 1.0 / np.sqrt(reg)
    for epoch in range(epochs):
        # Per-problem shuffles, one permutation per epoch in epoch
        # order — each problem's RNG consumption order is exactly the
        # sequential trainer's — mapped to source rows.
        # (Every index is in range, so "clip" only skips the bounds
        # check's buffering.)
        for rng, n, r, dst in shuffles:
            r.take(rng.permutation(n), out=dst, mode="clip")
        y_src.take(idx, out=ys, mode="clip")          # whole epoch's labels
        multiply(steps, epoch, out=eta)
        add(eta, step_numbers, out=eta)
        multiply(eta, reg, out=eta)
        divide(1.0, eta, out=eta)
        averaging = average and epoch >= averaging_starts
        for (ix, yb, kf, W_full, scores_full, tails, scores2, active, ym,
             cnt, Wk, bk, bk_col, gw, gs, dl, eta_k, eta_col, lens,
             len_col, W_row, W_col, nsq, nrm, ov, fac, fac_col,
             Ws, bsum) in step_views:
            # Gather this step's rows for the k problems in one fancy
            # index — a fresh C-contiguous (k, width, d) batch.  No
            # (B, n, d) permuted copy is ever materialised.
            Xb = X_src[ix]
            # margins = yb * (Xb @ w + b): one stacked matmul for the
            # full-width problems, one unpadded one per tail length.
            matmul(Xb[:kf], W_full, out=scores_full)
            for lo, hi, length, W_tail, scores_tail, _ in tails:
                matmul(Xb[lo:hi, :length], W_tail, out=scores_tail)
            add(scores2, bk_col, out=scores2)
            multiply(scores2, yb, out=scores2)
            less(scores2, 1.0, out=active)
            for tail in tails:
                tail[5].fill(False)                   # padding never active
            # Per-problem active counts, needed only to detect (and fix
            # up) problems whose mini-batch has no margin-active rows.
            active.sum(axis=1, out=cnt)
            no_empty = bool(cnt.all())
            multiply(Wk, reg, out=gw)
            # Zero-masked subgradient sums: inactive and padding rows
            # contribute exact +/-0.0 addends, preserving each
            # accumulator's bits.
            multiply(yb, active, out=ym)
            einsum("bi,bij->bj", ym, Xb, out=gs)
            if not no_empty:
                # Problems with an empty active set skip the whole
                # subgradient branch sequentially; forcing their row to
                # +0.0 makes the batched subtract the IEEE identity.
                gs[cnt == 0] = 0.0
            divide(gs, len_col, out=gs)
            subtract(gw, gs, out=gw)
            if fit_intercept:
                ym.sum(axis=1, out=dl)  # exact: sums of {-1, 0, +1}
                multiply(dl, eta_k, out=dl)
                divide(dl, lens, out=dl)
                if no_empty:
                    add(bk, dl, out=bk)
                else:
                    hit = cnt != 0
                    bk[hit] += dl[hit]
            multiply(gw, eta_col, out=gw)
            subtract(Wk, gw, out=Wk)
            # Pegasos projection onto the ball of radius 1/sqrt(reg):
            # scale only the problems outside it (x * 1.0 would be
            # exact too, but the sequential trainer skips them).
            matmul(W_row, W_col, out=nsq)
            np.sqrt(nrm, out=nrm)
            np.greater(nrm, radius, out=ov)
            if ov.any():
                fac.fill(1.0)
                fac[ov] = radius / nrm[ov]
                multiply(Wk, fac_col, out=Wk)
            if averaging:
                add(Ws, Wk, out=Ws)
                add(bsum, bk, out=bsum)

    # Each problem averaged over every step of the averaging epochs.
    averaged_epochs = epochs - averaging_starts if average else 0
    if averaged_epochs > 0:
        n_averaged = steps * averaged_epochs
        coef = W_sum / n_averaged[:, None]
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
