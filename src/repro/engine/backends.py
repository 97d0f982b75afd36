"""Execution backends: how a batch of round specs actually runs.

Determinism contract: every round's randomness derives solely from the
round's own seed (via ``derive_seed`` inside ``evaluate_configuration``),
never from shared generator state or execution order.  Backends may
therefore run rounds in any order, on any number of workers, and must
return outcomes **bit-identical** to the serial backend, ordered like
the input specs.  This is the property that makes future sharded or
async backends drop-in safe.

Built-ins:

* ``serial`` — in-process loop; zero overhead, the reference semantics.
* ``process`` — deals each batch over a long-lived :class:`WorkerPool`
  per context (a small LRU keyed by context fingerprint), with
  **zero-copy context transport**: the context's four data arrays
  (:func:`~repro.experiments.runner.context_to_parts`), plus the round
  kernel's fitted attack direction, are published once into a
  ``multiprocessing.shared_memory`` block that every worker maps
  read-only, and the pool initializer receives only a small JSON blob
  (the block's layout and the context's header).  Workers rebuild the
  context with :func:`~repro.experiments.runner.context_from_parts`.
  A context's first batch packs and forks; later batches reuse the
  workers, whose kernel memos and fit probes stay warm.  The
  cluster's shard server holds the same pool for its lifetime.
* ``cluster`` — fans chunks out to shard servers over TCP (see
  :mod:`repro.cluster`); autospawns localhost shards when none are
  configured.  Registered lazily so the engine package stays light.

A backend implements one method, :meth:`EvaluationBackend.run_iter`:
``(index, outcome)`` pairs as rounds land, in any order.  The base
class's ``run`` collects that stream into input order, and the
engine's ``evaluate_batch`` and ``evaluate_stream`` both ride it.

New backends register with :func:`register_backend`.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

__all__ = [
    "EvaluationBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkerPool",
    "deal_chunks",
    "execute_round",
    "execute_rounds",
    "register_backend",
    "make_backend",
    "available_backends",
]

# Rounds per batched-fit window: _iter_rounds prepares this many rounds
# at a time, then trains each group of same-victim rounds (whatever
# their training-set sizes) through LinearSVM.fit_many as one ragged
# lockstep group, gathering from one resident source: the clean
# training matrix plus every round's surviving poison rows.  Large
# enough to span a grid study's repeat and defence axes, small enough
# to keep the window's prepared rounds resident.
_FIT_WINDOW = 32


def deal_chunks(n: int, workers: int, window: int) -> list[range]:
    """Deal positions ``range(n)`` round-robin into chunks.

    ``workers * ceil(n / (workers * window))`` chunks, never more than
    ``n``: each worker gets an equal share of chunks, no chunk exceeds
    ``window`` positions, and dealing round-robin spreads a grid's
    costly axis values over every chunk.  The process pool deals with
    ``window=_FIT_WINDOW``, so each chunk trains as one lockstep fit
    group; the cluster scheduler deals the same way over its shards.
    """
    if n <= 0:
        return []
    stride = min(n, workers * -(-n // (workers * window)))
    return [range(first, n, stride) for first in range(stride)]


def _round_kwargs(ctx, spec) -> dict:
    """Materialise ``spec``'s attack/defense/victim into the keyword
    arguments ``evaluate_configuration`` / ``prepare_configuration``
    expect for this round."""
    # Imported lazily: the engine package must stay importable without
    # dragging in (or circularly importing) the experiments layer.
    from repro.engine.spec import (
        materialize_attack,
        materialize_defense,
        materialize_victim,
    )
    from repro.utils.rng import derive_seed

    attack = None
    if spec.attack is not None:
        attack = materialize_attack(ctx, spec.attack)
    victim_factory = None
    if spec.victim is not None:
        victim_factory = materialize_victim(ctx, spec.victim)
    kwargs = dict(
        attack=attack,
        poison_fraction=spec.poison_fraction,
        seed=spec.seed,
        victim_factory=victim_factory,
    )
    dspec = spec.defense
    if dspec is None or dspec.is_fast_radius:
        # The paper's radius filter rides the kernel-served fast path
        # (clean distances reused, only poison rows recomputed).
        # spec.filter_percentile mirrors the defence's percentile and
        # preserves the caller's 0-vs-None spelling for the outcome.
        kwargs["filter_percentile"] = spec.filter_percentile
    else:
        kwargs["defense"] = materialize_defense(
            ctx, dspec, seed=derive_seed(spec.seed, "defense"))
    return kwargs


def execute_round(ctx, spec):
    """Run one :class:`~repro.engine.spec.RoundSpec` in ``ctx``.

    This is *the* semantics of a round: the one-round reference that
    the built-in backends' batch loop (:func:`execute_rounds`) matches
    round for round, in this process or another.
    """
    from repro.experiments.runner import evaluate_configuration

    return evaluate_configuration(ctx, **_round_kwargs(ctx, spec))


def _fit_group_key(prepared):
    """Grouping key for batched fits, or ``None`` when ineligible.

    Exactly LinearSVM (subclasses may override ``fit``) with matching
    hyperparameters on float64 training sets of one width ``d``, of any
    row count — the envelope ``LinearSVM.can_fit_many`` accepts.  The
    key errs loose on purpose: ``fit_many`` re-checks eligibility and
    falls back to sequential fits itself, so a stale key can cost
    speed, never bits.
    """
    from repro.ml.linear_svm import LinearSVM

    model = prepared.model
    if type(model) is not LinearSVM:
        return None
    X = prepared.X_tr
    if getattr(X, "ndim", 0) != 2:
        return None
    return (model.reg, model.epochs, model.batch_size, model.fit_intercept,
            model.average, model.tol, bool(model.track_objective),
            X.shape[1], X.dtype.str)


def _fit_prepared_groups(ctx, prepared_rounds) -> None:
    """Train all eligible groups of prepared rounds through
    ``LinearSVM.fit_many``; ungrouped rounds stay unfitted (the finish
    step trains them sequentially, as before).

    A group's datasets are row sets of one resident source
    (:func:`~repro.experiments.runner.resident_source`), so every
    lockstep gather reads the shared clean rows from one block.
    """
    from repro import telemetry
    from repro.experiments.runner import resident_source
    from repro.ml.linear_svm import LinearSVM

    groups: dict[tuple, list] = {}
    for prepared in prepared_rounds:
        key = _fit_group_key(prepared)
        if key is not None:
            groups.setdefault(key, []).append(prepared)
    for group in groups.values():
        if len(group) < 2:
            continue
        with telemetry.trace_span("fit", rounds=len(group), batched=True):
            X, y, rows = resident_source(ctx, group)
            LinearSVM.fit_many([p.model for p in group],
                               [(X, y, r) for r in rows])
        for prepared in group:
            prepared.fitted = True


def _iter_rounds(ctx, specs):
    """Yield ``(index, outcome)`` for ``specs``, one fit window at a time.

    The one execution loop every process runs: the serial backend,
    every pool worker's chunk, and a shard's chunk (in-process or
    through its pool).  Rounds are prepared (attack + defence + fresh
    victim) one at a time, the victim fits of same-victim rounds in
    each window of ``_FIT_WINDOW`` train together through
    ``LinearSVM.fit_many`` — bit-identical to sequential fits by the
    batched trainer's contract; a group of one trains in the finish
    step's own ``fit`` — and each round's outcome surfaces, in input
    order, as soon as its finish step has scored it.  BLAS runs at one
    thread (:func:`~repro.utils.blas.pin_one_blas_thread`), so outcomes
    do not depend on the host's CPU count.
    """
    from repro.experiments.runner import (
        finish_configuration,
        prepare_configuration,
    )
    from repro.utils.blas import pin_one_blas_thread

    pin_one_blas_thread()
    specs = list(specs)
    for base in range(0, len(specs), _FIT_WINDOW):
        prepared = [prepare_configuration(ctx, **_round_kwargs(ctx, spec))
                    for spec in specs[base:base + _FIT_WINDOW]]
        _fit_prepared_groups(ctx, prepared)
        for offset, p in enumerate(prepared):
            yield base + offset, finish_configuration(ctx, p)


def execute_rounds(ctx, specs) -> list:
    """Run a batch of round specs, outcomes in input order.

    The batch-aware sibling of :func:`execute_round`: same outcomes
    round for round, with the victim fits of each window batched (see
    :func:`_iter_rounds`).
    """
    return [outcome for _, outcome in _iter_rounds(ctx, specs)]


class EvaluationBackend(ABC):
    """Executes batches of rounds; see the module determinism contract."""

    name: str = "abstract"

    @abstractmethod
    def run_iter(self, ctx, specs):
        """Yield ``(index, outcome)`` pairs as rounds complete.

        Indices refer to positions in ``specs`` and every index is
        yielded exactly once, in whatever order rounds land; by the
        module determinism contract each outcome is bit-identical to
        the serial backend's at that position.
        """

    def run(self, ctx, specs) -> list:
        """Evaluate ``specs`` in ``ctx``; outcomes in input order
        (:meth:`run_iter`'s stream, collected)."""
        specs = list(specs)
        outcomes = [None] * len(specs)
        for index, outcome in self.run_iter(ctx, specs):
            outcomes[index] = outcome
        return outcomes


class SerialBackend(EvaluationBackend):
    """The reference backend: a plain in-process loop."""

    name = "serial"

    def __init__(self, jobs: int | None = None):
        pass  # accepts (and ignores) jobs so all backends share a signature

    def run_iter(self, ctx, specs):
        return _iter_rounds(ctx, specs)


# -- zero-copy context transport --------------------------------------------


def _pack_context(ctx):
    """Lay ``ctx`` out for pool workers: ``(meta, shm)``.

    The shared-memory block ``shm`` holds the context's four arrays
    (:func:`~repro.experiments.runner.context_to_parts`) and, once the
    parent has fitted it, the round kernel's attack direction; ``meta``
    is JSON bytes holding the context's header, the block's layout and
    whether the direction was computed (a computed ``None`` has no
    array, but is not refitted either).  The caller owns the block and
    must ``close()``/``unlink()`` it once the pool is done.  A context
    that cannot be written down raises ``TypeError`` before any block
    is made.
    """
    from repro.experiments.runner import context_to_parts

    header, arrays = context_to_parts(ctx)
    kernel = ctx.__dict__.get("_kernel")
    direction_computed = kernel is not None and kernel.direction_computed
    if direction_computed and kernel.direction is not None:
        arrays["direction"] = kernel.direction

    layout = {}
    offset = 0
    for name, arr in arrays.items():
        offset = -(-offset // 16) * 16  # 16-byte alignment
        layout[name] = (offset, arr.shape, arr.dtype.str)
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name, arr in arrays.items():
        off = layout[name][0]
        view = np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size, offset=off)
        view[:] = arr.ravel()
    meta = {
        "shm_name": shm.name,
        "layout": layout,
        "header": header,
        "direction_computed": direction_computed,
    }
    return json.dumps(meta).encode("utf-8"), shm


def _unpack_context(meta: bytes):
    """Rebuild a context in a worker from :func:`_pack_context` output.

    Array fields become read-only views of the shared block — nothing
    data-sized is copied.  Returns ``(ctx, shm)``; the shm handle must
    stay referenced for the arrays' lifetime.
    """
    from repro.experiments.runner import context_from_parts

    meta = json.loads(meta)
    shm = shared_memory.SharedMemory(name=meta["shm_name"])
    # The parent owns (and unlinks) the segment.  Attaching registers
    # the name with the resource tracker again, but under the default
    # fork start method the workers share the parent's tracker, whose
    # per-type cache is a set — the duplicate registration collapses
    # and the parent's single unlink() retires it cleanly.

    views = {}
    for name, (offset, shape, dtype) in meta["layout"].items():
        count = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=count,
                            offset=offset).reshape(shape)
        arr.flags.writeable = False
        views[name] = arr

    ctx = context_from_parts(meta["header"], views)
    if meta["direction_computed"]:
        from repro.experiments.kernel import build_context_kernel

        ctx.__dict__["_kernel"] = build_context_kernel(
            ctx, direction=views.get("direction"))
    return ctx, shm


def _release_shm(shm) -> None:
    """Close and unlink a parent-owned shared block (idempotent-ish)."""
    if shm is None:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover
        pass  # a foreign resource tracker got there first


# -- process-pool workers (module-level: must be picklable) ----------------

_WORKER_CTX = None
_WORKER_SHM = None  # keeps the mapped block alive for the worker's lifetime


def _worker_cleanup() -> None:
    """Release the context before the shared block, in that order.

    Interpreter shutdown clears module globals in arbitrary order; if
    the block's ``__del__`` ran while the context's array views were
    still alive it would raise ``BufferError`` into stderr.  Dropping
    the context first (plus a GC pass for the context<->kernel cycle)
    guarantees a silent close.
    """
    global _WORKER_CTX, _WORKER_SHM
    _WORKER_CTX = None
    if _WORKER_SHM is not None:
        import gc

        gc.collect()
        try:
            _WORKER_SHM.close()
        except BufferError:  # pragma: no cover - views kept alive elsewhere
            pass
        _WORKER_SHM = None


# How often an idle worker checks that its owner is still alive.
_OWNER_POLL_SECONDS = 1.0


def _exit_with_owner(owner: int) -> None:
    """End this worker once its owner has died (it is then reparented).

    Workers outlive batches, so an owner killed without cleanup would
    otherwise leave them blocked on their task queue forever, holding
    the shared block and the resource tracker's pipe open.  Once they
    exit, the owner's resource tracker unlinks the block.
    """
    import time

    while os.getppid() == owner:
        time.sleep(_OWNER_POLL_SECONDS)
    os._exit(1)


def _worker_init(meta_blob: bytes) -> None:
    global _WORKER_CTX, _WORKER_SHM
    import atexit

    _WORKER_CTX, _WORKER_SHM = _unpack_context(meta_blob)
    atexit.register(_worker_cleanup)
    threading.Thread(target=_exit_with_owner, args=(os.getppid(),),
                     name="owner-watch", daemon=True).start()


def _worker_run_chunk(specs, trace_dir):
    """The pool workers' one entry point: a chunk's outcomes, in chunk
    order, plus this worker's telemetry delta.

    ``trace_dir`` is the pool owner's span sink directory
    (:func:`repro.telemetry.arming`), applied before the chunk runs: a
    worker outlives many batches, so it follows the owner's current
    directory rather than the one it was forked with.  The delta
    (``None`` when nothing changed) carries the stage histograms and
    counters the chunk accumulated in the worker process; the pool
    owner merges it into its own registry so its summaries cover the
    whole pool.  Spans still land in the worker's own JSONL file —
    only metrics travel back.
    """
    from repro import telemetry

    telemetry.rearm(trace_dir)
    return execute_rounds(_WORKER_CTX, specs), telemetry.flush_delta()


class WorkerPool:
    """Worker processes that all map one context, packed once.

    The context's data arrays go into one shared-memory block that
    every worker maps read-only; the pool initializer receives only a
    small JSON blob (see :func:`_pack_context`).  Every worker is
    started before the constructor returns: a worker forked later,
    while its owner holds an accepted socket, would inherit that fd —
    and if the owner then died, the orphaned worker would keep the
    connection open, turning a client's instant connection-reset into
    a full protocol timeout.

    Workers live as long as the pool, so everything they memoise (the
    round kernel's geometry, the batched trainer's probes) serves every
    batch after the first.  :class:`ProcessPoolBackend` keeps one per
    context across batches; the cluster's shard server holds one for
    its lifetime.  ``close()`` shuts the workers down and unlinks the
    block; an owner killed before it can close the pool leaves no
    worker behind either (each exits once it is reparented).  A worker
    that dies breaks the pool: every later chunk raises
    ``BrokenProcessPool``, and the owner must replace it.

    Parameters
    ----------
    ctx:
        The context every chunk runs in (warm its round kernel first,
        ``ctx.kernel().prewarm()``: the fitted attack direction ships
        to the workers in the block).  Its ``model_factory`` must be an
        :class:`~repro.experiments.runner.SVMVictimFactory`, or this
        raises ``TypeError``.
    jobs:
        Worker process count.
    """

    def __init__(self, ctx, jobs: int):
        self.jobs = int(jobs)
        self._pool = None
        meta, self._shm = _pack_context(ctx)
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init,
                initargs=(meta,))
            for future in [self._pool.submit(os.getpid)
                           for _ in range(self.jobs)]:
                future.result()
        except BaseException:
            self.close()
            raise

    def run_iter(self, specs):
        """Yield ``(index, outcome)`` pairs as worker chunks complete.

        ``specs`` is dealt over the workers by :func:`deal_chunks` with
        a window of ``_FIT_WINDOW``, so each chunk trains as one
        lockstep group.  Each chunk runs through :func:`execute_rounds`
        in its worker and surfaces whole, in arrival order; chunks not
        yet started are cancelled if the stream is abandoned.
        """
        from repro import telemetry

        specs = list(specs)
        trace_dir = telemetry.arming()
        futures = {self._pool.submit(_worker_run_chunk,
                                     [specs[i] for i in chunk],
                                     trace_dir): chunk
                   for chunk in deal_chunks(len(specs), self.jobs,
                                            _FIT_WINDOW)}
        try:
            for future in as_completed(futures):
                outcomes, delta = future.result()
                telemetry.merge(delta)
                for index, outcome in zip(futures[future], outcomes):
                    yield index, outcome
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Shut the workers down and release the shared block
        (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        _release_shm(self._shm)
        self._shm = None


# Pools one ProcessPoolBackend keeps open.  Two cover a process that
# alternates two contexts (a synthetic grid and the paper game, say)
# without re-forking, and cap its idle workers at 2 * jobs processes.
_MAX_POOLS = 2


class PoolCache:
    """Open pools keyed by context fingerprint, least recently used
    evicted first.

    Counts the batches running on each pool, so a pool that leaves the
    LRU (evicted, found unfit or broken, or closed) while a batch runs
    on it closes when its last batch ends, never under one.  One lock
    covers lookup, opening and store, so threads starting on one new
    context share one pool.  Holds no reference to its owner, so the
    owner's finalizer can close it.  A pool is anything with a
    ``close()``: each :class:`ProcessPoolBackend` keeps its
    :class:`WorkerPool`\\ s here, and the cluster backend its
    process-wide autospawned shard fleets.
    """

    def __init__(self, max_pools: int):
        self.max_pools = max_pools
        self._lock = threading.Lock()
        self._open: OrderedDict = OrderedDict()  # fingerprint -> pool
        self._users: dict = {}  # pool -> batches running on it

    def acquire(self, fingerprint: str, open_pool, fits=None):
        """The open pool for ``fingerprint``, now the most recently
        used, counted as in use until :meth:`release`.

        On a miss, or when ``fits(pool)`` rejects the open one (which
        leaves the LRU), ``open_pool()`` opens a new pool.
        """
        idle: list = []
        try:
            with self._lock:
                pool = self._open.get(fingerprint)
                if pool is not None and fits is not None and \
                        not fits(pool):
                    idle += self._drop([pool])
                    pool = None
                if pool is None:
                    pool = self._open[fingerprint] = open_pool()
                self._open.move_to_end(fingerprint)
                self._users[pool] = self._users.get(pool, 0) + 1
                idle += self._drop(
                    list(self._open.values())[:-self.max_pools])
        finally:
            for old in idle:
                old.close()
        return pool

    def release(self, pool) -> None:
        """End one batch on ``pool``; close it if it has left the LRU
        and this was its last batch."""
        with self._lock:
            self._users[pool] -= 1
            if self._users[pool]:
                return
            del self._users[pool]
            if pool in self._open.values():
                return
        pool.close()

    def discard(self, pool) -> None:
        """Take a broken ``pool`` out of the LRU (its batches still
        hold it; the last :meth:`release` closes it)."""
        with self._lock:
            self._drop([pool])

    def close(self) -> None:
        """Close every idle pool now, and every busy one as its last
        batch ends."""
        with self._lock:
            idle = self._drop(list(self._open.values()))
        for pool in idle:
            pool.close()

    def _drop(self, pools: list) -> list:
        """Remove ``pools`` from the LRU (lock held); the idle ones are
        returned for the caller to close outside the lock."""
        for fingerprint in [f for f, p in self._open.items() if p in pools]:
            del self._open[fingerprint]
        return [pool for pool in pools if not self._users.get(pool)]


def _open_worker_pool(ctx, jobs: int) -> WorkerPool:
    ctx.kernel().prewarm()
    return WorkerPool(ctx, jobs)


class ProcessPoolBackend(EvaluationBackend):
    """Deal rounds over long-lived :class:`WorkerPool`\\ s, one per
    context.

    A context's first batch warms its round kernel
    (:meth:`~repro.experiments.kernel.ContextKernel.prewarm`, as the
    shard server does at start-up), so the fitted attack direction
    ships in the pool's shared block and no worker repeats it, then
    opens its pool.  Later batches on a context with the same
    fingerprint reuse that pool: no fork, no shared-memory packing, and
    warm workers.  At most ``_MAX_POOLS`` pools stay open, the least
    recently used evicted first; pools also close on :meth:`close`,
    when the backend is garbage-collected, and at interpreter exit.

    A pool found broken (a worker died between batches) before the
    batch's first outcome is replaced, and the batch reruns on the new
    pool.  A pool that breaks after outcomes have landed is discarded
    and the batch raises ``BrokenProcessPool``.  Batches from several
    threads may share a pool; one leaving the LRU closes only when its
    running batches end.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` uses ``os.cpu_count()``.
    """

    name = "process"

    def __init__(self, jobs: int | None = None):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self._pools = PoolCache(_MAX_POOLS)
        weakref.finalize(self, self._pools.close)

    def run_iter(self, ctx, specs):
        specs = list(specs)
        if not specs:
            return
        landed = False
        for attempt in (1, 2):
            pool = self._pools.acquire(
                ctx.fingerprint(),
                lambda: _open_worker_pool(ctx, self.jobs))
            try:
                for index, outcome in pool.run_iter(specs):
                    landed = True
                    yield index, outcome
                return
            except BrokenProcessPool:
                self._pools.discard(pool)
                if landed or attempt == 2:
                    raise
            finally:
                self._pools.release(pool)

    def close(self) -> None:
        """Close this backend's pools (a running batch keeps its pool
        until it ends); the next batch opens fresh ones."""
        self._pools.close()


# -- registry --------------------------------------------------------------

_BACKENDS: dict[str, Callable[[int | None], EvaluationBackend]] = {}


def register_backend(name: str, factory: Callable[[int | None], EvaluationBackend]) -> None:
    """Register ``factory(jobs) -> EvaluationBackend`` under ``name``."""
    _BACKENDS[str(name)] = factory


def available_backends() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_BACKENDS)


def make_backend(name: str, jobs: int | None = None) -> EvaluationBackend:
    """Instantiate a backend by registry name."""
    if isinstance(name, EvaluationBackend):
        return name
    try:
        factory = _BACKENDS[str(name)]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return factory(jobs)


def _make_cluster_backend(jobs: int | None):
    # Imported lazily so the engine package never drags the cluster
    # service in unless someone actually asks for the backend.
    from repro.cluster.backend import ClusterBackend

    return ClusterBackend(jobs)


register_backend("serial", SerialBackend)
register_backend("process", ProcessPoolBackend)
register_backend("cluster", _make_cluster_backend)
