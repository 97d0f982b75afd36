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
  **zero-copy context transport**: the context's data arrays are
  published once into a ``multiprocessing.shared_memory`` block that
  every worker maps read-only, and only a small metadata blob (array
  layout, scalar fields, the picklable victim factory, and the round
  kernel's fitted attack direction) is pickled into the pool
  initializer.  A context's first batch packs and forks; later
  batches reuse the workers, whose kernel memos and fit probes stay
  warm.  Contexts that do not look like experiment contexts fall back
  to whole-object pickling.  The cluster's shard server holds the
  same pool for its lifetime.
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

import os
import pickle
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

# Fields of an ExperimentContext large enough to be worth publishing in
# shared memory instead of pickling.  The radius map's sorted distance
# vector travels in the same block, as "map_distances".
_SHARED_ARRAY_FIELDS = ("X_train", "y_train", "X_test", "y_test")


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

    This is *the* semantics of a round — every backend funnels through
    it (or through its batch-aware sibling :func:`execute_rounds`,
    which computes the same outcomes round for round), in this process
    or another.
    """
    from repro.experiments.runner import evaluate_configuration

    return evaluate_configuration(ctx, **_round_kwargs(ctx, spec))


def _batch_fits_enabled() -> bool:
    """The ``REPRO_BATCH_FITS`` toggle (default on; ``0`` disables)."""
    return os.environ.get("REPRO_BATCH_FITS", "1").strip().lower() \
        not in ("0", "false", "no", "off")


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

    The one in-process execution loop (the serial backend, a shard
    without a pool and every pool worker's chunk all run it).  Rounds
    are prepared (attack + defence + fresh victim) one at a time, the
    victim fits of same-victim rounds in each window of
    ``_FIT_WINDOW`` train together through ``LinearSVM.fit_many`` —
    bit-identical to sequential fits by the batched trainer's contract
    — and each window's outcomes surface, in input order, as soon as
    the window finishes.  ``REPRO_BATCH_FITS=0`` forces the plain
    per-round path.
    """
    from repro.experiments.runner import (
        finish_configuration,
        prepare_configuration,
    )

    specs = list(specs)
    batched = _batch_fits_enabled()
    for base in range(0, len(specs), _FIT_WINDOW):
        window = specs[base:base + _FIT_WINDOW]
        if batched and len(window) > 1:
            prepared = [prepare_configuration(ctx, **_round_kwargs(ctx, spec))
                        for spec in window]
            _fit_prepared_groups(ctx, prepared)
            outcomes = [finish_configuration(ctx, p) for p in prepared]
        else:
            outcomes = [execute_round(ctx, spec) for spec in window]
        for offset, outcome in enumerate(outcomes):
            yield base + offset, outcome


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

    def batch_telemetry(self) -> dict | None:
        """Backend-specific counters of the most recent batch, or ``None``.

        Read-once: the engine calls this after each batch and merges a
        truthy result into the ``batch_log`` entry (the cluster backend
        reports its placement/shard-cache stats here).  Backends with
        nothing to report inherit this ``None``.
        """
        return None


class SerialBackend(EvaluationBackend):
    """The reference backend: a plain in-process loop."""

    name = "serial"

    def __init__(self, jobs: int | None = None):
        pass  # accepts (and ignores) jobs so all backends share a signature

    def run_iter(self, ctx, specs):
        return _iter_rounds(ctx, specs)


# -- zero-copy context transport --------------------------------------------


def _pack_context(ctx):
    """Split ``ctx`` into (small metadata dict, shared-memory block).

    The metadata is what actually gets pickled to workers; the block
    holds the data arrays.  Returns ``(meta, shm)`` with ``shm=None``
    for contexts that don't expose the expected array fields (those
    travel whole, as before).  The caller owns the block and must
    ``close()``/``unlink()`` it once the pool is done.
    """
    if not all(hasattr(ctx, f) for f in _SHARED_ARRAY_FIELDS + ("radius_map",)):
        return {"mode": "pickle", "ctx": ctx}, None

    arrays = {f: np.ascontiguousarray(getattr(ctx, f))
              for f in _SHARED_ARRAY_FIELDS}
    arrays["map_distances"] = np.ascontiguousarray(ctx.radius_map.distances)

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

    state = ctx.__getstate__() if hasattr(ctx, "__getstate__") else dict(ctx.__dict__)
    state = dict(state)
    for f in _SHARED_ARRAY_FIELDS:
        state.pop(f, None)
    state.pop("radius_map", None)
    kernel = ctx.__dict__.get("_kernel")
    meta = {
        "mode": "shm",
        "shm_name": shm.name,
        "layout": layout,
        "cls": type(ctx),
        "state": state,
        "kernel_state": kernel.export_state() if kernel is not None else None,
    }
    return meta, shm


def _unpack_context(meta):
    """Rebuild a context in a worker from :func:`_pack_context` output.

    Array fields become read-only views of the shared block — nothing
    data-sized is copied.  Returns ``(ctx, shm)``; the shm handle must
    stay referenced for the arrays' lifetime.
    """
    if meta["mode"] == "pickle":
        return meta["ctx"], None

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

    from repro.data.geometry import RadiusPercentileMap

    # Bypass __post_init__: the vector was sorted (and validated) by the
    # parent; re-sorting would copy it out of shared memory.
    radius_map = RadiusPercentileMap.__new__(RadiusPercentileMap)
    radius_map.distances = views["map_distances"]

    ctx = meta["cls"].__new__(meta["cls"])
    ctx.__dict__.update(meta["state"])
    for f in _SHARED_ARRAY_FIELDS:
        setattr(ctx, f, views[f])
    ctx.radius_map = radius_map

    kernel_state = meta.get("kernel_state")
    if kernel_state is not None:
        from repro.experiments.kernel import build_context_kernel

        ctx.__dict__["_kernel"] = build_context_kernel(ctx, state=kernel_state)
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

    _WORKER_CTX, _WORKER_SHM = _unpack_context(pickle.loads(meta_blob))
    if _WORKER_SHM is not None:
        atexit.register(_worker_cleanup)
    threading.Thread(target=_exit_with_owner, args=(os.getppid(),),
                     name="owner-watch", daemon=True).start()


def _worker_run_chunk(specs, arming):
    """The pool workers' one entry point: a chunk's outcomes, in chunk
    order, plus this worker's telemetry delta.

    ``arming`` is the pool owner's telemetry setting
    (:func:`repro.telemetry.arming`), applied before the chunk runs: a
    worker outlives many batches, so it follows the owner's current
    setting rather than the one it was forked with.  The delta
    (``None`` when telemetry is disabled or nothing changed) carries
    the stage histograms and counters the chunk accumulated in the
    worker process; the pool owner merges it into its own registry so
    its summaries cover the whole pool.  Spans still land in the
    worker's own JSONL file — only metrics travel back.
    """
    from repro import telemetry

    telemetry.rearm(arming)
    return execute_rounds(_WORKER_CTX, specs), telemetry.flush_delta()


class WorkerPool:
    """Worker processes that all map one context, packed once.

    The context's data arrays go into one shared-memory block that
    every worker maps read-only; the pool initializer receives only a
    small metadata blob, pickled once.  Every worker is started before
    the constructor returns: a worker forked later, while its owner
    holds an accepted socket, would inherit that fd — and if the owner
    then died, the orphaned worker would keep the connection open,
    turning a client's instant connection-reset into a full protocol
    timeout.

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
        The context every chunk runs in (prewarm it first: whatever
        the round kernel holds ships to the workers in the blob).
    jobs:
        Worker process count.
    """

    def __init__(self, ctx, jobs: int):
        self.jobs = int(jobs)
        self._pool = None
        meta, self._shm = _pack_context(ctx)
        try:
            # Pickling here, once, also surfaces unpicklable contexts
            # (e.g. a lambda model_factory) as one clear error instead
            # of a broken pool.
            try:
                meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise TypeError(
                    "the experiment context cannot be pickled for the process "
                    "backend (a lambda/closure model_factory is the usual "
                    "culprit — use a picklable callable class such as "
                    "repro.experiments.runner.SVMVictimFactory, or the serial "
                    f"backend): {exc}"
                ) from exc
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init,
                initargs=(meta_blob,))
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
        arming = telemetry.arming()
        futures = {self._pool.submit(_worker_run_chunk,
                                     [specs[i] for i in chunk], arming): chunk
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


class _PoolCache:
    """A backend's open pools: an LRU keyed by context fingerprint.

    Counts the batches running on each pool, so a pool that leaves the
    LRU (evicted, found broken, or closed) while a batch runs on it
    closes when its last batch ends, never under one.  Holds no
    reference to its backend, so the backend's finalizer can close it.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._lock = threading.Lock()
        self._open: OrderedDict = OrderedDict()  # fingerprint -> pool
        self._users: dict = {}  # pool -> batches running on it

    def acquire(self, ctx) -> WorkerPool:
        """The open pool for ``ctx`` (prewarmed and opened on a miss),
        counted as in use until :meth:`release`."""
        from repro.engine.spec import prewarm_all

        fingerprint = ctx.fingerprint()
        with self._lock:
            pool = self._open.get(fingerprint)
            if pool is None:
                prewarm_all(ctx)
                pool = self._open[fingerprint] = WorkerPool(ctx, self.jobs)
            self._open.move_to_end(fingerprint)
            self._users[pool] = self._users.get(pool, 0) + 1
            idle = self._drop(list(self._open.values())[:-_MAX_POOLS])
        for old in idle:
            old.close()
        return pool

    def release(self, pool: WorkerPool) -> None:
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

    def discard(self, pool: WorkerPool) -> None:
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


class ProcessPoolBackend(EvaluationBackend):
    """Deal rounds over long-lived :class:`WorkerPool`\\ s, one per
    context.

    A context's first batch runs every registered prewarmer on it
    (:func:`~repro.engine.spec.prewarm_all`, the shard server's
    start-up policy), so whatever the round kernel holds ships in the
    pool's metadata blob and no worker repeats it, then opens its pool.
    Later batches on a context with the same fingerprint reuse that
    pool: no fork, no shared-memory packing, and warm workers.  At most
    ``_MAX_POOLS`` pools stay open, the least recently used evicted
    first; pools also close on :meth:`close`, when the backend is
    garbage-collected, and at interpreter exit.

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
        self._pools = _PoolCache(self.jobs)
        weakref.finalize(self, self._pools.close)

    def run_iter(self, ctx, specs):
        specs = list(specs)
        if not specs:
            return
        landed = False
        for attempt in (1, 2):
            pool = self._pools.acquire(ctx)
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
