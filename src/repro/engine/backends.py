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
* ``process`` — fans chunks out over a :class:`WorkerPool` opened per
  batch, with **zero-copy context transport**: the context's data
  arrays are published once into a ``multiprocessing.shared_memory``
  block that every worker maps read-only, and only a small metadata
  blob (array layout, scalar fields, the picklable victim factory, and
  the round kernel's fitted attack direction) is pickled into the pool
  initializer.  Worker start-up therefore stops copying the full
  train/test split per process, and fan-out cost no longer grows with
  context size.  Contexts that do not look like experiment contexts
  fall back to whole-object pickling.  The cluster's shard server
  holds the same pool for its lifetime.
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
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

__all__ = [
    "EvaluationBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkerPool",
    "execute_round",
    "execute_rounds",
    "register_backend",
    "make_backend",
    "available_backends",
]

# Rounds per batched-fit window: _iter_rounds prepares this many rounds
# at a time, then trains eligible same-victim/same-shape groups through
# LinearSVM.fit_many.  Large enough to catch a grid study's repeat
# axis, small enough to keep B prepared training sets resident.
_FIT_WINDOW = 32

# Fields of an ExperimentContext large enough to be worth publishing in
# shared memory instead of pickling ("map" is the radius map's sorted
# distance vector).
_SHARED_ARRAY_FIELDS = ("X_train", "y_train", "X_test", "y_test")


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
    hyperparameters on same-shape float64 training sets — the envelope
    ``LinearSVM.can_fit_many`` accepts.  The key errs loose on purpose:
    ``fit_many`` re-checks eligibility and falls back to sequential
    fits itself, so a stale key can cost speed, never bits.
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
            X.shape, X.dtype.str)


def _fit_prepared_groups(prepared_rounds) -> None:
    """Train all eligible groups of prepared rounds through
    ``LinearSVM.fit_many``; ungrouped rounds stay unfitted (the finish
    step trains them sequentially, as before)."""
    from repro import telemetry
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
            LinearSVM.fit_many([p.model for p in group],
                               [(p.X_tr, p.y_tr) for p in group])
        for prepared in group:
            prepared.fitted = True


def _iter_rounds(ctx, specs):
    """Yield ``(index, outcome)`` for ``specs``, one fit window at a time.

    The one in-process execution loop (the serial backend, a shard
    without a pool and every pool worker's chunk all run it).  Rounds
    are prepared (attack + defence + fresh victim) one at a time, the
    victim fits of same-victim, same-shape rounds in each window of
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
            _fit_prepared_groups(prepared)
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


def _worker_init(meta_blob: bytes) -> None:
    global _WORKER_CTX, _WORKER_SHM
    import atexit

    _WORKER_CTX, _WORKER_SHM = _unpack_context(pickle.loads(meta_blob))
    if _WORKER_SHM is not None:
        atexit.register(_worker_cleanup)


def _worker_run_chunk(specs):
    """The pool workers' one entry point: a chunk's outcomes, in chunk
    order, plus this worker's telemetry delta.

    The delta (``None`` when telemetry is disabled or nothing changed)
    carries the stage histograms and counters the chunk accumulated in
    the worker process; the pool owner merges it into its own registry
    so its summaries cover the whole pool.  Spans still land in the
    worker's own JSONL file — only metrics travel back.
    """
    from repro import telemetry

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

    :class:`ProcessPoolBackend` opens one per batch; the cluster's
    shard server holds one for its lifetime.  ``close()`` shuts the
    workers down and unlinks the block.

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

        ``specs`` is cut into chunks of a quarter of an even per-worker
        share, one future each; every chunk runs through
        :func:`execute_rounds` in its worker (so its fits are batched)
        and surfaces whole, in arrival order.  Chunks not yet started
        are cancelled if the stream is abandoned.
        """
        from repro import telemetry

        specs = list(specs)
        size = max(1, len(specs) // (self.jobs * 4))
        futures = {self._pool.submit(_worker_run_chunk,
                                     specs[base:base + size]): base
                   for base in range(0, len(specs), size)}
        try:
            for future in as_completed(futures):
                outcomes, delta = future.result()
                telemetry.merge(delta)
                base = futures[future]
                for offset, outcome in enumerate(outcomes):
                    yield base + offset, outcome
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


class ProcessPoolBackend(EvaluationBackend):
    """Fan rounds out over a :class:`WorkerPool` opened per batch.

    Shared state attack builders can precompute once per batch (e.g.
    the boundary attack's surrogate direction) is warmed in the parent
    and shipped in the pool's metadata blob, so workers never repeat
    it.

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

    def run_iter(self, ctx, specs):
        # Imported lazily, like execute_round: keep the engine package
        # importable without the experiments layer.
        from repro.engine.spec import prewarm_context

        specs = list(specs)
        if not specs:
            return
        prewarm_context(ctx, specs)
        pool = WorkerPool(ctx, min(self.jobs, len(specs)))
        try:
            yield from pool.run_iter(specs)
        finally:
            pool.close()


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
