"""Long-lived process pools: reuse, chunking, lifecycle and recovery.

``ProcessPoolBackend`` keeps one ``WorkerPool`` per context fingerprint
across batches (a small LRU).  Each test checks its outcomes against a
serial engine, and observes the pool from outside: worker processes
are this process's multiprocessing children, and a pool's context
segment is a ``psm_*`` entry in ``/dev/shm``.
"""

import gc
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.engine.backends import _MAX_POOLS, WorkerPool
from repro.experiments.runner import make_synthetic_context

needs_dev_shm = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                   reason="shared-memory segments not "
                                   "listed in /dev/shm")


@pytest.fixture(scope="module")
def contexts():
    return [make_synthetic_context(seed=seed, n_samples=240, n_features=4)
            for seed in range(_MAX_POOLS + 1)]


@pytest.fixture
def fresh_telemetry():
    """Start from a fresh registry with no trace sink; restore the
    environment's sink directory afterwards."""
    saved = os.environ.get("REPRO_TELEMETRY_DIR")
    telemetry.configure()
    yield
    telemetry.reset()
    if saved is None:
        os.environ.pop("REPRO_TELEMETRY_DIR", None)
    else:
        os.environ["REPRO_TELEMETRY_DIR"] = saved


def specs(n, first_seed=0):
    return [RoundSpec(filter_percentile=0.1,
                      attack=AttackSpec("boundary", 0.05),
                      poison_fraction=0.2, seed=seed)
            for seed in range(first_seed, first_seed + n)]


def serial(ctx, batch):
    return EvaluationEngine("serial", cache=False).evaluate_batch(ctx, batch)


def children() -> dict:
    """This process's live multiprocessing children, by pid."""
    return {proc.pid: proc for proc in multiprocessing.active_children()}


def segments() -> set:
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")}


class TestReuse:
    def test_second_batch_runs_on_the_same_workers(self, contexts):
        ctx = contexts[0]
        engine = EvaluationEngine("process", jobs=2, cache=False)
        before = set(children())
        first = engine.evaluate_batch(ctx, specs(4))
        workers = set(children()) - before
        assert len(workers) == 2
        second = engine.evaluate_batch(ctx, specs(4, first_seed=4))
        assert set(children()) - before == workers
        assert first == serial(ctx, specs(4))
        assert second == serial(ctx, specs(4, first_seed=4))

    def test_each_worker_trains_one_window(self, contexts,
                                           fresh_telemetry):
        ctx = contexts[0]
        batch = specs(48)
        engine = EvaluationEngine("process", jobs=2, cache=False)
        outcomes = engine.evaluate_batch(ctx, batch)
        stages = telemetry.summary()["stages"]
        # Two chunks of 24 rounds, each one lockstep fit group.
        assert stages["fit"]["count"] == 2
        assert stages["attack"]["count"] == len(batch)
        assert outcomes == serial(ctx, batch)

    def test_round_robin_chunks_land_in_input_positions(self, contexts):
        ctx = contexts[0]
        pool = WorkerPool(ctx, 2)
        try:
            for n in (1, 2, 25, 65):
                batch = specs(n)
                landed = dict(pool.run_iter(batch))
                assert sorted(landed) == list(range(n))
                assert [landed[i] for i in range(n)] == serial(ctx, batch)
        finally:
            pool.close()


@needs_dev_shm
class TestLifecycle:
    def test_eviction_closes_the_least_recent_pool(self, contexts):
        engine = EvaluationEngine("process", jobs=2, cache=False)
        known, before_segments = set(children()), segments()
        pools = []  # each context's worker processes, in opening order
        for ctx in contexts:
            engine.evaluate_batch(ctx, specs(2))
            workers = [proc for pid, proc in children().items()
                       if pid not in known]
            known.update(proc.pid for proc in workers)
            assert len(workers) == 2
            pools.append(workers)
        assert not any(proc.is_alive() for proc in pools[0])
        assert all(proc.is_alive() for workers in pools[1:]
                   for proc in workers)
        assert len(segments() - before_segments) == _MAX_POOLS
        engine.backend.close()

    def test_dropping_the_engine_closes_its_pools(self, contexts):
        before_children, before_segments = set(children()), segments()
        engine = EvaluationEngine("process", jobs=2, cache=False)
        for ctx in contexts[:2]:
            engine.evaluate_batch(ctx, specs(2))
        workers = [proc for pid, proc in children().items()
                   if pid not in before_children]
        assert len(workers) == 4
        assert len(segments() - before_segments) == 2
        del engine
        gc.collect()
        assert not any(proc.is_alive() for proc in workers)
        assert segments() <= before_segments

    def test_close_then_reuse_opens_a_fresh_pool(self, contexts):
        ctx = contexts[0]
        engine = EvaluationEngine("process", jobs=2, cache=False)
        engine.evaluate_batch(ctx, specs(2))
        engine.backend.close()
        assert engine.evaluate_batch(ctx, specs(2, first_seed=2)) == \
            serial(ctx, specs(2, first_seed=2))
        engine.backend.close()

    def test_threads_share_the_backend_across_evictions(self, contexts):
        """Three threads over three contexts and an LRU of two: pools
        are evicted while other threads' batches run on them.  Every
        batch is serial-identical, and after ``close()`` no pool is
        left (a lost update to a pool's batch count would close it
        under a batch, or never close it)."""
        engine = EvaluationEngine("process", jobs=2, cache=False)
        known, before_segments = set(children()), segments()
        orders = [contexts[k:] + contexts[:k] for k in range(len(contexts))]
        results: list = [None] * len(orders)
        start = threading.Barrier(len(orders))

        def run(slot):
            start.wait()
            results[slot] = [engine.evaluate_batch(ctx, specs(6, 10 * slot))
                             for ctx in orders[slot]]

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        workers = [proc for pid, proc in children().items()
                   if pid not in known]
        engine.backend.close()
        assert not any(proc.is_alive() for proc in workers)
        assert segments() <= before_segments
        for slot, order in enumerate(orders):
            assert results[slot] == [serial(ctx, specs(6, 10 * slot))
                                     for ctx in order]


class TestRecovery:
    def test_worker_killed_between_batches(self, contexts):
        ctx = contexts[0]
        engine = EvaluationEngine("process", jobs=2, cache=False)
        before = set(children())
        engine.evaluate_batch(ctx, specs(4))
        old_workers = set(children()) - before
        victim = children()[min(old_workers)]
        os.kill(victim.pid, signal.SIGKILL)
        # Watch the exit without reaping it: the executor's manager
        # thread also waits on this pid, and whichever waiter loses gets
        # ECHILD, after which is_alive() reads a dead worker as alive.
        assert multiprocessing.connection.wait([victim.sentinel],
                                               timeout=10.0)
        outcomes = engine.evaluate_batch(ctx, specs(4, first_seed=4))
        assert outcomes == serial(ctx, specs(4, first_seed=4))
        new_workers = set(children()) - before
        assert len(new_workers) == 2 and not new_workers & old_workers
        engine.backend.close()

    def test_telemetry_armed_after_the_pool_exists(self, contexts,
                                                   fresh_telemetry,
                                                   tmp_path):
        ctx = contexts[0]
        engine = EvaluationEngine("process", jobs=2, cache=False)
        engine.evaluate_batch(ctx, specs(8))  # opens the pool, no sink
        trace_dir = tmp_path / "trace"
        telemetry.configure(str(trace_dir))  # a fresh registry and a sink
        outcomes = engine.evaluate_batch(ctx, specs(8, first_seed=8))
        stages = telemetry.summary()["stages"]
        for stage in ("attack", "defense", "payoff"):
            assert stages[stage]["count"] == 8, stage
        # Fits count per fit group: each worker's 4-round chunk trains
        # as one lockstep group.
        assert stages["fit"]["count"] == 2
        assert outcomes == serial(ctx, specs(8, first_seed=8))
        engine.backend.close()
        # The workers followed the owner onto the sink: each wrote its
        # own trace file beside the owner's.
        writers = {name.split("-")[1] for name in os.listdir(trace_dir)}
        assert writers - {str(os.getpid())}


OWNER = """
import multiprocessing, time
from repro.engine import EvaluationEngine, RoundSpec
from repro.experiments.runner import make_synthetic_context
ctx = make_synthetic_context(seed=0, n_samples=120, n_features=3)
engine = EvaluationEngine("process", jobs=2)
engine.evaluate_batch(ctx, [RoundSpec(filter_percentile=0.1, seed=s)
                            for s in range(2)])
print(*[proc.pid for proc in multiprocessing.active_children()], flush=True)
time.sleep(600)
"""


def running(pid) -> bool:
    """Whether ``pid`` is a live, non-zombie process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.slow
@needs_dev_shm
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_their_owner_is_killed():
    """An owner killed without cleanup leaves no worker and no segment:
    its workers notice they were reparented and exit, and the owner's
    resource tracker then unlinks the block."""
    before = segments()
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    owner = subprocess.Popen(
        [sys.executable, "-c", OWNER], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    watchdog = threading.Timer(120.0, owner.kill)  # bounds the readline
    watchdog.start()
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
    finally:
        watchdog.cancel()
        owner.kill()
        owner.wait(timeout=30.0)
        owner.stdout.close()
    assert len(workers) == 2
    deadline = time.monotonic() + 30.0
    while (any(running(pid) for pid in workers)
           or not segments() <= before) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(running(pid) for pid in workers)
    assert segments() <= before


def _gram_bytes(X):
    return np.dot(X, X.T).tobytes()


def test_worker_gemm_matches_the_parent(contexts):
    """A pool worker keeps its parent's BLAS thread count.

    The OpenBLAS thread count changes GEMM bits: with scipy-openblas
    0.3.31 on a 2-CPU x86-64 machine, ``np.dot(X, X.T)`` for this seeded
    (420, 8) ``X`` differs in 28 of 176,400 entries between one and two
    threads.  A variant that capped only the pool workers at one thread
    was faster, but broke the serial-reference check of the end-to-end
    benchmark: one ``knn_sanitizer`` x ``label-flip`` round removed 150
    rows on the process path and 149 on the serial one.  So workers
    must compute exactly what their parent does.
    """
    X = np.random.default_rng(420).standard_normal((420, 8))
    pool = WorkerPool(contexts[0], 2)
    try:
        # The executor behind the pool: run one call in a real worker.
        in_worker = pool._pool.submit(_gram_bytes, X).result()
    finally:
        pool.close()
    assert in_worker == _gram_bytes(X)
