"""SchedulerWorker: lease-and-run, retry/backoff, interrupt, resume."""

import json
import os
import threading
import time

import pytest

from repro.engine import EvaluationEngine
from repro.engine.backends import SerialBackend
from repro.service import (ReproService, SchedulerWorker, ServiceConfig,
                           StudyInterrupted, StudyQueue)
from repro.service import queue as queue_module
from repro.service import scheduler as scheduler_module
from repro.study import (ContextSpec, describe_study, load_checkpoint,
                         run_study, studies)


def _config(tmp_path, **overrides):
    values = dict(archive_dir=str(tmp_path), poll_interval=0.02,
                  lease_ttl=5.0, retries=1, backoff=0.01,
                  checkpoint_every=1)
    values.update(overrides)
    return ServiceConfig(**values)


def _wait(predicate, timeout=60.0, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def test_worker_runs_queued_study_to_archive(tmp_path, tiny_spec, counters):
    queue = StudyQueue(str(tmp_path))
    queue.submit(tiny_spec)
    engine = EvaluationEngine("serial")
    worker = SchedulerWorker(queue, _config(tmp_path), engine=engine)
    worker.start()
    try:
        fp = tiny_spec.fingerprint()
        _wait(lambda: (queue.study_state(fp) or {}).get("state") == "done",
              message="study archived")
    finally:
        worker.stop()
        worker.join(timeout=30.0)
    assert counters()["service.studies.completed"] == 1
    assert queue.get(tiny_spec.fingerprint()) is None  # entry removed
    # The archived result is the real study, resumable by fingerprint.
    served = run_study(tiny_spec, archive_dir=str(tmp_path))
    assert served.study_fingerprint == tiny_spec.fingerprint()


def test_submit_landing_mid_scan_is_not_lost(tmp_path, tiny_spec, counters):
    """A submission (and its wake) that lands after a scan listed the
    queue but before the worker waits is picked up at once, not at the
    next poll, 60 s away."""
    queue = StudyQueue(str(tmp_path))
    worker = SchedulerWorker(queue, _config(tmp_path, poll_interval=60.0),
                             engine=EvaluationEngine("serial"))
    real_pending = queue.pending
    landed = threading.Event()

    def pending_then_submit(**kwargs):
        entries = real_pending(**kwargs)
        if not landed.is_set():
            landed.set()
            queue.submit(tiny_spec)
            worker.wake()
        return entries

    queue.pending = pending_then_submit
    worker.start()
    try:
        fp = tiny_spec.fingerprint()
        _wait(lambda: (queue.study_state(fp) or {}).get("state") == "done",
              timeout=30.0, message="study archived before the next poll")
    finally:
        worker.stop()
        worker.join(timeout=30.0)
    assert not worker.is_alive()
    assert counters()["service.studies.completed"] == 1


def test_failure_requeues_with_backoff_then_parks_failed(tmp_path, counters):
    bad_ctx = ContextSpec(name="no-such-context", seed=0)
    spec = studies.figure1(context=bad_ctx, percentiles=(0.05,),
                           n_repeats=1)
    queue = StudyQueue(str(tmp_path))
    queue.submit(spec)
    worker = SchedulerWorker(queue, _config(tmp_path, retries=1,
                                            backoff=0.01))
    worker.start()
    try:
        fp = spec.fingerprint()
        _wait(lambda: (queue.get(fp) or spec).state == "failed",
              message="retry budget exhausted")
    finally:
        worker.stop()
        worker.join(timeout=30.0)
    entry = queue.get(spec.fingerprint())
    assert entry.state == "failed"
    assert entry.attempts == 2  # the first try + one retry
    assert "unknown context" in entry.last_error
    assert counters()["service.studies.failed"] == 1


def test_stale_listing_never_reruns_a_finished_study(tmp_path, tiny_spec,
                                                     counters):
    """A worker listed the queue before another worker ran a study to
    its archive and released the lease: it takes the free lease, finds
    the entry gone, and runs and counts nothing."""
    queue = StudyQueue(str(tmp_path))
    queue.submit(tiny_spec)
    stale = queue.pending()
    first = SchedulerWorker(queue, _config(tmp_path),
                            engine=EvaluationEngine("serial"), name="first")
    assert first._lease_and_run_one()
    assert counters()["service.studies.completed"] == 1

    queue.pending = lambda **kwargs: stale
    late = SchedulerWorker(queue, _config(tmp_path),
                           engine=EvaluationEngine("serial"), name="late")
    assert not late._lease_and_run_one()
    counts = counters()
    assert "service.studies.completed" not in counts
    assert "engine.batches_total" not in counts
    assert queue.lease_info(tiny_spec.fingerprint()) is None


def test_malformed_entry_parks_failed_without_retries(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    entry.study = {"type": "StudySpec", "kind": "no-such-kind"}
    queue.update(entry)
    worker = SchedulerWorker(queue, _config(tmp_path))
    worker.start()
    try:
        fp = entry.fingerprint
        _wait(lambda: (queue.get(fp) or entry).state == "failed",
              message="malformed entry parked")
    finally:
        worker.stop()
        worker.join(timeout=30.0)
    parked = queue.get(entry.fingerprint)
    assert parked.attempts == 0  # never retried: it can never load
    assert "StudySpec" in parked.last_error


def test_interrupt_checkpoints_and_resumes_zero_recompute(tmp_path,
                                                          ctx_spec,
                                                          counters):
    """The graceful-shutdown contract, end to end: a study aborted
    mid-run keeps every completed round in its checkpoint, and the
    next engine recomputes exactly the remainder."""
    spec = studies.figure1(
        context=ctx_spec,
        percentiles=(0.02, 0.04, 0.06, 0.08, 0.10, 0.12), n_repeats=1)
    total = describe_study(spec).n_rounds
    assert total >= 6

    stop_after = 3
    seen = []

    def progress(done, total_):
        seen.append(done)
        if done >= stop_after:
            raise StudyInterrupted("drill")

    first = EvaluationEngine("serial")
    with pytest.raises(StudyInterrupted):
        run_study(spec, engine=first, progress=progress,
                  archive_dir=str(tmp_path), resume=True,
                  checkpoint_every=1)
    rows = load_checkpoint(str(tmp_path), spec.fingerprint())
    assert len(rows) >= stop_after  # nothing completed was lost

    counters()
    fresh = EvaluationEngine("serial")
    result = run_study(spec, engine=fresh, archive_dir=str(tmp_path),
                       resume=True, checkpoint_every=1)
    # Zero recompute: the fresh engine computed only the remainder.
    assert counters()["engine.rounds_computed"] == total - len(rows)
    assert result.study_fingerprint == spec.fingerprint()


class _GatedBackend(SerialBackend):
    """Serial rounds that pause after the first landed one until released.

    Outcomes are yielded (and so recorded and checkpointed by the study)
    before the pause, which makes "stop() mid-study" a sequence instead
    of a race against a study that finishes in a fraction of a second.
    """

    def __init__(self):
        self.landed = threading.Event()
        self.release = threading.Event()

    def run_iter(self, ctx, specs):
        for index, outcome in super().run_iter(ctx, specs):
            yield index, outcome
            if not self.landed.is_set():
                self.landed.set()
                self.release.wait(timeout=60.0)


def test_worker_stop_midstudy_leaves_resumable_entry(tmp_path, ctx_spec,
                                                     counters):
    """stop() during a study: the entry stays queued, a checkpoint
    holds the finished rounds, and a second worker finishes the study
    without recomputing them (asserted via engine round counts)."""
    spec = studies.figure1(
        context=ctx_spec,
        percentiles=(0.02, 0.04, 0.06, 0.08, 0.10, 0.12), n_repeats=1)
    total = describe_study(spec).n_rounds
    fp = spec.fingerprint()
    queue = StudyQueue(str(tmp_path))
    queue.submit(spec)

    gate = _GatedBackend()
    first_engine = EvaluationEngine(gate)
    worker = SchedulerWorker(queue, _config(tmp_path),
                             engine=first_engine, name="w-first")
    worker.start()
    try:
        # The first round has landed and the worker is parked before
        # the second: yank it, then let the study run into the stop.
        assert gate.landed.wait(timeout=60.0), "no round ever landed"
    finally:
        worker.stop()
        gate.release.set()
        worker.join(timeout=30.0)
    assert not worker.is_alive()
    first_computed = counters()["engine.rounds_computed"]

    assert queue.lease_info(fp) is None  # lease released on the way out
    entry = queue.get(fp)
    assert entry is not None and entry.state == "queued"
    rows = load_checkpoint(str(tmp_path), fp)
    assert rows  # the shutdown flushed completed rounds

    second_engine = EvaluationEngine("serial")
    second = SchedulerWorker(queue, _config(tmp_path),
                             engine=second_engine, name="w-second")
    second.start()
    try:
        _wait(lambda: (queue.study_state(fp) or {}).get("state") == "done",
              message="resumed study to archive")
    finally:
        second.stop()
        second.join(timeout=30.0)
    # Zero recompute across the handover: first worker's rounds plus
    # the second's sum to exactly the study's total.
    second_computed = counters()["engine.rounds_computed"]
    assert second_computed == total - len(rows)
    assert first_computed + second_computed == total


def test_two_workers_never_run_the_same_study_twice(tmp_path, spec_maker,
                                                    counters):
    """N workers over one queue: every study runs exactly once (the
    O_EXCL lease is the only coordination)."""
    specs = [spec_maker(seed_offset=i) for i in range(1, 5)]
    total = sum(describe_study(s).n_rounds for s in specs)
    queue = StudyQueue(str(tmp_path))
    for spec in specs:
        queue.submit(spec)

    engines = [EvaluationEngine("serial"), EvaluationEngine("serial")]
    workers = [SchedulerWorker(queue, _config(tmp_path), engine=eng,
                               name=f"w{i}")
               for i, eng in enumerate(engines)]
    for worker in workers:
        worker.start()
    try:
        _wait(lambda: all((queue.study_state(s.fingerprint()) or {})
                          .get("state") == "done" for s in specs),
              message="all studies archived")
    finally:
        for worker in workers:
            worker.stop()
        for worker in workers:
            worker.join(timeout=30.0)
    # Exactly-once execution: the fleet computed each round once (the
    # registry sums both engines).
    counts = counters()
    assert counts["engine.rounds_computed"] == total
    assert counts["service.studies.completed"] == len(specs)


def test_two_workers_share_one_context_bit_identically(tmp_path, ctx_spec,
                                                       counters):
    """Scheduler threads share run_study's per-process context, kernel
    included; every study they archive matches a direct serial run."""
    from repro.study.runner import _study_context

    specs = [studies.grid(context=ctx_spec,
                          defenses=("none", "slab_filter:0.1:axis=clean",
                                    "radius:0.1", "loss_filter:0.1"),
                          attacks=("clean", f"boundary:{q}"),
                          fractions=(fraction,))
             for q, fraction in ((0.05, 0.1), (0.06, 0.15), (0.07, 0.2),
                                 (0.08, 0.25))]
    queue = StudyQueue(str(tmp_path))
    for spec in specs:
        queue.submit(spec)

    _study_context.cache_clear()  # both workers start on one cold context
    workers = [SchedulerWorker(queue, _config(tmp_path),
                               engine=EvaluationEngine("serial"),
                               name=f"w{i}")
               for i in range(2)]
    for worker in workers:
        worker.start()
    try:
        _wait(lambda: all((queue.study_state(s.fingerprint()) or {})
                          .get("state") == "done" for s in specs),
              message="all studies archived")
    finally:
        for worker in workers:
            worker.stop()
        for worker in workers:
            worker.join(timeout=30.0)
    assert counters()["service.studies.completed"] == len(specs)

    _study_context.cache_clear()
    for spec in specs:
        served = json.loads(run_study(spec, archive_dir=str(tmp_path))
                            .to_json())["data"]
        direct = json.loads(run_study(spec, engine=EvaluationEngine(
            "serial", cache=False)).to_json())["data"]
        for key in ("scenarios", "payload"):
            assert json.dumps(served[key], sort_keys=True) == \
                json.dumps(direct[key], sort_keys=True), key


class _FakeTime:
    """A clock the test moves by hand, standing in for the ``time``
    module of :mod:`repro.service.scheduler` and
    :mod:`repro.service.queue` (every other name is the real module's)."""

    def __init__(self, now: float):
        self.now = now

    def time(self) -> float:
        return self.now

    def monotonic(self) -> float:
        return self.now

    def __getattr__(self, name):
        return getattr(time, name)


def test_lease_refreshes_every_quarter_ttl_through_a_long_study(
        tmp_path, ctx_spec, monkeypatch, counters):
    """Each round takes an eighth of the lease TTL of fake time, so the
    study spans three TTLs: the lease is refreshed every quarter TTL and
    a reaper with that TTL never breaks it."""
    ttl = 4.0
    clock = _FakeTime(1_000_000.0)
    monkeypatch.setattr(scheduler_module, "time", clock)
    monkeypatch.setattr(queue_module, "time", clock)
    spec = studies.figure1(context=ctx_spec,
                           percentiles=tuple(0.01 * i for i in range(1, 13)),
                           n_repeats=1)
    total = describe_study(spec).n_rounds
    fp = spec.fingerprint()
    queue = StudyQueue(str(tmp_path))
    queue.submit(spec)
    beats, reaped = [], []

    class Slow(SerialBackend):
        def run_iter(self, ctx, specs):
            for landed in super().run_iter(ctx, specs):
                clock.now += ttl / 8
                yield landed
                beats.append(queue.lease_info(fp)["heartbeat_at"])
                reaped.extend(queue.reap_stale_leases(ttl=ttl))

    worker = SchedulerWorker(queue, _config(tmp_path, lease_ttl=ttl),
                             engine=EvaluationEngine(Slow()))
    started = clock.now
    assert worker._lease_and_run_one()
    assert clock.now - started == total * ttl / 8 > ttl
    assert reaped == []
    assert counters()["service.studies.completed"] == 1
    assert queue.study_state(fp)["state"] == "done"
    refreshes = sorted(set(beats) | {started})
    assert all(later - earlier <= ttl / 4
               for earlier, later in zip(refreshes, refreshes[1:]))
    assert clock.now - refreshes[-1] <= ttl / 4
    assert len(refreshes) - 1 == total // 2  # not one write per round


def test_served_studies_rewrite_no_lease_and_no_manifest(
        tmp_path, spec_maker, client_class, monkeypatch, counters):
    """The scheduler's clock stands still, so every study is shorter than
    a quarter of the lease TTL: no study replaces its lease file, and
    nothing, stop() included, writes a queue manifest."""
    monkeypatch.setattr(scheduler_module, "time", _FakeTime(1_000_000.0))
    replaced = []
    real_replace = os.replace

    def replace(src, dst, **kwargs):
        replaced.append(os.path.basename(dst))
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    specs = [spec_maker(seed_offset=60 + i) for i in range(2)]
    service = ReproService(_config(tmp_path / "archive", lease_ttl=5.0),
                           engine=EvaluationEngine("serial")).start()
    try:
        client = client_class(service.host, service.port)
        for spec in specs:
            status, _ = client.json("POST", "/studies", spec.to_obj())
            assert status == 202
            status, events = client.stream_lines(
                f"/studies/{spec.fingerprint()}/stream")
            assert events[-1]["state"] == "done"
        assert service.workers[0].wait_idle(timeout=30.0)
        served = list(replaced)
    finally:
        service.stop()
    assert counters()["service.studies.completed"] == len(specs)
    assert [name for name in served if name.startswith("lease-")] == []
    assert "queue-manifest.json" not in replaced
