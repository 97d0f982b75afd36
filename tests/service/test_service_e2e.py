"""End-to-end over real HTTP: submit → stream → result, dedupe, parity."""

import http.client
import json
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.engine import EvaluationEngine, SerialBackend
from repro.service import ReproService, ServiceConfig, StudyQueue
from repro.service.queue import lease_path
from repro.study import archive_path, run_study, study_result_from_json


@pytest.fixture()
def engine():
    return EvaluationEngine("serial")


@pytest.fixture()
def svc(tmp_path, engine):
    service = ReproService(ServiceConfig(
        archive_dir=str(tmp_path / "archive"), poll_interval=0.05,
        lease_ttl=5.0, retries=0, backoff=0.01),
        engine=engine).start()
    yield service
    service.stop()


@pytest.fixture()
def svc_client(svc, client_class):
    return client_class(svc.host, svc.port)


def _wait_done(client, fp, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, doc = client.json("GET", f"/studies/{fp}")
        assert status == 200
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"study {fp[:12]} never finished")


def test_submit_stream_fetch_bit_identical(svc_client, tiny_spec,
                                           tmp_path):
    fp = tiny_spec.fingerprint()
    status, doc = svc_client.json("POST", "/studies", tiny_spec.to_obj())
    assert status == 202
    assert doc == {"fingerprint": fp, "state": "queued",
                   "deduped": False, "queue_position": 1}

    status, events = svc_client.stream_lines(f"/studies/{fp}/stream")
    assert status == 200
    assert events  # at least the snapshot event
    assert events[-1]["state"] == "done"
    assert all(e["fingerprint"] == fp for e in events)

    status, doc = svc_client.json("GET", f"/studies/{fp}")
    assert status == 200
    assert doc["state"] == "done"
    assert doc["summary"]["fingerprint"] == fp
    assert doc["summary"]["n_scenarios"] > 0

    status, served = svc_client.json("GET", f"/studies/{fp}/result")
    assert status == 200
    status, report = svc_client.request("GET", f"/studies/{fp}/report")
    assert status == 200
    assert b"Figure 1" in report

    # Bit-identical to a direct run_study: same payload, same scenario
    # records, same fingerprints (wall time and engine stats are the
    # run's own history and legitimately differ).
    direct = json.loads(
        run_study(tiny_spec, engine=EvaluationEngine("serial")).to_json())
    served, direct = served["data"], direct["data"]
    assert served["payload"] == direct["payload"]
    assert served["scenarios"] == direct["scenarios"]
    assert served["study_fingerprint"] == direct["study_fingerprint"]
    assert served["context_fingerprints"] == \
        direct["context_fingerprints"]


def test_concurrent_submits_one_computation(svc_client, svc, engine,
                                            tiny_spec, counters):
    """Two simultaneous POSTs of one spec: exactly one computation,
    asserted through the engine's batch telemetry."""
    fp = tiny_spec.fingerprint()
    body = json.dumps(tiny_spec.to_obj())
    results = []
    barrier = threading.Barrier(2)

    def post():
        barrier.wait()
        results.append(svc_client.json("POST", "/studies", body))

    threads = [threading.Thread(target=post) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert {status for status, _ in results} <= {200, 202}
    assert sorted(doc["deduped"] for _, doc in results) == [False, True]
    assert {doc["fingerprint"] for _, doc in results} == {fp}

    _wait_done(svc_client, fp)
    svc.workers[0].wait_idle(timeout=30.0)
    served = counters()
    # One computation: every computed round is accounted to exactly one
    # batch pass over the study; a duplicate run would double it.
    run_study(tiny_spec, engine=EvaluationEngine("serial"))
    direct = counters()
    for name in ("engine.rounds_computed", "engine.batches_total"):
        assert served[name] == direct[name], name


def batch_accounting(result) -> dict:
    """What a study archives about the batches it ran, timings aside."""
    return {"n_rounds": result.n_rounds, "n_unique": result.n_unique,
            "cache_hits": result.cache_hits,
            "rounds_computed": result.rounds_computed,
            "batches": [{key: value for key, value in batch.items()
                         if key != "seconds"}
                        for batch in result.engine_stats["batches"]]}


def test_two_workers_sharing_an_engine_archive_only_their_batches(
        tmp_path, spec_maker, client_class, counters):
    """Two studies with disjoint rounds, run at once by one replica's two
    scheduler workers on one engine, archive what each runs alone."""
    specs = [spec_maker(percentiles=(0.05, 0.1)),
             spec_maker(percentiles=(0.15, 0.2))]
    solo = [batch_accounting(run_study(spec,
                                       engine=EvaluationEngine("serial")))
            for spec in specs]
    counters()
    meet = threading.Barrier(2, timeout=60.0)

    class Overlapping(SerialBackend):
        """Serial rounds; each study's one batch holds after its first
        round until the other's has landed one too."""

        def run_iter(self, ctx, specs):
            for n, landed in enumerate(super().run_iter(ctx, specs)):
                yield landed
                if n == 0:
                    meet.wait()

    shared = EvaluationEngine(Overlapping())
    archive_dir = str(tmp_path / "archive")
    service = ReproService(ServiceConfig(
        archive_dir=archive_dir, poll_interval=0.05, lease_ttl=5.0,
        retries=0, backoff=0.01), engine=shared, workers=2).start()
    try:
        client = client_class(service.host, service.port)
        for spec in specs:
            assert client.json("POST", "/studies", spec.to_obj())[0] == 202
        for spec in specs:
            assert _wait_done(client, spec.fingerprint())["state"] == "done"
    finally:
        service.stop()
    served = [study_result_from_json(archive_path(archive_dir,
                                                  spec.fingerprint()))
              for spec in specs]
    assert [batch_accounting(result) for result in served] == solo
    assert counters()["engine.rounds_computed"] == \
        sum(result.rounds_computed for result in served)


def test_already_archived_submit_zero_recompute(svc_client, svc, engine,
                                                tiny_spec, counters):
    fp = tiny_spec.fingerprint()
    status, first = svc_client.json("POST", "/studies", tiny_spec.to_obj())
    assert status == 202
    _wait_done(svc_client, fp)
    svc.workers[0].wait_idle(timeout=30.0)
    counters()

    status, doc = svc_client.json("POST", "/studies", tiny_spec.to_obj())
    assert status == 200
    assert doc == {"fingerprint": fp, "state": "done", "deduped": True}
    # The archive answered and nothing was queued — so no worker can
    # ever pick the study up, and nothing was (or will be) recomputed.
    assert svc.queue.get(fp) is None
    counts = counters()
    assert "engine.rounds_computed" not in counts
    assert "engine.batches_total" not in counts


def test_submit_racing_the_studys_completion_is_deduped(svc_client, svc,
                                                        tiny_spec,
                                                        monkeypatch):
    """A worker that archives the study and removes its entry between the
    POST's archive check and its submit: the reply is the archive's
    "done", and no entry is left behind for a worker to lease again."""
    for worker in svc.workers:
        worker.stop()
    for worker in svc.workers:
        worker.join(timeout=30.0)
    fp = tiny_spec.fingerprint()
    real_submit = svc.queue.submit

    def archive_then_submit(spec, **kwargs):
        run_study(spec, engine=EvaluationEngine("serial"),
                  archive_dir=svc.config.archive_dir)
        return real_submit(spec, **kwargs)

    monkeypatch.setattr(svc.queue, "submit", archive_then_submit)
    status, doc = svc_client.json("POST", "/studies", tiny_spec.to_obj())
    assert status == 200
    assert doc == {"fingerprint": fp, "state": "done", "deduped": True}
    assert svc.queue.get(fp) is None


def test_local_progress_comes_from_the_worker_not_the_lease(
        tmp_path, client_class, tiny_spec):
    """A study this replica runs reports its worker's in-memory progress:
    after its first round, the status says so while the lease file still
    holds acquire_lease's zero, and the stream's last event before
    "done" has every round done."""

    class Stepped(SerialBackend):
        """Serial rounds that each hold, once landed, for a step."""

        def __init__(self):
            self.landed = threading.Semaphore(0)
            self.step = threading.Semaphore(0)

        def run_iter(self, ctx, specs):
            for landed in super().run_iter(ctx, specs):
                yield landed
                self.landed.release()
                self.step.acquire(timeout=60.0)

    rounds = Stepped()
    archive_dir = str(tmp_path / "archive")
    service = ReproService(ServiceConfig(
        archive_dir=archive_dir, poll_interval=0.05, lease_ttl=600.0,
        retries=0), engine=EvaluationEngine(rounds)).start()
    events: list = []

    def follow():
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=60.0)
        try:
            conn.request("GET", f"/studies/{fp}/stream")
            for line in conn.getresponse():
                if line.strip():
                    events.append(json.loads(line))
        finally:
            conn.close()

    def wait_for(predicate, what):
        deadline = time.time() + 30.0
        while not predicate():
            assert time.time() < deadline, f"timed out waiting for {what}"
            time.sleep(0.01)

    follower = threading.Thread(target=follow)
    try:
        client = client_class(service.host, service.port)
        fp = tiny_spec.fingerprint()
        assert client.json("POST", "/studies", tiny_spec.to_obj())[0] == 202
        assert rounds.landed.acquire(timeout=60.0), "no round ever landed"
        status, doc = client.json("GET", f"/studies/{fp}")
        assert status == 200
        assert doc["state"] == "running"
        assert doc["progress"]["done"] >= 1
        total = doc["progress"]["total"]
        with open(lease_path(archive_dir, fp), encoding="utf-8") as fh:
            assert json.load(fh)["done"] == 0

        follower.start()
        for _ in range(total - 1):
            rounds.step.release()
            assert rounds.landed.acquire(timeout=60.0)
        every_round = {"done": total, "total": total}
        wait_for(lambda: any(e.get("progress") == every_round
                             for e in events), "the last round's event")
        rounds.step.release()
        follower.join(timeout=60.0)
        assert not follower.is_alive()
    finally:
        rounds.step.release()
        service.stop()
    assert events[-1]["state"] == "done"
    assert events[-2]["progress"] == every_round


def test_priority_wrapper_and_queue_route(svc_client, svc, spec_maker):
    lo = spec_maker(seed_offset=21)
    hi = spec_maker(seed_offset=22)
    svc_client.json("POST", "/studies", lo.to_obj())
    status, doc = svc_client.json(
        "POST", "/studies", {"study": hi.to_obj(), "priority": 9})
    assert status in (200, 202)

    status, listing = svc_client.json("GET", "/queue")
    assert status == 200
    assert set(listing["counts"]) >= {"queued", "running", "failed",
                                      "cancelled"}
    by_fp = {e["fingerprint"]: e for e in listing["entries"]}
    if hi.fingerprint() in by_fp:  # may already have finished
        assert by_fp[hi.fingerprint()]["priority"] == 9

    _wait_done(svc_client, lo.fingerprint())
    _wait_done(svc_client, hi.fingerprint())


def test_queue_route_counters_when_telemetry_armed(tmp_path, client_class,
                                                   spec_maker):
    """/queue surfaces the service.* counters (always recorded)."""
    service = ReproService(ServiceConfig(
        archive_dir=str(tmp_path / "archive"), poll_interval=0.05),
        engine=EvaluationEngine("serial")).start()
    try:
        client = client_class(service.host, service.port)
        spec = spec_maker(seed_offset=31)
        client.json("POST", "/studies", spec.to_obj())
        _wait_done(client, spec.fingerprint())
        # "done" is the archive; the worker counts the completion just
        # after it lands.
        assert service.workers[0].wait_idle(timeout=30.0)
        status, listing = client.json("GET", "/queue")
    finally:
        service.stop()
    assert status == 200
    counters = listing["counters"]
    assert counters["service.queue.submitted"] >= 1
    assert counters["service.queue.leased"] >= 1
    assert counters["service.studies.completed"] >= 1


def test_result_before_done_is_a_named_404(svc_client, svc, tiny_spec):
    # Stop the scheduler so the study stays queued.
    for worker in svc.workers:
        worker.stop()
    for worker in svc.workers:
        worker.join(timeout=30.0)
    fp = tiny_spec.fingerprint()
    svc_client.json("POST", "/studies", tiny_spec.to_obj())
    status, doc = svc_client.json("GET", f"/studies/{fp}/result")
    assert status == 404
    assert "queued" in doc["error"] and "not done" in doc["error"]
    status, doc = svc_client.json("GET", f"/studies/{fp}/report")
    assert status == 404
    assert "report" in doc["error"]


def test_health_reports_workers(svc_client, svc, tiny_spec):
    svc_client.json("POST", "/studies", tiny_spec.to_obj())
    _wait_done(svc_client, tiny_spec.fingerprint())
    assert svc.workers[0].wait_idle(timeout=30.0)
    status, doc = svc_client.json("GET", "/health")
    assert status == 200
    assert doc["status"] == "ok"
    assert doc["auth"] is False
    assert len(doc["workers"]) == 1
    assert doc["workers"][0]["alive"] is True
    assert set(doc["workers"][0]) == {"name", "alive", "running"}
    # The replica's study tallies are the registry's counters.
    counts = telemetry.snapshot()["counters"]
    assert doc["studies"] == {
        state: counts.get(f"service.studies.{state}", 0)
        for state in ("completed", "failed")}
    assert doc["studies"]["completed"] >= 1


def test_submit_reply_is_the_state_at_acceptance(svc_client, svc, tiny_spec,
                                                 monkeypatch):
    """A lease taken between the entry's creation and the reply (by a
    worker of another replica, or one on its fallback poll) does not
    turn the 202 into a position-less "running"."""
    fp = tiny_spec.fingerprint()
    real_submit = StudyQueue.submit

    def submit_then_lease(self, spec, **kwargs):
        entry, created = real_submit(self, spec, **kwargs)
        assert self.acquire_lease(entry.fingerprint, owner="other-replica")
        return entry, created

    monkeypatch.setattr(StudyQueue, "submit", submit_then_lease)
    status, doc = svc_client.json("POST", "/studies", tiny_spec.to_obj())
    assert status == 202
    assert doc == {"fingerprint": fp, "state": "queued",
                   "deduped": False, "queue_position": 1}
    assert svc.queue.lease_info(fp)["owner"] == "other-replica"


def _slow_poll_service(tmp_path, **kwargs):
    """A service whose fallback poll (60 s, the clamp's top) is far
    longer than any client timeout below: only wake-ups and pushed
    events can finish a study in time."""
    return ReproService(ServiceConfig(
        archive_dir=str(tmp_path / "archive"), poll_interval=60.0,
        lease_ttl=30.0, retries=0), engine=EvaluationEngine("serial"),
        **kwargs).start()


def test_submit_wakes_an_idle_worker_and_the_stream_is_pushed(
        tmp_path, client_class, tiny_spec, counters):
    service = _slow_poll_service(tmp_path)
    try:
        # Idle: the worker's first scan is over, its next poll is 60 s
        # away.
        assert service.workers[0].wait_idle(timeout=30.0)
        client = client_class(service.host, service.port)
        fp = tiny_spec.fingerprint()
        status, _ = client.json("POST", "/studies", tiny_spec.to_obj(),
                                timeout=20.0)
        assert status == 202
        status, events = client.stream_lines(f"/studies/{fp}/stream",
                                             timeout=20.0)
        assert status == 200
        assert events[-1]["state"] == "done"
        # "done" is the archive; the worker counts the completion once
        # the entry and lease it held are gone.
        assert service.workers[0].wait_idle(timeout=20.0)
        assert counters()["service.studies.completed"] == 1
    finally:
        service.stop()
    assert not service.workers[0].is_alive()


def test_many_workers_many_streams_no_lost_wakeup(tmp_path, client_class,
                                                  spec_maker, counters):
    """4 workers (more than the CPUs), 8 studies POSTed and streamed by
    8 client threads, a 60 s fallback poll and a tiny switch interval:
    a lost wake-up or event hangs a stream past its 20 s timeout, a
    double lease shows as a ninth completion, and a torn read of a
    worker's in-memory progress as counts that go back or overshoot."""
    specs = [spec_maker(seed_offset=40 + i) for i in range(8)]
    service = _slow_poll_service(tmp_path, workers=4)
    finals: dict = {}
    progress: dict = {}
    errors: list = []

    def submit_and_follow(spec):
        try:
            client = client_class(service.host, service.port)
            fp = spec.fingerprint()
            status, _ = client.json("POST", "/studies", spec.to_obj(),
                                    timeout=20.0)
            assert status == 202
            status, events = client.stream_lines(f"/studies/{fp}/stream",
                                                 timeout=20.0)
            assert status == 200
            finals[fp] = events[-1]["state"]
            progress[fp] = [e["progress"] for e in events
                            if "progress" in e]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submit_and_follow, args=(spec,))
                   for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        service.stop()
    assert errors == []
    assert finals == {spec.fingerprint(): "done" for spec in specs}
    for counts in progress.values():
        dones = [c["done"] for c in counts]
        assert dones == sorted(dones)
        assert all(c["done"] <= c["total"] for c in counts)
    assert counters()["service.studies.completed"] == len(specs)
    assert not any(w.is_alive() for w in service.workers)


def test_stream_falls_back_to_the_poll_for_another_replicas_run(
        tmp_path, client_class, tiny_spec, counters):
    """Replica A (API only) and replica B (one worker) share an archive
    dir: A's submission reaches B by B's poll, and A's stream sees B's
    progress by its own poll — neither replica pushes to the other."""
    config = ServiceConfig(archive_dir=str(tmp_path / "archive"),
                           poll_interval=0.05, lease_ttl=5.0, retries=0)
    api = ReproService(config, workers=0).start()
    runner = ReproService(config, engine=EvaluationEngine("serial"),
                          workers=1).start()
    try:
        client = client_class(api.host, api.port)
        fp = tiny_spec.fingerprint()
        status, _ = client.json("POST", "/studies", tiny_spec.to_obj(),
                                timeout=20.0)
        assert status == 202
        status, events = client.stream_lines(f"/studies/{fp}/stream",
                                             timeout=20.0)
        assert status == 200
        assert events[-1]["state"] == "done"
    finally:
        api.stop()
        runner.stop()
    assert counters()["service.studies.completed"] == 1
