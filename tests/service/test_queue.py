"""StudyQueue: entries, leases, ordering, crash tolerance."""

import json
import os
import threading
import time

import pytest

from repro.service import StudyQueue
from repro.service.queue import entry_path, lease_path


def test_submit_creates_entry_and_dedupes(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, created = queue.submit(tiny_spec)
    assert created
    assert entry.fingerprint == tiny_spec.fingerprint()
    assert entry.state == "queued"
    assert os.path.exists(entry_path(str(tmp_path), entry.fingerprint))

    again, created = queue.submit(tiny_spec, priority=99)
    assert not created
    # The original entry wins: the duplicate's priority is ignored.
    assert again.priority == entry.priority
    assert len(queue.entries()) == 1


def test_submit_refuses_live_context(tmp_path, tiny_spec):
    from dataclasses import replace

    queue = StudyQueue(str(tmp_path))
    with pytest.raises(ValueError, match="context=None"):
        queue.submit(replace(tiny_spec, context=None))


def test_concurrent_submit_one_entry(tmp_path, spec_maker):
    """Many threads racing to submit the same spec create one entry."""
    queue = StudyQueue(str(tmp_path))
    spec = spec_maker()
    outcomes = []
    barrier = threading.Barrier(8)

    def submit():
        barrier.wait()
        _, created = StudyQueue(str(tmp_path)).submit(spec)
        outcomes.append(created)

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes.count(True) == 1
    assert len(queue.entries()) == 1


def test_dequeue_order_priority_then_fifo(tmp_path, spec_maker):
    queue = StudyQueue(str(tmp_path))
    low = spec_maker(seed_offset=1)
    mid = spec_maker(seed_offset=2)
    high = spec_maker(seed_offset=3)
    queue.submit(low, priority=0)
    queue.submit(high, priority=5)
    queue.submit(mid, priority=0)
    ordered = [e.fingerprint for e in queue.pending()]
    assert ordered == [high.fingerprint(), low.fingerprint(),
                       mid.fingerprint()]
    assert queue.position(high.fingerprint()) == 1
    assert queue.position(mid.fingerprint()) == 3


def test_not_before_defers_eligibility(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    entry.not_before = 10_000.0
    queue.update(entry)
    assert queue.pending(now=9_999.0) == []
    assert [e.fingerprint for e in queue.pending(now=10_001.0)] == \
        [entry.fingerprint]


def test_lease_is_exclusive_and_releases(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    fp = entry.fingerprint
    assert queue.acquire_lease(fp, owner="w1")
    assert not queue.acquire_lease(fp, owner="w2")
    info = queue.lease_info(fp)
    assert info["owner"] == "w1"
    queue.release_lease(fp)
    assert queue.lease_info(fp) is None
    assert queue.acquire_lease(fp, owner="w2")


def test_heartbeat_updates_progress(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    queue.acquire_lease(entry.fingerprint, owner="w1")
    queue.heartbeat(entry.fingerprint, done=3, total=9, owner="w1")
    state = queue.study_state(entry.fingerprint)
    assert state["state"] == "running"
    assert state["progress"] == {"done": 3, "total": 9}


def test_reap_stale_lease_requeues(tmp_path, tiny_spec, recwarn):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    fp = entry.fingerprint
    queue.acquire_lease(fp, owner="dead-daemon")
    # A fresh heartbeat survives the reaper...
    assert queue.reap_stale_leases(ttl=60.0) == []
    # ...but one older than the TTL is broken and the study requeues.
    with pytest.warns(UserWarning, match="reaped stale lease"):
        reclaimed = queue.reap_stale_leases(ttl=0.0)
    assert reclaimed == [fp]
    assert queue.lease_info(fp) is None
    assert queue.study_state(fp)["state"] == "queued"


def test_reaper_spares_a_lease_still_being_written(tmp_path, tiny_spec,
                                                  recwarn):
    """acquire_lease creates the lease file before it writes it; a
    reaper that reads it in between must not break it on sight, or a
    second worker leases the same study."""
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    fp = entry.fingerprint
    open(lease_path(str(tmp_path), fp), "w").close()  # created, unwritten
    assert queue.reap_stale_leases(ttl=5.0) == []
    assert not queue.acquire_lease(fp, owner="second-worker")
    # Left unwritten for longer than the TTL, it is stale after all.
    with pytest.warns(UserWarning, match="reaped stale lease"):
        assert queue.reap_stale_leases(ttl=5.0,
                                       now=time.time() + 10.0) == [fp]


def test_cancel_refuses_leased(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    queue.acquire_lease(entry.fingerprint, owner="w1")
    with pytest.raises(ValueError, match="leased"):
        queue.cancel(entry.fingerprint)
    queue.release_lease(entry.fingerprint)
    assert queue.cancel(entry.fingerprint).state == "cancelled"


def test_nudge_requeues_failed(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    entry.state = "failed"
    entry.last_error = "boom"
    entry.not_before = 10**12
    queue.update(entry)
    nudged = queue.nudge(entry.fingerprint, priority=7)
    assert nudged.state == "queued"
    assert nudged.not_before == 0.0
    assert nudged.last_error is None
    assert nudged.priority == 7
    assert queue.pending()  # eligible right now


def test_torn_entry_is_tolerated(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    path = entry_path(str(tmp_path), "deadbeef")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"type": "StudyQueueEntry", "fingerpr')  # torn write
    with pytest.warns(UserWarning, match="unreadable queue entry"):
        entries = queue.entries()
    assert [e.fingerprint for e in entries] == [entry.fingerprint]


def test_newer_schema_entry_is_skipped(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    entry, _ = queue.submit(tiny_spec)
    doc = entry.to_obj()
    doc["schema"] = 999
    with open(entry_path(str(tmp_path), entry.fingerprint), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.warns(UserWarning, match="newer than this build"):
        assert queue.entries() == []


def test_study_state_resolution(tmp_path, tiny_spec):
    queue = StudyQueue(str(tmp_path))
    fp = tiny_spec.fingerprint()
    assert queue.study_state(fp) is None
    queue.submit(tiny_spec)
    assert queue.study_state(fp)["state"] == "queued"
    queue.acquire_lease(fp, owner="w1")
    assert queue.study_state(fp)["state"] == "running"
    # The archive outranks everything.
    from repro.study import archive_path
    with open(archive_path(str(tmp_path), fp), "w",
              encoding="utf-8") as fh:
        fh.write("{}")
    assert queue.study_state(fp)["state"] == "done"
    assert lease_path(str(tmp_path), fp)  # paths stay stable for ops
