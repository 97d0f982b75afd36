"""Discarding a study's checkpoint: by rename, freed in the background.

``StudyCheckpointer.discard`` renames the checkpoint into ``.reclaim/``
beside it and queues it for the reclaimer thread
(:func:`repro.utils.serialization.discard_file`).  The reclaimer tests
swap in an unlink that blocks on an event, so what they assert about a
free still in flight holds without any wall-clock race.  The study
tests check what a run leaves on disk: nothing below the cadence, and
an empty ``.reclaim/`` after a normal exit.
"""

import errno
import gc
import os
import subprocess
import sys
import textwrap
import threading
import warnings

import pytest

from repro.engine import EvaluationEngine
from repro.study import (StudyCheckpointer, StudyResult, archive_path,
                         checkpoint_path, load_checkpoint, run_study,
                         studies)
from repro.utils import serialization
from repro.utils.serialization import (RECLAIM_BOUND, RECLAIM_DIR,
                                       discard_file, drain_discards)

WAIT = 30.0  # seconds; only ever reached when the code under test hangs


def _row(i):
    return {"key": f"{i:064d}", "context": "c", "scenario": {},
            "outcome": {"accuracy": 0.5}}


def _flushed_checkpointer(directory, fingerprint="f" * 64):
    cp = StudyCheckpointer(str(directory), fingerprint, every=1)
    cp.note(_row(0))
    assert os.path.exists(cp.path)
    return cp


def _reclaim_names(directory):
    return os.listdir(os.path.join(str(directory), RECLAIM_DIR))


@pytest.fixture()
def reclaimer(monkeypatch):
    """A fresh process reclaimer, drained at teardown."""
    fresh = serialization._Reclaimer()
    monkeypatch.setattr(serialization, "_reclaimer", fresh)
    yield fresh
    fresh.drain()


@pytest.fixture()
def blocked(monkeypatch):
    """A fresh reclaimer whose unlinks wait for ``release``.

    Yields ``(started, release)``: ``started`` is set once the thread
    is inside its first unlink.
    """
    started, release = threading.Event(), threading.Event()

    def unlink(path):
        started.set()
        assert release.wait(timeout=WAIT)
        os.unlink(path)

    fresh = serialization._Reclaimer(unlink=unlink)
    monkeypatch.setattr(serialization, "_reclaimer", fresh)
    yield started, release
    release.set()
    fresh.drain()


class TestReclaimer:
    def test_discard_returns_while_the_unlink_is_blocked(self, tmp_path,
                                                         blocked):
        started, release = blocked
        cp = _flushed_checkpointer(tmp_path)
        cp.discard()
        assert started.wait(timeout=WAIT)  # the free is in flight...
        assert not os.path.exists(cp.path)  # ...and the name is gone
        assert len(_reclaim_names(tmp_path)) == 1
        release.set()
        drain_discards()
        assert _reclaim_names(tmp_path) == []

    def test_a_full_queue_unlinks_inline(self, tmp_path, blocked):
        started, release = blocked
        paths = []
        for i in range(RECLAIM_BOUND + 1):
            path = tmp_path / f"doomed-{i}"
            path.write_text("x")
            paths.append(str(path))
        for path in paths[:RECLAIM_BOUND]:
            discard_file(path)
        assert started.wait(timeout=WAIT)
        assert len(_reclaim_names(tmp_path)) == RECLAIM_BOUND
        discard_file(paths[-1])  # past the bound: gone on return
        assert not os.path.exists(paths[-1])
        assert len(_reclaim_names(tmp_path)) == RECLAIM_BOUND
        release.set()
        drain_discards()
        assert _reclaim_names(tmp_path) == []

    def test_first_discard_sweeps_a_killed_process_leftovers(
            self, tmp_path, reclaimer):
        os.makedirs(tmp_path / RECLAIM_DIR)
        (tmp_path / RECLAIM_DIR / "left-by-a-killed-run").write_text("x")
        _flushed_checkpointer(tmp_path).discard()
        drain_discards()
        assert _reclaim_names(tmp_path) == []

    def test_missing_file_is_a_no_op(self, tmp_path, reclaimer):
        discard_file(str(tmp_path / "never-written"))
        assert not os.path.exists(tmp_path / RECLAIM_DIR)

    def test_concurrent_discards_lose_no_file_or_count(self, tmp_path,
                                                       reclaimer):
        """8 threads discard 40 files each while the reclaimer frees
        them, switching every microsecond: every file is gone after the
        drain and the pending count is back to 0."""
        batches = []
        for t in range(8):
            batch = []
            for i in range(40):
                path = tmp_path / f"doomed-{t}-{i}"
                path.write_text("x")
                batch.append(str(path))
            batches.append(batch)

        def discard_all(paths):
            for path in paths:
                discard_file(path)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=discard_all, args=(batch,))
                       for batch in batches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        drain_discards()
        assert not any(os.path.exists(path)
                       for batch in batches for path in batch)
        assert _reclaim_names(tmp_path) == []
        assert reclaimer._pending == 0


PERCENTILES = (0.0, 0.1, 0.2, 0.3)


def figure1_spec(ctx_spec, **kwargs):
    return studies.figure1(context=ctx_spec, percentiles=PERCENTILES,
                           poison_fraction=0.25, **kwargs)


class TestStudyDiscard:
    def test_study_below_cadence_creates_no_reclaim_dir(self, ctx_spec,
                                                        tmp_path):
        spec = figure1_spec(ctx_spec)  # 8 rounds
        run_study(spec, engine=EvaluationEngine("serial"),
                  archive_dir=str(tmp_path), checkpoint_every=16)
        assert os.path.exists(archive_path(str(tmp_path),
                                           spec.fingerprint()))
        assert not os.path.exists(tmp_path / RECLAIM_DIR)

    def test_failed_archive_write_keeps_every_row(self, ctx_spec, tmp_path,
                                                  monkeypatch):
        """40 rounds at a cadence of 16: the 8 rows past the last
        cadence flush survive an archive write that fails, and the
        journal's handle is released."""
        spec = figure1_spec(ctx_spec, n_repeats=5)

        def no_space(self, path=None):
            raise OSError(errno.ENOSPC, "No space left on device", path)

        monkeypatch.setattr(StudyResult, "to_json", no_space)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError, match="No space"):
                run_study(spec, engine=EvaluationEngine("serial"),
                          archive_dir=str(tmp_path), checkpoint_every=16)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        assert len(load_checkpoint(str(tmp_path), spec.fingerprint())) == 40
        assert not os.path.exists(tmp_path / RECLAIM_DIR)


CHILD = textwrap.dedent("""\
    import sys
    from repro.engine import EvaluationEngine
    from repro.study import ContextSpec, run_study, studies

    spec = studies.figure1(
        context=ContextSpec(name="synthetic", seed=0, n_samples=260,
                            params={"n_features": 4}),
        percentiles=(0.0, 0.1, 0.2, 0.3), poison_fraction=0.25)
    run_study(spec, engine=EvaluationEngine("serial"),
              archive_dir=sys.argv[1], checkpoint_every=1)
""")


@pytest.mark.slow
def test_normal_exit_leaves_nothing_to_reclaim(ctx_spec, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.dirname(os.path.dirname(
            os.path.abspath(__import__("repro").__file__))),
            env.get("PYTHONPATH", "")] if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          env=env, timeout=120)
    assert proc.returncode == 0
    fingerprint = figure1_spec(ctx_spec).fingerprint()
    assert os.path.exists(archive_path(str(tmp_path), fingerprint))
    assert not os.path.exists(checkpoint_path(str(tmp_path), fingerprint))
    assert _reclaim_names(tmp_path) == []  # created, then drained at exit
