"""Study checkpointing: crash-surviving progress, resume, atomicity.

The acceptance test at the bottom is the one from the issue: SIGKILL a
``run_study`` mid-sweep (no cleanup handlers run — exactly what a
crashed box looks like), then ``resume=True`` and prove via the
engine's batch telemetry that every checkpointed round came back as a
cache hit and zero of them were recomputed.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import textwrap
import warnings

import pytest

from repro.engine import EvaluationEngine, cache_schema_version
from repro.study import (StudyCheckpointer, archive_path, checkpoint_path,
                         load_checkpoint, run_study, studies,
                         study_result_from_json)
from repro.study import checkpoint as checkpoint_module

PERCENTILES = (0.0, 0.1, 0.2, 0.3)


def figure1_spec(ctx_spec, **kwargs):
    kwargs.setdefault("percentiles", PERCENTILES)
    kwargs.setdefault("poison_fraction", 0.25)
    return studies.figure1(context=ctx_spec, **kwargs)


def _row(i):
    return {"key": f"{i:064d}", "context": "c", "scenario": {},
            "outcome": {"accuracy": 0.5}}


def _header(path):
    with open(path) as fh:
        return json.loads(fh.readline())


class TestCheckpointer:
    def test_flush_cadence_and_dedupe(self, tmp_path):
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=2)
        cp.note(_row(0))
        assert not os.path.exists(cp.path)  # below cadence
        cp.note(_row(0))  # duplicate key: ignored, still unflushed
        assert not os.path.exists(cp.path)
        cp.note(_row(1))
        assert os.path.exists(cp.path)  # cadence reached
        header = _header(cp.path)
        assert header["type"] == "StudyCheckpoint"
        assert header["cache_schema_version"] == cache_schema_version()
        assert [r["key"] for r in load_checkpoint(str(tmp_path),
                                                  "f" * 64)] == \
            [_row(0)["key"], _row(1)["key"]]
        cp.close()

    def test_first_flush_rewrites_then_appends(self, tmp_path,
                                               monkeypatch):
        """48 rows at every=1: one atomic write (header + first row),
        then 47 appends, each fsync'd before note() returns."""
        calls = []
        real_atomic = checkpoint_module.atomic_write_text
        real_fsync = os.fsync

        def atomic(path, text):
            calls.append("atomic")
            real_atomic(path, text)

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        monkeypatch.setattr(checkpoint_module, "atomic_write_text", atomic)
        monkeypatch.setattr(os, "fsync", fsync)
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=1)
        for i in range(48):
            cp.note(_row(i))
            assert cp.unflushed == 0
        cp.close()
        # atomic_write_text fsyncs its temp file once; the rest are the
        # appends' own.
        assert calls.count("atomic") == 1
        assert calls.count("fsync") == 1 + 47
        assert calls[:2] == ["atomic", "fsync"]
        with open(cp.path) as fh:
            assert len(fh.readlines()) == 1 + 48
        rows = load_checkpoint(str(tmp_path), "f" * 64)
        assert [r["key"] for r in rows] == [_row(i)["key"]
                                            for i in range(48)]

    def test_seed_does_not_flush_but_protects_progress(self, tmp_path):
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=1)
        cp.seed([_row(0), _row(1)])
        assert not os.path.exists(cp.path)
        cp.note(_row(0))  # resumed round seen again: no-op
        assert not os.path.exists(cp.path)
        cp.note(_row(2))  # first *new* round flushes everything
        cp.close()
        rows = load_checkpoint(str(tmp_path), "f" * 64)
        assert len(rows) == 3

    def test_discard(self, tmp_path):
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=1)
        cp.note(_row(0))
        assert os.path.exists(cp.path)
        cp.discard()
        assert not os.path.exists(cp.path)
        cp.discard()  # idempotent

    def test_close_flushes_pending_rows_and_keeps_the_file(self, tmp_path):
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=16)
        cp.note(_row(0))
        cp.note(_row(1))
        assert not os.path.exists(cp.path)  # below cadence
        cp.close()
        assert cp.unflushed == 0
        assert len(load_checkpoint(str(tmp_path), "f" * 64)) == 2
        cp.close()  # idempotent


class TestLoadTolerance:
    def test_absent_checkpoint_is_silently_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path), "f" * 64) == []

    def test_corrupt_json_warns_and_recomputes(self, tmp_path):
        path = checkpoint_path(str(tmp_path), "f" * 64)
        with open(path, "w") as fh:
            fh.write("{half a doc")
        with pytest.warns(UserWarning, match="unreadable"):
            assert load_checkpoint(str(tmp_path), "f" * 64) == []

    def test_foreign_checkpoint_warns(self, tmp_path):
        cp = StudyCheckpointer(str(tmp_path), "a" * 64, every=1)
        cp.note(_row(0))
        cp.close()
        os.rename(cp.path, checkpoint_path(str(tmp_path), "b" * 64))
        with pytest.warns(UserWarning, match="does not belong"):
            assert load_checkpoint(str(tmp_path), "b" * 64) == []

    def test_schema_mismatch_warns(self, tmp_path):
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=1)
        cp.note(_row(0))
        cp.close()
        with open(cp.path) as fh:
            header, *rows = fh.readlines()
        header = json.loads(header)
        header["cache_schema_version"] = -1
        with open(cp.path, "w") as fh:
            fh.write(json.dumps(header) + "\n" + "".join(rows))
        with pytest.warns(UserWarning, match="cache schema"):
            assert load_checkpoint(str(tmp_path), "f" * 64) == []

    def test_torn_tail_loses_only_the_torn_row(self, tmp_path):
        """A kill mid-append leaves a partial last line: the rows before
        it load without a warning, and the next checkpointer's first
        flush rewrites the file without the torn bytes."""
        cp = StudyCheckpointer(str(tmp_path), "f" * 64, every=1)
        for i in range(3):
            cp.note(_row(i))
        cp.close()
        with open(cp.path) as fh:
            text = fh.read()
        third = text.rindex("\n", 0, len(text) - 1) + 1
        with open(cp.path, "w") as fh:
            fh.write(text[:third + (len(text) - third) // 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = load_checkpoint(str(tmp_path), "f" * 64)
        assert [r["key"] for r in rows] == [_row(0)["key"], _row(1)["key"]]

        resumed = StudyCheckpointer(str(tmp_path), "f" * 64, every=1)
        resumed.seed(rows)
        resumed.note(_row(3))
        resumed.close()
        assert [r["key"] for r in load_checkpoint(str(tmp_path),
                                                  "f" * 64)] == \
            [_row(i)["key"] for i in (0, 1, 3)]


class TestAtomicArchive:
    def test_to_json_leaves_no_temp_files(self, ctx_spec, tmp_path):
        spec = figure1_spec(ctx_spec, percentiles=(0.0, 0.1))
        result = run_study(spec, engine=EvaluationEngine("serial"))
        target = str(tmp_path / "archive.json")
        result.to_json(target)
        assert study_result_from_json(target).study_fingerprint == \
            result.study_fingerprint
        assert os.listdir(tmp_path) == ["archive.json"]


class TestResume:
    def test_resume_requires_archive_dir(self, ctx_spec):
        with pytest.raises(ValueError, match="archive_dir"):
            run_study(figure1_spec(ctx_spec), resume=True)

    def test_interrupted_study_resumes_with_zero_recompute(self, ctx_spec,
                                                           tmp_path):
        """Abort after 3 rounds; the resumed run recomputes only the
        rest, and its archive is bit-identical to an uninterrupted one.
        """
        spec = figure1_spec(ctx_spec)
        reference = run_study(spec, engine=EvaluationEngine("serial"))
        archive_dir = str(tmp_path)

        class Abort(RuntimeError):
            pass

        def abort_after(done, total):
            if done >= 3:
                raise Abort

        with pytest.raises(Abort):
            run_study(spec, engine=EvaluationEngine("serial"),
                      archive_dir=archive_dir, checkpoint_every=1,
                      progress=abort_after)
        rows = load_checkpoint(archive_dir, spec.fingerprint())
        assert len(rows) >= 3

        engine = EvaluationEngine("serial")  # fresh, empty cache
        result = run_study(spec, engine=engine, archive_dir=archive_dir,
                           resume=True)
        assert result.rounds_computed == reference.n_unique - len(rows)
        assert result.extras["resumed_scenarios"] == len(rows)
        assert result.scenarios == reference.scenarios
        # the archive subsumes the checkpoint
        assert not os.path.exists(
            checkpoint_path(archive_dir, spec.fingerprint()))
        assert os.path.exists(archive_path(archive_dir, spec.fingerprint()))

    def test_resume_without_cache_warns_and_recomputes(self, ctx_spec,
                                                       tmp_path):
        spec = figure1_spec(ctx_spec, percentiles=(0.0, 0.1))
        archive_dir = str(tmp_path)
        cp = StudyCheckpointer(archive_dir, spec.fingerprint(), every=1)
        ref = run_study(spec, engine=EvaluationEngine("serial"))
        for row in ref.scenarios[:2]:
            cp.note(dict(row))
        cp.close()
        engine = EvaluationEngine("serial", cache=False)
        with pytest.warns(UserWarning, match="no cache"):
            result = run_study(spec, engine=engine, archive_dir=archive_dir,
                               resume=True)
        assert result.scenarios == ref.scenarios

    def test_previous_schema_warns_and_recomputes_bit_identically(
            self, ctx_spec, tmp_path):
        """A schema-1 checkpoint (one JSON document, the format before
        the journal) is named in a warning and recomputed, not trusted."""
        spec = figure1_spec(ctx_spec, percentiles=(0.0, 0.1))
        reference = run_study(spec, engine=EvaluationEngine("serial"))
        archive_dir = str(tmp_path)
        fingerprint = spec.fingerprint()
        with open(checkpoint_path(archive_dir, fingerprint), "w") as fh:
            json.dump({"type": "StudyCheckpoint", "schema": 1,
                       "study_fingerprint": fingerprint,
                       "cache_schema_version": cache_schema_version(),
                       "scenarios": reference.scenarios[:2]}, fh)
        engine = EvaluationEngine("serial")
        with pytest.warns(UserWarning, match="checkpoint schema v1"):
            result = run_study(spec, engine=engine, archive_dir=archive_dir,
                               resume=True, checkpoint_every=1)
        assert result.rounds_computed == reference.n_unique
        assert "resumed_scenarios" not in result.extras
        with open(archive_path(archive_dir, fingerprint)) as fh:
            archived = json.load(fh)
        direct = json.loads(reference.to_json())
        for key in ("scenarios", "payload"):
            assert json.dumps(archived["data"][key], sort_keys=True) == \
                json.dumps(direct["data"][key], sort_keys=True), key
        assert not os.path.exists(checkpoint_path(archive_dir, fingerprint))

    def test_checkpoint_gone_after_clean_run(self, ctx_spec, tmp_path):
        spec = figure1_spec(ctx_spec, percentiles=(0.0, 0.1))
        run_study(spec, engine=EvaluationEngine("serial"),
                  archive_dir=str(tmp_path), checkpoint_every=1)
        assert glob.glob(str(tmp_path / "checkpoint-*")) == []
        assert os.path.exists(archive_path(str(tmp_path),
                                           spec.fingerprint()))


CHILD = textwrap.dedent("""\
    import os, signal, sys
    from repro.engine import EvaluationEngine
    from repro.study import ContextSpec, run_study, studies

    archive_dir = sys.argv[1]
    spec = studies.figure1(
        context=ContextSpec(name="synthetic", seed=0, n_samples=260,
                            params={"n_features": 4}),
        percentiles=(0.0, 0.1, 0.2, 0.3), poison_fraction=0.25)

    def kill_after(done, total):
        if done >= 3:
            os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no flush

    run_study(spec, engine=EvaluationEngine("serial"),
              archive_dir=archive_dir, checkpoint_every=1,
              progress=kill_after)
""")


class TestSigkillAcceptance:
    def test_sigkilled_study_resumes_bit_identical(self, ctx_spec,
                                                   tmp_path):
        spec = figure1_spec(ctx_spec)
        archive_dir = str(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.dirname(os.path.dirname(
                os.path.abspath(__import__("repro").__file__))),
                env.get("PYTHONPATH", "")] if p)
        proc = subprocess.run([sys.executable, "-c", CHILD, archive_dir],
                              env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL

        rows = load_checkpoint(archive_dir, spec.fingerprint())
        assert len(rows) >= 3  # progress survived the kill

        reference = run_study(spec, engine=EvaluationEngine("serial"))
        engine = EvaluationEngine("serial")
        result = run_study(spec, engine=engine, archive_dir=archive_dir,
                           resume=True)
        # every checkpointed round was a cache hit
        assert result.rounds_computed == reference.n_unique - len(rows)
        assert result.cache_hits == len(rows)
        assert result.scenarios == reference.scenarios
        assert result.payload == reference.payload
