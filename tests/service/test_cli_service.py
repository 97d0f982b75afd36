"""The operator CLI surface: repro-queue, archive ls, serve lifecycle."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.cli import main
from repro.service import StudyQueue
from repro.study import run_study


# -- repro archive ls --------------------------------------------------------


def test_archive_ls_lists_studies(tmp_path, tiny_spec, capsys):
    run_study(tiny_spec, archive_dir=str(tmp_path))
    assert main(["archive", "ls", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert tiny_spec.fingerprint()[:16] in out
    assert "figure1" in out
    assert "1 archived study" in out


def test_archive_ls_empty_and_missing_dir(tmp_path, capsys):
    assert main(["archive", "ls", str(tmp_path)]) == 0
    assert "no archived studies" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="no such archive directory"):
        main(["archive", "ls", str(tmp_path / "nope")])


def test_archive_ls_skips_foreign_files(tmp_path, tiny_spec, capsys):
    run_study(tiny_spec, archive_dir=str(tmp_path))
    (tmp_path / "study-deadbeef.json").write_text("not json")
    with pytest.warns(UserWarning, match="skipping"):
        assert main(["archive", "ls", str(tmp_path)]) == 0
    assert "1 archived study" in capsys.readouterr().out


# -- repro-queue -------------------------------------------------------------


def test_queue_list_show_cancel_nudge(tmp_path, tiny_spec, capsys):
    queue = StudyQueue(str(tmp_path))
    queue.submit(tiny_spec)
    fp = tiny_spec.fingerprint()
    dash = ["--archive-dir", str(tmp_path)]

    assert main(["repro-queue", "list"] + dash) == 0
    out = capsys.readouterr().out
    assert fp[:16] in out and "queued" in out and "queued=1" in out

    # show accepts any unambiguous prefix and dumps the full state.
    assert main(["repro-queue", "show", fp[:10]] + dash) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"]["state"] == "queued"
    assert doc["entry"]["fingerprint"] == fp

    assert main(["repro-queue", "cancel", fp[:10]] + dash) == 0
    assert "cancelled" in capsys.readouterr().out
    assert queue.get(fp).state == "cancelled"

    assert main(["repro-queue", "nudge", fp[:10], "--priority", "5"]
                + dash) == 0
    assert "requeued" in capsys.readouterr().out
    entry = queue.get(fp)
    assert entry.state == "queued" and entry.priority == 5


def test_queue_errors_are_named(tmp_path, tiny_spec):
    dash = ["--archive-dir", str(tmp_path)]
    with pytest.raises(SystemExit, match="needs a study fingerprint"):
        main(["repro-queue", "show"] + dash)
    with pytest.raises(SystemExit, match="no queue entry matches"):
        main(["repro-queue", "show", "feedface"] + dash)
    queue = StudyQueue(str(tmp_path))
    queue.submit(tiny_spec)
    fp = tiny_spec.fingerprint()
    queue.acquire_lease(fp, owner="w1")
    with pytest.raises(SystemExit, match="leased"):
        main(["repro-queue", "cancel", fp[:10]] + dash)
    with pytest.raises(SystemExit, match="not waiting"):
        queue.release_lease(fp)
        entry = queue.get(fp)
        entry.state = "failed"
        queue.update(entry)
        main(["repro-queue", "cancel", fp[:10]] + dash)


def test_queue_list_empty(tmp_path, capsys):
    assert main(["repro-queue", "list", "--archive-dir",
                 str(tmp_path)]) == 0
    assert "queue is empty" in capsys.readouterr().out


# -- repro serve -------------------------------------------------------------


def test_serve_rejects_bad_config(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_PORT", "not-a-port")
    with pytest.raises(SystemExit, match="REPRO_SERVICE_PORT"):
        main(["serve", "--archive-dir", str(tmp_path)])
    monkeypatch.delenv("REPRO_SERVICE_PORT")
    with pytest.raises(SystemExit, match="--workers"):
        main(["serve", "--archive-dir", str(tmp_path), "--workers", "-1"])


@pytest.mark.slow
def test_serve_sigterm_graceful_exit_zero(tmp_path):
    """`repro serve` under SIGTERM: announces READY, drains, exits 0."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    env.pop("REPRO_SERVICE_TOKEN", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--archive-dir", str(tmp_path / "archive"), "--port", "0",
         "--no-progress"],
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        ready = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()
            if line.startswith("READY"):
                ready = line
                break
        assert ready is not None, "service never announced READY"
        assert "auth=off" in ready
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
