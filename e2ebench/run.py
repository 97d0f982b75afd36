#!/usr/bin/env python3
"""End-to-end study benchmark: spec in, archived ``StudyResult`` out.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serial --seed 1 --seconds 20 --trace 0

Each workload is one execution path for the same kind of study stream:

========  ===============================================================
serial    ``run_study`` on an in-process serial engine
process   ``run_study`` on the process-pool engine (two workers)
cluster   ``run_study`` on the cluster engine, two localhost shards per
          context
service   a ``repro serve`` subprocess (serial engine) over HTTP: ``POST
          /studies``, follow ``/studies/{fp}/stream`` to ``done``, ``GET
          /studies/{fp}/result``
========  ===============================================================

A run is a closed loop with one client: it alternates two study shapes,
each drawn from ``--seed`` and distinct from every other study of the
run, so no engine-cache or archive hit is possible:

* ``synthetic`` — a 48-round cross-family grid (8 defences x 3 attacks
  x 2 poison fractions) on a 600-sample Gaussian-blobs context;
* ``paper`` — the paper's empirical game (5 radius-filter percentiles
  against 5 boundary-attack percentiles: 25 rounds, then the LP solve)
  on the full-size Spambase context.

``--trace 0`` reports the end-to-end metrics with telemetry off:

* ``synthetic_study_s``, ``paper_study_s`` — mean spec-to-archive wall
  time of the run's studies of each shape (about ten each in 20 s).
  Means, not medians: service latencies sit on the stream's poll
  lattice, where a median of ten moves in whole lattice steps;
* ``setup_s`` — median time to bring the path up: every context the run
  names loaded, plus the shard or service processes started and ready.
  It is repeated at least three times (more while it is cheap); one
  untimed warm-up study of each shape follows.

``--trace 1`` instead reports the per-layer split.
It arms the program's metrics-only telemetry and reports, per study (the
mean over the run's studies):

* ``overhead_s`` — spec-to-archive time outside the ``study`` span:
  context build, result assembly and archive write; on the service path
  also HTTP, queueing and the scheduler/stream poll waits;
* ``study_self_s`` — the ``study`` span minus its engine ``batch`` spans
  (study dispatch, round recording, checkpoints, the game solve);
* ``batch_s`` — engine ``batch`` wall time (keying, dispatch, pool or
  shard transport and the round compute);
* ``attack_s``, ``defense_s``, ``fit_s``, ``payoff_s`` — round-stage busy
  time summed over every process that ran rounds;
* ``rounds_done`` — rounds archived during the measured loop.

Every study is checked (fingerprint, round counts, no cache hit, sane
accuracies), and the first study of each shape is recomputed on a
fresh serial engine after the loop: its scenarios and payload must be
bit-identical to what the path archived.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes goes to a scratch directory under ``.e2ebench-work/`` in the
repository, removed on exit; child processes are stopped before exit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import secrets
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serial", "process", "cluster", "service")
# Set-up is repeated at least SETUP_MIN times, and while it has taken
# under SETUP_BUDGET seconds in all (cheap set-ups are noisy), at most
# SETUP_MAX times; the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 3, 15, 1.0
READY_TIMEOUT = 60.0
STUDY_TIMEOUT = 60.0
# The service runs with this scheduler/stream poll interval (default 0.2 s).
# At 0.2 s every latency sits on a 0.2 s lattice, and a run's ~10-study
# mean jumps by whole lattice steps between runs.
POLL_SECONDS = 0.05

SYNTHETIC_DEFENSES = ("radius", "percentile_filter", "slab_filter",
                      "loss_filter", "pca_detector", "certified")
SYNTHETIC_ROUNDS = 8 * 3 * 2
PAPER_SUPPORT = ((0.01, 0.02), (0.04, 0.05), (0.08, 0.09), (0.12, 0.13),
                 (0.18, 0.19))
PAPER_ROUNDS = len(PAPER_SUPPORT) ** 2
STAGES = ("attack", "defense", "fit", "payoff")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment(workdir: str, trace: bool) -> None:
    """Pin the program's environment before ``repro`` is imported.

    Every ``REPRO_*`` knob is cleared so the run measures the defaults;
    temp files (the cluster's pickled contexts) land in the scratch
    directory; telemetry is armed metrics-only for traced runs, which
    spawned shards and the service inherit.
    """
    for key in list(os.environ):
        if key.startswith("REPRO_") or key == "SPAMBASE_PATH":
            del os.environ[key]
    if trace:
        os.environ["REPRO_TELEMETRY"] = "1"
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    sys.path.insert(0, SRC)
    # Spambase is read from ./data when present; the scratch directory
    # has none, so every process uses the seeded surrogate.
    os.chdir(workdir)


# -- inputs -------------------------------------------------------------------


class StudyStream:
    """The seeded study sequence: alternating synthetic and paper studies.

    The contexts are fixed, so every seed runs on the same data; the
    seed draws each study's strengths and fractions from narrow ranges,
    so studies differ in every round key but hardly in cost.  Every
    draw is unique within the run: each study's rounds are new to every
    cache tier and its fingerprint is new to the archive.
    """

    def __init__(self, seed: int):
        from repro.study import ContextSpec

        self._rng = random.Random(seed)
        self._used: set[float] = set()
        self.synthetic_context = ContextSpec(name="synthetic", seed=0,
                                             n_samples=600)
        self.paper_context = ContextSpec(name="spambase", seed=0)

    def _draw(self, lo: float, hi: float) -> float:
        while True:
            value = round(self._rng.uniform(lo, hi), 6)
            if value not in self._used:
                self._used.add(value)
                return value

    def synthetic(self):
        from repro.study import studies

        p = self._draw(0.09, 0.11)
        q = self._draw(0.045, 0.055)
        defenses = (["none"] + [f"{kind}:{p}" for kind in SYNTHETIC_DEFENSES]
                    + ["knn_sanitizer"])
        attacks = [f"boundary:{q}", "label-flip", f"random-noise:{q}"]
        fractions = (self._draw(0.095, 0.105), self._draw(0.195, 0.205))
        return studies.grid(context=self.synthetic_context,
                            defenses=defenses, attacks=attacks,
                            fractions=fractions, n_repeats=1)

    def paper(self):
        from repro.study import studies

        support = tuple(self._draw(lo, hi) for lo, hi in PAPER_SUPPORT)
        return studies.empirical_game(
            context=self.paper_context, percentiles=support,
            poison_fraction=self._draw(0.195, 0.205), n_repeats=1)

    def next_pair(self):
        return [("synthetic", self.synthetic(), SYNTHETIC_ROUNDS),
                ("paper", self.paper(), PAPER_ROUNDS)]


# -- execution paths ----------------------------------------------------------


class InProcessPath:
    """serial / process / cluster: ``run_study`` on one long-lived engine."""

    def __init__(self, workload: str, stream: StudyStream, workdir: str):
        self.workload = workload
        self.stream = stream
        self.archive_dir = os.path.join(workdir, "archive")
        self.engine = None

    def start(self) -> None:
        from repro.engine import EvaluationEngine

        contexts = [self.stream.synthetic_context.materialize(),
                    self.stream.paper_context.materialize()]
        for ctx in contexts:
            ctx.fingerprint()
        if self.workload == "cluster":
            from repro.cluster.backend import ClusterBackend, shared_local_pool

            for ctx in contexts:
                shared_local_pool(ctx, 2)
            self.engine = EvaluationEngine(ClusterBackend(2))
        else:
            self.engine = EvaluationEngine(
                self.workload, jobs=2 if self.workload == "process" else None)

    def stop(self) -> None:
        if self.workload == "cluster":
            from repro.cluster.backend import close_local_pools

            close_local_pools()
        self.engine = None

    def run(self, spec) -> tuple[float, dict]:
        from repro.study import run_study
        from repro.study.runner import archive_path

        start = time.perf_counter()
        run_study(spec, engine=self.engine, archive_dir=self.archive_dir)
        elapsed = time.perf_counter() - start
        with open(archive_path(self.archive_dir, spec.fingerprint()),
                  encoding="utf-8") as fh:
            return elapsed, json.load(fh)


class ServicePath:
    """``repro serve`` in a subprocess, driven over HTTP like a user."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.token = secrets.token_hex(16)
        self._think = random.Random(seed)
        self.proc: subprocess.Popen | None = None
        self.log = None
        self.address: tuple[str, int] | None = None
        self._starts = 0

    def start(self) -> None:
        self._starts += 1
        archive = os.path.join(self.workdir, f"service-{self._starts}")
        self.log = open(os.path.join(self.workdir,
                                     f"service-{self._starts}.log"), "w")
        env = dict(os.environ, REPRO_SERVICE_TOKEN=self.token,
                   PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--archive-dir", archive,
             "--port", "0", "--backend", "serial", "--no-progress",
             "--poll-interval", str(POLL_SECONDS)],
            stdout=subprocess.PIPE, stderr=self.log, env=env, text=True)
        self.address = self._await_ready()
        status, body = self._request("GET", "/health")
        if status != 200 or json.loads(body)["status"] != "ok":
            raise RuntimeError(f"service unhealthy: {status} {body[:200]!r}")

    def _await_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("READY "):
                    fields = dict(part.split("=", 1)
                                  for part in line.split()[1:])
                    return fields["host"], int(fields["port"])
                if line:
                    continue
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.returncode} before READY")
        raise RuntimeError("repro serve never announced READY")

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self.proc = None
        if self.log is not None:
            self.log.close()
            self.log = None

    def _connection(self):
        host, port = self.address
        return http.client.HTTPConnection(host, port, timeout=STUDY_TIMEOUT)

    def _request(self, method: str, path: str, body: bytes | None = None):
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers={
                "Authorization": f"Bearer {self.token}",
                "Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _follow(self, fingerprint: str) -> str:
        """Read the progress stream until the study is terminal."""
        conn = self._connection()
        try:
            conn.request("GET", f"/studies/{fingerprint}/stream", headers={
                "Authorization": f"Bearer {self.token}"})
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"stream refused: {resp.status} "
                                   f"{resp.read()[:200]!r}")
            state = "unknown"
            for line in resp:
                if line.strip():
                    state = json.loads(line)["state"]
            return state
        finally:
            conn.close()

    def run(self, spec) -> tuple[float, dict]:
        body = json.dumps(spec.to_obj()).encode("utf-8")
        # Untimed think time: without it the closed loop phase-locks to
        # the scheduler's idle poll, and every study of a run lands on
        # the same multiple of the poll interval.
        time.sleep(self._think.uniform(0.0, POLL_SECONDS))
        start = time.perf_counter()
        status, reply = self._request("POST", "/studies", body)
        if status != 202:
            raise RuntimeError(f"submit not accepted as new: {status} "
                               f"{reply[:200]!r}")
        fingerprint = json.loads(reply)["fingerprint"]
        state = self._follow(fingerprint)
        if state != "done":
            raise RuntimeError(f"study {fingerprint} ended {state}")
        status, reply = self._request("GET", f"/studies/{fingerprint}/result")
        elapsed = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"result fetch failed: {status} "
                               f"{reply[:200]!r}")
        return elapsed, json.loads(reply)


# -- checks and metrics -------------------------------------------------------


def check_study(spec, rounds: int, doc: dict) -> None:
    """Raise ``AssertionError`` unless ``doc`` is this study, fully fresh."""
    data = doc["data"]
    if data["study_fingerprint"] != spec.fingerprint():
        raise AssertionError("archived fingerprint differs from the spec's")
    if not (data["n_rounds"] == data["n_unique"] == data["rounds_computed"]
            == len(data["scenarios"]) == rounds):
        raise AssertionError(
            f"expected {rounds} fresh rounds, got n_rounds="
            f"{data['n_rounds']} n_unique={data['n_unique']} computed="
            f"{data['rounds_computed']} scenarios={len(data['scenarios'])}")
    if data["cache_hits"] != 0:
        raise AssertionError(f"{data['cache_hits']} unexpected cache hits")
    for row in data["scenarios"]:
        accuracy = row["outcome"]["accuracy"]
        if not 0.0 <= accuracy <= 1.0:
            raise AssertionError(f"accuracy {accuracy!r} out of range")


def matches_serial_reference(spec, doc: dict) -> bool:
    """Recompute ``spec`` on a fresh serial engine; compare bit for bit."""
    from repro.engine import EvaluationEngine
    from repro.study import run_study

    reference = json.loads(run_study(
        spec, engine=EvaluationEngine("serial", cache=False)).to_json())
    return all(doc["data"][key] == reference["data"][key]
               for key in ("study_fingerprint", "scenarios", "payload"))


def layer_split(elapsed: float, doc: dict) -> dict:
    """One study's per-layer seconds from its telemetry summary."""
    stages = doc["data"]["extras"]["telemetry"]["stages"]

    def seconds(name):
        return stages.get(name, {}).get("seconds", 0.0)

    split = {"overhead_s": elapsed - seconds("study"),
             "study_self_s": seconds("study") - seconds("batch"),
             "batch_s": seconds("batch")}
    for stage in STAGES:
        split[f"{stage}_s"] = seconds(stage)
    return split


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine() -> dict:
    """The host facts a timing depends on (BLAS threads, start method)."""
    import multiprocessing
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {key: os.environ.get(key) for key in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")},
            "start_method": multiprocessing.get_start_method()}


# -- the run ------------------------------------------------------------------


def measure(args, workdir: str) -> dict:
    from repro import telemetry

    print(f"# machine: {json.dumps(machine(), sort_keys=True)}",
          file=sys.stderr)
    stream = StudyStream(args.seed)
    path = ServicePath(workdir, args.seed) if args.workload == "service" else \
        InProcessPath(args.workload, stream, workdir)

    setup_times = []
    try:
        while True:
            start = time.perf_counter()
            path.start()
            setup_times.append(time.perf_counter() - start)
            if len(setup_times) >= SETUP_MAX or (
                    len(setup_times) >= SETUP_MIN
                    and sum(setup_times) >= SETUP_BUDGET):
                break
            path.stop()

        for _, spec, rounds in stream.next_pair():  # warm-up, untimed
            check_study(spec, rounds, path.run(spec)[1])

        latencies = {"synthetic": [], "paper": []}
        splits = []
        first = {}
        attempted = failed = rounds_done = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            for shape, spec, rounds in stream.next_pair():
                attempted += 1
                if args.trace and args.workload != "service":
                    # A fresh registry per study: process-pool workers
                    # fork from this one, and must not inherit (and ship
                    # back) an earlier study's counts.
                    telemetry.configure(metrics_only=True)
                try:
                    elapsed, doc = path.run(spec)
                    check_study(spec, rounds, doc)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                latencies[shape].append(elapsed)
                rounds_done += rounds
                first.setdefault(shape, (spec, doc))
                if args.trace:
                    splits.append(layer_split(elapsed, doc))
    finally:
        path.stop()

    reference_ok = len(first) == 2 and all(
        matches_serial_reference(spec, doc) for spec, doc in first.values())
    if not reference_ok:
        print("serial reference mismatch (or a shape never completed)",
              file=sys.stderr)

    for shape, values in latencies.items():
        if values:
            print(f"# {args.workload} {shape}: n={len(values)} "
                  f"median={statistics.median(values):.4f}s "
                  f"min={min(values):.4f}s max={max(values):.4f}s "
                  f"all={' '.join(f'{v:.3f}' for v in values)}",
                  file=sys.stderr)
    print(f"# setup: {' '.join(f'{t:.4f}' for t in setup_times)}",
          file=sys.stderr)

    if args.trace:
        metrics = {name: metric(statistics.fmean(s[name] for s in splits),
                                "s")
                   for name in splits[0]} if splits else {}
        metrics["rounds_done"] = metric(rounds_done, "count")
    else:
        metrics = {
            "synthetic_study_s": metric(
                statistics.fmean(latencies["synthetic"]), "s"),
            "paper_study_s": metric(
                statistics.fmean(latencies["paper"]), "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
    return {"correct": reference_ok and failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def child_pids() -> list[int]:
    """The pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers, shards and the service are joined by their own stop
    paths.  The multiprocessing resource tracker, started by the first
    shared-memory block, is only told to exit when this process exits,
    and nothing would wait for it then: stop it here.  Any other child
    still present is terminated (killed after a grace period) and reaped.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    pending = child_pids()
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.remove(pid)
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        if pending:
            time.sleep(0.05)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".e2ebench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        prepare_environment(workdir, bool(args.trace))
        result = measure(args, workdir)
    finally:
        reap_children()
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
