"""Command-line entry point: run studies, regenerate the paper's artefacts.

Usage::

    python -m repro run <study.json | figure1 | table1 | empirical-game |
                         cross-game | multi-seed | mixed-eval | grid>
                        [--set key=value ...] [--out result.json]
                        [--archive-dir DIR] [--expect-cached]
    python -m repro describe <study.json | name> [--set key=value ...]
    python -m repro report <result.json>

    python -m repro {figure1 | table1 | empirical-game | cross-game}
                    [--set key=value ...] [run options]
    python -m repro paper-table1
    python -m repro proposition1 [--set key=value ...]
    python -m repro repro-cache {info,prune} --cache-dir DIR
    python -m repro repro-cluster serve [--port P] [--jobs N]
    python -m repro serve --archive-dir DIR [--port P] [--workers N]
    python -m repro repro-queue {list,show,cancel,nudge} [FP]
                               --archive-dir DIR
    python -m repro archive ls DIR

(``python -m repro.experiments.cli`` remains an alias of
``python -m repro``.)

The study surface is the primary one: ``run`` accepts either a study
JSON document (see :mod:`repro.study`) or a named builder with ``--set``
overrides — ``repro run figure1 --set fractions=0:0.2:9`` sweeps nine
contamination rates; ``describe`` prints the expanded grid, exact round
counts and predicted cache hits *without running anything*; ``report``
re-renders an archived :class:`~repro.study.StudyResult` exactly as the
live run printed it.  The named experiment commands (``figure1``,
``table1``, ``empirical-game``, ``cross-game``) are aliases:
``repro figure1 --set n_samples=300`` is ``repro run figure1 --set
n_samples=300``, with the same options and the same output.
``proposition1`` runs the figure1 study (``--set`` applies to it) and
tests the measured game for a pure equilibrium; ``paper-table1`` runs
Algorithm 1 on the paper-calibrated curves and takes no options.

``--set`` values parse as Python literals; ``a:b:n`` expands to ``n``
evenly spaced values from ``a`` to ``b``; comma-separated values form
tuples; semicolon-separated values form tuples of spec strings
(``--set "defenses=radius:0.1;slab_filter:0.1"``).

Execution is controlled by the engine flags shared across commands:
``--backend serial|process|cluster`` and ``--jobs N`` choose how
rounds run (``cluster`` shards them across ``--shards host:port,...``
servers, autospawning localhost shards when none are given),
``--cache-dir DIR`` persists results on disk (an equal-seed rerun is
then served from cache), ``--no-cache`` disables caching.  Results are
bit-identical whatever the backend.  Long sweeps stream per-round
progress to stderr through the engine's ``evaluate_stream`` machinery
(on by default on a terminal; ``--progress`` / ``--no-progress``
force it).

Spec strings (``--set defenses=...``, study documents) read
``kind[:percentile][:k=v,...]``, e.g. ``radius:0.1``,
``slab_filter:0.15``, ``knn_sanitizer::k=7``,
``label-flip::strategy=near_boundary``; victims read ``kind[:k=v,...]``
such as ``logistic`` or ``svm:epochs=60``.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

import numpy as np


def _make_engine(args):
    from repro.engine import EvaluationEngine

    if getattr(args, "telemetry_dir", None):
        from repro import telemetry

        # configure() also exports REPRO_TELEMETRY_DIR, so autospawned
        # localhost shards and pool workers inherit the sink.
        telemetry.configure(args.telemetry_dir)
    if getattr(args, "faults", None) is not None:
        from repro.resilience import faults

        try:
            faults.install(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from None
    backend = args.backend or "serial"
    if backend == "cluster" and getattr(args, "shards", None):
        # Build the backend directly so --shards needs no env detour.
        from repro.cluster.backend import ClusterBackend, parse_shard_addresses

        try:
            backend = ClusterBackend(
                jobs=args.jobs, shards=parse_shard_addresses(args.shards))
        except ValueError as exc:
            raise SystemExit(str(exc))
    try:
        return EvaluationEngine(
            backend,
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            cache_max_entries=args.cache_max_entries,
        )
    except ValueError as exc:  # unknown backend, --jobs 0, ...
        raise SystemExit(str(exc))


class _ProgressPrinter:
    """Streaming round counter for long sweeps (one ``\\r`` line).

    The callback face of ``EvaluationEngine.evaluate_batch(...,
    progress=)``: every resolved round (cache hits first, then backend
    completions as they land) redraws ``rounds done/total`` on stderr.
    """

    def __init__(self, label: str):
        self.label = label
        self._dirty = False

    def __call__(self, done: int, total: int) -> None:
        print(f"\r{self.label}: round {done}/{total}", end="",
              file=sys.stderr, flush=True)
        self._dirty = True
        if done >= total:
            self.finish()

    def finish(self) -> None:
        if self._dirty:
            print(file=sys.stderr, flush=True)
            self._dirty = False


def _progress_for(args, label: str):
    """A live progress callback, or ``None`` when not wanted.

    ``--progress`` forces it on, ``--no-progress`` off; the default
    streams only when stderr is a terminal (reports stay clean when
    piped).
    """
    if getattr(args, "no_progress", False):
        return None
    if getattr(args, "progress", False) or sys.stderr.isatty():
        return _ProgressPrinter(label)
    return None


def _print_engine_stats(engine, result) -> None:
    from repro.experiments.reporting import format_engine_stats

    print()
    print(format_engine_stats(engine, result.engine_stats["batches"]))


# -- the study surface -------------------------------------------------------


def _parse_set_value(text: str):
    """One ``--set`` value: literal, range ``a:b:n``, or a tuple.

    ``;`` separates spec strings (which may themselves contain commas
    and colons); otherwise top-level commas — split bracket- and
    quote-aware, with the same splitter the spec grammar itself uses,
    so ``defenses=knn_sanitizer::ks=[1,2]`` stays one spec — form
    tuples, and ``a:b:n`` expands to ``n`` evenly spaced floats.
    """
    from repro.engine.spec import _split_top_level

    t = text.strip()
    if t.lower() in ("none", "null"):
        return None
    if ";" in t:
        return tuple(part.strip() for part in t.split(";") if part.strip())
    parts = [part for part in _split_top_level(t) if part.strip()]
    if len(parts) > 1:
        return tuple(_parse_set_scalar(part) for part in parts)
    return _parse_set_scalar(t)


def _parse_set_scalar(text: str):
    t = text.strip()
    parts = t.split(":")
    if len(parts) == 3:
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            pass
        else:
            if n < 1:
                raise SystemExit(f"bad range {t!r}: count must be >= 1")
            return tuple(float(v) for v in np.linspace(lo, hi, n))
    try:
        return ast.literal_eval(t)
    except (ValueError, SyntaxError):
        return t


_CONTEXT_KEYS = ("context", "seed", "n_samples")


def _study_from_args(args):
    """The study named by ``args.study``: a JSON document or a builder."""
    from repro.study import ContextSpec, build, study_from_json

    target = args.study
    overrides = {}
    for item in args.set or ():
        if "=" not in item:
            raise SystemExit(f"bad --set {item!r}: expected key=value")
        key, value = item.split("=", 1)
        overrides[key.strip().replace("-", "_")] = _parse_set_value(value)

    # A study *document* is a real file or something that can only be a
    # path (.json suffix, path separator) — a stray directory named
    # like a builder (e.g. an output dir called "figure1") must not
    # shadow the named study.
    if os.path.isfile(target) or target.endswith(".json") \
            or os.sep in target:
        if overrides:
            raise SystemExit(
                "--set applies to named studies (e.g. 'repro run figure1 "
                "--set seed=3'); edit the JSON document instead")
        try:
            return study_from_json(target)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load study {target!r}: {exc}")

    context_kwargs = {}
    name = overrides.pop("context", "spambase")
    for key in ("seed", "n_samples"):
        if key in overrides:
            context_kwargs[key] = overrides.pop(key)
    try:
        context = ContextSpec(name=str(name), **context_kwargs)
        return build(target, context=context, **overrides)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"cannot build study {target!r}: {exc}")


def _engine_flags_untouched(args) -> bool:
    """Whether the caller left every engine flag unset.

    ``--backend`` parses with a ``None`` default precisely so an
    explicit ``--backend serial`` is distinguishable here — it must
    override a study document's EngineConfig like any other flag.
    """
    return (args.backend is None and args.jobs is None
            and getattr(args, "shards", None) is None
            and args.cache_dir is None and not args.no_cache
            and args.cache_max_entries is None)


def _study_engine(args, spec):
    """The engine a study command should use.

    Explicit CLI flags win; otherwise a study document's own
    :class:`~repro.study.EngineConfig` is honoured (so ``repro run
    study.json`` really runs with the placement/cache the document
    declares); otherwise the flag defaults build a plain serial engine.
    """
    if spec.engine is not None and _engine_flags_untouched(args):
        return spec.engine.build()
    return _make_engine(args)


def cmd_run(args) -> int:
    from repro import telemetry
    from repro.study import run_study

    spec = _study_from_args(args)
    engine = _study_engine(args, spec)
    batches_before = telemetry.counter("engine.batches_total").value
    try:
        result = run_study(spec, engine=engine,
                           progress=_progress_for(args, f"run:{spec.kind}"),
                           archive_dir=args.archive_dir, force=args.force,
                           resume=args.resume,
                           checkpoint_every=args.checkpoint_every)
    except ValueError as exc:  # unknown context maker, invalid grid, ...
        raise SystemExit(f"cannot run study: {exc}") from None
    fresh = telemetry.counter("engine.batches_total").value > batches_before
    print(result.render())
    if fresh:
        _print_engine_stats(engine, result)
    else:
        print("\n(served from the study archive; no rounds were submitted)")
    if args.out:
        result.to_json(args.out)
        print(f"\nresult written to {args.out}")
    # An archive-served result ran nothing here (its rounds_computed is
    # the original run's history); the gate judges this invocation only.
    if args.expect_cached and fresh and result.rounds_computed > 0:
        raise SystemExit(
            f"--expect-cached: {result.rounds_computed} rounds were "
            f"computed (expected every round to be served from cache)")
    return 0


def cmd_describe(args) -> int:
    from repro.study import describe_study, format_study_description

    spec = _study_from_args(args)
    engine = _study_engine(args, spec)
    try:
        description = describe_study(spec, engine=engine)
    except ValueError as exc:
        raise SystemExit(f"cannot describe study: {exc}") from None
    print(format_study_description(description))
    return 0


def cmd_report(args) -> int:
    from repro.study import study_result_from_json

    try:
        result = study_result_from_json(args.result)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot load study result {args.result!r}: {exc}")
    print(result.render())
    if getattr(args, "telemetry", False):
        from repro.experiments.reporting import format_telemetry_summary

        summary = result.extras.get("telemetry")
        print()
        if summary is None:
            print("(no telemetry in this result — it was archived "
                  "before every study recorded its telemetry)")
        else:
            print(format_telemetry_summary(summary))
    return 0


def cmd_trace(args) -> int:
    from repro.telemetry.viewer import render_trace

    try:
        print(render_trace(args.trace_dir,
                           metrics=not args.no_metrics))
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    return 0


def _probe_shards(addresses: str, secret, render) -> int:
    """Send each shard the pre-handshake ``info`` probe and print
    ``render(name, reply)`` for each ``info-report``.  It needs no
    context, only the addresses (and the fleet's secret, if it has
    one).  Returns the exit code: 1 if any shard was unreachable or
    refused."""
    import socket as socketlib

    from repro.cluster import protocol
    from repro.cluster.backend import parse_shard_addresses
    from repro.engine import cache_schema_version

    secret = secret or os.environ.get("REPRO_CLUSTER_SECRET") or None
    probe = protocol.info(cache_schema_version(), secret=secret)
    failures = 0
    for host, port in parse_shard_addresses(addresses):
        name = f"{host}:{port}"
        try:
            with socketlib.create_connection((host, port),
                                             timeout=10.0) as sock:
                protocol.send_message(sock, probe)
                reply = protocol.recv_message(sock)
        except (OSError, protocol.ProtocolError) as exc:
            print(f"{name}: unreachable ({exc})")
            failures += 1
            continue
        if reply["type"] != "info-report":
            print(f"{name}: refused ({reply.get('reason', reply['type'])})")
            failures += 1
            continue
        print(render(name, reply))
    return 1 if failures else 0


def _render_shard_cache(name: str, reply: dict) -> str:
    """``repro-cache info --shard``: one line of cache-tier stats."""
    stats = reply.get("cache", {})
    if not stats.get("enabled"):
        return (f"{name}: cache tier disabled "
                f"(schema v{stats.get('schema_version')})")
    return (f"{name}: {stats.get('entry_count', 0)} entries, "
            f"{stats.get('total_bytes', 0)} bytes on disk, "
            f"schema v{stats.get('schema_version')}, "
            f"{stats.get('hits', 0)} hits / "
            f"{stats.get('stores', 0)} stores")


def _render_shard_metrics(name: str, reply: dict) -> str:
    """``repro-cluster stats``: a head line plus the non-zero counters."""
    stats = reply.get("metrics", {})
    counters = stats.get("counters", {}) or {}
    lines = [f"{name}: pid {stats.get('pid', '?')}, "
             f"{stats.get('rounds_executed', 0)} rounds executed"]
    lines += [f"  {counter} = {counters[counter]}"
              for counter in sorted(counters) if counters[counter]]
    return "\n".join(lines)


def cmd_repro_cache(args) -> int:
    from repro.engine import prune_cache_dir, write_manifest

    if getattr(args, "shard", None):
        if args.action != "info":
            raise SystemExit("--shard supports the info action only "
                             "(prune a shard's cache on its own host)")
        return _probe_shards(args.shard, args.secret, _render_shard_cache)
    if not args.cache_dir:
        raise SystemExit("one of --cache-dir or --shard is required")
    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"no such cache directory: {args.cache_dir}")
    if args.action == "prune":
        summary = prune_cache_dir(args.cache_dir)
        print(f"pruned {summary['removed']} stale entries; "
              f"{summary['entry_count']} remain "
              f"({summary['total_bytes']} bytes, "
              f"schema v{summary['schema_version']})")
    else:  # info — refresh so external writes/deletes are reflected
        manifest = write_manifest(args.cache_dir)
        print(f"schema version: {manifest['schema_version']}")
        print(f"entries:        {manifest['entry_count']}")
        print(f"total bytes:    {manifest['total_bytes']}")
        for fp in manifest.get("studies", ()):
            print(f"study:          {fp}")
    return 0


def cmd_repro_cluster(args) -> int:
    from repro.cluster.server import serve_from_args

    if args.action == "serve":
        return serve_from_args(args)
    addresses = args.shards or os.environ.get("REPRO_CLUSTER_SHARDS")
    if not addresses:
        raise SystemExit("stats needs --shards host:port[,host:port...] "
                         "(or REPRO_CLUSTER_SHARDS)")
    return _probe_shards(addresses, args.secret, _render_shard_metrics)


def cmd_serve(args) -> int:
    """`repro serve`: the studies-as-a-service daemon (HTTP API +
    scheduler workers over one shared archive directory)."""
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig.from_env(
            args.archive_dir, host=args.host, port=args.port,
            poll_interval=args.poll_interval, lease_ttl=args.lease_ttl,
            retries=args.retries, backoff=args.backoff,
            checkpoint_every=args.checkpoint_every)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.workers < 0:
        raise SystemExit(f"--workers {args.workers}: expected >= 0 "
                         f"(0 = API-only replica, no scheduler)")
    return serve(config, engine=_make_engine(args), workers=args.workers)


def _queue_fingerprint(queue, prefix: str) -> str:
    """Resolve an operator-typed fingerprint prefix to one entry."""
    matches = sorted({e.fingerprint for e in queue.entries()
                      if e.fingerprint.startswith(prefix)})
    if not matches:
        raise SystemExit(f"no queue entry matches {prefix!r}")
    if len(matches) > 1:
        raise SystemExit(f"{prefix!r} is ambiguous: matches "
                         + ", ".join(m[:16] + "…" for m in matches))
    return matches[0]


def cmd_repro_queue(args) -> int:
    """`repro-queue`: the operator surface over a service queue dir."""
    import json as jsonlib

    from repro.service import StudyQueue

    queue = StudyQueue(args.archive_dir)
    if args.action == "list":
        entries = queue.entries()
        if not entries:
            print("queue is empty")
            return 0
        for entry in entries:
            lease = queue.lease_info(entry.fingerprint)
            state = "running" if lease is not None else entry.state
            line = (f"{entry.fingerprint[:16]}…  {state:<9} "
                    f"prio={entry.priority} attempts={entry.attempts} "
                    f"kind={entry.study.get('kind', '?')}")
            if lease is not None:
                line += (f" progress={lease.get('done', 0)}/"
                         f"{lease.get('total', 0)} "
                         f"owner={lease.get('owner')}")
            if entry.last_error:
                line += f" error={entry.last_error!r}"
            print(line)
        counts = queue.counts()
        print("totals: " + ", ".join(f"{k}={v}"
                                     for k, v in sorted(counts.items())))
        return 0
    if not args.fingerprint:
        raise SystemExit(f"repro-queue {args.action} needs a study "
                         f"fingerprint (any unambiguous prefix)")
    fingerprint = _queue_fingerprint(queue, args.fingerprint)
    if args.action == "show":
        status = queue.study_state(fingerprint) or {}
        entry = queue.get(fingerprint)
        doc = {"status": status}
        if entry is not None:
            doc["entry"] = entry.to_obj()
        print(jsonlib.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.action == "cancel":
        try:
            entry = queue.cancel(fingerprint)
        except ValueError as exc:  # leased: stop the runner, not the queue
            raise SystemExit(str(exc)) from None
        if entry is None:
            raise SystemExit(f"study {fingerprint[:16]}… is not waiting "
                             f"in the queue; nothing to cancel")
        print(f"cancelled {fingerprint}")
        return 0
    # nudge: requeue a failed/cancelled/backed-off study for pickup now
    entry = queue.nudge(fingerprint, priority=args.priority)
    if entry is None:
        raise SystemExit(f"no queue entry for {fingerprint[:16]}…")
    print(f"requeued {fingerprint} (priority {entry.priority})")
    return 0


def cmd_archive(args) -> int:
    """`repro archive ls`: scan a study archive directory."""
    from repro.study import list_archive

    if not os.path.isdir(args.archive_dir):
        raise SystemExit(f"no such archive directory: {args.archive_dir}")
    summaries = list_archive(args.archive_dir)
    if not summaries:
        print(f"no archived studies under {args.archive_dir}")
        return 0
    for s in summaries:
        print(f"{s['fingerprint'][:16]}…  {s['kind']:<16} "
              f"{s['n_scenarios']:>5} scenarios  "
              f"{s['created_at'] or '?':<20}  "
              f"{s['wall_time_seconds']:.2f}s")
    print(f"{len(summaries)} archived stud"
          f"{'y' if len(summaries) == 1 else 'ies'}")
    return 0


def cmd_paper_table1(args) -> int:
    from repro.core.algorithm1 import compute_optimal_defense
    from repro.core.paper_curves import (PAPER_N_POISON, PAPER_TABLE1_N2,
                                         PAPER_TABLE1_N3, paper_figure1_curves)
    from repro.experiments.reporting import ascii_table

    curves = paper_figure1_curves()
    rows = []
    for n, published in ((2, PAPER_TABLE1_N2), (3, PAPER_TABLE1_N3)):
        res = compute_optimal_defense(curves, n, PAPER_N_POISON,
                                      epsilon=1e-12, max_iter=2000,
                                      initial_step=0.05)
        rows.append((f"n={n} (ours)",
                     "  ".join(f"{p:.1%}" for p in res.defense.percentiles),
                     "  ".join(f"{q:.1%}" for q in res.defense.probabilities)))
        rows.append((f"n={n} (paper)",
                     "  ".join(f"{p:.1%}" for p in published["percentiles"]),
                     "  ".join(f"{q:.1%}" for q in published["probabilities"])))
    print(ascii_table(["strategy", "radii", "probabilities"], rows,
                      title="Algorithm 1 on paper-calibrated curves vs published Table 1"))
    return 0


def cmd_proposition1(args) -> int:
    from repro.core.best_response import find_pure_equilibrium, \
        proposition1_certificate
    from repro.core.game import PoisoningGame
    from repro.core.payoff_estimation import estimate_payoff_curves
    from repro.study import run_study

    spec = _study_from_args(args)
    if len(spec.grid.fractions) != 1:
        raise SystemExit("proposition1 needs one poison fraction")
    engine = _study_engine(args, spec)
    try:
        result = run_study(spec, engine=engine,
                           progress=_progress_for(args, "proposition1"))
    except ValueError as exc:
        raise SystemExit(f"cannot run study: {exc}") from None
    sweep = result.payload_object()
    curves = estimate_payoff_curves(sweep.percentiles, sweep.acc_clean,
                                    sweep.acc_attacked, sweep.n_poison)
    game = PoisoningGame(curves=curves, n_poison=sweep.n_poison)
    search = find_pure_equilibrium(game, n_grid=201)
    cert = proposition1_certificate(game)
    print(f"pure NE exists: {search.exists}")
    print(f"best-response cycle length: {search.trace.cycle_length}")
    print(f"Ta = {cert['ta']:.3f}, Td(at Ta-attack) = {cert['td_at_ta_attack']:.3f}")
    _print_engine_stats(engine, result)
    return 0


# The named experiment commands: each is ``repro run <its name>``.
_RUN_ALIASES = ("figure1", "table1", "empirical-game", "cross-game")

_COMMANDS = {
    "run": cmd_run,
    "describe": cmd_describe,
    "report": cmd_report,
    **{alias: cmd_run for alias in _RUN_ALIASES},
    "paper-table1": cmd_paper_table1,
    "proposition1": cmd_proposition1,
    "repro-cache": cmd_repro_cache,
    "repro-cluster": cmd_repro_cluster,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "repro-queue": cmd_repro_queue,
    "archive": cmd_archive,
}


def _add_engine_args(p) -> None:
    p.add_argument("--backend", type=str, default=None,
                   help="evaluation backend: serial (default), "
                        "process, or cluster")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker count for parallel backends; for "
                        "cluster with no --shards, how many localhost "
                        "shards to autospawn (default 2)")
    p.add_argument("--shards", type=str, default=None,
                   help="cluster backend: comma-separated host:port "
                        "shard servers (default: autospawn localhost "
                        "shards; also via REPRO_CLUSTER_SHARDS)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="persist round results as JSON under this "
                        "directory (reruns become cache hits)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the engine's result cache")
    p.add_argument("--cache-max-entries", type=int, default=None,
                   help="LRU cap for the in-memory cache tier "
                        "(default: unbounded)")
    p.add_argument("--progress", action="store_true",
                   help="stream per-round progress to stderr even "
                        "when it is not a terminal")
    p.add_argument("--no-progress", action="store_true",
                   help="never stream per-round progress")
    p.add_argument("--faults", type=str, default=None,
                   help="arm a deterministic fault plan for resilience "
                        "drills, e.g. 'connect:fail_prob=0.3;seed=7' "
                        "(see repro.resilience; overrides REPRO_FAULTS)")
    p.add_argument("--telemetry-dir", type=str, default=None,
                   help="write span/metrics JSONL trace files (one "
                        "per process) under this directory; view with "
                        "'repro trace <dir>' (also via "
                        "REPRO_TELEMETRY_DIR)")


def _add_study_args(p, name: str | None = None) -> None:
    """The study to run: the positional study argument, or ``name``
    fixed by an alias command; plus its ``--set`` overrides."""
    if name is None:
        p.add_argument("study", type=str,
                       help="a study JSON document, or a named study: "
                            "figure1, table1, empirical-game, cross-game, "
                            "multi-seed, mixed-eval, grid")
    else:
        p.set_defaults(study=name)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a builder argument of a named study "
                        "(e.g. --set seed=3 --set fractions=0:0.2:9); "
                        "repeatable")


def _add_run_args(p) -> None:
    p.add_argument("--out", type=str, default=None,
                   help="archive the StudyResult JSON to this path")
    p.add_argument("--archive-dir", type=str, default=None,
                   help="study archive: skip the run when this "
                        "study's fingerprint is already archived "
                        "here, else write the result here")
    p.add_argument("--force", action="store_true",
                   help="re-run and overwrite an archived study")
    p.add_argument("--resume", action="store_true",
                   help="warm the engine cache from this study's "
                        "checkpoint in --archive-dir, so rounds a "
                        "killed run completed are not recomputed")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="flush completed rounds to an atomic "
                        "checkpoint beside the archive every N "
                        "rounds (default 16, or "
                        "REPRO_STUDY_CHECKPOINT_EVERY; 0 disables)")
    p.add_argument("--expect-cached", action="store_true",
                   help="fail unless every round was served from "
                        "cache (CI determinism gate)")
    _add_engine_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run studies; regenerate the paper's figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "run" or name in _RUN_ALIASES:
            _add_study_args(p, None if name == "run" else name)
            _add_run_args(p)
            continue
        if name == "proposition1":
            _add_study_args(p, "figure1")
            _add_engine_args(p)
            continue
        if name == "describe":
            _add_study_args(p)
            _add_engine_args(p)
            continue
        if name == "report":
            p.add_argument("result", type=str,
                           help="a StudyResult JSON written by "
                                "'repro run --out' or --archive-dir")
            p.add_argument("--telemetry", action="store_true",
                           help="append the run's per-stage time "
                                "breakdown and counters")
            continue
        if name == "trace":
            p.add_argument("trace_dir", type=str,
                           help="a telemetry directory written by "
                                "--telemetry-dir / REPRO_TELEMETRY_DIR")
            p.add_argument("--no-metrics", action="store_true",
                           help="render the span trees only, without "
                                "each process's closing counters")
            continue
        if name == "serve":
            p.add_argument("--archive-dir", type=str, required=True,
                           help="the shared study archive + queue "
                                "directory; every replica of the "
                                "service points at the same one")
            p.add_argument("--host", type=str, default=None,
                           help="bind address (default 127.0.0.1, or "
                                "REPRO_SERVICE_HOST)")
            p.add_argument("--port", type=int, default=None,
                           help="bind port; 0 asks the OS for a free "
                                "port, announced on the READY line "
                                "(default 0, or REPRO_SERVICE_PORT)")
            p.add_argument("--workers", type=int, default=1,
                           help="scheduler workers in this process "
                                "(0 = API-only replica; default 1)")
            p.add_argument("--poll-interval", type=float, default=None,
                           help="seconds between fallback polls for "
                                "submissions, lease refreshes and "
                                "results made by other replicas sharing "
                                "the archive dir; this replica's own are "
                                "seen at once "
                                "(REPRO_SERVICE_POLL_INTERVAL)")
            p.add_argument("--lease-ttl", type=float, default=None,
                           help="seconds without a heartbeat before a "
                                "lease is stale and another replica "
                                "adopts the study; a running study's "
                                "lease is refreshed every quarter of it "
                                "(REPRO_SERVICE_LEASE_TTL)")
            p.add_argument("--retries", type=int, default=None,
                           help="requeue-on-failure budget per study "
                                "(REPRO_SERVICE_RETRIES)")
            p.add_argument("--backoff", type=float, default=None,
                           help="base retry backoff in seconds "
                                "(REPRO_SERVICE_BACKOFF)")
            p.add_argument("--checkpoint-every", type=int, default=None,
                           help="checkpoint cadence for leased studies "
                                "(default 1: every round, so a killed "
                                "daemon resumes with zero recompute; "
                                "REPRO_SERVICE_CHECKPOINT_EVERY)")
            _add_engine_args(p)
            continue
        if name == "repro-queue":
            p.add_argument("action",
                           choices=("list", "show", "cancel", "nudge"),
                           help="list: every entry; show: one entry's "
                                "full state; cancel: drop a waiting "
                                "study; nudge: requeue a failed or "
                                "backed-off study for immediate pickup")
            p.add_argument("fingerprint", type=str, nargs="?",
                           default=None,
                           help="study fingerprint (any unambiguous "
                                "prefix) — required for show, cancel "
                                "and nudge")
            p.add_argument("--archive-dir", type=str, required=True,
                           help="the service's archive + queue directory")
            p.add_argument("--priority", type=int, default=None,
                           help="nudge: also reset the entry's priority")
            continue
        if name == "archive":
            p.add_argument("action", choices=("ls",),
                           help="ls: list every archived study with its "
                                "fingerprint, kind, round count and "
                                "timings")
            p.add_argument("archive_dir", type=str,
                           help="a study archive directory (as written "
                                "by 'repro run --archive-dir' or the "
                                "service)")
            continue
        if name == "repro-cache":
            p.add_argument("action", choices=("info", "prune"),
                           help="info: print the manifest; prune: drop "
                                "entries from older cache schema versions")
            p.add_argument("--cache-dir", type=str, default=None,
                           help="the on-disk cache directory to operate on")
            p.add_argument("--shard", type=str, default=None,
                           help="info only: probe running shard servers "
                                "('host:port,host:port') for their "
                                "cache-tier stats over the cluster "
                                "protocol instead of reading a local "
                                "directory")
            p.add_argument("--secret", type=str, default=None,
                           help="cluster secret for the --shard probe "
                                "(defaults to REPRO_CLUSTER_SECRET)")
            continue
        if name == "repro-cluster":
            from repro.cluster import add_shard_arguments

            p.add_argument("action", choices=("serve", "stats"),
                           help="serve: run a shard server for one "
                                "context; stats: probe running shards "
                                "for their live telemetry metrics")
            p.add_argument("--shards", type=str, default=None,
                           help="stats: comma-separated host:port shard "
                                "servers to probe (also via "
                                "REPRO_CLUSTER_SHARDS)")
            add_shard_arguments(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
