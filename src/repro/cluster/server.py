"""The shard server: one host's slice of the evaluation service.

A :class:`ShardServer` owns exactly one
:class:`~repro.experiments.runner.ExperimentContext`.  At startup it

1. warms the context's round kernel
   (:meth:`~repro.experiments.kernel.ContextKernel.prewarm`), so
   per-context work like the boundary attack's surrogate fit happens
   once, before any client connects;
2. with ``jobs > 1``, holds the process backend's
   :class:`~repro.engine.backends.WorkerPool` for its whole lifetime:
   the context's data arrays sit in a **per-host shared-memory
   segment** that every worker maps, packed once per server, and each
   chunk is dealt over the workers by the pool's fit-window rule
   (with ``jobs <= 1`` rounds run in-process, like the serial
   backend);
3. listens on a TCP socket and answers the protocol of
   :mod:`repro.cluster.protocol`: a content-fingerprint handshake,
   then round chunks decoded from JSON and run through the engine's
   fit-window loop (the serial backend's, or the pool's) — so a
   shard's outcomes are bit-identical to the serial backend's by
   construction.  A frame that does not decode is refused by name
   (a ``reject`` before the connection closes; an ``error`` reply for
   a ``run`` whose specs do not decode) and the shard keeps serving;
4. with ``--cache-dir`` (or ``REPRO_SHARD_CACHE_DIR``), keeps a
   **shard-local** :class:`~repro.engine.cache.ResultCache` disk tier
   under the same content keys and schema gate as the client cache:
   every computed outcome streams to disk *as it lands* (not when the
   chunk completes), so a shard killed mid-chunk replays its partial
   chunk from disk on rejoin instead of recomputing, and a warm fleet
   serves repeat rounds to *any* client — including a cold one —
   without recomputation.  The handshake already refuses clients on a
   different cache schema version, so a key held by the shard names
   bit-identical content for every admitted client.

Run one with the CLI (``python -m repro repro-cluster serve ...``) or
directly; both read the flags of
:func:`~repro.cluster.add_shard_arguments` and start through
:func:`serve_from_args`::

    python -m repro.cluster --context-file ctx.npz --port 7781

``--context-file`` names a context written by
:func:`~repro.experiments.runner.save_context` (the autospawn pool
writes it to a ``mkstemp`` file of its own): an ``.npz`` of the
context's arrays plus a JSON header, read without unpickling, whose
fingerprint the shard recomputes from what the file holds.  A file
that is not one stops the shard before its READY line.  Everything
that crosses the socket is JSON.

On startup the server prints a single ``READY host=... port=...
fingerprint=...`` line to stdout — the localhost autospawn pool (and
any orchestrator) parses it to learn the bound port.

A ``shard:crash_after_rounds=N`` rule in the armed fault plan
(``--faults`` or ``REPRO_FAULTS``, see :mod:`repro.resilience`) is the
crash hook: the server stores its first N computed rounds and calls
``os._exit`` (exit code :data:`CHAOS_EXIT_CODE`) when the next one
lands, mid-chunk, without replying — exactly the crash profile the
scheduler's requeue logic must survive.  On a pooled shard rounds land
as the workers' chunks finish, so which N rounds are stored follows
that arrival order, not chunk order.  It exists for the tests and for
operators who want to drill failover.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

from repro import telemetry
from repro.cluster import add_shard_arguments, protocol
from repro.engine.backends import SerialBackend, WorkerPool
from repro.engine.cache import (ResultCache, cache_schema_version,
                                outcome_to_dict, round_keys)
from repro.engine.spec import round_from_obj
from repro.resilience import env_int, faults

__all__ = ["ShardServer", "serve", "serve_from_args", "main"]

# Exit code of a chaos-triggered mid-chunk crash (distinguishable from
# ordinary failures in tests and process tables).
CHAOS_EXIT_CODE = 17


class ShardServer:
    """Serve round chunks for one context over TCP.

    Parameters
    ----------
    ctx:
        The experiment context this shard holds (every client must
        present a matching fingerprint).
    host, port:
        Bind address; port ``0`` asks the OS for a free port (read the
        chosen one from :attr:`port` or the READY line).
    jobs:
        Worker processes for chunk execution (1 = in-process serial).
    secret:
        Shared secret for mutual HMAC handshake auth; defaults to
        ``REPRO_CLUSTER_SECRET``.  When set, clients without a valid
        digest are refused by name — and a secretless shard refuses
        clients that *do* present one, so a half-configured fleet
        fails loudly.
    cache_dir:
        Directory for the shard-local result-cache disk tier; defaults
        to ``REPRO_SHARD_CACHE_DIR``.  ``None``/unset runs cache-less
        (every chunk recomputes, ``cache-query`` answers empty).  The
        tier uses the same content keys and schema gate as the client
        cache, so one directory may be shared by several shards (and
        by a client cache) — entries are keyed by context fingerprint
        and written atomically.
    cache_max_entries:
        LRU cap for the cache's in-memory tier; defaults to
        ``REPRO_SHARD_CACHE_MAX_ENTRIES`` (0/unset = unbounded).
        Eviction never touches the disk tier.

    The crash hook is read from the armed fault plan
    (``shard:crash_after_rounds``) when the server is built.
    """

    def __init__(self, ctx, *, host: str = "127.0.0.1", port: int = 0,
                 jobs: int | None = None, secret: str | None = None,
                 cache_dir: str | None = None,
                 cache_max_entries: int | None = None):
        self.ctx = ctx
        self.fingerprint = ctx.fingerprint()
        self.schema = cache_schema_version()
        if secret is None:
            secret = os.environ.get("REPRO_CLUSTER_SECRET")
        self.secret = secret or None
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_SHARD_CACHE_DIR") or None
        if cache_max_entries is None:
            cache_max_entries = env_int("REPRO_SHARD_CACHE_MAX_ENTRIES", 0,
                                        lo=0, hi=1_000_000_000) or None
        self.cache = ResultCache(disk_dir=cache_dir,
                                 max_entries=cache_max_entries,
                                 counter_prefix="shard.cache") \
            if cache_dir else None
        self.crash_after_rounds = faults.crash_threshold("shard")
        self._rounds_executed = 0
        self._chaos_lock = threading.Lock()
        ctx.kernel().prewarm()
        # Every pool worker is forked here, before the listening socket
        # exists, so none inherits a socket fd.
        self.jobs = int(jobs) if jobs else 1
        self.pool = WorkerPool(ctx, self.jobs) if self.jobs > 1 else None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, int(port)))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._shutdown = threading.Event()

    # -- serving -----------------------------------------------------------

    def announce(self, stream=None) -> None:
        """Print the machine-parsable READY line (see module docs)."""
        stream = stream if stream is not None else sys.stdout
        print(f"READY host={self.host} port={self.port} "
              f"fingerprint={self.fingerprint} pid={os.getpid()}",
              file=stream, flush=True)

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`."""
        self._sock.settimeout(0.5)  # poll the shutdown flag
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed from another thread
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            self.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            try:
                # Same rationale as the client side: this thread waits
                # on a blocking recv, so a client host that vanishes
                # silently must be reaped by OS keepalive or it would
                # pin the thread and fd for the shard's lifetime.
                protocol.enable_keepalive(conn)
                if self._handshake(conn):
                    self._serve_chunks(conn)
            except (protocol.ProtocolError, LookupError, TypeError,
                    ValueError) as exc:
                # A frame this shard cannot act on: name the fault, then
                # hang up (after a refused header the next frame
                # boundary is unknown).
                try:
                    protocol.send_message(
                        conn, protocol.reject(f"protocol error: {exc}"))
                except OSError:
                    pass
            except (ConnectionError, OSError):
                pass  # a broken client never takes the shard down

    def _serve_chunks(self, conn: socket.socket) -> None:
        try:
            peer = "%s:%s" % conn.getpeername()[:2]
        except OSError:
            peer = "?"
        with telemetry.trace_span("shard.connection", peer=peer):
            while not self._shutdown.is_set():
                try:
                    message = protocol.recv_message(conn)
                except protocol.ConnectionClosed:
                    return
                if not self._dispatch(conn, message):
                    return

    def _handshake(self, conn: socket.socket) -> bool:
        """Answer the connection's first frame, read under the
        pre-handshake cap: ``True`` once a ``hello`` is welcomed; an
        ``info`` probe is answered and the connection ends (the prober
        learns nothing of this shard's context beyond its stats)."""
        message = protocol.recv_message(conn, protocol.MAX_HANDSHAKE_BYTES)
        reason = self._refusal(message)
        if reason is not None:
            protocol.send_message(conn, protocol.reject(reason))
            return False
        if message["type"] == "info":
            protocol.send_message(conn, protocol.info_report(
                self.cache_stats(), self.telemetry_stats()))
            return False
        protocol.send_message(conn, protocol.welcome(
            self.fingerprint, host=self.host, pid=os.getpid(),
            capacity=self.jobs, schema=self.schema,
            secret=self.secret, token=telemetry.process_token()))
        return True

    def _refusal(self, message: dict) -> str | None:
        """Why a ``hello`` or ``info`` frame is refused (``None``: it is
        accepted)."""
        kind = message["type"]
        if kind not in ("hello", "info"):
            return f"expected hello or info, got {kind!r}"
        fingerprint = protocol.INFO_FINGERPRINT if kind == "info" \
            else message.get("fingerprint")
        schema = message.get("schema")
        if not isinstance(fingerprint, str) or type(schema) is not int:
            return (f"malformed {kind}: needs a string fingerprint and an "
                    f"integer schema, got {fingerprint!r} and {schema!r}")
        auth = message.get("auth")
        if self.secret:
            # Auth first: an unauthenticated client learns nothing
            # about this shard's context from the refusal.
            if auth is None:
                return (f"auth required: shard holds a "
                        f"REPRO_CLUSTER_SECRET but the {kind} carries no "
                        f"auth digest")
            if not protocol.verify_auth(self.secret, "client", fingerprint,
                                        schema, auth):
                return (f"auth failed: the {kind}'s digest does not match "
                        f"this shard's REPRO_CLUSTER_SECRET")
        elif auth is not None:
            return (f"auth mismatch: the {kind} presented an auth digest "
                    f"but this shard holds no REPRO_CLUSTER_SECRET")
        if message.get("protocol") != protocol.PROTOCOL_VERSION:
            return (f"protocol version mismatch: shard speaks "
                    f"v{protocol.PROTOCOL_VERSION}, peer "
                    f"v{message.get('protocol')}")
        if kind == "info":
            return None
        if schema != self.schema:
            return (f"cache schema mismatch: shard at v{self.schema}, "
                    f"client at v{schema} — the two builds disagree on "
                    f"round identity")
        if fingerprint != self.fingerprint:
            return (f"context fingerprint mismatch: shard holds "
                    f"{self.fingerprint[:12]}…, client asked for "
                    f"{fingerprint[:12]}…")
        return None

    def telemetry_stats(self) -> dict:
        """Live metrics for ``info-report`` replies."""
        stats = {
            "fingerprint": self.fingerprint,
            "pid": os.getpid(),
            "rounds_executed": self._rounds_executed,
        }
        stats.update(telemetry.snapshot())
        return stats

    def cache_stats(self) -> dict:
        """Cache-tier stats for ``info-report``: the tier's contents,
        plus its hits and stores from the ``shard.cache.*`` counters."""
        stats = {
            "enabled": self.cache is not None,
            "fingerprint": self.fingerprint,
            "schema_version": self.schema,
        }
        if self.cache is not None:
            info = self.cache.describe()
            counters = telemetry.snapshot()["counters"]
            stats.update(
                cache_dir=info["disk_dir"],
                entry_count=info["entry_count"],
                total_bytes=info["total_bytes"],
                memory_entries=info["memory_entries"],
                hits=counters.get("shard.cache.memory.hits", 0)
                + counters.get("shard.cache.disk.hits", 0),
                stores=counters.get("shard.cache.stores", 0),
            )
        return stats

    def _dispatch(self, conn: socket.socket, message: dict) -> bool:
        kind = message["type"]
        if kind == "ping":
            protocol.send_message(conn, {"type": "pong"})
            return True
        if kind == "cache-query":
            keys = message.get("keys", [])
            held = self.cache.held_keys(keys) if self.cache is not None \
                else []
            protocol.send_message(conn, protocol.cache_report(held))
            return True
        if kind == "run":
            chunk_id = int(message.get("chunk_id", -1))
            try:
                specs = [round_from_obj(obj) for obj in message["specs"]]
            except Exception as exc:  # a malformed chunk is refused by name
                protocol.send_message(conn, protocol.chunk_error(
                    chunk_id, f"undecodable round spec: {exc!r}"))
                return True
            try:
                with telemetry.trace_span("shard.chunk", chunk=chunk_id,
                                          rounds=len(specs)):
                    outcomes, cache_hits = self._run_chunk(specs)
            except Exception as exc:  # the shard survives a bad chunk
                protocol.send_message(
                    conn, protocol.chunk_error(chunk_id, repr(exc)))
                return True
            telemetry.counter("shard.chunks_total").inc()
            telemetry.counter("shard.rounds_total").inc(len(specs))
            if faults.fire("chunk_reply", key=f"chunk {chunk_id}"):
                # Injected drop: the work is done but the reply never
                # leaves — close the connection so the client sees the
                # same EOF a shard crash-after-compute produces.
                return False
            protocol.send_message(
                conn, protocol.chunk_result(
                    chunk_id, [outcome_to_dict(o) for o in outcomes],
                    cache_hits=cache_hits,
                    telemetry=telemetry.flush_delta()))
            return True
        protocol.send_message(conn, protocol.chunk_error(
            -1, f"unknown message type {kind!r}"))
        return True

    def _run_chunk(self, specs: list) -> tuple[list, int]:
        """Outcomes for ``specs`` plus how many came from the cache tier.

        Held rounds are served from the tier without running them; the
        rest run through the window loop, on the worker pool or
        in-process like the serial backend, and each outcome is handled
        as it lands, long before the whole chunk completes: the crash
        hook is checked, then the outcome is stored in the tier (the
        streaming-to-disk contract).  Cache hits never count as
        executed rounds, so the hook counts real work only, which is
        what makes replay-from-disk after a crash observable.
        """
        outcomes: list = [None] * len(specs)
        if self.cache is not None:
            keys = round_keys(self.fingerprint, specs)
            outcomes = [self.cache.get(key) for key in keys]
        to_run = [i for i, outcome in enumerate(outcomes) if outcome is None]
        run = [specs[i] for i in to_run]
        stream = SerialBackend().run_iter(self.ctx, run) \
            if self.pool is None else self.pool.run_iter(run)
        for offset, outcome in stream:
            with self._chaos_lock:
                # Never true without an armed crash_after_rounds.
                if self._rounds_executed == self.crash_after_rounds:
                    os._exit(CHAOS_EXIT_CODE)
                self._rounds_executed += 1
            index = to_run[offset]
            if self.cache is not None:
                self.cache.put(keys[index], outcome)
            outcomes[index] = outcome
        return outcomes, len(specs) - len(to_run)

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        if self.pool is not None:
            self.pool.close()


def serve(ctx, *, host: str = "127.0.0.1", port: int = 0,
          jobs: int | None = None, secret: str | None = None,
          cache_dir: str | None = None,
          cache_max_entries: int | None = None,
          announce: bool = True) -> None:
    """Construct a :class:`ShardServer` for ``ctx`` and serve forever.

    Installs a SIGTERM handler so an orchestrator's ordinary terminate
    shuts the shard down *gracefully* — the worker pool exits and the
    shared-memory segment is unlinked, instead of leaking both (the
    crash hook's ``os._exit`` deliberately bypasses this: it simulates
    the host crash where no cleanup can run).
    """
    import signal

    server = ShardServer(ctx, host=host, port=port, jobs=jobs,
                         secret=secret, cache_dir=cache_dir,
                         cache_max_entries=cache_max_entries)

    def _terminate(signum, frame):
        raise SystemExit(0)  # unwinds into serve_forever's cleanup

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        if announce:
            server.announce()
        server.serve_forever()
    finally:
        server.close()
        signal.signal(signal.SIGTERM, previous)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Serve evaluation rounds for one experiment context.",
    )
    add_shard_arguments(parser)
    return parser


def serve_from_args(args) -> int:
    """Start a shard from parsed
    :func:`~repro.cluster.add_shard_arguments` flags: arm ``--faults``,
    build or load the context, :func:`serve` it."""
    from repro.experiments.runner import load_context, make_context

    if args.faults is not None:
        try:
            faults.install(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from None
    if args.context_file:
        try:
            ctx = load_context(args.context_file)
        except ValueError as exc:
            raise SystemExit(f"--context-file: {exc}") from None
    else:
        kwargs = {"seed": args.seed}
        if args.n_samples is not None:
            kwargs["n_samples"] = args.n_samples
        ctx = make_context(args.context, **kwargs)
    serve(ctx, host=args.host, port=args.port, jobs=args.jobs,
          secret=args.secret, cache_dir=args.cache_dir,
          cache_max_entries=args.cache_max_entries)
    return 0


def main(argv=None) -> int:
    return serve_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
