"""The shard server: one host's slice of the evaluation service.

A :class:`ShardServer` owns exactly one
:class:`~repro.experiments.runner.ExperimentContext`.  At startup it

1. prewarms every registered attack/defence/victim family on the
   context (:func:`~repro.engine.spec.prewarm_all`), so per-context
   work like the boundary attack's surrogate fit happens once, before
   any client connects;
2. with ``jobs > 1``, holds the process backend's
   :class:`~repro.engine.backends.WorkerPool` for its whole lifetime:
   the context's data arrays sit in a **per-host shared-memory
   segment** that every worker maps, packed once per server instead
   of once per batch (with ``jobs <= 1`` rounds run in-process, like
   the serial backend);
3. listens on a TCP socket and answers the protocol of
   :mod:`repro.cluster.protocol`: a content-fingerprint handshake,
   then round chunks, executed through the engine's own
   :func:`~repro.engine.backends.execute_round` — so a shard's
   outcomes are bit-identical to the serial backend's by construction;
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

Run one with the CLI (``python -m repro.experiments.cli repro-cluster
serve ...``) or directly::

    python -m repro.cluster --context-file ctx.pkl --port 7781

On startup the server prints a single ``READY host=... port=...
fingerprint=...`` line to stdout — the localhost autospawn pool (and
any orchestrator) parses it to learn the bound port.

``--chaos-exit-after N`` is the failure-injection hook: the server
executes rounds one at a time and calls ``os._exit`` after the N-th,
mid-chunk, without replying — exactly the crash profile the
scheduler's requeue logic must survive.  It exists for the tests and
for operators who want to drill failover.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

from repro import telemetry
from repro.cluster import protocol
from repro.engine.backends import SerialBackend, WorkerPool
from repro.engine.cache import ResultCache, cache_schema_version, round_keys
from repro.engine.spec import prewarm_all
from repro.resilience import env_int, faults

__all__ = ["ShardServer", "serve", "main"]

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
    chaos_exit_after:
        Failure injection: hard-exit mid-chunk after this many rounds.
        A ``shard:crash_after_rounds`` rule in the armed fault plan
        (``REPRO_FAULTS``) arms the same hook; when both are set the
        smaller threshold wins.
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
    """

    def __init__(self, ctx, *, host: str = "127.0.0.1", port: int = 0,
                 jobs: int | None = None, chaos_exit_after: int | None = None,
                 secret: str | None = None, cache_dir: str | None = None,
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
                                 max_entries=cache_max_entries) \
            if cache_dir else None
        armed = faults.crash_threshold("shard")
        if armed is not None:
            chaos_exit_after = armed if chaos_exit_after is None \
                else min(chaos_exit_after, armed)
        self.chaos_exit_after = chaos_exit_after
        self._rounds_executed = 0
        self._chaos_lock = threading.Lock()
        prewarm_all(ctx)
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
        """Accept connections until a ``shutdown`` message arrives."""
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
        try:
            with conn:
                # Same rationale as the client side: this thread waits
                # on a blocking recv, so a client host that vanishes
                # silently must be reaped by OS keepalive or it would
                # pin the thread and fd for the shard's lifetime.
                protocol.enable_keepalive(conn)
                if not self._handshake(conn):
                    return
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
        except (protocol.ProtocolError, ConnectionError, OSError):
            return  # a broken client never takes the shard down

    def _handshake(self, conn: socket.socket) -> bool:
        message = protocol.recv_message(conn)
        if message.get("type") == "cache-info":
            # Pre-handshake stats probe: answer and close (the prober
            # does not know — and does not learn — this shard's
            # context beyond what the stats expose post-auth).
            self._answer_cache_info(conn, message)
            return False
        if message.get("type") == "telemetry-info":
            # Same pre-handshake pattern for live metrics
            # (repro-cluster stats); old shards hit the reject below.
            self._answer_telemetry_info(conn, message)
            return False
        if message.get("type") != "hello":
            protocol.send_message(conn, protocol.reject(
                f"expected hello, got {message.get('type')!r}"))
            return False
        reason = None
        auth = message.get("auth")
        if self.secret:
            # Auth first: an unauthenticated client learns nothing
            # about this shard's context from the refusal.
            if auth is None:
                reason = ("auth required: shard holds a "
                          "REPRO_CLUSTER_SECRET but the hello carries "
                          "no auth digest")
            elif not protocol.verify_auth(
                    self.secret, "client",
                    str(message.get("fingerprint")),
                    int(message.get("schema") or 0), auth):
                reason = ("auth failed: the hello's digest does not "
                          "match this shard's REPRO_CLUSTER_SECRET")
        elif auth is not None:
            reason = ("auth mismatch: client presented an auth digest "
                      "but this shard holds no REPRO_CLUSTER_SECRET")
        if reason is None and \
                message.get("protocol") != protocol.PROTOCOL_VERSION:
            reason = (f"protocol version mismatch: shard speaks "
                      f"v{protocol.PROTOCOL_VERSION}, client "
                      f"v{message.get('protocol')}")
        elif message.get("schema") != self.schema:
            reason = (f"cache schema mismatch: shard at v{self.schema}, "
                      f"client at v{message.get('schema')} — the two builds "
                      f"disagree on round identity")
        elif message.get("fingerprint") != self.fingerprint:
            reason = (f"context fingerprint mismatch: shard holds "
                      f"{self.fingerprint[:12]}…, client asked for "
                      f"{str(message.get('fingerprint'))[:12]}…")
        if reason is not None:
            protocol.send_message(conn, protocol.reject(reason))
            return False
        protocol.send_message(conn, protocol.welcome(
            self.fingerprint, host=self.host, pid=os.getpid(),
            capacity=self.jobs, schema=self.schema,
            secret=self.secret))
        return True

    def _answer_cache_info(self, conn: socket.socket, message: dict) -> None:
        """Answer a pre-handshake ``cache-info`` probe (auth-gated)."""
        auth = message.get("auth")
        reason = None
        if self.secret:
            if not protocol.verify_auth(
                    self.secret, "client", protocol.CACHE_INFO_FINGERPRINT,
                    int(message.get("schema") or 0), auth):
                reason = ("auth failed: the cache-info probe carries no "
                          "digest matching this shard's "
                          "REPRO_CLUSTER_SECRET")
        elif auth is not None:
            reason = ("auth mismatch: probe presented an auth digest but "
                      "this shard holds no REPRO_CLUSTER_SECRET")
        if reason is None and \
                message.get("protocol") != protocol.PROTOCOL_VERSION:
            reason = (f"protocol version mismatch: shard speaks "
                      f"v{protocol.PROTOCOL_VERSION}, probe "
                      f"v{message.get('protocol')}")
        if reason is not None:
            protocol.send_message(conn, protocol.reject(reason))
            return
        protocol.send_message(
            conn, protocol.cache_report([], self.cache_stats()))

    def _answer_telemetry_info(self, conn: socket.socket,
                               message: dict) -> None:
        """Answer a pre-handshake ``telemetry-info`` probe (auth-gated)."""
        auth = message.get("auth")
        reason = None
        if self.secret:
            if not protocol.verify_auth(
                    self.secret, "client",
                    protocol.TELEMETRY_INFO_FINGERPRINT,
                    int(message.get("schema") or 0), auth):
                reason = ("auth failed: the telemetry-info probe carries "
                          "no digest matching this shard's "
                          "REPRO_CLUSTER_SECRET")
        elif auth is not None:
            reason = ("auth mismatch: probe presented an auth digest but "
                      "this shard holds no REPRO_CLUSTER_SECRET")
        if reason is None and \
                message.get("protocol") != protocol.PROTOCOL_VERSION:
            reason = (f"protocol version mismatch: shard speaks "
                      f"v{protocol.PROTOCOL_VERSION}, probe "
                      f"v{message.get('protocol')}")
        if reason is not None:
            protocol.send_message(conn, protocol.reject(reason))
            return
        protocol.send_message(
            conn, protocol.telemetry_report(self.telemetry_stats()))

    def telemetry_stats(self) -> dict:
        """Live metrics for ``telemetry-report`` replies."""
        stats = {
            "enabled": telemetry.enabled(),
            "fingerprint": self.fingerprint,
            "pid": os.getpid(),
            "rounds_executed": self._rounds_executed,
        }
        stats.update(telemetry.snapshot())
        return stats

    def cache_stats(self) -> dict:
        """Cache-tier telemetry for ``cache-report`` replies."""
        stats = {
            "enabled": self.cache is not None,
            "fingerprint": self.fingerprint,
            "schema_version": self.schema,
        }
        if self.cache is not None:
            info = self.cache.describe()
            stats.update(
                cache_dir=info["disk_dir"],
                entry_count=info["entry_count"],
                total_bytes=info["total_bytes"],
                memory_entries=info["memory_entries"],
                hits=self.cache.stats.hits,
                stores=self.cache.stats.stores,
            )
        return stats

    def _dispatch(self, conn: socket.socket, message: dict) -> bool:
        kind = message["type"]
        if kind == "ping":
            protocol.send_message(conn, {"type": "pong"})
            return True
        if kind == "shutdown":
            protocol.send_message(conn, {"type": "bye"})
            self._shutdown.set()
            return False
        if kind == "cache-query":
            keys = message.get("keys", [])
            held = self.cache.held_keys(keys) if self.cache is not None \
                else []
            protocol.send_message(
                conn, protocol.cache_report(held, self.cache_stats()))
            return True
        if kind == "telemetry-query":
            protocol.send_message(
                conn, protocol.telemetry_report(self.telemetry_stats()))
            return True
        if kind == "run":
            chunk_id = int(message.get("chunk_id", -1))
            specs = message.get("specs", [])
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
                    chunk_id, outcomes, cache_hits=cache_hits,
                    telemetry=telemetry.flush_delta()))
            return True
        protocol.send_message(conn, protocol.chunk_error(
            -1, f"unknown message type {kind!r}"))
        return True

    def _run_chunk(self, specs: list) -> tuple[list, int]:
        """Outcomes for ``specs`` plus how many came from the cache tier.

        With a cache: held rounds are served without running them
        (they do not count as *executed* — the chaos
        crash-after-N threshold counts real work only, which is what
        makes replay-from-disk after a crash observable), and every
        computed outcome is stored the moment it lands, not when the
        chunk completes — the streaming-to-disk contract.
        """
        if self.cache is None:
            return self._collect(specs, lambda i, outcome: None), 0
        keys = round_keys(self.fingerprint, specs)
        outcomes: list = [None] * len(specs)
        to_run: list[int] = []
        for i, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is not None:
                outcomes[i] = cached
            else:
                to_run.append(i)
        cache_hits = len(specs) - len(to_run)
        if to_run:
            def land(offset, outcome):
                index = to_run[offset]
                self.cache.put(keys[index], outcome)
                outcomes[index] = outcome

            self._collect([specs[i] for i in to_run], land)
        return outcomes, cache_hits

    def _collect(self, specs: list, land) -> list:
        """Execute ``specs``, calling ``land(offset, outcome)`` per round
        as it lands; honours the chaos crash hook.  Returns outcomes in
        order (for the cache-less path)."""
        if self.chaos_exit_after is None:
            collected = [None] * len(specs)
            for offset, outcome in self._rounds(specs):
                self._rounds_executed += 1
                collected[offset] = outcome
                land(offset, outcome)
            return collected
        # Chaos mode: execute one round at a time so the crash lands
        # mid-chunk, after real work, with the reply never sent —
        # but with everything *already landed* on the disk tier.
        collected = []
        for offset, spec in enumerate(specs):
            with self._chaos_lock:
                if self._rounds_executed >= self.chaos_exit_after:
                    os._exit(CHAOS_EXIT_CODE)
                self._rounds_executed += 1
            [(_, outcome)] = self._rounds([spec])
            collected.append(outcome)
            land(offset, outcome)
        return collected

    def _rounds(self, specs: list):
        """``(offset, outcome)`` pairs as rounds land: on the worker
        pool, or in-process like the serial backend when ``jobs <= 1``.
        Either way an outcome surfaces (and can hit the disk tier) long
        before the whole chunk completes."""
        if self.pool is None:
            return SerialBackend().run_iter(self.ctx, specs)
        return self.pool.run_iter(specs)

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        if self.pool is not None:
            self.pool.close()


def serve(ctx, *, host: str = "127.0.0.1", port: int = 0,
          jobs: int | None = None, chaos_exit_after: int | None = None,
          secret: str | None = None, cache_dir: str | None = None,
          cache_max_entries: int | None = None,
          announce: bool = True) -> None:
    """Construct a :class:`ShardServer` for ``ctx`` and serve forever.

    Installs a SIGTERM handler so an orchestrator's ordinary terminate
    shuts the shard down *gracefully* — the worker pool exits and the
    shared-memory segment is unlinked, instead of leaking both (the
    chaos hook's ``os._exit`` deliberately bypasses this: it simulates
    the host crash where no cleanup can run).
    """
    import signal

    server = ShardServer(ctx, host=host, port=port, jobs=jobs,
                         chaos_exit_after=chaos_exit_after, secret=secret,
                         cache_dir=cache_dir,
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
    parser.add_argument("--context-file", type=str, default=None,
                        help="pickled ExperimentContext to serve (see "
                             "repro.experiments.runner.save_context)")
    parser.add_argument("--context", type=str, default=None,
                        choices=("synthetic", "spambase"),
                        help="construct the context by name instead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-samples", type=int, default=None)
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 (default) binds a free port; the READY "
                             "line reports the choice")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes per shard (default 1: "
                             "in-process execution)")
    parser.add_argument("--chaos-exit-after", type=int, default=None,
                        help="failure injection: hard-exit mid-chunk "
                             "after N rounds (tests/failover drills)")
    parser.add_argument("--faults", type=str, default=None,
                        help="arm a fault plan (see repro.resilience), "
                             "e.g. 'chunk_reply:drop_first=1;seed=7'; "
                             "overrides REPRO_FAULTS")
    parser.add_argument("--secret", type=str, default=None,
                        help="shared handshake secret (defaults to "
                             "REPRO_CLUSTER_SECRET)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="shard-local result-cache disk tier: "
                             "computed rounds stream here as they land "
                             "and repeat rounds are served without "
                             "recompute (defaults to "
                             "REPRO_SHARD_CACHE_DIR; unset = no cache)")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        help="LRU cap for the shard cache's in-memory "
                             "tier (defaults to "
                             "REPRO_SHARD_CACHE_MAX_ENTRIES; "
                             "0/unset = unbounded)")
    return parser


def context_from_args(args):
    from repro.experiments.runner import load_context, make_context

    if args.context_file:
        return load_context(args.context_file)
    if args.context:
        kwargs = {"seed": args.seed}
        if args.n_samples is not None:
            kwargs["n_samples"] = args.n_samples
        return make_context(args.context, **kwargs)
    raise SystemExit("pass --context-file or --context")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.faults is not None:
        try:
            faults.install(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from None
    serve(context_from_args(args), host=args.host, port=args.port,
          jobs=args.jobs, chaos_exit_after=args.chaos_exit_after,
          secret=args.secret, cache_dir=args.cache_dir,
          cache_max_entries=args.cache_max_entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
