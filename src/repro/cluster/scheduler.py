"""Chunk scheduling across shards: dealt chunks, retry, failover.

The scheduler turns "a batch of round specs" into "a stream of
``(index, outcome)`` pairs" using whatever shards survive:

* **Dealt chunks** — a batch is cut the way the process pool cuts
  one: :func:`~repro.engine.backends.deal_chunks` deals its rounds
  round-robin into ``shards * ceil(n / (shards * max_chunk))`` chunks,
  never more than ``n``.  ``max_chunk`` defaults to one fit window, so
  every chunk trains on its shard as one lockstep fit group from the
  first round trip.  Shards take whole chunks from one shared queue,
  so a batch of more than ``2 * shards * max_chunk`` rounds leaves at
  least two chunks per shard, and a fast shard steals a slow one's
  later chunks.
* **Retry / failover** — a chunk travels as one request and lands as
  one reply, so a shard that dies mid-chunk leaves no partial state:
  the whole chunk is requeued for the surviving shards.  A dead
  shard's work is *never dropped*; if every shard dies with work
  outstanding the scheduler raises :class:`ClusterError` naming each
  shard's failure.
* **Rejoin** — given a ``reconnect`` callable, a worker whose shard
  dies does not retire immediately: after requeueing its chunk it
  walks a :class:`~repro.resilience.RetryPolicy` backoff schedule
  trying to re-establish connect + handshake at the *same address*, so
  a shard that is restarted mid-sweep re-enters the live pool and
  steals work again.  Only handshake *refusals*
  (:class:`ShardRejected`: auth, fingerprint or schema mismatch) end
  the worker at once — a refusal is configuration, and configuration
  does not fix itself on retry.
* **Exactly-once delivery** — outcomes are deduplicated by index
  before they are yielded.  (Duplicates can only arise from a retried
  chunk whose first reply was half-received; the determinism contract
  makes them bit-identical, so first-wins is safe.)
* **Cache-aware placement** — given a ``placement`` map (shard name ->
  spec indices that shard's local result cache already holds, built by
  the backend from a pre-batch ``cache-query``), held rounds travel as
  *dedicated* chunks to the holding shard, which answers them straight
  from its disk tier; every other round flows through the shared
  queue exactly as before.  Placement is a preference, never
  a correctness constraint: an idle or surviving shard steals from a
  slow or dead owner's placed backlog (it merely recomputes what the
  owner would have served from cache), a requeued placed chunk goes
  back to the *shared* queue, and the all-dead/rejoin semantics above
  are untouched.
* **Counts** — no tallies of its own: each event is counted once,
  where it happens, in the ``cluster.*`` telemetry counters and the
  ``cluster.chunk.seconds`` histogram.  A shard's piggybacked metrics
  delta is merged as its chunk lands, unless the shard runs in this
  very process and so shares its registry.

The scheduler is transport-dumb: it drives :class:`ShardClient`\\ s,
which own one socket each and speak :mod:`repro.cluster.protocol`.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque

from repro import telemetry
from repro.cluster import protocol
from repro.engine.backends import _FIT_WINDOW, deal_chunks
from repro.engine.cache import outcome_from_dict
from repro.engine.spec import round_to_obj
from repro.resilience import RetryPolicy, faults

__all__ = ["ShardError", "ShardRejected", "ChunkExecutionError",
           "ClusterError", "ShardClient", "ClusterScheduler"]

# Defaults; ClusterBackend exposes env/constructor overrides.  A chunk
# is at most one fit window, so each trains as one lockstep fit group.
DEFAULT_TIMEOUT = 120.0
DEFAULT_MAX_CHUNK = _FIT_WINDOW


class ShardError(ConnectionError):
    """One shard failed (handshake refused, died, or spoke garbage)."""


class ShardRejected(ShardError):
    """A shard *refused* the handshake (auth, fingerprint or schema).

    A refusal is a configuration mismatch, not a transient failure:
    retry and rejoin must not touch it, and the graceful-degradation
    path must surface it instead of silently computing locally.
    """


class ChunkExecutionError(RuntimeError):
    """A chunk's *rounds* raised on a healthy shard.

    The shard survives and says so (an ``error`` reply); the failure is
    deterministic — the serial backend would raise it too — so the
    scheduler must neither retire the shard nor retry the chunk
    elsewhere: it aborts the batch with this error, mirroring what a
    local backend would do.
    """


class ClusterError(RuntimeError):
    """No shard can make progress; outstanding work would be dropped."""


class ShardClient:
    """One connection to one shard server.

    ``timeout`` bounds the connect and the handshake — interactions
    whose duration the client controls.  Chunk *results* are waited for
    on a blocking socket instead: a round can legitimately take longer
    than any fixed timer (a bilevel attack on the full context), and
    under TCP a timeout cannot distinguish "still computing" from
    "hung" anyway — whereas a *dead* shard surfaces promptly as a
    reset/EOF.  OS-level TCP keepalive is enabled so a peer that
    vanishes silently (host loss, network partition) is also reaped,
    in minutes rather than never.
    """

    def __init__(self, address: tuple[str, int], *,
                 timeout: float = DEFAULT_TIMEOUT,
                 secret: str | None = None):
        self.address = (str(address[0]), int(address[1]))
        self.name = f"{self.address[0]}:{self.address[1]}"
        self.secret = secret or None
        try:
            faults.fire("connect", key=self.name)
            self._sock = socket.create_connection(self.address,
                                                  timeout=timeout)
        except OSError as exc:
            raise ShardError(f"cannot connect to shard {self.name}: "
                             f"{exc}") from exc
        protocol.enable_keepalive(self._sock)
        self.info: dict = {}
        # Shard-reported cache hits of the most recent chunk reply.
        self.last_cache_hits = 0
        # Shard-piggybacked metrics delta of the most recent chunk
        # reply, to merge (None from a shard in this process, or when
        # telemetry is disabled).
        self.last_telemetry: dict | None = None

    def handshake(self, fingerprint: str, schema: int) -> dict:
        """Run the content-fingerprint handshake; raise on refusal."""
        try:
            faults.fire("handshake", key=self.name)
            protocol.send_message(self._sock,
                                  protocol.hello(fingerprint, schema,
                                                 secret=self.secret))
            reply = protocol.recv_message(self._sock,
                                          protocol.MAX_HANDSHAKE_BYTES)
        except (protocol.ProtocolError, ConnectionError, OSError) as exc:
            raise ShardError(f"handshake with shard {self.name} failed: "
                             f"{exc}") from exc
        if reply.get("type") != "welcome":
            raise ShardRejected(
                f"shard {self.name} refused the handshake: "
                f"{reply.get('reason', reply)}")
        if self.secret and not protocol.verify_auth(
                self.secret, "shard", str(fingerprint), int(schema),
                reply.get("auth")):
            # Mutual auth: a welcome without the shard-side digest means
            # the peer does not hold our secret (or is not our shard).
            raise ShardRejected(
                f"shard {self.name} failed mutual auth: its welcome "
                f"carries no valid REPRO_CLUSTER_SECRET digest")
        self.info = reply
        # Handshake done: chunk execution time belongs to the shard,
        # not to a local timer (see the class docstring).
        self._sock.settimeout(None)
        return reply

    def run_chunk(self, chunk_id: int, specs: list) -> list:
        """Execute one chunk remotely; outcomes aligned with ``specs``."""
        try:
            faults.fire("chunk_send", key=f"{self.name}#{chunk_id}")
            protocol.send_message(self._sock, protocol.run_chunk(
                chunk_id, [round_to_obj(spec) for spec in specs]))
            reply = protocol.recv_message(self._sock)
        except (protocol.ProtocolError, ConnectionError, OSError) as exc:
            raise ShardError(f"shard {self.name} died mid-chunk: "
                             f"{exc}") from exc
        if reply.get("type") == "error":
            # The shard is alive and answered; the chunk's rounds are
            # what failed.  Not a transport error — see
            # ChunkExecutionError.
            raise ChunkExecutionError(
                f"shard {self.name} reported a round failure in chunk "
                f"{chunk_id}: {reply.get('message')}")
        if reply.get("type") != "result" or \
                reply.get("chunk_id") != chunk_id:
            raise ShardError(f"shard {self.name} answered out of "
                             f"protocol: {reply.get('type')!r}")
        outcomes = reply.get("outcomes", [])
        if len(outcomes) != len(specs):
            raise ShardError(
                f"shard {self.name} returned {len(outcomes)} outcomes "
                f"for a {len(specs)}-spec chunk")
        self.last_cache_hits = int(reply.get("cache_hits", 0))
        # A shard in this very process shares our registry: its delta
        # holds counts already counted here.
        self.last_telemetry = None if self.info.get("token") == \
            telemetry.process_token() else reply.get("telemetry")
        return [outcome_from_dict(outcome) for outcome in outcomes]

    def query_cache(self, keys) -> set:
        """Ask the shard which of these round keys its cache tier holds.

        Returns the held keys; a failed query or any reply but a
        ``cache-report`` raises :class:`ShardError`.
        """
        try:
            protocol.send_message(self._sock, protocol.cache_query(keys))
            reply = protocol.recv_message(self._sock)
        except (protocol.ProtocolError, ConnectionError, OSError) as exc:
            raise ShardError(f"cache query to shard {self.name} failed: "
                             f"{exc}") from exc
        if reply.get("type") != "cache-report":
            raise ShardError(f"shard {self.name} answered a cache query "
                             f"out of protocol: {reply.get('type')!r}")
        return set(reply.get("held", []))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


class _ShardWorker(threading.Thread):
    """Drives one shard: take whole chunks, push them, requeue on death.

    A transport failure mid-batch does not retire the worker when the
    scheduler has a ``reconnect`` factory: the chunk is requeued (other
    shards steal it immediately) and the worker walks the retry
    policy's backoff schedule attempting to rejoin its shard at the
    same address — the path a restarted shard re-enters the pool by.
    """

    def __init__(self, scheduler: "ClusterScheduler", client: ShardClient):
        super().__init__(daemon=True, name=f"shard-{client.name}")
        self.scheduler = scheduler
        self.client = client
        self.address = getattr(client, "address", None)
        self.failure: ShardError | None = None

    def run(self) -> None:
        sched = self.scheduler
        chunk: list = []
        try:
            while True:
                chunk, source = sched._take(self.client.name)
                if not chunk:
                    break  # the batch is done (or aborted)
                chunk_id = sched._next_chunk_id()
                start = time.perf_counter()
                try:
                    outcomes = self.client.run_chunk(
                        chunk_id, [spec for _, spec in chunk])
                except ShardError as exc:
                    sched._requeue(chunk)
                    chunk = []
                    if self._rejoin(exc):
                        continue
                    return
                telemetry.histogram("cluster.chunk.seconds") \
                    .observe(time.perf_counter() - start)
                sched._deliver(
                    chunk, outcomes, source=source,
                    cache_hits=getattr(self.client, "last_cache_hits", 0),
                    telemetry_delta=getattr(self.client,
                                            "last_telemetry", None))
                chunk = []
        except ChunkExecutionError as exc:
            # Deterministic round failure on a live shard: retrying it
            # elsewhere would fail identically (and mask the real
            # error) — abort the whole batch like a local backend.
            sched._requeue(chunk)
            sched._abort(exc)
        except Exception as exc:
            self.failure = exc if isinstance(exc, ShardError) else \
                ShardError(f"shard {self.client.name} worker crashed: "
                           f"{exc!r}")
            if chunk:
                sched._requeue(chunk)
        finally:
            # A rejoined client is this worker's own (it is not in
            # sched.clients, which the backend closes) — release it.
            if self.client not in sched.clients:
                self.client.close()
            sched._worker_done(self)

    def _rejoin(self, exc: ShardError) -> bool:
        """Try to reconnect to this worker's shard; ``True`` on success.

        On ``False`` the worker exits; ``self.failure`` then carries
        the last error (or ``None`` when the batch simply finished on
        other shards while we were backing off — nothing was lost).
        """
        sched = self.scheduler
        self.failure = exc
        if sched.reconnect is None or isinstance(exc, ShardRejected):
            return False
        self.client.close()
        for delay in sched.retry_policy.delays(f"rejoin:{self.name}"):
            if not self._sleep_unless_finished(delay):
                self.failure = None
                return False
            try:
                client = sched.reconnect(self.address)
            except ShardRejected as refused:
                # A restarted shard that now refuses us (new context,
                # changed secret) is configuration, not weather.
                self.failure = refused
                return False
            except ShardError as again:
                self.failure = again
                continue
            self.client = client
            self.failure = None
            telemetry.counter("cluster.rejoins").inc()
            return True
        return False

    def _sleep_unless_finished(self, seconds: float) -> bool:
        """Back off for ``seconds``; ``False`` once the batch is done."""
        sched = self.scheduler
        with sched._wake:
            return not sched._wake.wait_for(sched._done, timeout=seconds)


class ClusterScheduler:
    """Stream a batch over a set of live shard clients.

    Parameters
    ----------
    clients:
        Handshaken :class:`ShardClient`\\ s (at least one).
    max_chunk:
        The deal window: no chunk holds more rounds (see the module
        docs).  Defaults to one fit window.
    reconnect:
        Optional ``address -> handshaken ShardClient`` factory.  When
        given, a worker whose shard dies walks ``retry_policy``'s
        backoff schedule calling it, so a restarted shard at the same
        address rejoins the pool mid-sweep (see the module docs).
    retry_policy:
        The :class:`~repro.resilience.RetryPolicy` governing rejoin
        attempts; defaults to ``RetryPolicy()``.
    placement:
        Optional ``shard name -> iterable of spec indices`` map of
        rounds whose results that shard's local cache tier already
        holds (from :meth:`ShardClient.query_cache`).  Placed rounds
        travel as dedicated chunks to their owner first; names that
        match no client are ignored (their rounds stay in the shared
        queue).  See the module docs: a preference, not a constraint.
    """

    def __init__(self, clients: list[ShardClient], *,
                 max_chunk: int = DEFAULT_MAX_CHUNK,
                 reconnect=None,
                 retry_policy: RetryPolicy | None = None,
                 placement: dict | None = None):
        if not clients:
            raise ClusterError("no live shards to schedule on")
        if max_chunk < 1:
            raise ValueError(f"need max_chunk >= 1, got {max_chunk}")
        self.clients = list(clients)
        self.max_chunk = int(max_chunk)
        self.reconnect = reconnect
        self.retry_policy = retry_policy or RetryPolicy()
        names = {client.name for client in self.clients}
        self._owner_of: dict[int, str] = {}
        for owner, indices in (placement or {}).items():
            if owner in names:
                for index in indices:
                    self._owner_of.setdefault(int(index), owner)
        # Whole chunks: each owner's placed backlog, and the shared queue.
        self._placed: dict[str, deque] = {}
        self._pending: deque = deque()
        self._lock = threading.Lock()
        # Idle workers wait on this; every change that can hand out a
        # chunk or end the batch notifies it.
        self._wake = threading.Condition(self._lock)
        self._results: queue.Queue = queue.Queue()
        self._chunk_counter = 0
        self._live_workers = 0
        self._in_flight = 0
        self._abort_exc: BaseException | None = None
        self.failures: list[ShardError] = []

    # -- worker-side hooks (thread-safe) -----------------------------------

    def _take(self, owner: str) -> tuple[list, str]:
        """Hand ``owner`` its next whole chunk plus where it came from.

        Own placed backlog first (a *dedicated* chunk — placed and
        queue rounds never share one, so the whole chunk answers from
        the owner's cache tier), then the shared queue, and only when
        both are empty a steal from the largest other placed backlog
        (keeping a slow or dead owner from stalling the batch).  With
        nothing to hand out, waits while another shard still holds a
        chunk: if that shard dies, its chunk is requeued and this one
        must be around to take it.  An empty chunk means the batch is
        done or aborted.
        """
        with self._wake:
            while True:
                if self._abort_exc is not None:
                    return [], "queue"
                own = self._placed.get(owner)
                if own:
                    chunk, source = own.popleft(), "own"
                elif self._pending:
                    chunk, source = self._pending.popleft(), "queue"
                else:
                    victim = max((backlog for backlog in self._placed.values()
                                  if backlog), key=len, default=None)
                    if victim is None:
                        if not self._in_flight:
                            return [], "queue"
                        self._wake.wait()
                        continue
                    chunk, source = victim.popleft(), "stolen"
                    telemetry.counter("cluster.chunks_stolen").inc()
                self._in_flight += 1
                return chunk, source

    def _requeue(self, chunk: list) -> None:
        if not chunk:
            return
        telemetry.counter("cluster.chunks_requeued").inc()
        with self._wake:
            # Requeue at the front: retried work should not gratuitously
            # fall behind fresh work in arrival order.  Placed chunks
            # requeue to the *shared* queue too — their owner just
            # demonstrated it is slow or dead, so any survivor should
            # pick them up immediately.
            self._pending.appendleft(chunk)
            self._in_flight -= 1
            self._wake.notify_all()

    def _abort(self, exc: BaseException) -> None:
        """Stop scheduling: record ``exc``, drop pending work, wake all."""
        with self._wake:
            if self._abort_exc is None:
                self._abort_exc = exc
            self._pending.clear()
            self._placed.clear()
            self._wake.notify_all()
        self._results.put(None)  # wake the consumer

    def _done(self) -> bool:
        """Aborted, or no chunk left anywhere (call with the lock held)."""
        return self._abort_exc is not None or \
            (not self._pending and not self._in_flight and
             not any(self._placed.values()))

    def _next_chunk_id(self) -> int:
        with self._lock:
            self._chunk_counter += 1
            return self._chunk_counter

    def _deliver(self, chunk: list, outcomes: list, *,
                 source: str = "queue", cache_hits: int = 0,
                 telemetry_delta: dict | None = None) -> None:
        telemetry.merge(telemetry_delta)
        if source == "own":
            telemetry.counter("cluster.placement_hits").inc(len(chunk))
        if cache_hits:
            telemetry.counter("cluster.shard_cache_hits").inc(cache_hits)
        for (index, _), outcome in zip(chunk, outcomes):
            self._results.put((index, outcome))
        with self._wake:
            self._in_flight -= 1
            self._wake.notify_all()

    def _worker_done(self, worker: _ShardWorker) -> None:
        with self._wake:
            self._live_workers -= 1
            if worker.failure is not None:
                self.failures.append(worker.failure)
            self._wake.notify_all()
        self._results.put(None)  # wake the consumer to re-check liveness

    # -- consumer side -----------------------------------------------------

    def _deal(self, items: list, workers: int) -> list[list]:
        """``items`` cut into whole chunks by the one deal rule."""
        return [[items[i] for i in chunk]
                for chunk in deal_chunks(len(items), workers,
                                         self.max_chunk)]

    def run_iter(self, specs: list):
        """Yield ``(index, outcome)`` pairs as shards complete them.

        Every index in ``range(len(specs))`` is yielded exactly once;
        raises :class:`ClusterError` if all shards die first.
        """
        specs = list(specs)
        if not specs:
            return
        shared: list = []
        placed: dict[str, list] = {}
        for index, spec in enumerate(specs):
            owner = self._owner_of.get(index)
            if owner is None:
                shared.append((index, spec))
            else:
                placed.setdefault(owner, []).append((index, spec))
        with self._lock:
            self._pending.extend(self._deal(shared, len(self.clients)))
            for owner, items in placed.items():
                self._placed[owner] = deque(self._deal(items, 1))
                telemetry.counter("cluster.placed_rounds").inc(len(items))
            self._live_workers = len(self.clients)
        workers = [_ShardWorker(self, client) for client in self.clients]
        for worker in workers:
            worker.start()

        done = set()
        try:
            while len(done) < len(specs):
                item = self._results.get()
                with self._lock:
                    abort = self._abort_exc
                if abort is not None:
                    # A healthy shard reported a deterministic round
                    # failure — surface it like a local backend would.
                    raise abort
                if item is None:
                    # A worker exited.  Sentinels are queue-ordered
                    # only against their *own* worker's deliveries: a
                    # fast survivor can finish and exit while an
                    # earlier-died worker's sentinel is still ahead of
                    # the survivor's results in the queue.  Once the
                    # live count reads zero, though, every worker has
                    # already enqueued everything it ever will — so
                    # drain and yield what is there, and only then is
                    # anything still missing genuinely lost work.
                    with self._lock:
                        alive = self._live_workers
                    if alive > 0:
                        continue
                    while len(done) < len(specs):
                        try:
                            tail = self._results.get_nowait()
                        except queue.Empty:
                            break
                        if tail is None:
                            continue
                        index, outcome = tail
                        if index in done:
                            continue
                        done.add(index)
                        yield index, outcome
                    if len(done) < len(specs):
                        raise ClusterError(
                            f"all shards failed with "
                            f"{len(specs) - len(done)} rounds "
                            "outstanding: " + "; ".join(
                                str(f) for f in self.failures))
                    continue
                index, outcome = item
                if index in done:
                    continue  # retried chunk double-delivered: first wins
                done.add(index)
                yield index, outcome
        finally:
            # Covers normal completion, errors, *and* an abandoned
            # stream (generator closed early): stop handing out work so
            # workers exit after their current chunk instead of
            # executing the rest of the batch nobody will read.
            if len(done) < len(specs):
                self._abort(ClusterError("stream abandoned"))
            for worker in workers:
                worker.join(timeout=5.0)
