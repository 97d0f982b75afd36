"""`ClusterBackend` — the engine backend that fans rounds out to shards.

Registered under ``"cluster"`` (``EvaluationEngine("cluster")``,
``REPRO_BACKEND=cluster``, ``--backend cluster``).  Config:

* ``shards=``/``REPRO_CLUSTER_SHARDS`` — comma- or space-separated
  ``host:port`` addresses of running shard servers (see
  :mod:`repro.cluster.server`).
* with **no shards configured**, the backend autospawns ``jobs``
  (default 2) local shard servers on the loopback interface, one
  process per shard, handing each the pickled context — so
  ``REPRO_BACKEND=cluster`` works out of the box on one machine and
  the CI localhost job needs no orchestration.  The pool is keyed by
  context fingerprint: a new context tears the old shards down and
  spawns matching ones.
* ``REPRO_CLUSTER_TIMEOUT`` (connect + handshake; chunk results are
  waited for on a blocking keepalive socket — see
  :class:`~repro.cluster.scheduler.ShardClient`) /
  ``REPRO_CLUSTER_MIN_CHUNK`` / ``REPRO_CLUSTER_MAX_CHUNK`` /
  ``REPRO_CLUSTER_TARGET_SECONDS`` — scheduler knobs.  All env knobs
  are validated at parse time (an unparseable value raises naming the
  variable) and clamped into documented sane ranges.
* ``REPRO_CLUSTER_SECRET`` — shared handshake secret; when set, both
  ends prove possession via mutual HMAC digests and mismatches are
  refused by name (see :mod:`repro.cluster.protocol`).
* ``REPRO_CLUSTER_RETRIES`` / ``REPRO_CLUSTER_BACKOFF`` — the
  connect/handshake (and mid-sweep rejoin) retry budget: exponential
  backoff with deterministic jitter
  (:class:`~repro.resilience.RetryPolicy`).  Handshake *refusals*
  (auth, fingerprint, schema) are configuration and are never retried.
* ``REPRO_CLUSTER_FALLBACK`` (default on) — graceful degradation: if
  every shard is dead past its retry budget, the batch falls back to
  the in-process serial backend with a :class:`ClusterDegradedWarning`
  instead of failing the run.  Refusals never degrade — silently
  computing locally would mask a misconfigured fleet.
* ``REPRO_CLUSTER_PLACEMENT`` (default on) — cache-aware placement:
  before distributing a batch the backend sends each shard a
  ``cache-query`` with the batch's canonical round keys and routes
  held rounds to the shard that holds them (least-loaded among
  holders), so a warm fleet answers them from its disk tier without
  recompute.  Off, or against shards without a cache tier, everything
  flows through the plain work-stealing queue.
* ``REPRO_SHARD_CACHE_DIR`` / ``REPRO_SHARD_CACHE_MAX_ENTRIES`` —
  read by the *shard server* (and therefore inherited by autospawned
  localhost shards): directory of the shard-local
  :class:`~repro.engine.cache.ResultCache` disk tier that computed
  rounds stream into as they land, and the LRU cap of its in-memory
  tier.  Unset means no shard cache (see
  :mod:`repro.cluster.server`).

Every batch opens one connection per shard, performs the
content-fingerprint handshake (a shard holding a different context —
or a different cache schema — refuses, loudly), and streams chunks
through the :class:`~repro.cluster.scheduler.ClusterScheduler`.  The
determinism contract of :mod:`repro.engine.backends` does the rest:
outcomes are bit-identical to the serial backend whatever the
sharding, chunking, arrival order — or fault/degradation path.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import tempfile
import time
import warnings

from repro.cluster.scheduler import (
    DEFAULT_MAX_CHUNK,
    DEFAULT_MIN_CHUNK,
    DEFAULT_TARGET_SECONDS,
    DEFAULT_TIMEOUT,
    ClusterError,
    ClusterScheduler,
    ShardClient,
    ShardError,
    ShardRejected,
)
from repro.engine.backends import EvaluationBackend, SerialBackend
from repro.engine.cache import cache_schema_version, round_keys
from repro.resilience import RetryPolicy, env_bool, env_float, env_int

__all__ = ["ClusterBackend", "ClusterDegradedWarning", "LocalShardPool",
           "parse_shard_addresses", "shared_local_pool",
           "close_local_pools"]


class ClusterDegradedWarning(RuntimeWarning):
    """The cluster was unreachable; the batch ran on the serial backend."""

_SPAWN_READY_TIMEOUT = 120.0  # cold interpreter + context load, generous


def parse_shard_addresses(text: str | None) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (commas or whitespace) to tuples."""
    if not text:
        return []
    addresses = []
    for token in text.replace(",", " ").split():
        host, sep, port = token.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"bad shard address {token!r}: expected host:port")
        try:
            addresses.append((host, int(port)))
        except ValueError:
            raise ValueError(
                f"bad shard address {token!r}: port {port!r} is not an "
                "integer") from None
    return addresses


class LocalShardPool:
    """Autospawned localhost shard servers for one context.

    Writes the context to a temp file, launches
    ``python -m repro.cluster`` per shard on an OS-assigned
    port, and parses each READY line for the address.  ``close()``
    (also registered atexit) terminates the processes and removes the
    temp file.
    """

    def __init__(self, ctx, n_shards: int, *, jobs_per_shard: int = 1,
                 secret: str | None = None):
        from repro.experiments.runner import save_context

        self.fingerprint = ctx.fingerprint()
        self.processes: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []
        fd, self._context_file = tempfile.mkstemp(
            prefix="repro-cluster-ctx-", suffix=".pkl")
        os.close(fd)
        atexit.register(self.close)
        try:
            save_context(ctx, self._context_file)
            env = dict(os.environ)
            # Children must import the same repro package as the parent
            # regardless of how it got onto *our* path.
            import repro

            pkg_root = os.path.dirname(os.path.dirname(
                os.path.abspath(repro.__file__)))
            env["PYTHONPATH"] = pkg_root + os.pathsep + \
                env.get("PYTHONPATH", "")
            if secret:
                # A constructor-passed secret must reach autospawned
                # shards too, not only env-configured ones.
                env["REPRO_CLUSTER_SECRET"] = secret
            for _ in range(n_shards):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cluster",
                     "--context-file", self._context_file,
                     "--host", "127.0.0.1", "--port", "0",
                     "--jobs", str(jobs_per_shard)],
                    stdout=subprocess.PIPE, env=env, text=True,
                )
                self.processes.append(proc)
            for proc in self.processes:
                self.addresses.append(self._await_ready(proc))
        except BaseException:
            self.close()
            raise

    def _await_ready(self, proc: subprocess.Popen) -> tuple[str, int]:
        import select

        deadline = time.monotonic() + _SPAWN_READY_TIMEOUT
        line = ""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(
                    "autospawned shard never became READY within "
                    f"{_SPAWN_READY_TIMEOUT:.0f}s (last line: {line!r})")
            # Wait on the pipe with a bounded select — a blocking
            # readline() would make this deadline unenforceable against
            # a shard that wedges before printing anything.
            readable, _, _ = select.select([proc.stdout], [], [],
                                           min(remaining, 0.5))
            if readable:
                line = proc.stdout.readline()
                if line.startswith("READY "):
                    fields = dict(part.split("=", 1)
                                  for part in line.split()[1:])
                    return (fields["host"], int(fields["port"]))
                if line:
                    continue  # stray output before READY
            # EOF or nothing yet: only now consult the exit status, so
            # a shard that printed READY and died later is not
            # misreported as "exited before READY".
            if proc.poll() is not None:
                raise ClusterError(
                    f"autospawned shard exited with code "
                    f"{proc.returncode} before READY")

    def close(self) -> None:
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
            if proc.stdout is not None:
                proc.stdout.close()
        self.processes = []
        try:
            os.unlink(self._context_file)
        except OSError:
            pass


# Autospawned pools are shared process-wide, keyed by context
# fingerprint, so N engines over the same context reuse one set of
# localhost shards instead of each leaking its own.  Small LRU: old
# contexts' pools are torn down as new ones arrive.
_LOCAL_POOLS: "dict[str, LocalShardPool]" = {}
_MAX_LOCAL_POOLS = 2


def shared_local_pool(ctx, n_shards: int,
                      secret: str | None = None) -> LocalShardPool:
    """The process-wide autospawned pool for ``ctx`` (created on miss)."""
    fingerprint = ctx.fingerprint()
    pool = _LOCAL_POOLS.get(fingerprint)
    if pool is not None:
        if len(pool.addresses) >= n_shards and \
                all(p.poll() is None for p in pool.processes):
            return pool
        pool.close()
        del _LOCAL_POOLS[fingerprint]
    pool = LocalShardPool(ctx, n_shards, secret=secret)
    _LOCAL_POOLS[fingerprint] = pool
    while len(_LOCAL_POOLS) > _MAX_LOCAL_POOLS:
        oldest = next(iter(_LOCAL_POOLS))
        _LOCAL_POOLS.pop(oldest).close()
    return pool


def close_local_pools() -> None:
    """Tear down every autospawned localhost pool now (atexit otherwise)."""
    while _LOCAL_POOLS:
        _, pool = _LOCAL_POOLS.popitem()
        pool.close()


class ClusterBackend(EvaluationBackend):
    """Shard round batches across remote (or autospawned) shard servers.

    Parameters
    ----------
    jobs:
        With configured shards: ignored.  Without: how many localhost
        shards to autospawn (default 2).
    shards:
        ``host:port`` pairs / strings, or ``None`` to read
        ``REPRO_CLUSTER_SHARDS`` (and autospawn when that is unset).
    secret, retries, backoff, fallback:
        Resilience knobs; ``None`` reads ``REPRO_CLUSTER_SECRET`` /
        ``_RETRIES`` / ``_BACKOFF`` / ``_FALLBACK`` (see module docs).
    placement:
        Cache-aware placement toggle; ``None`` reads
        ``REPRO_CLUSTER_PLACEMENT`` (default on — see module docs).
    """

    name = "cluster"

    def __init__(self, jobs: int | None = None, *, shards=None,
                 timeout: float | None = None,
                 min_chunk: int | None = None,
                 max_chunk: int | None = None,
                 target_seconds: float | None = None,
                 secret: str | None = None,
                 retries: int | None = None,
                 backoff: float | None = None,
                 fallback: bool | None = None,
                 placement: bool | None = None):
        if shards is None:
            shards = os.environ.get("REPRO_CLUSTER_SHARDS")
        if isinstance(shards, str):
            shards = parse_shard_addresses(shards)
        self.shards = [(str(h), int(p)) for h, p in (shards or [])]
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        # Clamp ranges are operational guard-rails (a week-long timeout
        # or a 0 min_chunk wedges the service, it doesn't mean anything).
        self.timeout = timeout if timeout is not None else \
            env_float("REPRO_CLUSTER_TIMEOUT", DEFAULT_TIMEOUT,
                      lo=0.01, hi=3600.0)
        self.min_chunk = min_chunk if min_chunk is not None else \
            env_int("REPRO_CLUSTER_MIN_CHUNK", DEFAULT_MIN_CHUNK,
                    lo=1, hi=4096)
        self.max_chunk = max_chunk if max_chunk is not None else \
            env_int("REPRO_CLUSTER_MAX_CHUNK", DEFAULT_MAX_CHUNK,
                    lo=1, hi=8192)
        self.max_chunk = max(self.max_chunk, self.min_chunk)
        self.target_seconds = target_seconds if target_seconds is not None \
            else env_float("REPRO_CLUSTER_TARGET_SECONDS",
                           DEFAULT_TARGET_SECONDS, lo=0.01, hi=600.0)
        if secret is None:
            secret = os.environ.get("REPRO_CLUSTER_SECRET")
        self.secret = secret or None
        if retries is None:
            retries = env_int("REPRO_CLUSTER_RETRIES", 3, lo=0, hi=100)
        if backoff is None:
            backoff = env_float("REPRO_CLUSTER_BACKOFF", 0.05,
                                lo=0.0, hi=60.0)
        self.retry_policy = RetryPolicy(retries=int(retries),
                                        backoff=float(backoff))
        self.fallback = env_bool("REPRO_CLUSTER_FALLBACK", True) \
            if fallback is None else bool(fallback)
        self.placement = env_bool("REPRO_CLUSTER_PLACEMENT", True) \
            if placement is None else bool(placement)
        self._pool: LocalShardPool | None = None
        self._last_scheduler: ClusterScheduler | None = None
        self._last_telemetry: dict | None = None

    # -- shard management --------------------------------------------------

    def _addresses(self, ctx) -> list[tuple[str, int]]:
        if self.shards:
            return self.shards
        self._pool = shared_local_pool(ctx, self.jobs or 2,
                                       secret=self.secret)
        return self._pool.addresses

    def _connect_one(self, address, fingerprint, schema) -> ShardClient:
        """One connect + handshake attempt; the client is closed on
        handshake failure (no half-open sockets leak out of here)."""
        client = ShardClient(address, timeout=self.timeout,
                             secret=self.secret)
        try:
            client.handshake(fingerprint, schema)
        except BaseException:
            client.close()
            raise
        return client

    def _connect_with_retry(self, address, fingerprint,
                            schema) -> ShardClient:
        """Connect + handshake, walking the retry budget on transport
        failures.  :class:`ShardRejected` propagates immediately — a
        refusal is configuration, and configuration does not fix itself
        on retry."""
        name = f"{address[0]}:{address[1]}"
        last: ShardError | None = None
        delays = iter(self.retry_policy.delays(f"connect:{name}"))
        while True:
            try:
                return self._connect_one(address, fingerprint, schema)
            except ShardRejected:
                raise
            except ShardError as exc:
                last = exc
            try:
                delay = next(delays)
            except StopIteration:
                raise last
            time.sleep(delay)

    def _connect(self, ctx) -> list[ShardClient]:
        fingerprint = ctx.fingerprint()
        schema = cache_schema_version()
        clients: list[ShardClient] = []
        failures: list[ShardError] = []
        for address in self._addresses(ctx):
            try:
                clients.append(self._connect_with_retry(
                    address, fingerprint, schema))
            except ShardError as exc:
                failures.append(exc)
        if not clients:
            error = ClusterError(
                "no shard accepted the batch: " +
                ("; ".join(str(f) for f in failures)
                 if failures else "no shards configured"))
            # Degradation must not mask a misconfigured fleet: flag the
            # all-refusals case so run_iter raises instead of silently
            # computing locally.
            error.rejected_only = bool(failures) and all(
                isinstance(f, ShardRejected) for f in failures)
            raise error
        return clients

    def close(self) -> None:
        """Tear down the autospawned localhost pools.

        The pools are shared process-wide (see :func:`shared_local_pool`),
        so this closes them for every engine in the process — call it
        when you are done with cluster evaluation, not between batches.
        """
        self._pool = None
        close_local_pools()

    # -- EvaluationBackend -------------------------------------------------

    def run_iter(self, ctx, specs):
        specs = list(specs)
        if not specs:
            return
        done: set[int] = set()
        try:
            clients = self._connect(ctx)
        except ClusterError as exc:
            yield from self._degrade_or_raise(ctx, specs, done, exc)
            return
        fingerprint = ctx.fingerprint()
        schema = cache_schema_version()
        scheduler = ClusterScheduler(
            clients, min_chunk=self.min_chunk,
            max_chunk=self.max_chunk,
            target_seconds=self.target_seconds,
            reconnect=lambda address: self._connect_one(
                address, fingerprint, schema),
            retry_policy=self.retry_policy,
            placement=self._build_placement(clients, fingerprint, specs))
        self._last_scheduler = scheduler
        try:
            stream = scheduler.run_iter(specs)
            while True:
                try:
                    index, outcome = next(stream)
                except StopIteration:
                    return
                except ClusterError as exc:
                    # Mid-sweep total loss: every shard died past its
                    # rejoin budget with work still outstanding.
                    yield from self._degrade_or_raise(ctx, specs, done,
                                                      exc)
                    return
                done.add(index)
                yield index, outcome
        finally:
            self._last_telemetry = scheduler.stats()
            for client in clients:
                client.close()

    def _build_placement(self, clients, fingerprint,
                         specs) -> dict | None:
        """Ask each shard which rounds it already holds; assign each
        held round to the least-loaded holder.  A shard whose query
        fails in transport is treated as holding nothing — if it is
        truly dead, the scheduler's failover discovers that on its own
        terms."""
        if not self.placement:
            return None
        keys = round_keys(fingerprint, specs)
        held_by: list[set] = []
        for client in clients:
            try:
                held, _ = client.query_cache(keys)
            except ShardError:
                held = set()
            held_by.append(held)
        if not any(held_by):
            return None
        placement: dict[str, list[int]] = {}
        loads = [0] * len(clients)
        for index, key in enumerate(keys):
            holders = [i for i, held in enumerate(held_by) if key in held]
            if not holders:
                continue
            best = min(holders, key=loads.__getitem__)
            loads[best] += 1
            placement.setdefault(clients[best].name, []).append(index)
        return placement

    def batch_telemetry(self) -> dict | None:
        """Scheduler stats of the most recent batch (returned once).

        The engine merges this into its ``batch_log`` entry; returning
        and clearing keeps one batch's placement counters from being
        attributed to the next."""
        telemetry, self._last_telemetry = self._last_telemetry, None
        return telemetry

    def _degrade_or_raise(self, ctx, specs, done, exc):
        """Finish ``specs`` minus ``done`` on the serial backend — or
        re-raise ``exc`` when degradation is off or the cluster merely
        *refused* us (see module docs)."""
        if not self.fallback or getattr(exc, "rejected_only", False):
            raise exc
        remaining = [i for i in range(len(specs)) if i not in done]
        warnings.warn(ClusterDegradedWarning(
            f"cluster unreachable ({exc}); degrading: running the "
            f"remaining {len(remaining)} of {len(specs)} rounds on the "
            f"serial backend"), stacklevel=3)
        serial = SerialBackend()
        for position, outcome in serial.run_iter(
                ctx, [specs[i] for i in remaining]):
            yield remaining[position], outcome
