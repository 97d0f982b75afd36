"""Wire protocol of the cluster evaluation service.

One message = an 8-byte big-endian length prefix followed by a UTF-8
JSON object.  Length-prefixed framing keeps the stream self-describing
over plain TCP: a reader always knows exactly how many bytes the next
message occupies, so partial reads are retried and a connection that
dies mid-message is distinguishable (``ConnectionClosed``) from a
malformed one (``ProtocolError``: a frame over its size cap, a payload
that is not JSON, or JSON that is not an object with a string
``"type"``).  Decoding is ``json`` only, so a frame can carry data but
never code.

The frames carry the serialisation the disk tiers already use: round
specs as :func:`~repro.engine.spec.round_to_obj` objects (the defence,
attack and victim codecs of study documents and archive rows) and
outcomes as :func:`~repro.engine.cache.outcome_to_dict` dicts (the
bytes a cache entry stores).  The shard client and server encode and
decode at the edge, so callers pass round specs and get evaluation
outcomes back, bit-identical to the serial backend's.

Message shapes (all JSON objects with a ``"type"`` key):

* ``hello``   — client -> shard: ``{protocol, fingerprint, schema}``
  plus an optional ``auth`` digest (below).  The shard compares all
  three against its own values and answers ``welcome`` (with its
  host/pid/capacity) or ``reject`` with a reason.  A shard therefore
  *refuses* to evaluate rounds for a context it does not hold — the
  content-fingerprint handshake that makes a mixed-version or
  mixed-context fleet fail loudly instead of returning subtly wrong
  results.  Another ``protocol`` version is refused by a reply naming
  both versions.  The first frame of a connection may not exceed
  :data:`MAX_HANDSHAKE_BYTES`, checked against its header before the
  body is read.
* **auth** — when both ends hold the shared secret
  (``REPRO_CLUSTER_SECRET``), the hello carries
  ``auth = HMAC-SHA256(secret, "client:" + protocol:fingerprint:schema)``
  and the welcome answers with the ``"shard:"``-tagged digest over the
  same material, so authentication is *mutual* in the existing single
  round trip.  A shard with a secret rejects clients without a
  matching digest (and vice versa: a secret-holding client refuses a
  welcome whose digest is absent or wrong); a shard *without* a secret
  rejects clients that send one, so a half-configured fleet fails
  loudly instead of silently running open.  The digest binds the
  handshake fields, not the chunk stream — this authenticates *who may
  submit work*, it is not transport encryption (deploy on a trusted
  network or under a TLS tunnel for that).
* ``run``     — client -> shard: ``{chunk_id, specs}``, the specs as
  ``round_to_obj`` objects.  Answered by ``result`` (``{chunk_id,
  outcomes}``, ``outcome_to_dict`` dicts in spec order) or ``error``
  (``{chunk_id, message}`` — the chunk's specs did not decode or its
  rounds raised; the shard survives).
* ``cache-query`` — client -> shard, post-handshake: ``{keys}``, a
  list of canonical round keys (see
  :func:`~repro.engine.cache.round_keys`).  Answered by
  ``cache-report`` (``{held}``): the subset of the keys the shard's
  local result-cache tier already holds.  Because the handshake
  already pinned the context fingerprint *and* the cache schema
  version, a held key names bit-identical content on both ends — that
  is what lets the scheduler route held rounds to the holding shard
  and serve them from its disk tier without recomputing.  A shard without a cache tier answers with
  an empty ``held`` list.
* ``info`` — a *pre-handshake* alternative to ``hello``: the operator
  tools (``repro-cache info --shard``, ``repro-cluster stats``) asking
  for a shard's stats without knowing the context fingerprint the full
  handshake would require.  Carries ``{protocol, schema}`` plus the
  usual ``auth`` digest when a secret is configured (computed over the
  literal fingerprint string :data:`INFO_FINGERPRINT`, so a captured
  hello digest cannot be replayed as a probe).  Answered by
  ``info-report`` (``{cache, metrics}``: the cache tier's stats and the
  shard's metrics snapshot, each with the shard's fingerprint) and the
  connection closes — the probe never reaches the chunk-execution
  state machine.
* **metrics deltas** — shards *piggyback* a metrics delta on every
  ``result`` message (optional ``telemetry`` field), so routine runs
  need no extra round trips.  The ``welcome`` carries the shard
  process's telemetry ``token``; a client whose own token matches (a
  shard in its own process, sharing its registry) does not merge the
  delta, so counts cross process boundaries only.
* ``ping``    — liveness probe, answered by ``pong``.

No frame stops a shard: deployments and the localhost autospawn pool
stop shards by signal (SIGTERM shuts one down gracefully).

The handshake's ``schema`` field carries the cache schema version, so
two builds that disagree on what a round *is* never exchange results.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
import socket
import struct

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "MAX_HANDSHAKE_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "enable_keepalive",
    "send_message",
    "recv_message",
    "compute_auth",
    "verify_auth",
    "hello",
    "welcome",
    "reject",
    "run_chunk",
    "chunk_result",
    "chunk_error",
    "cache_query",
    "cache_report",
    "info",
    "info_report",
    "INFO_FINGERPRINT",
]

# v2: JSON frames and one pre-handshake ``info`` probe.  A v1 peer
# (pickled frames) is refused by name, never decoded.
PROTOCOL_VERSION = 2

# 8-byte length prefix: big enough for any batch, fixed-size to parse.
_HEADER = struct.Struct(">Q")

# A message larger than this is a framing error, not a real payload
# (the largest legitimate message — a chunk of specs or outcomes — is
# a few hundred KB).  Guards against interpreting garbage as a length.
MAX_MESSAGE_BYTES = 1 << 30

# The cap on a connection's first frame, read before any peer is
# authenticated: a hello with an auth digest is about 200 bytes.
MAX_HANDSHAKE_BYTES = 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not a protocol message."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (possibly mid-message)."""


def enable_keepalive(sock: socket.socket) -> None:
    """Turn on OS TCP keepalive with aggressive-ish probe timing.

    Both ends of the protocol wait on blocking sockets (a round may
    legitimately outlast any fixed timer), so a peer that vanishes
    *silently* — host loss, network partition, no RST — must be reaped
    by the OS: probe an idle connection after 30s, every 10s, give up
    after 3 misses (≈1 minute to declare the peer dead).  The timing
    options are platform-specific; keepalive itself is the part that
    matters.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 10),
                          ("TCP_KEEPCNT", 3)):
        if hasattr(socket, option):
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                getattr(socket, option), value)
            except OSError:  # pragma: no cover - exotic platforms
                pass


def send_message(sock: socket.socket, message: dict) -> None:
    """Frame and send one message dict."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {n} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket,
                 max_bytes: int = MAX_MESSAGE_BYTES) -> dict:
    """Receive one framed message dict (blocking).

    A frame longer than ``max_bytes`` is refused from its header alone,
    before any of its body is read.
    """
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > max_bytes:
        raise ProtocolError(f"message of {length} bytes exceeds the "
                            f"{max_bytes}-byte frame limit")
    payload = _recv_exact(sock, length)
    try:
        message = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable message payload: {exc}") from exc
    if not isinstance(message, dict) or \
            not isinstance(message.get("type"), str):
        raise ProtocolError(f"malformed message: {payload[:80]!r}")
    return message


# -- shared-secret auth ------------------------------------------------------


def compute_auth(secret: str, role: str, fingerprint: str,
                 schema: int) -> str:
    """The HMAC digest one end presents in the handshake.

    ``role`` is ``"client"`` (hello) or ``"shard"`` (welcome): tagging
    the direction keeps a captured hello digest from being replayed
    back as a welcome.
    """
    material = f"{role}:{PROTOCOL_VERSION}:{fingerprint}:{int(schema)}"
    return _hmac.new(secret.encode("utf-8"), material.encode("utf-8"),
                     hashlib.sha256).hexdigest()


def verify_auth(secret: str, role: str, fingerprint: str, schema: int,
                auth) -> bool:
    """Constant-time check of a presented handshake digest."""
    if not isinstance(auth, str):
        return False
    expected = compute_auth(secret, role, fingerprint, schema)
    return _hmac.compare_digest(expected, auth)


# -- message constructors ----------------------------------------------------


def hello(fingerprint: str, schema: int, *, secret: str | None = None) -> dict:
    """The client side of the content-fingerprint handshake."""
    message = {"type": "hello", "protocol": PROTOCOL_VERSION,
               "fingerprint": str(fingerprint), "schema": int(schema)}
    if secret:
        message["auth"] = compute_auth(secret, "client",
                                       str(fingerprint), int(schema))
    return message


def welcome(fingerprint: str, *, host: str, pid: int, capacity: int,
            schema: int | None = None, secret: str | None = None,
            token: str | None = None) -> dict:
    """Shard accepts: it holds the same context (and schema).  ``token``
    is its :func:`repro.telemetry.process_token`."""
    message = {"type": "welcome", "fingerprint": str(fingerprint),
               "host": str(host), "pid": int(pid), "capacity": int(capacity)}
    if token:
        message["token"] = str(token)
    if secret:
        message["auth"] = compute_auth(secret, "shard", str(fingerprint),
                                       int(schema or 0))
    return message


def reject(reason: str) -> dict:
    """Shard refuses the handshake; ``reason`` is human-readable."""
    return {"type": "reject", "reason": str(reason)}


def run_chunk(chunk_id: int, specs: list) -> dict:
    """Push one chunk of round specs (``round_to_obj`` objects)."""
    return {"type": "run", "chunk_id": int(chunk_id), "specs": list(specs)}


def chunk_result(chunk_id: int, outcomes: list, *,
                 cache_hits: int = 0, telemetry: dict | None = None) -> dict:
    """A completed chunk, ``outcome_to_dict`` dicts aligned with the
    request's specs.

    ``cache_hits`` counts the outcomes served from the shard's local
    result-cache tier rather than recomputed — what the scheduler adds
    to its ``cluster.shard_cache_hits`` counter.  ``telemetry``
    piggybacks the shard's metrics delta (see
    :meth:`repro.telemetry.metrics.MetricsRegistry.flush_delta`) so the
    client's registry covers shard-side stage timings with zero extra
    round trips.  Both fields are omitted when empty.
    """
    message = {"type": "result", "chunk_id": int(chunk_id),
               "outcomes": list(outcomes)}
    if cache_hits:
        message["cache_hits"] = int(cache_hits)
    if telemetry:
        message["telemetry"] = dict(telemetry)
    return message


def chunk_error(chunk_id: int, message: str) -> dict:
    """A failed chunk (the shard survives; the client decides what next)."""
    return {"type": "error", "chunk_id": int(chunk_id),
            "message": str(message)}


# -- shard cache tier --------------------------------------------------------


def cache_query(keys) -> dict:
    """Ask a handshaken shard which of these round keys it holds."""
    return {"type": "cache-query", "keys": [str(k) for k in keys]}


def cache_report(held) -> dict:
    """The shard's answer: the held subset of the queried keys."""
    return {"type": "cache-report", "held": [str(k) for k in held]}


# -- operator probe ----------------------------------------------------------

# The literal "fingerprint" a pre-handshake info probe signs its auth
# digest over: the prober does not know the shard's context, and a
# fixed tag keeps the digest domain-separated from real handshakes.
INFO_FINGERPRINT = "info"


def info(schema: int, *, secret: str | None = None) -> dict:
    """Pre-handshake stats probe (``repro-cache info --shard``,
    ``repro-cluster stats``)."""
    message = {"type": "info", "protocol": PROTOCOL_VERSION,
               "schema": int(schema)}
    if secret:
        message["auth"] = compute_auth(secret, "client", INFO_FINGERPRINT,
                                       int(schema))
    return message


def info_report(cache: dict, metrics: dict) -> dict:
    """A shard's cache-tier stats and metrics snapshot."""
    return {"type": "info-report", "cache": dict(cache),
            "metrics": dict(metrics)}
