"""Wire-protocol tests: JSON framing, caps, named errors, codecs."""

import json
import pickle
import socket
import struct
import threading

import pytest

from repro.cluster import protocol
from repro.cluster.scheduler import ShardClient
from repro.defenses.base import DefenseReport
from repro.engine import (AttackSpec, DefenseSpec, RoundSpec, VictimSpec,
                          cache_schema_version, round_key)
from repro.engine.cache import outcome_from_dict, outcome_to_dict
from repro.engine.spec import (registered_attack_kinds,
                               registered_defense_kinds,
                               registered_victim_kinds, round_from_obj,
                               round_to_obj)
from repro.experiments.runner import EvaluationOutcome


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def _frame(payload: bytes) -> bytes:
    return struct.pack(">Q", len(payload)) + payload


class TestFraming:
    def test_roundtrip(self):
        a, b = _pair()
        try:
            message = {"type": "hello", "payload": list(range(100)),
                       "nested": {"x": 1.5}}
            protocol.send_message(a, message)
            assert protocol.recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_multiple_messages_stay_separate(self):
        a, b = _pair()
        try:
            for i in range(5):
                protocol.send_message(a, {"type": "ping", "i": i})
            for i in range(5):
                assert protocol.recv_message(b)["i"] == i
        finally:
            a.close()
            b.close()

    def test_closed_mid_message_raises_connection_closed(self):
        a, b = _pair()
        try:
            payload = json.dumps({"type": "x"}).encode()
            # a full header promising more bytes than ever arrive
            a.sendall(struct.pack(">Q", len(payload) + 10) + payload)
            a.close()
            with pytest.raises(protocol.ConnectionClosed,
                               match=f"10 of {len(payload) + 10} bytes"):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_eof_raises_connection_closed(self):
        a, b = _pair()
        a.close()
        try:
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_garbage_payload_raises_protocol_error(self):
        a, b = _pair()
        try:
            a.sendall(_frame(b"this is not JSON"))
            with pytest.raises(protocol.ProtocolError, match="undecodable"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_dict_payload_raises_protocol_error(self):
        a, b = _pair()
        try:
            for payload in (b"[1, 2, 3]", b'{"no": "type"}', b'{"type": 7}'):
                a.sendall(_frame(payload))
                with pytest.raises(protocol.ProtocolError,
                                   match="malformed message"):
                    protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_refused(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack(">Q", protocol.MAX_MESSAGE_BYTES + 1))
            with pytest.raises(protocol.ProtocolError, match="frame limit"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_large_message_crosses_socket_buffers(self):
        """Messages far beyond one TCP buffer arrive intact (the send
        and recv loops genuinely handle partial transfers)."""
        a, b = _pair()
        try:
            message = {"type": "run", "blob": "x" * (4 << 20)}
            thread = threading.Thread(
                target=protocol.send_message, args=(a, message))
            thread.start()
            received = protocol.recv_message(b)
            thread.join(timeout=10.0)
            assert received == message
        finally:
            a.close()
            b.close()


class TestNoPickle:
    def test_pickled_frame_runs_no_code(self, tmp_path, shard_farm):
        """A pickle whose ``__reduce__`` would create a file is refused
        as undecodable, by the framing and by a live shard; the file
        never appears."""
        marker = tmp_path / "marker"

        class Payload:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        frame = _frame(pickle.dumps({"type": "hello", "x": Payload()}))
        a, b = _pair()
        try:
            a.sendall(frame)
            with pytest.raises(protocol.ProtocolError, match="undecodable"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()
        [address] = shard_farm(1)
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(frame)
            reply = protocol.recv_message(sock)
        assert reply["type"] == "reject"
        assert "protocol error" in reply["reason"]
        assert not marker.exists()


class TestHandshakeCap:
    def test_handshake_messages_fit_the_cap(self):
        for message in (protocol.hello("f" * 64, 3, secret="s"),
                        protocol.info(3, secret="s")):
            size = len(json.dumps(message, separators=(",", ":")))
            assert size <= protocol.MAX_HANDSHAKE_BYTES

    def test_over_cap_frame_refused_from_its_header(self, shard_farm):
        """Only the header is ever sent: the refusal cannot have waited
        for a body."""
        a, b = _pair()
        try:
            a.sendall(struct.pack(">Q", protocol.MAX_HANDSHAKE_BYTES + 1))
            with pytest.raises(protocol.ProtocolError, match="frame limit"):
                protocol.recv_message(b, protocol.MAX_HANDSHAKE_BYTES)
        finally:
            a.close()
            b.close()
        [address] = shard_farm(1)
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">Q", protocol.MAX_HANDSHAKE_BYTES + 1))
            reply = protocol.recv_message(sock)
        assert reply["type"] == "reject"
        assert f"{protocol.MAX_HANDSHAKE_BYTES}-byte frame limit" in \
            reply["reason"]


def _handshaken(address, ctx):
    sock = socket.create_connection(address, timeout=5.0)
    protocol.send_message(sock, protocol.hello(ctx.fingerprint(),
                                               cache_schema_version()))
    assert protocol.recv_message(sock)["type"] == "welcome"
    return sock


class TestNamedErrors:
    """Each malformed input gets a named error, and the same live shard
    then serves a normal client."""

    @pytest.mark.parametrize("payload, reason", [
        (b"\x80\x05 not JSON", "undecodable message payload"),
        (b"[1, 2, 3]", "malformed message"),
        (json.dumps({"type": "hello", "protocol": protocol.PROTOCOL_VERSION,
                     "fingerprint": "f" * 64, "schema": "3"}).encode(),
         "malformed hello"),
    ], ids=["non-json", "non-object", "string-schema"])
    def test_first_frame_refused_by_name(self, cluster_ctx, shard_farm,
                                         payload, reason):
        [address] = shard_farm(1)
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(_frame(payload))
            reply = protocol.recv_message(sock)
        assert reply["type"] == "reject"
        assert reason in reply["reason"]
        self._still_serves(address, cluster_ctx)

    def test_truncated_frame(self, cluster_ctx, shard_farm):
        [address] = shard_farm(1)
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">Q", 64) + b'{"type": "hel')
            sock.shutdown(socket.SHUT_WR)
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(sock)
        self._still_serves(address, cluster_ctx)

    def test_run_without_seed_is_an_error_reply(self, cluster_ctx,
                                                shard_farm):
        [address] = shard_farm(1)
        spec = round_to_obj(RoundSpec(seed=5))
        del spec["seed"]
        with _handshaken(address, cluster_ctx) as sock:
            protocol.send_message(sock, protocol.run_chunk(4, [spec]))
            reply = protocol.recv_message(sock)
            assert reply["type"] == "error" and reply["chunk_id"] == 4
            assert "undecodable round spec" in reply["message"]
            assert "seed" in reply["message"]
            # the connection itself keeps serving
            protocol.send_message(sock, {"type": "ping"})
            assert protocol.recv_message(sock)["type"] == "pong"
            # a chunk id it cannot read ends the connection, by name
            protocol.send_message(sock, {"type": "run", "chunk_id": "x",
                                         "specs": []})
            reply = protocol.recv_message(sock)
            assert reply["type"] == "reject"
            assert "protocol error" in reply["reason"]
        self._still_serves(address, cluster_ctx)

    def test_shutdown_is_an_unknown_verb(self, cluster_ctx, shard_farm):
        """No frame stops a shard: ``shutdown`` gets the unknown-verb
        error, and the connection and the shard keep serving."""
        [address] = shard_farm(1)
        with _handshaken(address, cluster_ctx) as sock:
            protocol.send_message(sock, {"type": "shutdown"})
            reply = protocol.recv_message(sock)
            assert reply["type"] == "error"
            assert "unknown message type 'shutdown'" in reply["message"]
            protocol.send_message(sock, {"type": "ping"})
            assert protocol.recv_message(sock)["type"] == "pong"
        self._still_serves(address, cluster_ctx)

    @staticmethod
    def _still_serves(address, ctx):
        client = ShardClient(address)
        try:
            client.handshake(ctx.fingerprint(), cache_schema_version())
            [outcome] = client.run_chunk(1, [RoundSpec(seed=1)])
            assert isinstance(outcome, EvaluationOutcome)
        finally:
            client.close()


class TestVersion:
    def test_version_1_hello_is_refused_naming_both(self, cluster_ctx,
                                                     shard_farm):
        [address] = shard_farm(1)
        hello = protocol.hello(cluster_ctx.fingerprint(),
                               cache_schema_version())
        hello["protocol"] = 1
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(_frame(json.dumps(hello).encode()))
            reply = protocol.recv_message(sock)
        assert reply["type"] == "reject"
        assert "protocol version mismatch" in reply["reason"]
        assert f"v{protocol.PROTOCOL_VERSION}" in reply["reason"]
        assert "v1" in reply["reason"]


class TestMessageConstructors:
    def test_hello_welcome_reject(self):
        h = protocol.hello("fp123", 3)
        assert h["type"] == "hello"
        assert h["protocol"] == protocol.PROTOCOL_VERSION
        assert h["fingerprint"] == "fp123"
        assert h["schema"] == 3
        w = protocol.welcome("fp123", host="h", pid=1, capacity=2)
        assert w["type"] == "welcome" and w["capacity"] == 2
        r = protocol.reject("nope")
        assert r["type"] == "reject" and r["reason"] == "nope"

    def test_run_and_result(self):
        specs = [round_to_obj(RoundSpec(seed=seed)) for seed in (1, 2)]
        run = protocol.run_chunk(7, specs)
        assert run == {"type": "run", "chunk_id": 7, "specs": specs}
        outcomes = [{"accuracy": 0.5}, {"accuracy": 0.75}]
        res = protocol.chunk_result(7, outcomes)
        assert res == {"type": "result", "chunk_id": 7,
                       "outcomes": outcomes}
        err = protocol.chunk_error(7, "boom")
        assert err["type"] == "error" and err["message"] == "boom"


_ATTACK_PARAMS = {
    "label-flip": {"strategy": "near_boundary"},
    "mixed": {"percentiles": (0.05, 0.2), "weights": (0.25, 0.75)},
    "bilevel": {"n_outer": 3, "step_size": 0.5},
    "targeted": {"victim_label": 1, "spread": 0.1},
}
_DEFENSE_PARAMS = {
    "mixed_defense": {"percentiles": (0.0, 0.1, 0.2),
                      "probabilities": (0.5, 0.25, 0.25)},
    "knn_sanitizer": {"k": 7, "agreement": 0.6},
    "slab_filter": {"axis": "clean"},
}
_VICTIM_PARAMS = {"svm": {"epochs": 60, "reg": 1e-3}}


def _codec_specs() -> list:
    """One round of every registered kind, plus the spellings that
    must survive: nested-tuple params, an undefended round's ``0.0``
    and ``None`` filter percentile, a plain radius filter, a radius
    variant and clean rounds."""
    boundary = AttackSpec("boundary", 0.1)
    specs = [RoundSpec(attack=AttackSpec(kind, 0.1,
                                         _ATTACK_PARAMS.get(kind, ())),
                       poison_fraction=0.2, seed=1)
             for kind in registered_attack_kinds()]
    specs += [RoundSpec(defense=DefenseSpec(kind, 0.15,
                                            _DEFENSE_PARAMS.get(kind, ())),
                        attack=boundary, poison_fraction=0.1, seed=2)
              for kind in registered_defense_kinds()]
    specs += [RoundSpec(victim=VictimSpec(kind,
                                          _VICTIM_PARAMS.get(kind, ())),
                        attack=boundary, seed=3)
              for kind in registered_victim_kinds()]
    specs += [
        RoundSpec(filter_percentile=0.0, attack=boundary, seed=4),
        RoundSpec(filter_percentile=None, attack=boundary, seed=4),
        RoundSpec(filter_percentile=0.2, attack=boundary, seed=5),
        RoundSpec(defense=DefenseSpec("radius", 0.2,
                                      {"centroid": "contaminated"}),
                  attack=boundary, seed=5),
        RoundSpec(filter_percentile=0.0, seed=6),
        RoundSpec(poison_fraction=0.3, seed=6),
        RoundSpec(defense=DefenseSpec("mixed_defense", 0.0,
                                      _DEFENSE_PARAMS["mixed_defense"]),
                  seed=7),
    ]
    return specs


def _over_the_wire(message: dict) -> dict:
    a, b = _pair()
    try:
        protocol.send_message(a, message)
        return protocol.recv_message(b)
    finally:
        a.close()
        b.close()


class TestWireCodecs:
    def test_every_kind_round_trips_to_an_equal_spec(self):
        specs = _codec_specs()
        kinds = {s.attack.kind for s in specs if s.attack} | \
            {s.defense.kind for s in specs if s.defense} | \
            {s.victim.kind for s in specs if s.victim}
        assert kinds >= set(registered_attack_kinds()) | \
            set(registered_defense_kinds()) | set(registered_victim_kinds())
        message = _over_the_wire(protocol.run_chunk(
            1, [round_to_obj(spec) for spec in specs]))
        decoded = [round_from_obj(obj) for obj in message["specs"]]
        for spec, back in zip(specs, decoded, strict=True):
            assert back == spec
            assert back.filter_percentile == spec.filter_percentile
            assert back.canonical() == spec.canonical()
            assert round_key("fp", back) == round_key("fp", spec)

    @pytest.mark.parametrize("report", [
        None, DefenseReport(n_total=120, n_removed=9, poison_recall=0.75,
                            genuine_loss=0.025, precision=2 / 3)])
    def test_outcomes_round_trip_equal(self, report):
        outcomes = [EvaluationOutcome(accuracy=0.1 + 0.2, n_poison=30,
                                      n_removed=9, filter_percentile=0.1,
                                      filter_radius=1 / 3, report=report),
                    EvaluationOutcome(accuracy=0.875, n_poison=0,
                                      n_removed=0, filter_percentile=None,
                                      filter_radius=None, report=report)]
        message = _over_the_wire(protocol.chunk_result(
            1, [outcome_to_dict(outcome) for outcome in outcomes]))
        assert [outcome_from_dict(d) for d in message["outcomes"]] == \
            outcomes
