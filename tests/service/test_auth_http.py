"""Bearer-token auth and the HTTP transport's own behaviour."""

import http.client
import json

import pytest

from repro.service import AuthPolicy, ReproService, ServiceConfig


@pytest.fixture()
def locked_service(tmp_path):
    svc = ReproService(ServiceConfig(
        archive_dir=str(tmp_path / "archive"), token="s3cret",
        poll_interval=0.05), workers=0).start()
    yield svc
    svc.stop()


def test_auth_policy_named_refusals():
    policy = AuthPolicy("tok")
    assert policy.enabled
    assert policy.refusal("Bearer tok") is None
    assert "auth required" in policy.refusal(None)
    assert "REPRO_SERVICE_TOKEN" in policy.refusal(None)
    assert "auth malformed" in policy.refusal("Basic dXNlcg==")
    assert "auth failed" in policy.refusal("Bearer wrong")

    open_policy = AuthPolicy(None)
    assert not open_policy.enabled
    assert open_policy.refusal(None) is None
    assert "auth mismatch" in open_policy.refusal("Bearer whatever")


def test_auth_matrix_missing_wrong_valid(locked_service, client_class):
    """Missing / wrong / valid token → 401 / 401 / 200, named bodies."""
    host, port = locked_service.host, locked_service.port

    status, body = client_class(host, port).json("GET", "/health")
    assert status == 401
    assert "auth required" in body["error"]
    assert "REPRO_SERVICE_TOKEN" in body["error"]

    status, body = client_class(host, port, token="wrong").json("GET", "/health")
    assert status == 401
    assert "auth failed" in body["error"]

    status, body = client_class(host, port, token="s3cret").json("GET", "/health")
    assert status == 200
    assert body["status"] == "ok"
    assert body["auth"] is True


def test_auth_guards_every_route(locked_service, client_class):
    client = client_class(locked_service.host, locked_service.port)
    fp = "0" * 64
    for method, path in (("POST", "/studies"),
                         ("GET", f"/studies/{fp}"),
                         ("GET", f"/studies/{fp}/stream"),
                         ("GET", f"/studies/{fp}/result"),
                         ("GET", f"/studies/{fp}/report"),
                         ("GET", "/queue"),
                         ("GET", "/health")):
        status, body = client.json(method, path, body="{}")
        assert status == 401, (method, path)
        assert "auth" in body["error"], (method, path)


def test_unknown_route_404_and_wrong_method_405(client):
    status, body = client.json("GET", "/nope")
    assert status == 404
    assert "no route" in body["error"]
    status, body = client.json("POST", "/health")
    assert status == 405
    status, body = client.json("GET", "/studies")
    assert status == 405


def test_bad_json_body_is_a_named_400(client):
    status, body = client.json("POST", "/studies", body="not json{{")
    assert status == 400
    assert "not valid JSON" in body["error"]
    status, body = client.json("POST", "/studies", body=json.dumps([1, 2]))
    assert status == 400
    assert "JSON object" in body["error"]
    status, body = client.json("POST", "/studies",
                               body=json.dumps({"type": "Wrong"}))
    assert status == 400
    assert "StudySpec" in body["error"]


def test_submit_refuses_contextless_spec(client, tiny_spec):
    doc = tiny_spec.to_obj()
    doc.pop("context", None)
    status, body = client.json("POST", "/studies", body=doc)
    assert status == 400
    assert "context" in body["error"]


def test_status_of_unknown_study_is_404(client):
    status, body = client.json("GET", "/studies/" + "a" * 64)
    assert status == 404
    assert "unknown study" in body["error"]


def test_oversized_body_is_rejected(client):
    status, body = client.request(
        "POST", "/studies", body=b"x",
        headers={"Content-Length": str(64 * 1024 * 1024)})
    assert status == 413


def _post_without_token(service, length: int, body: bytes):
    """``POST /studies`` declaring ``length`` body bytes and sending
    ``body``; the status and decoded reply."""
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=10.0)
    try:
        conn.putrequest("POST", "/studies")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(length))
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_token_is_checked_before_the_body_is_read(locked_service, counters):
    """A request without a token gets its 401 on its headers alone: the
    server does not wait for a 16 MB body that never comes, and a
    client that did send its body still reads the 401."""
    counters()
    status, body = _post_without_token(locked_service, 16_000_000, b"")
    assert status == 401
    assert "auth required" in body["error"]

    status, body = _post_without_token(locked_service, 1 << 20,
                                       b"x" * (1 << 20))
    assert status == 401
    assert "auth required" in body["error"]
    assert counters()["service.http.unauthorized"] == 2
    assert locked_service.queue.pending() == []
