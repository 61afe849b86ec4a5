"""/v1 versioning (bare paths are 404), the error envelope contract,
and the client's keep-alive + reconnect-on-stale behaviour."""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.service.client import (
    JobNotFound,
    NotReady,
    ServiceClient,
    ServiceError,
)
from repro.service.scheduler import VerificationScheduler
from repro.service.server import ThreadedService

from .test_scheduler import stub_compute, table1_spec


@pytest.fixture
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())
    with ThreadedService(tmp_path / "svc.jsonl", max_workers=0) as svc:
        yield svc


def raw_request(url, method, path, payload=None):
    """One plain http.client request; returns (status, headers, body)."""
    host, port = url.split("//")[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


class TestVersioning:
    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/healthz"),
            ("GET", "/jobs"),
            ("GET", "/metrics"),
            ("POST", "/jobs"),
            ("GET", "/jobs/nope"),
        ],
    )
    def test_unversioned_paths_are_not_found(self, service, method, path):
        payload = table1_spec(["Wigner"], ["EC1"]) if method == "POST" else None
        status, headers, data = raw_request(service.url, method, path, payload)
        assert status == 404
        assert json.loads(data) == {
            "error": {"code": "not_found", "message": f"no route for {method} {path}"}
        }
        assert "Deprecation" not in headers
        metrics = ServiceClient(service.url).metrics()
        # counted once, under the unroutable label, and nothing was submitted
        assert metrics["requests"]["by_route"]["?"] == 1
        assert "deprecated" not in metrics["requests"]
        assert metrics["jobs"]["submitted"] == 0

    @pytest.mark.parametrize("path", ["/v1/healthz", "/v1/jobs", "/v1/metrics"])
    def test_v1_paths_carry_no_deprecation_header(self, service, path):
        status, headers, _ = raw_request(service.url, "GET", path)
        assert status == 200
        assert "Deprecation" not in headers


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "method,path,payload,status,code",
        [
            ("POST", "/v1/jobs", {"kind": "nope"}, 400, "bad_request"),
            ("GET", "/v1/jobs/ghost", None, 404, "job_not_found"),
            ("GET", "/v1/nope", None, 404, "not_found"),
            ("DELETE", "/v1/jobs", None, 404, "not_found"),
        ],
    )
    def test_envelope_on_every_non_2xx(
        self, service, method, path, payload, status, code
    ):
        got_status, _, data = raw_request(service.url, method, path, payload)
        body = json.loads(data)
        assert got_status == status
        assert set(body) == {"error"}
        envelope = body["error"]
        assert envelope["code"] == code
        assert isinstance(envelope["message"], str) and envelope["message"]

    def test_malformed_json_body_is_bad_request(self, service):
        host, port = service.url.split("//")[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad_request"

    def test_typed_client_exceptions(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(JobNotFound):
            client.job("ghost")
        with pytest.raises(ServiceError) as exc:
            client.submit({"kind": "nope"})
        assert exc.value.status == 400
        assert exc.value.code == "bad_request"

    def test_not_ready_is_409(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(delay=1.0),
        )
        with ThreadedService(tmp_path / "svc.jsonl", max_workers=0) as svc:
            client = ServiceClient(svc.url)
            snap = client.submit(table1_spec(["Wigner"], ["EC1"]))
            with pytest.raises(NotReady) as exc:
                client.result(snap["id"])
            assert exc.value.status == 409
            assert exc.value.code == "not_ready"


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, service):
        client = ServiceClient(service.url)
        client.health()
        first = client._conn
        assert first is not None  # pooled after the first request
        client.jobs()
        client.metrics()
        assert client._conn is first  # same socket, no reconnect
        client.close()
        assert client._conn is None

    def test_reconnects_after_idle_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell", stub_compute()
        )
        store = tmp_path / "svc.jsonl"
        with ThreadedService(store, max_workers=0) as svc:
            # shrink the server's keep-alive idle window after start
            svc._server_box[0].keepalive_idle = 0.2
            client = ServiceClient(svc.url)
            client.health()
            stale = client._conn
            assert stale is not None
            time.sleep(0.8)  # server reclaims the idle connection
            # the retry path replays the request on a fresh connection
            health = client.health()
            assert health["status"] == "ok"
            assert client._conn is not stale

    def test_fresh_connection_failure_is_not_retried(self, tmp_path):
        client = ServiceClient("http://127.0.0.1:9")  # nothing listens here
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()
