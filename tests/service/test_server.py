"""HTTP API semantics over a real localhost socket.

Uses :class:`ThreadedService` (the embedding harness the benchmarks and
integration tests share) with stubbed compute where only protocol
behaviour is under test, and one real end-to-end verify job.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import VerificationScheduler
from repro.service.server import ThreadedService

from .test_scheduler import TINY, stub_compute, table1_spec


@pytest.fixture
def service(tmp_path):
    with ThreadedService(tmp_path / "svc.jsonl", max_workers=0) as svc:
        yield svc


@pytest.fixture
def stub_service(tmp_path, monkeypatch):
    monkeypatch.setattr(
        VerificationScheduler, "_compute_cell", stub_compute(delay=0.05)
    )
    with ThreadedService(tmp_path / "svc.jsonl", max_workers=0) as svc:
        yield svc


class TestProtocol:
    def test_healthz(self, stub_service):
        health = ServiceClient(stub_service.url).health()
        assert health["status"] == "ok"
        assert health["store"].endswith("svc.jsonl")
        assert health["jobs"] == 0

    def test_unknown_route_404(self, stub_service):
        with pytest.raises(ServiceError) as exc:
            ServiceClient(stub_service.url)._request("GET", "/nope")
        assert exc.value.status == 404

    def test_unknown_job_404(self, stub_service):
        with pytest.raises(ServiceError) as exc:
            ServiceClient(stub_service.url).job("job-999")
        assert exc.value.status == 404

    def test_invalid_json_400(self, stub_service):
        import http.client

        conn = http.client.HTTPConnection(
            stub_service.url.split("//")[1].split(":")[0],
            int(stub_service.url.rsplit(":", 1)[1]),
        )
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert "error" in json.loads(response.read())
        conn.close()

    def test_malformed_content_length_400(self, stub_service):
        import http.client

        host, port = stub_service.url.split("//")[1].rsplit(":", 1)
        for bad in ("abc", "-1"):
            conn = http.client.HTTPConnection(host, int(port))
            conn.putrequest("POST", "/v1/jobs", skip_accept_encoding=True)
            conn.putheader("Content-Length", bad)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400, bad
            assert "error" in json.loads(response.read())
            conn.close()

    def test_bad_spec_400(self, stub_service):
        with pytest.raises(ServiceError) as exc:
            ServiceClient(stub_service.url).submit({"kind": "frobnicate"})
        assert exc.value.status == 400
        assert "unknown job kind" in str(exc.value)

    def test_result_before_done_409(self, stub_service):
        client = ServiceClient(stub_service.url)
        snap = client.submit(table1_spec(["LYP"], ["EC1", "EC2", "EC3"]))
        with pytest.raises(ServiceError) as exc:
            client.result(snap["id"])
        assert exc.value.status == 409

    def test_jobs_listing(self, stub_service):
        client = ServiceClient(stub_service.url)
        snap = client.submit(table1_spec(["Wigner"], ["EC1"]))
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [snap["id"]]

    def test_events_stream_terminates_with_final_state(self, stub_service):
        client = ServiceClient(stub_service.url)
        snap = client.submit(table1_spec(["Wigner"], ["EC1", "EC6"]))
        events = list(client.events(snap["id"]))
        assert events, "stream yielded nothing"
        assert events[-1]["state"] == "done"
        assert events[-1]["resolved"] == 2
        versions = [e["version"] for e in events]
        assert versions == sorted(versions)

    def test_connection_refused_is_service_error(self, tmp_path):
        # a port nothing listens on: grab one, close it, then connect
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceError, match="cannot reach service"):
            ServiceClient(f"http://127.0.0.1:{port}", timeout=2).health()


class TestEndToEnd:
    def test_real_verify_job_roundtrip(self, service):
        client = ServiceClient(service.url)
        result = client.run(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1",
             "config": dict(TINY)}
        )
        assert result["state"] == "done"
        (entry,) = result["cells"].values()
        payload = entry["payload"]
        assert payload["functional"] == "Wigner"
        assert payload["condition"] == "EC1"
        assert payload["records"], "no region records in the payload"

    def test_real_job_through_shared_process_pool(self, tmp_path):
        """The pooled path (workers >= 1): cells run on the shared
        ProcessPoolExecutor, whose workers all fork eagerly at scheduler
        start -- a lazy first-submit fork from this multi-threaded
        process could inherit a held lock and deadlock the compute
        (regression: this exact hang was observed before the eager
        warm-up)."""
        with ThreadedService(tmp_path / "svc.jsonl", max_workers=1) as svc:
            client = ServiceClient(svc.url, timeout=300)
            verify = client.run(
                {"kind": "table1", "functionals": ["Wigner"],
                 "conditions": ["EC1", "EC6"], "config": dict(TINY)}
            )
            numerics = client.run(
                {"kind": "numerics", "functionals": ["Wigner"],
                 "checks": ["continuity"],
                 "config": {"n_base_points": 4, "bisection_steps": 8}}
            )
        assert verify["state"] == "done"
        assert verify["sources"]["computed"] == 2
        assert numerics["state"] == "done"
        assert numerics["sources"]["computed"] == 1

    def test_drain_leaves_listener_up_for_result_fetch(self, tmp_path,
                                                       monkeypatch):
        """A streaming client whose job is cancelled by the drain must
        still be able to fetch the partial result: the scheduler drains
        while the listener keeps answering (serve() closes it only
        afterwards).  Pre-fix the listener closed first, the result
        fetch hit a dead port, and on Python >= 3.12.1 wait_closed even
        deadlocked the drain behind the open event stream."""
        import asyncio
        import threading

        from repro.service.server import ServiceServer
        from repro.verifier.store import open_store

        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell", stub_compute(delay=0.3)
        )

        async def body():
            store = open_store(tmp_path / "svc.jsonl")
            scheduler = VerificationScheduler(store, max_workers=0,
                                              max_inflight=1)
            await scheduler.start()
            server = ServiceServer(scheduler, port=0)
            await server.start()
            url = f"http://127.0.0.1:{server.port}"
            box: dict = {}

            def client_run():
                box["result"] = ServiceClient(url, timeout=60).run(
                    table1_spec(["LYP"], ["EC1", "EC2", "EC3", "EC6", "EC7"]))

            thread = threading.Thread(target=client_run)
            thread.start()
            await asyncio.sleep(0.15)  # first cell computing, rest queued
            await scheduler.drain()    # job -> cancelled; listener still up
            await asyncio.to_thread(thread.join, 60)
            await server.stop()
            store.close()
            return box.get("result")

        result = asyncio.run(body())
        assert result is not None, "client errored instead of fetching result"
        assert result["state"] == "cancelled"
        entries = list(result["cells"].values())
        assert any("payload" in entry for entry in entries)
        assert any(entry.get("cancelled") for entry in entries)

    def test_drain_on_stop_is_graceful(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell", stub_compute(delay=0.3)
        )
        svc = ThreadedService(tmp_path / "svc.jsonl", max_workers=0)
        url = svc.start()
        client = ServiceClient(url)
        snap = client.submit(
            table1_spec(["LYP"], ["EC1", "EC2", "EC3", "EC6", "EC7"]))
        time.sleep(0.1)  # let the first cell start computing
        svc.stop()  # the same graceful drain SIGTERM triggers
        assert svc._thread is not None and not svc._thread.is_alive()
        # the server exited cleanly; cells that finished were committed
        store_path = tmp_path / "svc.jsonl"
        assert store_path.exists()
        lines = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(lines) >= 1
        assert snap["cells"] == 5


class TestMetricsExposition:
    """/v1/metrics content negotiation: JSON by default, Prometheus on ask."""

    def fetch(self, svc, path, headers=None):
        import http.client

        host, port = svc.url.split("//")[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port))
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        conn.close()
        return response, body

    def test_default_stays_json(self, stub_service):
        response, body = self.fetch(stub_service, "/v1/metrics")
        assert response.status == 200
        assert "application/json" in response.getheader("Content-Type")
        doc = json.loads(body)
        assert "requests" in doc and "pool" in doc

    def test_format_prometheus_is_valid_exposition(self, stub_service):
        from repro.obs.metrics import CONTENT_TYPE_PROMETHEUS, lint_exposition

        response, body = self.fetch(
            stub_service, "/v1/metrics?format=prometheus"
        )
        assert response.status == 200
        assert response.getheader("Content-Type") == CONTENT_TYPE_PROMETHEUS
        text = body.decode()
        assert lint_exposition(text) == []
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_uptime_seconds" in text

    def test_accept_header_negotiates_prometheus(self, stub_service):
        from repro.obs.metrics import lint_exposition

        response, body = self.fetch(
            stub_service, "/v1/metrics", headers={"Accept": "text/plain"}
        )
        assert response.getheader("Content-Type").startswith("text/plain")
        assert lint_exposition(body.decode()) == []

    def test_unknown_format_is_400(self, stub_service):
        response, body = self.fetch(stub_service, "/v1/metrics?format=xml")
        assert response.status == 400
        assert "error" in json.loads(body)

    def test_campaign_engine_counters_fold_in(self, stub_service):
        from repro.obs.metrics import REGISTRY

        REGISTRY.counter(
            "repro_campaign_cells_resolved_total",
            "Campaign cells resolved, by how.",
        ).inc(result="computed")
        _, body = self.fetch(stub_service, "/v1/metrics?format=prometheus")
        assert "repro_campaign_cells_resolved_total" in body.decode()

    def test_scrapes_count_as_requests(self, stub_service):
        self.fetch(stub_service, "/v1/metrics?format=prometheus")
        _, body = self.fetch(stub_service, "/v1/metrics")
        doc = json.loads(body)
        assert doc["requests"]["by_route"].get("GET /metrics", 0) >= 1
