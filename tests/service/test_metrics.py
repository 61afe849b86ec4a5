"""Histogram invariants and the /v1/metrics scrape contract.

The load-bearing invariant: bucket counts are per-bucket, so they
always sum to the observation count -- that is what makes the scrape
trivially checkable and what the benchmark's p99 gate reads.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import BUCKET_EDGES, Histogram
from repro.service.client import ServiceClient
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import VerificationScheduler
from repro.service.server import ThreadedService

from .test_scheduler import stub_compute, table1_spec


class TestHistogram:
    def test_observations_land_in_expected_buckets(self):
        histogram = Histogram()
        histogram.observe(0.0005)  # between 3.16e-4 and 1e-3
        histogram.observe(0.002)   # between 1e-3 and 3.16e-3
        histogram.observe(0.002)
        snap = histogram.snapshot()
        assert snap["buckets"] == {"le_0.001": 1, "le_0.00316228": 2}

    def test_boundary_value_goes_to_lower_bucket(self):
        histogram = Histogram()
        histogram.observe(BUCKET_EDGES[4])  # exactly on an edge: <= edge
        snap = histogram.snapshot()
        assert snap["buckets"] == {f"le_{BUCKET_EDGES[4]:g}": 1}

    def test_overflow_bucket(self):
        histogram = Histogram()
        histogram.observe(10_000.0)  # beyond the last edge (~316 s)
        assert histogram.snapshot()["buckets"] == {"inf": 1}

    def test_counts_sum_to_observation_count(self):
        histogram = Histogram()
        values = [10.0 ** (k / 7.0 - 4.0) for k in range(200)]
        for value in values:
            histogram.observe(value)
        snap = histogram.snapshot()
        assert sum(snap["buckets"].values()) == snap["count"] == len(values)
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["min"] == pytest.approx(min(values))
        assert snap["max"] == pytest.approx(max(values))

    def test_quantiles_bracket_the_data(self):
        histogram = Histogram()
        for _ in range(99):
            histogram.observe(0.001)
        histogram.observe(1.0)
        # p50 is in the bucket holding 0.001; p99 must not see the outlier
        assert histogram.quantile(0.50) == pytest.approx(0.001)
        assert histogram.quantile(0.99) <= 0.01
        # p100 rank hits the last occupied bucket
        assert histogram.quantile(1.0) >= 1.0

    def test_empty_histogram(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["buckets"] == {}
        assert snap["min"] is None
        assert Histogram().quantile(0.99) == 0.0


class TestServiceMetricsUnit:
    def test_request_counters(self):
        metrics = ServiceMetrics()
        metrics.record_request("GET /healthz", 200)
        metrics.record_request("GET /healthz", 200)
        metrics.record_request("POST /jobs", 400)
        assert metrics.requests_total == 3
        assert metrics.requests_by_status == {"200": 2, "400": 1}
        assert metrics.requests_by_route == {"GET /healthz": 2, "POST /jobs": 1}

    def test_submit_latency_is_per_kind(self):
        metrics = ServiceMetrics()
        metrics.record_submit("table1", 0.01)
        metrics.record_submit("table1", 0.02)
        metrics.record_submit("verify", 0.5)
        assert metrics.submit_latency["table1"].count == 2
        assert metrics.submit_latency["verify"].count == 1


class TestMetricsOverHttp:
    @pytest.fixture
    def service(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell", stub_compute()
        )
        with ThreadedService(tmp_path / "svc.jsonl", max_workers=0) as svc:
            yield svc

    def test_scrape_after_submissions(self, service):
        client = ServiceClient(service.url)
        submissions = 5
        for _ in range(submissions):
            snap = client.submit(table1_spec(["Wigner"], ["EC1", "EC6"]))
        # wait for the last job to finish so the cache stats are stable
        for _ in client.events(snap["id"]):
            pass
        metrics = client.metrics()

        assert metrics["jobs"]["submitted"] == submissions
        assert metrics["jobs"]["by_kind"] == {"table1": submissions}
        histogram = metrics["latency"]["submit_seconds"]["table1"]
        assert histogram["count"] == submissions
        assert sum(histogram["buckets"].values()) == submissions
        assert 0 < histogram["p99"] <= 316.3

        cells = metrics["cells"]
        # 2 distinct cells computed once; the other 4*2 duplicates were
        # coalesced onto them or served from the store
        assert cells["computed"] == 2
        assert cells["cache"] + cells["coalesced"] == 2 * (submissions - 1)
        assert cells["cache_hit_ratio"] == pytest.approx(
            (submissions - 1) / submissions
        )

        assert metrics["admission"]["queue_depth"] == 0
        pool = metrics["pool"]
        assert pool["workers"] == 0  # inline mode
        assert 0 <= pool["executing"] <= pool["max_inflight"]
        assert metrics["store"]["keys"] == 2
        assert metrics["requests"]["total"] >= submissions
        assert metrics["auth"]["mode"] == "anonymous"
        assert not math.isnan(metrics["server"]["uptime_seconds"])

    def test_scrape_counts_itself_and_routes(self, service):
        client = ServiceClient(service.url)
        client.health()
        client.metrics()
        metrics = client.metrics()
        by_route = metrics["requests"]["by_route"]
        assert by_route["GET /healthz"] == 1
        assert by_route["GET /metrics"] >= 1  # the previous scrape
        assert metrics["requests"]["by_status"]["200"] >= 2


class TestLaneMetrics:
    """The /v1/metrics lanes section (QoS lanes live in the scheduler;
    dispatch-priority behaviour itself is pinned in test_scheduler)."""

    @pytest.fixture
    def service(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell", stub_compute()
        )
        with ThreadedService(tmp_path / "svc.jsonl", max_workers=0) as svc:
            yield svc

    def test_lanes_section_shape_and_counts(self, service):
        client = ServiceClient(service.url)
        snap = client.submit(table1_spec(["Wigner"], ["EC1", "EC6", "EC3"]))
        for _ in client.events(snap["id"]):
            pass
        lanes = client.metrics()["lanes"]
        assert set(lanes) == {"preemptions", "interactive", "batch"}
        for lane in ("interactive", "batch"):
            section = lanes[lane]
            assert section["queue_depth"] == 0  # job finished
            wait = section["wait_seconds"]
            assert sum(wait["buckets"].values()) == wait["count"]
            assert wait["count"] == section["dispatched"]
        # a 3-cell table1 job rides the batch lane
        assert lanes["batch"]["dispatched"] == 3
        assert lanes["interactive"]["dispatched"] == 0
        assert lanes["preemptions"] == 0

    def test_interactive_jobs_land_in_interactive_lane(self, service):
        client = ServiceClient(service.url)
        spec = {"kind": "verify", "functional": "Wigner", "condition": "EC1",
                "config": {"per_call_budget": 100, "global_step_budget": 400}}
        snap = client.submit(spec)
        for _ in client.events(snap["id"]):
            pass
        lanes = client.metrics()["lanes"]
        assert lanes["interactive"]["dispatched"] == 1
        assert lanes["interactive"]["wait_seconds"]["count"] == 1
        assert lanes["batch"]["dispatched"] == 0
