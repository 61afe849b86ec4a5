"""The metrics core: labeled counters, registries, Prometheus text.

The Histogram itself is exercised by the service metrics tests (it moved
here unchanged); these tests pin what the move *added* -- server-free
counters and the text exposition contract scrapers depend on.
"""

from __future__ import annotations

from repro.obs.metrics import (
    CONTENT_TYPE_PROMETHEUS,
    Counter,
    Histogram,
    MetricRegistry,
    REGISTRY,
    lint_exposition,
    prometheus_exposition,
)


def metrics_doc(**overrides):
    """A minimal but complete /v1/metrics document."""
    hist = Histogram()
    hist.observe(0.002)
    hist.observe(0.4)
    doc = {
        "server": {"started_at": 1000.0, "uptime_seconds": 12.5},
        "requests": {
            "total": 7,
            "by_status": {"200": 6, "404": 1},
            "by_route": {"/v1/metrics": 2, "/v1/verify": 5},
        },
        "auth": {"mode": "anonymous", "failures": 0},
        "rate_limit": {"enabled": False, "rate_per_second": 0.0,
                       "burst": 0.0, "throttled": 0},
        "admission": {"enabled": False, "high_water": 0, "queue_depth": 3,
                      "shed": 1, "draining_rejects": 0},
        "jobs": {"submitted": 5, "by_kind": {"verify": 5}, "tracked": 5,
                 "active": 2},
        "cells": {"computed": 4, "cache": 2, "coalesced": 0,
                  "cache_hit_ratio": 0.333333},
        "pool": {"executing": 2, "max_inflight": 4, "utilisation": 0.5,
                 "workers": 2},
        "lanes": {
            "preemptions": 0,
            "batch": {"queue_depth": 3, "dispatched": 4,
                      "wait_seconds": hist.snapshot()},
        },
        "store": {"path": None, "keys": 6},
        "latency": {"submit_seconds": {"verify": hist.snapshot()}},
    }
    doc.update(overrides)
    return doc


class TestCountersAndGauges:
    def test_counter_accumulates_per_label_set(self):
        counter = Counter("repro_cells_total")
        counter.inc(result="computed")
        counter.inc(result="computed")
        counter.inc(result="store_hit")
        assert counter.value(result="computed") == 2
        assert counter.value(result="store_hit") == 1
        assert counter.value(result="missing") == 0

    def test_label_order_does_not_matter(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1


class TestMetricRegistry:
    def test_creation_is_idempotent(self):
        registry = MetricRegistry()
        first = registry.counter("repro_chunks_total", "chunks dispatched")
        second = registry.counter("repro_chunks_total")
        assert first is second

    def test_snapshot_is_json_safe_and_sorted(self):
        registry = MetricRegistry()
        counter = registry.counter("b_metric")
        counter.inc(result="x")
        registry.counter("a_metric").inc(2.0)
        snap = registry.snapshot()
        assert list(snap) == ["a_metric", "b_metric"]
        assert snap["b_metric"] == {"result=x": 1.0}
        assert snap["a_metric"] == {"_": 2.0}

    def test_exposition_is_lint_clean(self):
        registry = MetricRegistry()
        registry.counter("repro_things_total", "things").inc(kind="a")
        registry.counter("repro_chunks_total", "chunks").inc()
        text = registry.exposition()
        assert lint_exposition(text) == []
        assert '# TYPE repro_things_total counter' in text
        assert 'repro_things_total{kind="a"} 1.0' in text

    def test_empty_registry_renders_nothing(self):
        assert MetricRegistry().exposition() == ""

    def test_process_wide_registry_exists(self):
        assert isinstance(REGISTRY, MetricRegistry)


class TestPrometheusExposition:
    def test_full_document_is_lint_clean(self):
        text = prometheus_exposition(metrics_doc(), registry=MetricRegistry())
        assert lint_exposition(text) == []

    def test_stable_family_names(self):
        text = prometheus_exposition(metrics_doc(), registry=MetricRegistry())
        for family in (
            "repro_uptime_seconds", "repro_requests_total",
            "repro_requests_by_status_total", "repro_auth_failures_total",
            "repro_admission_queue_depth", "repro_jobs_active",
            "repro_cells_total", "repro_pool_workers", "repro_store_keys",
            "repro_lane_wait_seconds", "repro_submit_latency_seconds",
        ):
            assert f"# TYPE {family} " in text

    def test_histograms_cumulate_on_the_way_out(self):
        text = prometheus_exposition(metrics_doc(), registry=MetricRegistry())
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_submit_latency_seconds_bucket")]
        counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)  # cumulative, monotonically rising
        assert counts[-1] == 2  # +Inf bucket holds every observation
        assert 'le="+Inf"' in lines[-1]

    def test_labels_are_escaped(self):
        doc = metrics_doc()
        doc["requests"]["by_route"] = {'/weird"route\\x': 1}
        text = prometheus_exposition(doc, registry=MetricRegistry())
        assert r'route="/weird\"route\\x"' in text
        assert lint_exposition(text) == []

    def test_registry_counters_fold_into_the_scrape(self):
        registry = MetricRegistry()
        registry.counter("repro_campaign_cells_resolved_total",
                         "cells").inc(result="computed")
        text = prometheus_exposition(metrics_doc(), registry=registry)
        assert 'repro_campaign_cells_resolved_total{result="computed"} 1.0' in text
        assert lint_exposition(text) == []

    def test_content_type_pins_the_exposition_version(self):
        assert "version=0.0.4" in CONTENT_TYPE_PROMETHEUS


class TestLintExposition:
    def test_flags_samples_without_type(self):
        assert lint_exposition("mystery_metric 1\n") != []

    def test_flags_malformed_samples(self):
        text = "# TYPE m counter\nm{unclosed 1\n"
        assert any("malformed sample" in p for p in lint_exposition(text))

    def test_flags_malformed_type_lines(self):
        assert any("malformed TYPE" in p
                   for p in lint_exposition("# TYPE m widget\nm 1\n"))

    def test_accepts_histogram_suffixes(self):
        text = (
            "# TYPE m histogram\n"
            'm_bucket{le="0.1"} 1\n'
            'm_bucket{le="+Inf"} 2\n'
            "m_sum 0.3\n"
            "m_count 2\n"
        )
        assert lint_exposition(text) == []
