"""The service's ``/v1/metrics`` assembler.

The measurement machinery itself -- the log-spaced
:class:`~repro.obs.metrics.Histogram`, bucket edges and the Prometheus
text renderer -- lives in :mod:`repro.obs.metrics` (the process-wide
metrics core); this module keeps the server-specific part:
:class:`ServiceMetrics`, the counters recorded on the event-loop thread
and the ``/v1/metrics`` JSON document they assemble.  All mutation
happens on the event-loop thread (requests are counted where they are
handled), so the structures are plain dicts with no locks; a scrape is a
snapshot assembled on the same loop and is therefore always internally
consistent.
"""

from __future__ import annotations

import time

from ..obs.metrics import Histogram

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """The server's counters + histograms, and the scrape assembler."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._started = clock()
        self.started_at = time.time()
        self.requests_total = 0
        self.requests_by_status: dict[str, int] = {}
        self.requests_by_route: dict[str, int] = {}
        self.auth_failures = 0
        self.rate_limited = 0
        self.shed = 0
        self.draining_rejects = 0
        #: per-job-kind submit latency (request receipt -> response ready)
        self.submit_latency: dict[str, Histogram] = {}

    # -- recording (event-loop thread only) --------------------------------
    def record_request(self, route: str, status: int) -> None:
        self.requests_total += 1
        self.requests_by_status[str(status)] = (
            self.requests_by_status.get(str(status), 0) + 1
        )
        self.requests_by_route[route] = self.requests_by_route.get(route, 0) + 1

    def record_submit(self, kind: str, seconds: float) -> None:
        histogram = self.submit_latency.get(kind)
        if histogram is None:
            histogram = self.submit_latency[kind] = Histogram()
        histogram.observe(seconds)

    # -- scraping ----------------------------------------------------------
    def render(self, scheduler, *, auth=None, limiter=None, admission=None) -> dict:
        """The ``/v1/metrics`` document; JSON-safe, sorted-key stable."""
        jobs = scheduler.jobs()
        stats = scheduler.stats
        cache = stats["cells_cache"]
        computed = stats["cells_computed"]
        coalesced = stats["cells_coalesced"]
        classified = cache + computed + coalesced
        executing = scheduler.executing
        max_inflight = scheduler.max_inflight
        return {
            "server": {
                "started_at": self.started_at,
                "uptime_seconds": round(self._clock() - self._started, 3),
            },
            "requests": {
                "total": self.requests_total,
                "by_status": dict(sorted(self.requests_by_status.items())),
                "by_route": dict(sorted(self.requests_by_route.items())),
            },
            "auth": {
                "mode": (
                    "anonymous" if auth is None or auth.anonymous else "token"
                ),
                "failures": self.auth_failures,
            },
            "rate_limit": {
                "enabled": bool(limiter is not None and limiter.enabled),
                "rate_per_second": limiter.rate if limiter is not None else 0.0,
                "burst": limiter.burst if limiter is not None else 0.0,
                "throttled": self.rate_limited,
            },
            "admission": {
                "enabled": bool(admission is not None and admission.enabled),
                "high_water": admission.high_water if admission is not None else 0,
                "queue_depth": scheduler.queue_depth(),
                "shed": self.shed,
                "draining_rejects": self.draining_rejects,
            },
            "jobs": {
                "submitted": stats["jobs_submitted"],
                "by_kind": dict(sorted(stats["jobs_by_kind"].items())),
                "tracked": len(jobs),
                "active": sum(1 for job in jobs if not job.done),
            },
            "cells": {
                "computed": computed,
                "cache": cache,
                "coalesced": coalesced,
                "cache_hit_ratio": (
                    round((cache + coalesced) / classified, 6) if classified else None
                ),
            },
            "pool": {
                "executing": executing,
                "max_inflight": max_inflight,
                "utilisation": round(executing / max_inflight, 6),
                "workers": scheduler.pool_width,
            },
            "lanes": self._render_lanes(scheduler),
            "store": {
                "path": scheduler.store_path,
                "keys": scheduler.store_keys(),
            },
            "latency": {
                "submit_seconds": {
                    kind: histogram.snapshot()
                    for kind, histogram in sorted(self.submit_latency.items())
                },
            },
        }

    @staticmethod
    def _render_lanes(scheduler) -> dict:
        """Per-QoS-lane queue depth, dispatch count and wait histogram.

        ``wait_seconds`` measures submit -> dispatch (time spent queued
        behind other work), the quantity the lanes exist to bound for
        interactive jobs.
        """
        depths = scheduler.lane_depths()
        return {
            "preemptions": scheduler.lane_preemptions,
            **{
                lane: {
                    "queue_depth": depths[lane],
                    "dispatched": scheduler.lane_dispatched[lane],
                    "wait_seconds": scheduler.lane_wait[lane].snapshot(),
                }
                for lane in sorted(depths)
            },
        }
