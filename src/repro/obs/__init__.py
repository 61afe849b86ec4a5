"""Observability core shared by the CLI, campaign engine and service.

This package is the single home for the cross-cutting telemetry
machinery (PR 10):

* :mod:`.clock` -- the sanctioned time sources.  Traced modules read
  wall/monotonic time through these helpers so span timestamps stay
  mutually consistent (``repro check`` rule REP106 polices direct
  ``time.*`` calls outside this module);
* :mod:`.jsonl` -- the append-only JSONL durability discipline (skip a
  truncated tail on read, seal it on reopen) extracted from the
  campaign store and the audit log, now also backing the trace sink;
* :mod:`.trace` -- span-based structured tracing: a no-op
  :class:`~repro.obs.trace.Tracer` by default, JSONL span sink, pickled
  span contexts that ride chunk dispatch into pool workers and come
  back with the results;
* :mod:`.export` -- Chrome trace-event export (Perfetto-loadable) and
  the ``repro trace summary`` analytics (critical path, self-time,
  pool-utilization timeline);
* :mod:`.metrics` -- the log-spaced histogram plus labeled
  counters, usable without a server, and the Prometheus text
  exposition for ``/v1/metrics``;
* :mod:`.logging` -- structured one-line JSON diagnostics
  (``repro --log-json`` / ``REPRO_LOG=json``) with a per-process
  ``run_id`` that joins the log, trace and audit streams.
"""

from .trace import (
    NULL_TRACER,
    SpanContext,
    Tracer,
    TraceSink,
    activate_tracer,
    current_tracer,
)

__all__ = [
    "NULL_TRACER",
    "SpanContext",
    "TraceSink",
    "Tracer",
    "activate_tracer",
    "current_tracer",
]
