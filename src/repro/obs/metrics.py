"""The metrics core: histograms, labeled counters, Prometheus text.

This module is the single home of the measurement machinery (the
service's ``/v1/metrics`` assembler re-exports from here, API
unchanged):

* :class:`Histogram` -- the fixed log-spaced latency histogram
  (half-decade buckets, 100 us to ~316 s).  Bucket counts are
  *per-bucket*, not cumulative, so they always sum to the observation
  count; the Prometheus renderer cumulates on the way out;
* :class:`Counter` / :class:`MetricRegistry` --
  labeled counters usable from the campaign engine with no server
  attached (plain dict mutation, no locks: the campaign drive loop is
  single-threaded, and the service mutates only on its event loop);
* :func:`prometheus_exposition` -- renders the ``/v1/metrics`` JSON
  document as Prometheus text exposition format (version 0.0.4), so
  standard scrapers work against ``/v1/metrics?format=prometheus``.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "BUCKET_EDGES",
    "CONTENT_TYPE_PROMETHEUS",
    "Counter",
    "Histogram",
    "MetricRegistry",
    "REGISTRY",
    "lint_exposition",
    "prometheus_exposition",
]

#: the content type Prometheus scrapers expect for text exposition
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

# half-decade log spacing: 1e-4, 3.16e-4, 1e-3, ... 1e2, 3.16e2 seconds
BUCKET_EDGES: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 2.0), 10) for exponent in range(-8, 6)
)


class Histogram:
    """Fixed-bucket latency histogram (seconds)."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self):
        self.counts = [0] * (len(BUCKET_EDGES) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        index = 0
        for edge in BUCKET_EDGES:
            if seconds <= edge:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket
        holding the q-th observation); exact enough to gate tail latency
        at half-decade resolution, and cheap enough to compute per scrape.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(BUCKET_EDGES):
                    return BUCKET_EDGES[index]
                return self.max
        return self.max

    def snapshot(self) -> dict:
        buckets = {}
        for index, edge in enumerate(BUCKET_EDGES):
            if self.counts[index]:
                buckets[f"le_{edge:g}"] = self.counts[index]
        if self.counts[-1]:
            buckets["inf"] = self.counts[-1]
        return {
            "buckets": buckets,
            "bucket_edges": [f"{edge:g}" for edge in BUCKET_EDGES],
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": round(self.min, 9) if self.count else None,
            "max": round(self.max, 9) if self.count else None,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


# ---------------------------------------------------------------------------
# labeled counters (no server required)
# ---------------------------------------------------------------------------

def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing labeled counter."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self.values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0.0)


class MetricRegistry:
    """A named family of counters; creation is idempotent.

    The campaign engine records into the process-wide :data:`REGISTRY`
    without caring whether anything ever scrapes it; the service folds
    the same registry into its exposition.
    """

    def __init__(self):
        self._metrics: dict[str, Counter] = {}

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name, help_text)
        return metric

    def snapshot(self) -> dict:
        """JSON-safe dump: name -> {labels-repr: value}."""
        out: dict[str, dict] = {}
        for name, metric in sorted(self._metrics.items()):
            out[name] = {
                ",".join(f"{k}={v}" for k, v in key) or "_": value
                for key, value in sorted(metric.values.items())
            }
        return out

    def exposition(self) -> str:
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(metric.values.items()):
                lines.append(_sample(name, dict(key), value))
        return "\n".join(lines) + "\n" if lines else ""


#: process-wide default registry (campaign engine counters land here)
REGISTRY = MetricRegistry()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value) -> str:
    if value is None:
        return "NaN"
    if value is True or value is False:
        return "1" if value else "0"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _sample(name: str, labels: dict | None, value) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in sorted(labels.items())
        )
        return f"{name}{{{body}}} {_fmt_value(value)}"
    return f"{name} {_fmt_value(value)}"


def _histogram_block(name: str, labels: dict, snapshot: dict) -> list[str]:
    """Cumulate a :meth:`Histogram.snapshot` into Prometheus buckets."""
    lines = []
    cumulative = 0
    for edge in snapshot.get("bucket_edges", []):
        cumulative += snapshot["buckets"].get(f"le_{edge}", 0)
        lines.append(_sample(f"{name}_bucket", {**labels, "le": edge}, cumulative))
    lines.append(
        _sample(f"{name}_bucket", {**labels, "le": "+Inf"}, snapshot["count"])
    )
    lines.append(_sample(f"{name}_sum", labels, snapshot["sum"]))
    lines.append(_sample(f"{name}_count", labels, snapshot["count"]))
    return lines


def prometheus_exposition(doc: dict, registry: MetricRegistry | None = None) -> str:
    """Render the ``/v1/metrics`` JSON document as text exposition.

    The mapping is explicit rather than a generic dict flattener: every
    exported family keeps a stable name and type, which is the contract
    scrape configs depend on.  ``registry`` (default: the process-wide
    :data:`REGISTRY`) is appended so campaign-engine counters surface
    through the same scrape.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str, samples: list[str]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    family(
        "repro_uptime_seconds", "gauge", "Seconds since the service started.",
        [_sample("repro_uptime_seconds", None, doc["server"]["uptime_seconds"])],
    )
    requests = doc["requests"]
    family(
        "repro_requests_total", "counter", "HTTP requests handled.",
        [_sample("repro_requests_total", None, requests["total"])],
    )
    family(
        "repro_requests_by_status_total", "counter", "HTTP requests by status.",
        [
            _sample("repro_requests_by_status_total", {"status": status}, count)
            for status, count in requests["by_status"].items()
        ],
    )
    family(
        "repro_requests_by_route_total", "counter", "HTTP requests by route.",
        [
            _sample("repro_requests_by_route_total", {"route": route}, count)
            for route, count in requests["by_route"].items()
        ],
    )
    family(
        "repro_auth_failures_total", "counter", "Rejected authentications.",
        [_sample("repro_auth_failures_total", None, doc["auth"]["failures"])],
    )
    family(
        "repro_rate_limited_total", "counter", "Requests throttled (429).",
        [_sample("repro_rate_limited_total", None, doc["rate_limit"]["throttled"])],
    )
    admission = doc["admission"]
    family(
        "repro_admission_queue_depth", "gauge", "Cells queued behind admission.",
        [_sample("repro_admission_queue_depth", None, admission["queue_depth"])],
    )
    family(
        "repro_admission_shed_total", "counter", "Jobs shed at admission (503).",
        [_sample("repro_admission_shed_total", None, admission["shed"])],
    )
    family(
        "repro_admission_draining_rejects_total", "counter",
        "Jobs rejected while draining.",
        [
            _sample(
                "repro_admission_draining_rejects_total", None,
                admission["draining_rejects"],
            )
        ],
    )
    jobs = doc["jobs"]
    family(
        "repro_jobs_submitted_total", "counter", "Jobs accepted.",
        [_sample("repro_jobs_submitted_total", None, jobs["submitted"])],
    )
    family(
        "repro_jobs_by_kind_total", "counter", "Jobs accepted by kind.",
        [
            _sample("repro_jobs_by_kind_total", {"kind": kind}, count)
            for kind, count in jobs["by_kind"].items()
        ],
    )
    family(
        "repro_jobs_active", "gauge", "Jobs not yet complete.",
        [_sample("repro_jobs_active", None, jobs["active"])],
    )
    cells = doc["cells"]
    family(
        "repro_cells_total", "counter", "Cells classified, by how they resolved.",
        [
            _sample("repro_cells_total", {"result": result}, cells[result])
            for result in ("computed", "cache", "coalesced")
        ],
    )
    pool = doc["pool"]
    family(
        "repro_pool_executing", "gauge", "Cells executing on the pool.",
        [_sample("repro_pool_executing", None, pool["executing"])],
    )
    family(
        "repro_pool_workers", "gauge", "Pool worker processes.",
        [_sample("repro_pool_workers", None, pool["workers"])],
    )
    family(
        "repro_pool_utilisation", "gauge", "Executing / max in-flight.",
        [_sample("repro_pool_utilisation", None, pool["utilisation"])],
    )
    family(
        "repro_store_keys", "gauge", "Keys in the campaign store.",
        [_sample("repro_store_keys", None, doc["store"]["keys"])],
    )
    lanes = doc["lanes"]
    lane_names = [name for name in lanes if isinstance(lanes[name], dict)]
    family(
        "repro_lane_queue_depth", "gauge", "Queued cells per QoS lane.",
        [
            _sample(
                "repro_lane_queue_depth", {"lane": lane},
                lanes[lane]["queue_depth"],
            )
            for lane in lane_names
        ],
    )
    family(
        "repro_lane_dispatched_total", "counter", "Cells dispatched per QoS lane.",
        [
            _sample(
                "repro_lane_dispatched_total", {"lane": lane},
                lanes[lane]["dispatched"],
            )
            for lane in lane_names
        ],
    )
    family(
        "repro_lane_preemptions_total", "counter",
        "Batch cells preempted by the interactive lane.",
        [_sample("repro_lane_preemptions_total", None, lanes["preemptions"])],
    )
    lane_wait = []
    for lane in lane_names:
        lane_wait.extend(
            _histogram_block(
                "repro_lane_wait_seconds", {"lane": lane},
                lanes[lane]["wait_seconds"],
            )
        )
    family(
        "repro_lane_wait_seconds", "histogram",
        "Submit-to-dispatch wait per QoS lane.", lane_wait,
    )
    submit = []
    for kind, snapshot in doc["latency"]["submit_seconds"].items():
        submit.extend(
            _histogram_block("repro_submit_latency_seconds", {"kind": kind}, snapshot)
        )
    family(
        "repro_submit_latency_seconds", "histogram",
        "Submit request latency by job kind.", submit,
    )

    text = "\n".join(lines) + "\n" if lines else ""
    registry = REGISTRY if registry is None else registry
    return text + registry.exposition()


#: one exposition line: metric name, optional {labels}, a value, an
#: optional timestamp -- the shape :func:`lint_exposition` enforces
_LABEL_VALUE = r"\"(?:[^\"\\]|\\.)*\""  # quoted, with \" \\ \n escapes
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE +
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE + r")*\})?"
    r" [^ ]+( [0-9]+)?$"
)


def lint_exposition(text: str) -> list[str]:
    """Problems in a text exposition; empty list means valid.

    A deliberately strict structural check (used by tests and the CI
    service-smoke job): every line is a comment (``# HELP`` / ``# TYPE``
    with a known type) or a well-formed sample, and every sample's
    metric name was introduced by a ``# TYPE`` line.
    """
    problems: list[str] = []
    typed: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {number}: blank line inside exposition")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {number}: malformed comment {line!r}")
            elif parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(f"line {number}: malformed TYPE {line!r}")
                else:
                    typed.add(parts[2])
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {number}: malformed sample {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(f"line {number}: sample {name!r} has no # TYPE")
    return problems
