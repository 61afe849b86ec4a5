"""Load generator for the hardened service: tail latency + backpressure.

Two gates, both through the authed ``/v1`` path:

* **Duplicate-heavy load** -- thousands of concurrent submissions whose
  cells collapse onto four distinct content keys.  Gated: zero cells
  double-computed, zero cells lost, and the histogram invariant (bucket
  counts sum to the request count) holding at full load.  The p99 submit
  latency gate (client-measured AND the server's own histogram) is a
  wall-clock bound, so it is a separate ``perf``-marked test.
* **Backpressure convergence** -- a flood into a tiny high-water mark:
  submissions must be shed with 503 + Retry-After, ``submit_with_retry``
  must ride it out, and once the dust settles every distinct cell is
  durable exactly once.

Results land in ``BENCH_service.json`` (``BENCH_SERVICE_JSON`` env var)
next to the microbenchmarks.  ``REPRO_LOAD_SUBMISSIONS`` scales the
duplicate-heavy run (default 2000; CI's load-smoke uses a smaller one).
"""

from __future__ import annotations

import os
import threading
import time

import pytest
from test_service_micro import record_bench

CONFIG = {"per_call_budget": 100, "global_step_budget": 800}
TOKEN = "bench-l0adgen"

#: the duplicate-heavy mix: 4 single-cell verify specs + one table1
#: slice -- every cell in every spec maps to one of the SAME four
#: content keys, so correctness is "exactly 4 computes, ever"
PAIRS = [("LYP", "EC1"), ("LYP", "EC6"), ("Wigner", "EC1"), ("Wigner", "EC6")]
VERIFY_SPECS = [
    {"kind": "verify", "functional": fname, "condition": cid,
     "config": CONFIG}
    for fname, cid in PAIRS
]
TABLE1_SPEC = {
    "kind": "table1", "functionals": ["LYP", "Wigner"],
    "conditions": ["EC1", "EC6"], "config": CONFIG,
}
MIX = [(spec, 1) for spec in VERIFY_SPECS] + [(TABLE1_SPEC, 4)]


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
    return ordered[index]


def wait_all_jobs_done(client, timeout: float = 120.0) -> dict:
    """Poll /v1/metrics until no job is active; returns the final scrape."""
    deadline = time.monotonic() + timeout
    while True:
        metrics = client.metrics()
        if metrics["jobs"]["active"] == 0:
            return metrics
        assert time.monotonic() < deadline, (
            f"jobs still active after {timeout}s: {metrics['jobs']}"
        )
        time.sleep(0.05)


def _duplicate_heavy_load(tmp_path) -> tuple[float, float]:
    """>= 2000 concurrent duplicate-heavy submissions through the authed
    /v1 path; asserts zero double-computes, zero lost cells and the
    histogram invariant, and returns the (client, server) p99 latency."""
    from repro.service.client import ServiceClient
    from repro.service.server import ThreadedService

    total = int(os.environ.get("REPRO_LOAD_SUBMISSIONS", "2000"))
    threads_n = min(32, max(4, total // 50))

    with ThreadedService(
        tmp_path / "load.jsonl", max_workers=0,
        tokens={TOKEN: "loadgen"},
    ) as svc:
        warm_client = ServiceClient(svc.url, timeout=600, token=TOKEN)
        warm = warm_client.run(TABLE1_SPEC)
        assert warm["state"] == "done"
        assert warm["sources"]["computed"] == len(PAIRS)

        shares = [total // threads_n] * threads_n
        shares[0] += total - sum(shares)
        latencies: list[list[float]] = [[] for _ in range(threads_n)]
        cells_sent = [0] * threads_n
        errors: list = []

        def loadgen(worker: int, count: int) -> None:
            try:
                with ServiceClient(svc.url, timeout=600, token=TOKEN) as client:
                    for index in range(count):
                        spec, cells = MIX[(worker + index) % len(MIX)]
                        t0 = time.perf_counter()
                        snapshot = client.submit(spec)
                        latencies[worker].append(time.perf_counter() - t0)
                        cells_sent[worker] += cells
                        assert snapshot["state"] in (
                            "queued", "running", "done"
                        ), snapshot
            except BaseException as exc:  # surfaced to the main thread
                errors.append((worker, exc))

        workers = [
            threading.Thread(target=loadgen, args=(index, share))
            for index, share in enumerate(shares)
        ]
        t0 = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=600)
        wall = time.perf_counter() - t0
        assert not any(w.is_alive() for w in workers), "load generator hung"
        assert not errors, f"submissions failed: {errors[:3]}"

        metrics = wait_all_jobs_done(warm_client)

    flat = [sample for bucket in latencies for sample in bucket]
    assert len(flat) == total
    client_p50 = percentile(flat, 0.50)
    client_p99 = percentile(flat, 0.99)

    # -- zero double-computes, zero lost cells ----------------------------
    cells = metrics["cells"]
    expected_cells = sum(cells_sent) + len(PAIRS)  # + the warm-up run
    assert cells["computed"] == len(PAIRS), (
        f"duplicate submissions recomputed cells: {cells}"
    )
    assert (
        cells["computed"] + cells["cache"] + cells["coalesced"]
        == expected_cells
    ), f"cells went missing: {cells} vs {expected_cells} submitted"
    assert metrics["store"]["keys"] == len(PAIRS)
    assert metrics["jobs"]["submitted"] == total + 1

    # -- the histogram invariant holds at full load -----------------------
    by_kind = metrics["latency"]["submit_seconds"]
    histogram_count = 0
    server_p99 = 0.0
    for kind, histogram in by_kind.items():
        assert sum(histogram["buckets"].values()) == histogram["count"], kind
        histogram_count += histogram["count"]
        server_p99 = max(server_p99, histogram["p99"])
    assert histogram_count == total + 1

    throughput = total / wall if wall > 0 else float("inf")
    print(
        f"\nservice load: {total} duplicate-heavy submissions over "
        f"{threads_n} clients in {wall:.2f}s ({throughput:.0f}/s), "
        f"client p50 {client_p50*1e3:.1f} ms / p99 {client_p99*1e3:.1f} ms, "
        f"server p99 {server_p99*1e3:.1f} ms"
    )
    record_bench(
        "service_load",
        submissions=total,
        clients=threads_n,
        wall_s=round(wall, 3),
        throughput_per_s=round(throughput, 1),
        client_p50_ms=round(client_p50 * 1e3, 3),
        client_p99_ms=round(client_p99 * 1e3, 3),
        server_p99_ms=round(server_p99 * 1e3, 3),
        computed=cells["computed"],
        cache=cells["cache"],
        coalesced=cells["coalesced"],
    )
    return client_p99, server_p99


def test_duplicate_heavy_load_p99(tmp_path):
    """Duplicate-heavy load: zero double-computes, zero lost cells."""
    _duplicate_heavy_load(tmp_path)


@pytest.mark.perf
def test_duplicate_heavy_load_p99_gate(tmp_path):
    """Wall-clock gate: client and server p99 submit latency under
    ``REPRO_LOAD_P99_GATE`` seconds (default 2)."""
    p99_gate = float(os.environ.get("REPRO_LOAD_P99_GATE", "2.0"))
    client_p99, server_p99 = _duplicate_heavy_load(tmp_path)
    assert client_p99 <= p99_gate, (
        f"client p99 {client_p99:.3f}s over the {p99_gate}s gate"
    )
    assert server_p99 <= p99_gate, (
        f"server-side p99 {server_p99:.3f}s over the {p99_gate}s gate"
    )


def test_backpressure_503_retry_converges(tmp_path, monkeypatch):
    """Flood a tiny high-water mark: 503s fire, retries converge, and
    every distinct cell is computed exactly once and durable."""
    from repro.service.client import ServiceClient
    from repro.service.scheduler import VerificationScheduler
    from repro.service.server import ThreadedService

    def slow_stub(self, cell):
        time.sleep(0.1)
        payload = {"stub": list(cell.address)}
        self._store.put_payload(cell.content_key, payload)
        return payload

    monkeypatch.setattr(VerificationScheduler, "_compute_cell", slow_stub)

    functionals = ["LYP", "Wigner", "PZ81", "PW91", "AM05", "PBESOL"]
    specs = [
        {"kind": "verify", "functional": fname, "condition": cid,
         "config": CONFIG}
        for fname in functionals
        for cid in ("EC1", "EC6")
    ]
    threads_n, per_thread = 16, 15
    retries: list[int] = [0] * threads_n
    errors: list = []

    with ThreadedService(
        tmp_path / "bp.jsonl", max_workers=0, high_water=4,
    ) as svc:
        def loadgen(worker: int) -> None:
            def counting_sleep(seconds: float) -> None:
                retries[worker] += 1
                time.sleep(min(seconds, 0.5))

            try:
                with ServiceClient(svc.url, timeout=600) as client:
                    for index in range(per_thread):
                        spec = specs[(worker + index) % len(specs)]
                        client.submit_with_retry(
                            spec, max_attempts=50, max_backoff=0.5,
                            sleep=counting_sleep,
                        )
            except BaseException as exc:
                errors.append((worker, exc))

        workers = [
            threading.Thread(target=loadgen, args=(index,))
            for index in range(threads_n)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=600)
        assert not any(w.is_alive() for w in workers), "load generator hung"
        assert not errors, (
            f"submissions failed to converge: {errors[:3]}"
        )

        metrics = wait_all_jobs_done(ServiceClient(svc.url))

    shed = metrics["admission"]["shed"]
    assert shed >= 1, "the high-water mark never shed a submission"
    # convergence with ZERO loss: every distinct cell computed exactly
    # once (no duplicate ever recomputed), all of them durable
    assert metrics["cells"]["computed"] == len(specs)
    assert metrics["store"]["keys"] == len(specs)
    assert metrics["jobs"]["submitted"] == threads_n * per_thread
    assert metrics["requests"]["by_status"].get("503", 0) == shed

    print(
        f"\nservice backpressure: {threads_n * per_thread} submissions "
        f"against high_water=4: {shed} shed with 503, "
        f"{sum(retries)} retries, all {len(specs)} cells durable"
    )
    record_bench(
        "service_backpressure",
        submissions=threads_n * per_thread,
        shed_503=shed,
        retries=sum(retries),
        distinct_cells=len(specs),
        converged=True,
    )
