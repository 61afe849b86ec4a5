"""Scheduler semantics: classification, single-flight, fairness, drain.

Compute is stubbed (recording dispatch order, writing the store like the
real path does) so these tests pin *scheduling* behaviour deterministically
on one CPU; the real compute paths are pinned by the differential corpus
in ``test_differential.py``.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.service.jobs import JobState
from repro.service.scheduler import SchedulerDraining, VerificationScheduler
from repro.verifier.store import open_store

TINY = {"per_call_budget": 100, "global_step_budget": 400}


def table1_spec(functionals, conditions):
    return {"kind": "table1", "functionals": list(functionals),
            "conditions": list(conditions), "config": dict(TINY)}


def stub_compute(record=None, delay=0.0, fail_addresses=()):
    """A _compute_cell replacement: store-writing, deterministic, fast."""

    def compute(self, cell):
        if record is not None:
            record.append(cell.address)
        if delay:
            time.sleep(delay)
        if cell.address in fail_addresses:
            raise RuntimeError(f"stub failure at {cell.address}")
        payload = {"stub": list(cell.address)}
        if cell.kind == "numerics":
            payload["kind"] = f"numerics/{cell.address[2]}"
        self._store.put_payload(cell.content_key, payload)
        return payload

    return compute


async def wait_done(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not job.done:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"job stuck in {job.state}"
        try:
            await asyncio.wait_for(job.wait_change(job.version), timeout=remaining)
        except asyncio.TimeoutError:
            raise AssertionError(f"job stuck in {job.state}") from None
    return job


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def store(tmp_path):
    store = open_store(tmp_path / "svc.jsonl")
    yield store
    store.close()


class TestClassification:
    def test_computed_then_cached(self, store, monkeypatch):
        monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            first = await wait_done(await sched.submit(
                table1_spec(["Wigner"], ["EC1", "EC6"])))
            second = await wait_done(await sched.submit(
                table1_spec(["Wigner"], ["EC1", "EC6"])))
            await sched.drain()
            return first, second

        first, second = run(body())
        assert first.state == JobState.DONE
        assert first.source_counts() == {"computed": 2, "cache": 0, "coalesced": 0}
        assert second.source_counts() == {"computed": 0, "cache": 2, "coalesced": 0}
        assert second.payloads == first.payloads

    def test_single_flight_coalescing(self, store, monkeypatch):
        record = []
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(record=record, delay=0.2),
        )

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            a = await sched.submit(table1_spec(["Wigner"], ["EC1", "EC6"]))
            b = await sched.submit(table1_spec(["Wigner"], ["EC1", "EC6"]))
            await wait_done(a)
            await wait_done(b)
            await sched.drain()
            return a, b

        a, b = run(body())
        # every distinct cell computed exactly once
        assert sorted(record) == sorted(set(record))
        assert len(record) == 2
        assert a.source_counts()["computed"] == 2
        counts = b.source_counts()
        assert counts["computed"] == 0
        assert counts["coalesced"] + counts["cache"] == 2
        assert b.payloads == a.payloads

    def test_numerics_cells_classified_by_kind(self, store, monkeypatch):
        monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            spec = {"kind": "numerics", "functionals": ["Wigner"],
                    "checks": ["continuity"]}
            first = await wait_done(await sched.submit(spec))
            second = await wait_done(await sched.submit(spec))
            await sched.drain()
            return first, second

        first, second = run(body())
        assert first.source_counts()["computed"] == 1
        assert second.source_counts() == {"computed": 0, "cache": 1, "coalesced": 0}


class TestFairness:
    def test_round_robin_interleaves_jobs(self, store, monkeypatch):
        """A later small job must not wait behind an earlier job's whole
        queue: its first cell dispatches before the first job's last."""
        record = []
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(record=record, delay=0.05),
        )

        async def body():
            sched = VerificationScheduler(store, max_workers=0, max_inflight=1)
            await sched.start()
            a = await sched.submit(
                table1_spec(["LYP"], ["EC1", "EC2", "EC3", "EC6", "EC7"]))
            b = await sched.submit(table1_spec(["Wigner"], ["EC1"]))
            await wait_done(a)
            await wait_done(b)
            await sched.drain()
            return a, b

        run(body())
        first_b = record.index(("Wigner", "EC1"))
        last_a = max(
            i for i, address in enumerate(record) if address[0] == "LYP"
        )
        assert first_b < last_a, (
            f"job B starved behind job A: dispatch order {record}"
        )


class TestFailure:
    def test_failing_cell_fails_job_keeps_partials(self, store, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(fail_addresses={("Wigner", "EC6")}),
        )

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            job = await wait_done(await sched.submit(
                table1_spec(["Wigner"], ["EC1", "EC6"])))
            await sched.drain()
            return job

        job = run(body())
        assert job.state == JobState.FAILED
        assert ("Wigner", "EC1") in job.payloads
        assert "stub failure" in job.errors[("Wigner", "EC6")]
        result = job.result_payload()
        assert "error" in result["cells"]["Wigner/EC6"]
        json.dumps(result)  # JSON-safe even with failures

    def test_failure_propagates_to_coalesced_jobs(self, store, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(delay=0.2, fail_addresses={("Wigner", "EC1")}),
        )

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            a = await sched.submit(table1_spec(["Wigner"], ["EC1"]))
            b = await sched.submit(table1_spec(["Wigner"], ["EC1"]))
            await wait_done(a)
            await wait_done(b)
            await sched.drain()
            return a, b

        a, b = run(body())
        assert a.state == JobState.FAILED
        assert b.state == JobState.FAILED


class TestDrain:
    def test_drain_cancels_pending_keeps_done(self, store, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell", stub_compute(delay=0.3),
        )

        async def body():
            sched = VerificationScheduler(store, max_workers=0, max_inflight=1)
            await sched.start()
            job = await sched.submit(
                table1_spec(["LYP"], ["EC1", "EC2", "EC3", "EC6", "EC7"]))
            # let exactly the first cell start, then drain
            await asyncio.sleep(0.1)
            await sched.drain()
            await wait_done(job)
            return job

        job = run(body())
        assert job.state == JobState.CANCELLED
        # the in-flight cell finished and is durable; queued ones cancelled
        assert len(job.payloads) >= 1
        assert len(job.cancelled_cells) >= 1
        assert len(job.payloads) + len(job.cancelled_cells) == 5
        for address in job.payloads:
            assert job.sources[address] == "computed"
        # everything completed was committed to the store before the drain
        assert len(store.keys()) == len(job.payloads)

    def test_duplicate_slice_job_terminates(self, store, monkeypatch):
        """End-to-end guard for the dedupe: a duplicate-name slice must
        reach a terminal state (pre-fix it hung at resolved 1/2)."""
        monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            job = await wait_done(await sched.submit(
                {"kind": "table1", "functionals": ["Wigner", "Wigner"],
                 "conditions": ["EC1"], "config": dict(TINY)}), timeout=20)
            await sched.drain()
            return job

        job = run(body())
        assert job.state == JobState.DONE
        assert len(job.cells) == 1

    def test_finished_jobs_evicted_beyond_bound(self, store, monkeypatch):
        monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())

        async def body():
            sched = VerificationScheduler(store, max_workers=0,
                                          max_finished_jobs=2)
            await sched.start()
            jobs = []
            for _ in range(4):
                jobs.append(await wait_done(await sched.submit(
                    table1_spec(["Wigner"], ["EC1"]))))
            ids = [job.id for job in sched.jobs()]
            await sched.drain()
            return jobs, ids

        jobs, ids = run(body())
        # the oldest finished jobs were evicted; the newest survive
        assert jobs[-1].id in ids
        assert len(ids) <= 3  # bound + the job submitted after eviction

    def test_submit_after_drain_rejected(self, store, monkeypatch):
        monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            await sched.drain()
            with pytest.raises(SchedulerDraining):
                await sched.submit(table1_spec(["Wigner"], ["EC1"]))

        run(body())


def verify_spec(functional="LYP", condition="EC1"):
    return {"kind": "verify", "functional": functional, "condition": condition,
            "config": dict(TINY)}


class TestQosLanes:
    """Interactive-over-batch dispatch priority, at cell granularity."""

    def test_lane_classification(self, store, monkeypatch):
        monkeypatch.setattr(VerificationScheduler, "_compute_cell", stub_compute())

        async def body():
            sched = VerificationScheduler(store, max_workers=0)
            await sched.start()
            verify = await sched.submit(verify_spec())
            small = await sched.submit(table1_spec(["Wigner"], ["EC1", "EC6"]))
            sweep = await sched.submit(
                table1_spec(["Wigner"], ["EC1", "EC2", "EC3", "EC6"]))
            for job in (verify, small, sweep):
                await wait_done(job)
            await sched.drain()
            return verify, small, sweep

        verify, small, sweep = run(body())
        assert verify.lane == "interactive"   # single-pair probe, always
        assert small.lane == "interactive"    # <= INTERACTIVE_MAX_CELLS
        assert sweep.lane == "batch"

    def test_interactive_preempts_queued_batch_cells(self, store, monkeypatch):
        record = []
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(record=record, delay=0.15),
        )

        async def body():
            # one cell executing at a time: dispatch order IS record order
            sched = VerificationScheduler(store, max_workers=0, max_inflight=1)
            await sched.start()
            sweep = await sched.submit(
                table1_spec(["Wigner"], ["EC1", "EC2", "EC3", "EC6"]))
            await asyncio.sleep(0.05)  # first batch cell is now executing
            probe = await sched.submit(verify_spec())
            await wait_done(probe)
            sweep_done_after_probe = not sweep.done
            await wait_done(sweep)
            await sched.drain()
            return sched, probe, sweep_done_after_probe

        sched, probe, sweep_was_still_running = run(body())
        probe_at = record.index(("LYP", "EC1"))
        # the probe ran after the executing batch cell, before the rest
        assert probe_at <= 2
        assert len(record) == 5
        assert sweep_was_still_running
        assert sched.lane_preemptions >= 1
        assert sched.lane_dispatched == {"interactive": 1, "batch": 4}
        assert sched.lane_wait["interactive"].count == 1
        assert sched.lane_wait["batch"].count == 4

    def test_lane_depths_track_pending_cells(self, store, monkeypatch):
        monkeypatch.setattr(
            VerificationScheduler, "_compute_cell",
            stub_compute(delay=0.2),
        )

        async def body():
            sched = VerificationScheduler(store, max_workers=0, max_inflight=1)
            await sched.start()
            await sched.submit(
                table1_spec(["Wigner"], ["EC1", "EC2", "EC3", "EC6"]))
            await sched.submit(verify_spec())
            await asyncio.sleep(0.05)  # one batch cell executing
            depths = sched.lane_depths()
            total = sched.queue_depth()
            # finish everything before drain
            for job in sched.jobs():
                await wait_done(job)
            await sched.drain()
            return depths, total

        depths, total = run(body())
        assert depths["interactive"] == 1
        assert depths["batch"] == 3  # 4 cells minus the one executing
        assert depths["interactive"] + depths["batch"] == total
