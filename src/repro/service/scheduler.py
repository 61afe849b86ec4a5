"""The service scheduler: asyncio front-end over the campaign engine.

Bridges many concurrent jobs onto ONE shared :class:`ProcessPoolExecutor`
with three properties the one-shot CLI path cannot offer:

* **fair interleaving at chunk granularity** -- jobs lower to campaign
  cells (each cell is one dispatched chunk of the campaign engine's
  work-pulling loop); the dispatcher round-robins over active jobs, one
  cell per turn, so a 31-cell Table I job and a 2-cell verify job make
  progress together instead of the later job waiting behind the earlier
  job's whole queue;
* **single-flight coalescing** -- in-flight cells are registered by
  content key; a second request for the same key (any job, any client)
  attaches to the running computation's future instead of scheduling a
  duplicate.  Cells already in the store are served straight from it at
  submit time, without scheduling at all -- repeated queries are
  O(lookup) instead of O(solve);
* **amortised compilation** -- content keys require the compiled tapes;
  the scheduler's key cache pays that once per (cell, semantic config)
  for the server's lifetime (sound in a resident process: tapes are pure
  functions of registry code).

Cell computations run the *exact* campaign code paths -- verify cells go
through :func:`repro.verifier.campaign.run_campaign` (whose chunks the
shared executor drives via ``drive_chunks``), numerics cells through the
same worker function :func:`repro.numerics.campaign.run_numerics_campaign`
dispatches -- and are persisted under the same content keys, so payloads
served by the service are bit-identical to the direct campaign paths
(``tests/service/test_differential.py``) and the store is interchangeable
between the service and ``--store``/``--resume`` CLI campaigns.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..numerics.campaign import _numerics_worker, cell_condition_id
from ..obs.metrics import Histogram
from ..verifier.campaign import _campaign_worker_warm, run_campaign
from ..verifier.store import CampaignStore, report_to_payload
from .jobs import CellTask, Job, JobState, attach_future, spec_from_payload

__all__ = ["LANES", "SchedulerDraining", "VerificationScheduler"]

#: QoS lanes, in strict dispatch-priority order: the dispatcher always
#: drains interactive work before touching batch work
LANES = ("interactive", "batch")

#: jobs with at most this many cells ride the interactive lane (single-pair
#: ``verify`` jobs always do)
INTERACTIVE_MAX_CELLS = 2


def _pool_context():
    """Fork where available (Linux), the platform default elsewhere.

    Fork keeps embedding parents working (a REPL, pytest, a heredoc
    script -- anything whose ``__main__`` cannot be re-imported the way
    spawn requires) and costs nothing to boot; the fork-vs-threads
    hazard is handled by :meth:`VerificationScheduler.start` forking
    every worker eagerly while the process is still quiet.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform (Windows)
        return multiprocessing.get_context()


class SchedulerDraining(RuntimeError):
    """Raised for submissions that arrive while the server is draining."""


class VerificationScheduler:
    """Owns the shared pool, the job registry and the in-flight cell map.

    ``max_workers=0`` computes cells inline in the serving process's
    thread pool (no child processes -- the deterministic test/debug
    mode); any other value (``None`` = CPU count) creates one
    :class:`ProcessPoolExecutor` shared by every cell of every job.
    ``max_inflight`` bounds concurrently executing cells (default: pool
    width + 1, so the pool never starves while one result is absorbed).

    Every job is classified into a QoS lane at submit time: single-pair
    ``verify`` jobs -- and any job of at most
    :data:`INTERACTIVE_MAX_CELLS` cells -- ride the
    **interactive** lane, which the dispatcher drains strictly before
    the **batch** lane.  An interactive probe submitted mid-sweep
    therefore preempts a 31-cell Table I job at *cell* granularity: the
    batch cell already executing finishes, the probe's cell dispatches
    next.  Lanes are pure dispatch priority -- cell content keys, single
    -flight coalescing and payloads are lane-blind -- and per-lane queue
    depth, wait-time histograms and preemption counts are exported by
    ``/v1/metrics``.
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        max_workers: int | None = 0,
        max_inflight: int | None = None,
        max_finished_jobs: int = 256,
    ):
        self._store = store
        self._max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        if max_inflight is None:
            if max_workers == 0:
                max_inflight = 2
            else:
                max_inflight = (max_workers or os.cpu_count() or 1) + 1
        self._max_inflight = max(1, max_inflight)
        self._max_finished_jobs = max(1, max_finished_jobs)
        # cell computes block a thread for a whole solve; they get their
        # own executor so max_inflight of them can never starve asyncio's
        # shared to_thread pool, which submit()'s spec lowering and store
        # lookups (and anything else on the loop) depend on
        self._compute_executor = ThreadPoolExecutor(
            max_workers=self._max_inflight,
            thread_name_prefix="repro-cell",
        )
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        #: keys whose compute finished (store write included) -- closes
        #: the submit-classification race where a cell completes during
        #: the batched store-lookup await: the stale lookup misses, the
        #: in-flight future is gone, and without this set the cell would
        #: re-register as "computed" (a spurious recompute for any
        #: compute path that does not resume from the store)
        self._completed_keys: set[str] = set()
        #: per-job pending cells, each carrying its enqueue timestamp
        self._pending: dict[str, deque[tuple[CellTask, float]]] = {}
        #: one round-robin ring per lane
        self._rings: dict[str, deque[str]] = {lane: deque() for lane in LANES}
        self._key_cache: dict = {}
        self._next_job = 0
        self._draining = False
        #: scrape-friendly counters (mutated on the event-loop thread,
        #: read by the /v1/metrics handler on the same loop)
        self.stats: dict = {
            "jobs_submitted": 0,
            "jobs_by_kind": {},
            "cells_computed": 0,
            "cells_cache": 0,
            "cells_coalesced": 0,
        }
        #: per-lane dispatch counters + submit->dispatch wait histograms
        #: (event-loop thread only, like ``stats``)
        self.lane_dispatched: dict[str, int] = {lane: 0 for lane in LANES}
        self.lane_wait: dict[str, Histogram] = {lane: Histogram() for lane in LANES}
        #: interactive cells dispatched while batch work sat queued
        self.lane_preemptions = 0
        self.executing = 0  # cells currently on the compute executor
        self._wake: asyncio.Event | None = None
        self._sem: asyncio.Semaphore | None = None
        self._dispatcher: asyncio.Task | None = None
        self._cell_tasks: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._sem = asyncio.Semaphore(self._max_inflight)
        if self._max_workers != 0:
            # The serving process is inherently multi-threaded (event
            # loop, job threads, HTTP handlers), and a fork-based worker
            # forked lazily at first submit can inherit a lock some other
            # thread held at that instant and deadlock in the child --
            # observed as a cell compute that never returns under load.
            # Spawn/forkserver would re-import the parent's __main__,
            # breaking interactive embedding, so instead every fork is
            # forced to happen HERE: before the HTTP listener exists,
            # before any job or to_thread worker runs, while the process
            # is quiet.  The sleeping warm tasks defeat the executor's
            # lazy on-demand spawning (an idle worker suppresses new
            # forks, a busy one does not), and the gather does not return
            # until every worker process is up; the pool never forks
            # again for the server's lifetime.  The warm task also pulls
            # in the campaign worker's module graph (encoder, solver,
            # registries), so a worker's first real chunk only pays the
            # per-problem compile, not the imports.
            width = self._max_workers or os.cpu_count() or 1
            self._pool = ProcessPoolExecutor(
                max_workers=width,
                mp_context=_pool_context(),
            )
            warms = [
                self._pool.submit(_campaign_worker_warm, 0.1)
                for _ in range(width)
            ]
            await asyncio.gather(*(asyncio.wrap_future(f) for f in warms))
        self._dispatcher = asyncio.create_task(self._dispatch())

    async def drain(self) -> None:
        """Graceful shutdown: finish executing cells, cancel queued ones.

        Cells already computing run to completion -- their results are
        committed to the store before the pool goes down, which is what
        makes a SIGTERM'd server resumable: a restart against the same
        store serves everything that finished as cache hits.  Queued
        cells are cancelled; their jobs end ``cancelled`` with partial
        (durable) results.
        """
        self._draining = True
        if self._wake is not None:
            self._wake.set()
        # cancel never-started cells so coalesced waiters unblock too
        for pending in self._pending.values():
            for cell, _enqueued_at in pending:
                future = self._inflight.pop(cell.content_key, None)
                if future is not None and not future.done():
                    future.cancel()
        self._pending.clear()
        for ring in self._rings.values():
            ring.clear()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._cell_tasks:
            await asyncio.gather(*self._cell_tasks, return_exceptions=True)
        if self._pool is not None:
            await asyncio.to_thread(self._pool.shutdown, True)
            self._pool = None
        await asyncio.to_thread(self._compute_executor.shutdown, True)

    # -- submission --------------------------------------------------------
    async def submit(self, payload: dict) -> Job:
        """Validate, lower, classify and enqueue one job.

        Lowering (registry resolution + content-key derivation, i.e. the
        tape compiles the key cache has not seen yet) runs in a worker
        thread so the event loop keeps serving while a cold spec
        compiles.  Every cell is then classified exactly once:

        * stored under its content key -> served immediately (``cache``);
        * an identical cell in flight  -> attach to it (``coalesced``);
        * otherwise                    -> register the single-flight
          future and queue for dispatch (``computed``).
        """
        if self._draining:
            raise SchedulerDraining("server is draining; submission rejected")
        self._evict_finished()
        spec = await asyncio.to_thread(spec_from_payload, payload)
        cells = await asyncio.to_thread(spec.cell_tasks, self._key_cache)
        self._next_job += 1
        job = Job(
            id=f"job-{self._next_job}",
            spec=spec,
            cells=cells,
            lane=self._classify_lane(spec, cells),
        )
        self._jobs[job.id] = job
        # one batched store pass (a single thread hop) for every cell not
        # already in flight; a per-cell await would pay N thread-hop
        # round-trips on a warm job and open N coalescing race windows
        to_lookup = [
            cell for cell in cells if cell.content_key not in self._inflight
        ]
        stored_map = await asyncio.to_thread(
            lambda: {c.content_key: self._store_lookup(c) for c in to_lookup}
        )
        self.stats["jobs_submitted"] += 1
        self.stats["jobs_by_kind"][spec.kind] = (
            self.stats["jobs_by_kind"].get(spec.kind, 0) + 1
        )
        pending: deque[CellTask] = deque()
        for cell in cells:
            # the lookup await yielded the loop: an identical cell may
            # have been registered by a concurrent submission in the
            # meantime -- the in-flight check runs after it, or two jobs
            # would compute the same key twice.
            shared = self._inflight.get(cell.content_key)
            if shared is not None:
                attach_future(job, cell, shared, "coalesced")
                self.stats["cells_coalesced"] += 1
                continue
            stored = stored_map.get(cell.content_key)
            if stored is None and cell.content_key in self._completed_keys:
                # the cell *finished* during the await: the batched
                # lookup predates its store write and the in-flight
                # future is already resolved and gone.  The store write
                # precedes both (same loop-thread finally), so this
                # synchronous re-read always hits -- without it the cell
                # would re-register as a spurious "computed".
                stored = self._store_lookup(cell)
            if stored is not None:
                job.complete_cell(cell, stored, "cache")
                self.stats["cells_cache"] += 1
                continue
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._inflight[cell.content_key] = future
            attach_future(job, cell, future, "computed")
            self.stats["cells_computed"] += 1
            pending.append(cell)
        if pending and not self._draining:
            now = time.monotonic()
            self._pending[job.id] = deque((cell, now) for cell in pending)
            self._rings[job.lane].append(job.id)
            self._wake.set()
        elif pending:
            # drained between the check above and here: cancel cleanly
            for cell in pending:
                future = self._inflight.pop(cell.content_key, None)
                if future is not None and not future.done():
                    future.cancel()
        if not job.done:
            job.state = JobState.RUNNING
        job.touch()
        return job

    def _classify_lane(self, spec, cells) -> str:
        """QoS lane of one job: small/point queries are interactive.

        Single-pair ``verify`` jobs are the service's latency-sensitive
        workload by construction; any other job small enough
        (:data:`INTERACTIVE_MAX_CELLS`) rides along, so a two-cell numerics
        probe is not stuck behind a full table sweep either.
        """
        if spec.kind == "verify" or len(cells) <= INTERACTIVE_MAX_CELLS:
            return "interactive"
        return "batch"

    def _evict_finished(self) -> None:
        """Drop the oldest terminal jobs beyond the retention bound.

        A resident server would otherwise accumulate every finished job's
        full cell payloads forever; the results themselves are already
        durable in the store, so an evicted job only costs a late client
        its 404-free snapshot (it can resubmit and hit the cache).
        Running jobs are never evicted.
        """
        finished = [job for job in self._jobs.values() if job.done]
        excess = len(finished) - self._max_finished_jobs
        if excess <= 0:
            return
        finished.sort(key=lambda job: (job.finished_at or 0.0, job.id))
        for job in finished[:excess]:
            del self._jobs[job.id]

    def job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    # -- observability (read from the event-loop thread) -------------------
    def queue_depth(self) -> int:
        """Cells queued for dispatch (excludes cells already executing).

        This is the quantity admission control gates on: executing cells
        are bounded by ``max_inflight`` already, the queue is the only
        part that can grow without bound.
        """
        return sum(len(pending) for pending in self._pending.values())

    def lane_depths(self) -> dict[str, int]:
        """Queued cells per QoS lane (sums to :meth:`queue_depth`)."""
        depths = {lane: 0 for lane in LANES}
        for job_id, pending in self._pending.items():
            job = self._jobs.get(job_id)
            depths[job.lane if job is not None else "batch"] += len(pending)
        return depths

    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    @property
    def pool_width(self) -> int:
        """Process-pool width (0 = inline compute mode)."""
        if self._max_workers == 0:
            return 0
        return self._max_workers or os.cpu_count() or 1

    @property
    def store_path(self) -> str:
        return self._store.path

    def store_keys(self) -> int:
        return len(self._store.keys())

    def _store_lookup(self, cell: CellTask) -> dict | None:
        payload = self._store.get_payload(cell.content_key)
        if payload is None:
            return None
        # a key can only hold the cell kind it was hashed for; this is a
        # kind sanity filter, mirroring CampaignStore.get
        has_kind = "kind" in payload
        if cell.kind == "verify" and has_kind:
            return None
        if cell.kind == "numerics" and not has_kind:
            return None
        return payload

    # -- dispatch ----------------------------------------------------------
    def _next_cell(self) -> tuple[str, CellTask] | None:
        """One cell from the highest-priority lane with pending work.

        Within a lane, jobs round-robin (one cell per turn) exactly as
        before; across lanes the interactive ring is drained strictly
        first, which is the preemption: a batch sweep's next cell waits
        whenever any interactive cell is queued.  Lane wait time
        (submit -> dispatch) is observed here, on the dispatching side
        of the queue.
        """
        for lane in LANES:
            ring = self._rings[lane]
            while ring:
                job_id = ring.popleft()
                pending = self._pending.get(job_id)
                if not pending:
                    self._pending.pop(job_id, None)
                    continue
                cell, enqueued_at = pending.popleft()
                if pending:
                    ring.append(job_id)
                else:
                    self._pending.pop(job_id, None)
                if lane == "interactive" and self._rings["batch"]:
                    self.lane_preemptions += 1
                self.lane_dispatched[lane] += 1
                self.lane_wait[lane].observe(time.monotonic() - enqueued_at)
                return job_id, cell
        return None

    def _rings_empty(self) -> bool:
        return not any(self._rings.values())

    async def _dispatch(self) -> None:
        while not self._draining:
            if self._rings_empty():
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._sem.acquire()
            if self._draining:
                self._sem.release()
                return
            item = self._next_cell()
            if item is None:
                self._sem.release()
                continue
            _job_id, cell = item
            task = asyncio.create_task(self._run_cell(cell))
            self._cell_tasks.add(task)
            task.add_done_callback(self._cell_tasks.discard)

    async def _run_cell(self, cell: CellTask) -> None:
        future = self._inflight.get(cell.content_key)
        self.executing += 1
        try:
            payload = await asyncio.get_running_loop().run_in_executor(
                self._compute_executor, self._compute_cell, cell
            )
        except BaseException as exc:  # delivered to every attached job
            if future is not None and not future.done():
                future.set_exception(exc)
                # consumed by attach_future callbacks; never re-raised here
                future.exception()
        else:
            # the store write happened inside _compute_cell, strictly
            # before this: a key in _completed_keys is always readable
            self._completed_keys.add(cell.content_key)
            if future is not None and not future.done():
                future.set_result(payload)
        finally:
            self.executing -= 1
            self._inflight.pop(cell.content_key, None)
            self._sem.release()

    # -- the compute paths (worker threads) --------------------------------
    def _compute_cell(self, cell: CellTask) -> dict:
        """Compute one cell through the exact campaign code path.

        Runs in a worker thread; the actual solving happens on the shared
        process pool (or inline with ``max_workers=0``).  The store write
        happens *before* the single-flight future resolves, so there is
        no window where a key is neither in flight nor in the store.
        """
        if cell.kind == "verify":
            fname, cid = cell.address
            result = run_campaign(
                [(fname, cid)],
                cell.config,
                max_workers=0,
                executor=self._pool,
                store=self._store,
                resume=True,
            )
            return report_to_payload(result.reports[(fname, cid)])
        # numerics: the same worker function run_numerics_campaign dispatches
        args = (cell.config, cell.address)
        if self._pool is not None:
            payload = self._pool.submit(_numerics_worker, args).result()
        else:
            payload = _numerics_worker(args)
        self._store.put_payload(
            cell.content_key,
            payload,
            functional=cell.address[0],
            condition_id=cell_condition_id(cell.address),
        )
        return payload
