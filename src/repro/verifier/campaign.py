"""Campaign engine: a work-stealing scheduler over one shared process pool.

The paper's evaluation (Table I) is a *campaign*: an arbitrary set of
(functional x condition x subdomain) verification tasks under finite
budgets.  This module replaces the two disjoint static-partition drivers
that used to run such workloads with one scheduler:

* every cell's work is cut into **units** -- a subdomain box plus its own
  slice of the global step budget -- and all units of all cells share a
  single process pool.  Units are dispatched in small chunks and workers
  *pull* the next chunk as they finish, so a cell that turns out to be
  SCAN-sized no longer starves workers that were pre-assigned cheap
  chunks (dynamic work-stealing, in contrast to pre-partitioned
  ``pool.map`` fan-out);
* splits discovered at runtime can be **re-enqueued**: with
  ``steal_depth > 0`` a worker near the top of the tree solves only its
  unit's root box and hands the split children back to the scheduler as
  fresh units, so one pair's widening search tree spreads across the
  whole pool instead of staying on the worker that found it;
* finished cells are stitched back into the exact region tree the
  sequential verifier would have produced (same records, indices, child
  links and step counts -- the differential corpus in
  ``tests/verifier/test_campaign.py`` pins this) and, when a
  :mod:`store <repro.verifier.store>` is attached, persisted immediately
  under a content-hash key.  A re-run with ``resume=True`` turns every
  unchanged cell into a cache hit, which is what makes long campaigns
  survivable: kill the process at any point and only in-flight cells are
  recomputed.

``verify_pairs_parallel`` and ``verify_domain_parallel`` in
:mod:`repro.verifier.parallel` are thin wrappers over this engine.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from ..conditions.catalog import get_condition
from ..functionals.registry import get_functional
from ..obs.metrics import REGISTRY
from ..obs.trace import SpanRecorder, current_tracer
from ..solver.box import Box
from .encoder import CompiledProblem, EncodedProblem, compile_problem, encode
from .regions import RegionRecord, VerificationReport
from .store import SCHEMA_VERSION, CampaignStore, open_store
from .verifier import Verifier, VerifierConfig

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "dedupe_pairs",
    "drive_chunks",
    "effective_workers",
    "pair_content_key",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Validated bundle of the campaign's scheduling knobs.

    The knobs themselves have always existed as ``run_campaign`` keyword
    arguments; this type exists to reject nonsense *loudly* -- a negative
    ``steal_depth`` used to flow silently into the engine and simply
    disable spilling, and a negative ``max_workers`` crashed deep inside
    ``ProcessPoolExecutor``.  ``run_campaign`` constructs one from its
    arguments, so every entry point (CLI, service, tests) shares the
    same one-line errors.
    """

    max_workers: int | None = None
    presplit_levels: int = 0
    steal_depth: int = 0
    unit_chunk_size: int = 1

    def __post_init__(self):
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )
        if self.presplit_levels < 0:
            raise ValueError(
                f"presplit_levels must be >= 0, got {self.presplit_levels}"
            )
        if self.steal_depth < 0:
            raise ValueError(f"steal_depth must be >= 0, got {self.steal_depth}")
        if self.unit_chunk_size < 1:
            raise ValueError(
                f"unit_chunk_size must be >= 1, got {self.unit_chunk_size}"
            )


def effective_workers(
    max_workers: int | None, executor: ProcessPoolExecutor | None = None
) -> int:
    """The pool width a campaign will actually run on.

    The scheduling policy sizes per-pair pre-splits against this: a
    shared executor answers with its own width, ``None`` means the CPU
    count (the executor default), and ``0``/``1`` mean in-process.
    """
    if executor is not None:
        return getattr(executor, "_max_workers", None) or (os.cpu_count() or 1)
    if max_workers is None:
        return os.cpu_count() or 1
    return max(1, max_workers)


def pair_content_key(
    functional,
    condition,
    config: VerifierConfig,
    *,
    presplit_levels: int = 0,
    steal_depth: int = 0,
    compiled: CompiledProblem | None = None,
) -> str:
    """Store key of one (functional, condition) campaign cell.

    This is the key :func:`run_campaign` files completed cells under, and
    the key the verification service coalesces concurrent requests on --
    both must derive it identically or the service would recompute cells
    the campaign already stored (or worse, serve one request's cell to a
    semantically different one).  It covers the compiled tapes
    bit-for-bit, the semantic verifier config, the scheduling knobs that
    alter report *contents* (budget division across pre-split/spilled
    units) and the pair's registry key, so two registry entries that
    happen to encode to identical tapes stay separate cells.

    ``compiled`` lets callers that already paid the encode + tape-compile
    (the service's key cache, the campaign's payload build) reuse it.
    """
    if isinstance(functional, str):
        functional = get_functional(functional)
    if isinstance(condition, str):
        condition = get_condition(condition)
    if compiled is None:
        compiled = compile_problem(encode(functional, condition))
    return compiled.content_hash(
        extra=(
            *config.semantic_key(),
            presplit_levels,
            steal_depth,
            functional.name,
            condition.cid,
        )
    )


def _pinned_plan(
    store, base_key: str, presplit_levels: int, steal_depth: int
) -> tuple[int, int]:
    """Pin a policy's split plan in the store, first writer wins.

    Planned knobs enter the content key, and the plan itself depends on
    the store's timing history -- so replanning against a warmer store
    would silently re-key (and recompute) cells an earlier adaptive run
    already persisted.  The first adaptive run against a store records
    its plan per pair under the pair's *base*-knob key; every later run
    replays that record, keeping ``--adaptive --resume`` runs full store
    hits with byte-identical artifacts.
    """
    plan_key = "sched-plan:" + base_key
    record = store.get_payload(plan_key)
    if record is not None:
        return int(record["presplit_levels"]), int(record["steal_depth"])
    store.put_payload(
        plan_key,
        {
            "v": SCHEMA_VERSION,
            "kind": "sched-plan",
            "presplit_levels": presplit_levels,
            "steal_depth": steal_depth,
        },
    )
    return presplit_levels, steal_depth


# ---------------------------------------------------------------------------
# the shared chunk-dispatch loop
# ---------------------------------------------------------------------------

def drive_chunks(
    chunks: Iterable[tuple],
    worker: Callable,
    absorb: Callable,
    *,
    max_workers: int | None = None,
    executor: ProcessPoolExecutor | None = None,
    prefer_pool: bool = False,
    tracer=None,
    chunk_trace: Callable | None = None,
) -> None:
    """Run ``(tag, args)`` chunks over one shared work-pulling pool.

    This is the campaign engine's scheduling core, shared by the
    verification campaign and the numerics campaign: every chunk of every
    cell goes into a single queue, ``worker(args)`` runs in a worker
    process (it must be a picklable module-level function), and
    ``absorb(tag, out)`` runs in the parent as results land -- returning
    an iterable of *new* chunks to enqueue (spilled splits), so workers
    pull fresh work the moment they finish instead of being pre-assigned
    static shards.

    ``max_workers`` <= 1 (with no ``executor``) runs everything
    in-process through the identical worker/absorb code path -- fully
    deterministic, no pickling.  A single seed chunk also stays
    in-process unless ``prefer_pool`` says spills are expected to fan it
    out.  An ``executor`` passed in is shared, not owned: the caller
    keeps its lifecycle, so several campaigns can run over one pool.

    KeyboardInterrupt is *not* caught here -- callers decide what a
    partial campaign means.  On the way out an owned pool is shut down
    with its queue cancelled; on a shared pool this run's still-queued
    chunks are cancelled (chunks already executing run to completion,
    their results discarded).

    With an enabled ``tracer`` (default: the ambient
    :func:`~repro.obs.trace.current_tracer`) every chunk gets a
    ``dispatch`` span covering submit to result arrival -- queue wait
    plus worker execution -- and the span's pickled
    :class:`~repro.obs.trace.SpanContext` is appended to the chunk's
    args tuple so the worker's own spans parent under it.
    ``chunk_trace(tag)`` names the parent span and a label (the campaign
    scheduler passes each cell's span and pair name), so stolen
    re-enqueues stay attached to their cell no matter which worker picks
    them up.  Tracing off costs one ``enabled`` check per chunk.
    """
    queue: deque = deque(chunks)
    tracer = tracer if tracer is not None else current_tracer()
    tracing = tracer.enabled

    def begin_dispatch(tag, args):
        parent, label = chunk_trace(tag) if chunk_trace is not None else (None, None)
        name = f"dispatch:{label}" if label else "dispatch"
        span = tracer.begin(name, "dispatch", parent)
        return span, args + (tracer.context(span),)

    in_process = executor is None and (
        (max_workers is not None and max_workers <= 1)
        or (len(queue) <= 1 and not prefer_pool)
    )
    if in_process:
        # same worker code path, no pool and no pickling
        while queue:
            tag, args = queue.popleft()
            if tracing:
                span, args = begin_dispatch(tag, args)
                out = worker(args)
                tracer.finish(span)
            else:
                out = worker(args)
            queue.extend(absorb(tag, out))
        return
    owns_executor = executor is None
    if owns_executor:
        executor = ProcessPoolExecutor(max_workers=max_workers)
    futures: dict = {}
    spans: dict = {}
    try:
        # submit everything: the pool's internal queue IS the shared work
        # queue -- idle workers pull the next chunk as they finish, and
        # spilled splits join the queue as they appear
        for tag, args in queue:
            if tracing:
                span, args = begin_dispatch(tag, args)
            future = executor.submit(worker, args)
            futures[future] = tag
            if tracing:
                spans[future] = span
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                tag = futures.pop(future)
                span = spans.pop(future, None)
                if span is not None:
                    tracer.finish(span)
                for new_tag, args in absorb(tag, future.result()):
                    if tracing:
                        span, args = begin_dispatch(new_tag, args)
                    new_future = executor.submit(worker, args)
                    futures[new_future] = new_tag
                    if tracing:
                        spans[new_future] = span
    finally:
        if owns_executor:
            executor.shutdown(wait=False, cancel_futures=True)
        else:
            # a shared pool outlives this campaign: drop our queued chunks
            # so an abandoned run does not keep burning the caller's
            # workers (chunks already running finish and are discarded)
            for future in futures:
                future.cancel()


# ---------------------------------------------------------------------------
# task normalisation
# ---------------------------------------------------------------------------

def dedupe_pairs(pairs) -> list[tuple[tuple[str, str], object, object]]:
    """Resolve and de-duplicate (functional, condition) pairs, in order.

    Accepts functional/condition objects or their registry names.  Passing
    the same pair twice is de-duplicated up front (the duplicate would
    only recompute and overwrite an identical result); passing *distinct*
    objects that collide on the same (name, cid) key is an error -- the
    old drivers silently kept whichever finished last.
    """
    resolved: dict[tuple[str, str], tuple[object, object]] = {}
    order: list[tuple[str, str]] = []
    for functional, condition in pairs:
        if isinstance(functional, str):
            functional = get_functional(functional)
        if isinstance(condition, str):
            condition = get_condition(condition)
        key = (functional.name, condition.cid)
        if key in resolved:
            prev_f, prev_c = resolved[key]
            if prev_f is not functional or prev_c is not condition:
                raise ValueError(
                    f"conflicting duplicate pair {key}: two distinct "
                    "functional/condition objects share the same key"
                )
            continue
        resolved[key] = (functional, condition)
        order.append(key)
    return [(key, *resolved[key]) for key in order]


# ---------------------------------------------------------------------------
# work units
# ---------------------------------------------------------------------------

@dataclass
class _Unit:
    """One schedulable piece of a cell: a box plus its budget slice."""

    uid: int
    bounds: dict[str, tuple[float, float]] | None  # None = the cell's domain
    depth: int
    budget: int | None
    mode: str  # "tree" = run the full subtree; "root" = solve one box, spill splits
    children_uids: list[int] = field(default_factory=list)
    record: RegionRecord | None = None          # root-mode result
    report: VerificationReport | None = None    # tree-mode result
    done: bool = False


class _Cell:
    """Bookkeeping for one (functional, condition) pair in the campaign.

    ``presplit_levels``/``steal_depth`` are per-cell since the adaptive
    policy (:mod:`.costmodel`) tunes them per pair; without a policy every
    cell carries the campaign's global knobs.  They participate in the
    cell's content key exactly like the globals did.
    """

    def __init__(
        self, key, domain, payload, content_key,
        *, presplit_levels=0, steal_depth=0,
    ):
        self.key = key
        self.domain = domain            # the pair's full input box
        self.payload = payload          # what worker processes receive
        self.content_key = content_key  # store key (None without a store)
        self.presplit_levels = presplit_levels
        self.steal_depth = steal_depth
        self.units: dict[int, _Unit] = {}
        self.top_uids: list[int] = []
        self.open_units = 0
        self.compile_seconds = 0.0      # summed worker-side compile time
        self.span = None                # parent-side cell span (tracing only)


def _materialize(payload) -> EncodedProblem | CompiledProblem:
    if isinstance(payload, tuple):
        functional_name, condition_id = payload
        return encode(get_functional(functional_name), get_condition(condition_id))
    return payload


#: per-worker persistent compile cache: (problem identity, solver-relevant
#: config) -> (problem, solver).  Workers are long-lived across chunks, so
#: without this every chunk of the same cell re-materialises the problem
#: (name payloads re-run the whole symbolic encode) and rebuilds a fresh
#: solver whose contractor cache -- keyed on formula *identity* -- starts
#: cold, re-walking every atom into tapes.  Content addressing makes the
#: reuse sound: name payloads key on the registry pair, compiled payloads
#: on the tapes' stable content hash (two unpickled copies of the same
#: problem hash identically), and the solver key pins every config field
#: :meth:`VerifierConfig.make_solver` consumes.
_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 64


def _worker_compile(payload, config):
    """Materialise (problem, solver) through the per-worker cache.

    Returns ``(problem, solver, compile_seconds)``; a warm hit reuses the
    resident pair and reports ~zero compile time.
    """
    if isinstance(payload, tuple):
        problem_key: object = payload
    else:
        problem_key = payload.content_hash()
    key = (
        problem_key,
        config.delta,
        config.precision,
        config.solver_backend,
        config.batch_size,
        config.vector_min,
    )
    hit = _WORKER_CACHE.pop(key, None)
    if hit is not None:
        _WORKER_CACHE[key] = hit  # LRU refresh
        problem, solver = hit
        if solver is None:
            solver = config.make_solver()
        return problem, solver, 0.0
    start = time.perf_counter()
    problem = _materialize(payload)
    solver = config.make_solver()
    elapsed = time.perf_counter() - start
    if len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
        _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
    # a specialising config mints fresh per-box formulas every verify, and
    # the solver's contractor cache is keyed on formula identity -- keeping
    # that solver resident would grow it without bound, so only the
    # materialised problem is cached and the solver stays per-chunk
    _WORKER_CACHE[key] = (problem, None if config.specialize_boxes else solver)
    return problem, solver, elapsed


def _campaign_worker_warm(hold_seconds: float = 0.0):
    """Pool warm-up task: import the worker's module graph eagerly.

    Submitted once per worker at pool start (the service pool, see
    ``service/scheduler.py``), so a worker's first real chunk pays
    neither module imports nor lazy registry loads.  ``hold_seconds``
    keeps the task resident long enough that every pool worker forks and
    runs its own copy -- an executor hands queued tasks to already-idle
    workers instead of spawning new ones.
    """
    get_functional  # the imports at module top are the actual warm-up
    if hold_seconds > 0.0:
        time.sleep(hold_seconds)
    return os.getpid()


def _campaign_worker(args):
    """Run one chunk of units (same cell) in a worker process.

    The payload is materialised through the persistent per-worker compile
    cache (:data:`_WORKER_CACHE`) and one solver is shared by every unit,
    so the solver's contractor cache -- keyed on formula identity, and
    every unit solves the *same* resident problem object -- stays warm
    across the whole chunk *and across chunks of the same cell*.
    (Specialised Ite-folded formulas are the exception: their interning
    table is deliberately cleared per top-level verify, i.e. per unit, to
    bound memory on long campaigns, trading one re-specialisation per
    subdomain.)  Tree-mode units run the full iterative verifier on their
    box; root-mode units solve exactly one box and return the split
    children for re-enqueueing.  Returns ``(compile_seconds, results)``
    -- with a fourth dispatch-args element (a pickled
    :class:`~repro.obs.trace.SpanContext`), the worker additionally
    records a pid-stamped span tree (chunk / compile / per-unit solve,
    solver-internals totals attached) and returns it as a third element
    for the parent's absorb to reattach to the trace.
    """
    payload, config, items = args[0], args[1], args[2]
    recorder = SpanRecorder(args[3]) if len(args) > 3 else None
    if recorder is None:
        chunk_span = None
        problem, solver, compile_seconds = _worker_compile(payload, config)
    else:
        pair = _payload_pair(payload)
        chunk_span = recorder.begin(
            "chunk", "chunk", units=len(items),
            functional=pair[0], condition=pair[1],
        )
        compile_span = recorder.begin(
            "compile", "compile", parent=chunk_span,
            functional=pair[0], condition=pair[1],
        )
        problem, solver, compile_seconds = _worker_compile(payload, config)
        recorder.finish(
            compile_span,
            cache_hit=compile_seconds == 0.0,
            compile_seconds=compile_seconds,
        )
    out = []
    for uid, bounds, depth, budget, mode in items:
        unit_config = replace(config, global_step_budget=budget)
        verifier = Verifier(unit_config, solver=solver)
        box = Box.from_bounds(bounds) if bounds is not None else problem.domain
        solve_span = None
        if recorder is not None:
            solve_span = recorder.begin(
                f"solve:{uid}", "solve", parent=chunk_span,
                functional=pair[0], condition=pair[1],
                uid=uid, mode=mode, depth=depth,
            )
        if mode == "root":
            record, children = verifier.solve_root(problem, box, depth)
            child_bounds = None
            if children is not None:
                child_bounds = [
                    {name: (iv.lo, iv.hi) for name, iv in child.items()}
                    for child in children
                ]
            out.append((uid, mode, (record, child_bounds)))
            steps = record.solver_steps if record is not None else 0
        else:
            report = verifier.verify(problem, domain=box, depth_offset=depth)
            out.append((uid, mode, report))
            steps = report.total_solver_steps
        if solve_span is not None:
            recorder.finish(
                solve_span, steps=steps, **verifier.stats_totals.as_attrs()
            )
    if recorder is None:
        return compile_seconds, out
    recorder.finish(chunk_span)
    return compile_seconds, out, recorder.records


def _payload_pair(payload) -> tuple[str, str]:
    """The (functional, condition) names a worker payload identifies."""
    if isinstance(payload, tuple):
        return payload
    return payload.functional_name, payload.condition_id


# ---------------------------------------------------------------------------
# result object
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything a campaign run produced.

    ``reports`` maps ``(functional_name, condition_id)`` to the stitched
    report.  ``store_hits`` / ``computed`` record which cells were served
    from the store versus solved this run; ``interrupted`` is True when
    the run was cut short (SIGINT) -- completed cells are still present
    (and persisted, when a store is attached).
    """

    reports: dict[tuple[str, str], VerificationReport] = field(default_factory=dict)
    store_hits: list[tuple[str, str]] = field(default_factory=list)
    computed: list[tuple[str, str]] = field(default_factory=list)
    cell_keys: dict[tuple[str, str], str] = field(default_factory=dict)
    interrupted: bool = False

    def __getitem__(self, key: tuple[str, str]) -> VerificationReport:
        return self.reports[key]

    def __len__(self) -> int:
        return len(self.reports)

    def __contains__(self, key) -> bool:
        return key in self.reports

    def items(self):
        return self.reports.items()


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------

#: campaign-engine counters in the process-wide registry: recorded with
#: or without a server attached, scraped through /v1/metrics when one is
_CELLS_COUNTER = REGISTRY.counter(
    "repro_campaign_cells_resolved_total",
    "Campaign cells resolved, by how they resolved.",
)
_CHUNKS_COUNTER = REGISTRY.counter(
    "repro_campaign_chunks_total",
    "Work chunks dispatched by the campaign engine.",
)


class _Scheduler:
    def __init__(self, config, unit_chunk_size, store, on_cell, result,
                 tracer=None, campaign_span=None):
        self.config = config
        self.unit_chunk_size = unit_chunk_size
        self.store = store
        self.on_cell = on_cell
        self.result = result
        self.tracer = tracer if tracer is not None else current_tracer()
        self.campaign_span = campaign_span
        self._next_uid = 0

    # -- unit construction -------------------------------------------------
    def _mode(self, cell: _Cell, depth: int) -> str:
        return "root" if depth < cell.steal_depth else "tree"

    def _new_unit(self, cell: _Cell, bounds, depth, budget) -> _Unit:
        unit = _Unit(
            uid=self._next_uid,
            bounds=bounds,
            depth=depth,
            budget=budget,
            mode=self._mode(cell, depth),
        )
        self._next_uid += 1
        cell.units[unit.uid] = unit
        cell.open_units += 1
        return unit

    def top_units(self, cell: _Cell) -> list[_Unit]:
        """Build a cell's initial units (the shared queue's seed).

        ``cell.presplit_levels`` forced splits produce ``2**(levels*dims)``
        sibling units whose records have no parent, exactly like the old
        ``verify_domain_parallel`` merge; the per-unit budget is the
        global budget divided evenly.  With no pre-split the cell is one
        unit holding the full domain and the full budget.
        """
        domain = cell.domain
        presplit_levels = cell.presplit_levels
        if presplit_levels <= 0:
            units = [self._new_unit(cell, None, 0, self.config.global_step_budget)]
        else:
            subdomains = [domain]
            for _ in range(presplit_levels):
                subdomains = [
                    child for box in subdomains for child in box.split_all()
                ]
            if self.config.global_step_budget is not None:
                per_budget = max(1, self.config.global_step_budget // len(subdomains))
            else:
                per_budget = None
            units = [
                self._new_unit(
                    cell,
                    {name: (iv.lo, iv.hi) for name, iv in box.items()},
                    presplit_levels,
                    per_budget,
                )
                for box in subdomains
            ]
        cell.top_uids = [u.uid for u in units]
        return units

    def chunk(self, cell: _Cell, units: list[_Unit]) -> list[tuple]:
        """Pack units into dispatchable chunks of ``unit_chunk_size``.

        Chunks carry no tracing state themselves: with tracing on,
        :func:`drive_chunks` appends each dispatch span's context to the
        args at submit time, so spilled re-enqueues (which build fresh
        chunks through this same method) get their own dispatch span
        parented under the cell.
        """
        chunks = []
        for i in range(0, len(units), self.unit_chunk_size):
            group = units[i : i + self.unit_chunk_size]
            items = [(u.uid, u.bounds, u.depth, u.budget, u.mode) for u in group]
            chunks.append((cell, (cell.payload, self.config, items)))
        _CHUNKS_COUNTER.inc(len(chunks))
        return chunks

    # -- result absorption -------------------------------------------------
    def absorb(self, cell: _Cell, worker_out) -> list[tuple]:
        """Record a chunk's results; return new chunks spilled splits need."""
        new_chunks = []
        if len(worker_out) == 3:
            compile_seconds, unit_results, span_records = worker_out
            # reattach the worker's pid-stamped spans; records name their
            # own parents, so out-of-order completion needs no bookkeeping
            self.tracer.emit_records(span_records)
        else:
            compile_seconds, unit_results = worker_out
        cell.compile_seconds += compile_seconds
        for uid, mode, payload in unit_results:
            unit = cell.units[uid]
            unit.done = True
            cell.open_units -= 1
            if mode == "root":
                record, child_bounds = payload
                unit.record = record
                if child_bounds:
                    spent = record.solver_steps if record is not None else 0
                    if unit.budget is None:
                        child_budget = None
                    else:
                        child_budget = max(0, unit.budget - spent) // len(child_bounds)
                    children = [
                        self._new_unit(cell, bounds, unit.depth + 1, child_budget)
                        for bounds in child_bounds
                    ]
                    unit.children_uids = [c.uid for c in children]
                    new_chunks.extend(self.chunk(cell, children))
            else:
                unit.report = payload
        if cell.open_units == 0:
            self.finish_cell(cell)
        return new_chunks

    def finish_cell(self, cell: _Cell) -> None:
        # stitch and store write get child spans of the cell span, so the
        # parent-side tail of a cell is not an untraced gap
        traced = cell.span is not None
        if traced:
            span = self.tracer.begin("stitch", "stitch", cell.span)
        report = _stitch_cell(cell)
        if traced:
            self.tracer.finish(span, records=len(report.records))
        self.result.reports[cell.key] = report
        self.result.computed.append(cell.key)
        _CELLS_COUNTER.inc(result="computed")
        if self.store is not None and cell.content_key is not None:
            if traced:
                span = self.tracer.begin("store_put", "store", cell.span)
            written = self.store.put(cell.content_key, report)
            if traced:
                # a store wrapper that does not report its size adds no attr
                self.tracer.finish(span, **({} if written is None else {"bytes": written}))
        if traced:
            self.tracer.finish(
                cell.span,
                units=len(cell.units),
                steps=report.total_solver_steps,
                regions=len(report.records),
                compile_seconds=cell.compile_seconds,
            )
        if self.on_cell is not None:
            self.on_cell(cell.key, report, False)

    def open_cell(self, cell: _Cell) -> None:
        """Start the cell's parent-side span (one per *computed* cell)."""
        if self.tracer.enabled:
            cell.span = self.tracer.begin(
                f"cell:{cell.key[0]}/{cell.key[1]}", "cell", self.campaign_span,
                functional=cell.key[0], condition=cell.key[1],
            )


def _stitch_cell(cell: _Cell) -> VerificationReport:
    """Reassemble a cell's unit results into the sequential region tree.

    Units are emitted in deterministic pre-order over the unit tree --
    completion order never matters -- so the stitched report is
    bit-identical to the equivalent in-process run: record indices,
    depths, child links and step counts all line up.
    """
    records: list[RegionRecord] = []
    totals = {"steps": 0, "elapsed": 0.0, "exhausted": False}

    # iterative pre-order over the unit tree (a LIFO with children pushed
    # reversed), mirroring the verifier's own queue discipline -- stitching
    # must not reintroduce a recursion limit the engine removed
    stack: list[tuple[int, RegionRecord | None]] = [
        (uid, None) for uid in reversed(cell.top_uids)
    ]
    while stack:
        uid, parent = stack.pop()
        unit = cell.units[uid]
        if unit.mode == "root":
            rec = unit.record
            if rec is None:
                continue
            stitched = RegionRecord(
                index=len(records),
                depth=rec.depth,
                box=rec.box,
                outcome=rec.outcome,
                model=rec.model,
                children=[],
                solver_steps=rec.solver_steps,
            )
            records.append(stitched)
            if parent is not None:
                parent.children.append(stitched.index)
            totals["steps"] += rec.solver_steps
            if unit.budget is not None and rec.solver_steps >= unit.budget:
                totals["exhausted"] = True
            for child_uid in reversed(unit.children_uids):
                stack.append((child_uid, stitched))
            continue
        report = unit.report
        totals["steps"] += report.total_solver_steps
        totals["elapsed"] = max(totals["elapsed"], report.elapsed_seconds)
        totals["exhausted"] = totals["exhausted"] or report.budget_exhausted
        if not report.records:
            continue
        offset = len(records)
        if offset == 0:
            # the cell's first records (so no parent): indices and child
            # links are already final, and the unit report is discarded
            records.extend(report.records)
            continue
        if parent is not None:
            parent.children.append(offset)  # this unit's subtree root
        for r in report.records:
            records.append(
                RegionRecord(
                    index=r.index + offset,
                    depth=r.depth,
                    box=r.box,
                    outcome=r.outcome,
                    model=r.model,
                    children=[c + offset for c in r.children],
                    solver_steps=r.solver_steps,
                )
            )

    return VerificationReport(
        functional_name=cell.key[0],
        condition_id=cell.key[1],
        domain=cell.domain,
        records=records,
        total_solver_steps=totals["steps"],
        elapsed_seconds=totals["elapsed"],
        compile_seconds=cell.compile_seconds,
        budget_exhausted=totals["exhausted"],
    )


# ---------------------------------------------------------------------------
# the campaign driver
# ---------------------------------------------------------------------------

def run_campaign(
    pairs: Iterable,
    config: VerifierConfig | None = None,
    *,
    max_workers: int | None = None,
    presplit_levels: int = 0,
    steal_depth: int = 0,
    unit_chunk_size: int = 1,
    store: CampaignStore | str | os.PathLike | None = None,
    resume: bool = True,
    precompile: bool = True,
    executor: ProcessPoolExecutor | None = None,
    on_cell: Callable[[tuple[str, str], VerificationReport, bool], None] | None = None,
    policy=None,
    tracer=None,
) -> CampaignResult:
    """Run a verification campaign over (functional, condition) pairs.

    Parameters
    ----------
    pairs:
        Iterable of ``(functional, condition)`` -- objects or registry
        names.  Duplicates are de-duplicated; conflicting duplicates
        raise (see :func:`dedupe_pairs`).
    max_workers:
        Process-pool width.  ``0`` or ``1`` runs in-process (fully
        deterministic ordering, no pickling); ``None`` uses the CPU
        count.
    presplit_levels:
        Force-split every cell's domain this many levels up front so one
        pair fans out across the pool (``2**(levels*dims)`` units, global
        budget divided evenly -- the old ``verify_domain_parallel``
        semantics).
    steal_depth:
        Depth above which workers *spill* splits back to the shared
        queue instead of descending locally: a unit at ``depth <
        steal_depth`` solves only its root box and its children are
        re-enqueued as independent units (budget: the unit's remainder,
        divided evenly).  ``0`` disables spilling.
    unit_chunk_size:
        Units per dispatched job.  ``1`` maximises stealing granularity;
        larger chunks amortise payload pickling for many tiny units.
    store / resume:
        A :class:`~repro.verifier.store.CampaignStore` (or a path --
        opened, and closed again, by this call).  Completed cells are
        persisted immediately under their content-hash key; with
        ``resume=True`` cells whose key is already stored are returned
        from the store without solving.  Note that even a store *hit*
        pays the parent-side encode + tape-compile: the key must be
        derived from the **current** tapes, or a code change (functional,
        condition, simplifier, compiler) could serve stale results --
        soundness of the content addressing is bought with that encode.
    precompile:
        Ship tape-compiled problems to workers (encode once, in the
        parent).  With ``False`` -- or whenever
        ``config.specialize_boxes`` forces expression-level residuals --
        workers re-encode from registry names.
    executor:
        An existing pool to share across campaigns; the caller keeps
        ownership.  Incompatible with in-process mode.
    policy:
        A :class:`~repro.verifier.costmodel.SchedulingPolicy`.  When
        given, cells are dispatched longest-predicted-first (a pure
        permutation -- every stitched report is bit-identical to the
        static submission order) and ``presplit_levels``/``steal_depth``
        become *per-pair* floors tuned from predicted cost; the given
        globals act as minimums.  Per-pair knobs enter each cell's
        content key exactly like the globals, so the store stays sound;
        the model itself never touches any key.
    tracer:
        A :class:`~repro.obs.trace.Tracer` (default: the ambient
        :func:`~repro.obs.trace.current_tracer`, a no-op unless a trace
        sink was activated).  When enabled, the run emits a campaign
        span, one span per computed cell, per-chunk dispatch spans and
        the workers' pid-stamped chunk/compile/solve spans.  Tracing is
        purely observational: stitched reports, store contents and keys
        are byte-identical with tracing on or off.

    KeyboardInterrupt is caught: completed cells are kept (and already
    persisted), ``result.interrupted`` is set, and in-flight work is
    cancelled.
    """
    config = config or VerifierConfig()
    CampaignConfig(  # loud one-line validation of the tuning knobs
        max_workers=max_workers,
        presplit_levels=presplit_levels,
        steal_depth=steal_depth,
        unit_chunk_size=unit_chunk_size,
    )
    cells_spec = dedupe_pairs(pairs)

    plans = None
    if policy is not None:
        plans = policy.plan_pairs(
            cells_spec,
            workers=effective_workers(max_workers, executor),
            base_presplit=presplit_levels,
            base_steal=steal_depth,
        )

    owns_store = isinstance(store, (str, os.PathLike))
    if owns_store:
        store = open_store(store)

    tracer = tracer if tracer is not None else current_tracer()
    campaign_span = None
    if tracer.enabled:
        campaign_span = tracer.begin(
            "campaign", "campaign", pairs=len(cells_spec),
            workers=effective_workers(max_workers, executor),
        )
    result = CampaignResult()
    scheduler = _Scheduler(
        config, max(1, unit_chunk_size), store, on_cell, result,
        tracer, campaign_span,
    )

    try:
        # -- resolve cells: hash, serve store hits, build payloads ------------
        ship_names = config.specialize_boxes or not precompile
        work_cells: list[_Cell] = []
        for key, functional, condition in cells_spec:
            cell_presplit = presplit_levels
            cell_steal = steal_depth
            if plans is not None:
                cell_presplit = plans[key].presplit_levels
                cell_steal = plans[key].steal_depth
            content_key = None
            compiled = None
            if store is not None:
                # hashing needs the compiled tapes; compile once and reuse
                # the object as the worker payload below.  a key hit always
                # implies a bit-identical report (see pair_content_key)
                compiled = compile_problem(encode(functional, condition))
                if plans is not None:
                    cell_presplit, cell_steal = _pinned_plan(
                        store,
                        pair_content_key(
                            functional,
                            condition,
                            config,
                            presplit_levels=presplit_levels,
                            steal_depth=steal_depth,
                            compiled=compiled,
                        ),
                        cell_presplit,
                        cell_steal,
                    )
                content_key = pair_content_key(
                    functional,
                    condition,
                    config,
                    presplit_levels=cell_presplit,
                    steal_depth=cell_steal,
                    compiled=compiled,
                )
                result.cell_keys[key] = content_key
                if resume:
                    stored = store.get(content_key)
                    if stored is not None:
                        result.reports[key] = stored
                        result.store_hits.append(key)
                        _CELLS_COUNTER.inc(result="store_hit")
                        if on_cell is not None:
                            on_cell(key, stored, True)
                        continue
            if ship_names:
                # workers re-encode locally: the expensive symbolic encoding
                # runs in parallel instead of serially in the parent
                payload: object = key
            else:
                payload = compiled or compile_problem(encode(functional, condition))
            work_cells.append(
                _Cell(
                    key,
                    functional.domain(),
                    payload,
                    content_key,
                    presplit_levels=cell_presplit,
                    steal_depth=cell_steal,
                )
            )

        # -- order dispatch, seed the shared queue --------------------------
        if plans is not None:
            ranked = policy.order(
                [cell.key for cell in work_cells],
                {key: plan.predicted_seconds for key, plan in plans.items()},
            )
            rank = {key: position for position, key in enumerate(ranked)}
            work_cells.sort(key=lambda cell: rank[cell.key])
        chunks: deque = deque()
        for cell in work_cells:
            scheduler.open_cell(cell)
            chunks.extend(scheduler.chunk(cell, scheduler.top_units(cell)))

        drive_chunks(
            chunks,
            _campaign_worker,
            scheduler.absorb,
            max_workers=max_workers,
            executor=executor,
            # a single seed chunk still goes to the pool when spilling is
            # on: its runtime splits are what fan out across workers
            prefer_pool=any(cell.steal_depth > 0 for cell in work_cells),
            tracer=tracer,
            chunk_trace=lambda cell: (cell.span, f"{cell.key[0]}/{cell.key[1]}"),
        )
    except KeyboardInterrupt:
        result.interrupted = True
    finally:
        if campaign_span is not None:
            tracer.finish(
                campaign_span,
                computed=len(result.computed),
                store_hits=len(result.store_hits),
                interrupted=result.interrupted,
            )
        if owns_store:
            store.close()
    return result
