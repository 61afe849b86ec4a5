"""Campaign engine: many verification cells over one shared process pool.

The paper's evaluation (Table I) is a *campaign*: an arbitrary set of
(functional x condition) verification tasks under finite budgets.  Each
task is one run of Algorithm 1 -- one depth-first search over the pair's
domain drawing on one global step budget -- so this module makes each
cell exactly one unit of work:

* the parent encodes and tape-compiles every cell once; a worker runs one
  :meth:`Verifier.verify <repro.verifier.verifier.Verifier.verify>` on
  the cell's whole domain and finishes the report it returns, which *is*
  the cell's report: the worker sets ``compile_seconds``, sums the area
  fractions, classifies the cell and, for a cell with a store key,
  encodes the store line's payload, all cached on the report.  All cells
  share a single process pool and workers pull the next cell as they
  finish, so a SCAN-sized cell does not hold up the cheap ones queued
  behind it;
* pooled and in-process runs produce identical reports (the
  differential corpus in ``tests/verifier/test_campaign.py`` pins this)
  and, when a :mod:`store <repro.verifier.store>` is attached, each
  finished cell is persisted immediately under a content-hash key.  A
  re-run with ``resume=True`` turns every unchanged cell into a cache
  hit, which is what makes long campaigns survivable: kill the process
  at any point and only in-flight cells are recomputed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..conditions.catalog import get_condition
from ..functionals.registry import get_functional
from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER, SpanRecorder, current_tracer
from .encoder import CompiledProblem, compile_problem, encode
from .regions import VerificationReport
from .store import CampaignStore, encode_report, open_store
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
    """Validated campaign knobs.

    ``run_campaign`` and ``run_numerics_campaign`` construct one from
    their arguments, so every entry point (CLI, service, tests) shares
    the same one-line error -- a negative ``max_workers`` used to crash
    deep inside ``ProcessPoolExecutor``.
    """

    max_workers: int | None = None

    def __post_init__(self):
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )


def effective_workers(
    max_workers: int | None, executor: ProcessPoolExecutor | None = None
) -> int:
    """The pool width a campaign will actually run on.

    A shared executor answers with its own width, ``None`` means the CPU
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
    compiled: CompiledProblem | None = None,
) -> str:
    """Store key of one (functional, condition) campaign cell.

    This is the key :func:`run_campaign` files completed cells under, and
    the key the verification service coalesces concurrent requests on --
    both must derive it identically or the service would recompute cells
    the campaign already stored (or worse, serve one request's cell to a
    semantically different one).  It covers the compiled tapes
    bit-for-bit, the semantic verifier config and the pair's registry
    key, so two registry entries that happen to encode to identical tapes
    stay separate cells.

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
            0, 0,  # the removed presplit_levels/steal_depth slots: keeps stored keys valid
            functional.name,
            condition.cid,
        )
    )


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
    tracer=None,
    chunk_trace: Callable | None = None,
) -> None:
    """Run ``(tag, args)`` chunks over one shared work-pulling pool.

    This is the campaign engine's scheduling core, shared by the
    verification campaign and the numerics campaign: every chunk goes
    into a single queue, ``worker(args)`` runs in a worker process (it
    must be a picklable module-level function), and ``absorb(tag, out)``
    runs in the parent as results land.  Idle workers pull the next
    chunk the moment they finish instead of being pre-assigned static
    shards.

    ``max_workers`` <= 1 (with no ``executor``) runs everything
    in-process through the identical worker/absorb code path -- fully
    deterministic, no pickling -- and so does a single chunk.  An
    ``executor`` passed in is shared, not owned: the caller keeps its
    lifecycle, so several campaigns can run over one pool.

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
    passes each cell's span and pair name).  Tracing off costs one
    ``enabled`` check per chunk.
    """
    chunks = list(chunks)
    tracer = tracer if tracer is not None else current_tracer()
    tracing = tracer.enabled

    def begin_dispatch(tag, args):
        parent, label = chunk_trace(tag) if chunk_trace is not None else (None, None)
        name = f"dispatch:{label}" if label else "dispatch"
        span = tracer.begin(name, "dispatch", parent)
        return span, args + (tracer.context(span),)

    in_process = executor is None and (
        (max_workers is not None and max_workers <= 1) or len(chunks) <= 1
    )
    if in_process:
        # same worker code path, no pool and no pickling
        for tag, args in chunks:
            if tracing:
                span, args = begin_dispatch(tag, args)
                out = worker(args)
                tracer.finish(span)
            else:
                out = worker(args)
            absorb(tag, out)
        return
    owns_executor = executor is None
    if owns_executor:
        executor = ProcessPoolExecutor(max_workers=max_workers)
    futures: dict = {}
    spans: dict = {}
    try:
        # submit everything: the pool's internal queue IS the shared work
        # queue -- idle workers pull the next chunk as they finish
        for tag, args in chunks:
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
                absorb(tag, future.result())
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
# the worker side
# ---------------------------------------------------------------------------

@dataclass
class _Cell:
    """One (functional, condition) pair computed this run."""

    key: tuple[str, str]
    payload: CompiledProblem        # what the worker process receives
    content_key: str | None         # store key (None without a store)
    span: object = None             # parent-side cell span (tracing only)


#: per-worker persistent compile cache: (problem content hash, solver-relevant
#: config) -> (problem, solver).  Workers are long-lived across cells, so
#: without this every cell of the same pair would solve a freshly
#: unpickled problem with a fresh solver whose contractor cache -- keyed on
#: formula *identity* -- starts cold, re-walking every atom into tapes.
#: Content addressing makes the reuse sound: the tapes' stable content hash
#: (two unpickled copies of the same problem hash identically) names the
#: problem, and the solver key pins every config field
#: :meth:`VerifierConfig.make_solver` consumes -- ``delta`` and
#: ``precision``, the solver's full parameter set.
_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 64


def _worker_compile(problem: CompiledProblem, config):
    """Resolve (problem, solver) through the per-worker cache.

    Returns ``(problem, solver, compile_seconds)``; a warm hit reuses the
    resident pair and reports ~zero compile time.
    """
    key = (problem.content_hash(), config.delta, config.precision)
    hit = _WORKER_CACHE.pop(key, None)
    if hit is not None:
        _WORKER_CACHE[key] = hit  # LRU refresh
        return (*hit, 0.0)
    start = time.perf_counter()
    solver = config.make_solver()
    elapsed = time.perf_counter() - start
    if len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
        _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
    _WORKER_CACHE[key] = (problem, solver)
    return problem, solver, elapsed


def _campaign_worker_warm(hold_seconds: float = 0.0):
    """Pool warm-up task: import the worker's module graph eagerly.

    Submitted once per worker at pool start (the service pool, see
    ``service/scheduler.py``), so a worker's first real cell pays
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
    """Run and finish one cell's Algorithm 1 in a worker process.

    ``args`` is ``(payload, config, to_store)``: the parent-compiled
    :class:`CompiledProblem`, resolved through the persistent per-worker
    compile cache (:data:`_WORKER_CACHE`) so the solver's contractor
    cache stays warm across cells of the same pair, the verifier config,
    and whether the cell has a store key.  The worker then finishes the
    report, so the parent does no per-record work on it: it sets
    ``compile_seconds``, sums the area fractions, classifies the cell
    and, with a store key, encodes the store payload
    (:func:`~repro.verifier.store.encode_report`), all cached on the
    report, which carries them across the pickle.

    With a fourth dispatch-args element (a pickled
    :class:`~repro.obs.trace.SpanContext`) the worker records a
    pid-stamped span tree (chunk / compile / solve / encode,
    solver-internals totals attached).  Returns ``(report,
    span_records)``; the records are empty when untraced.
    """
    payload, config, to_store = args[:3]
    recorder = SpanRecorder(args[3]) if len(args) > 3 else NULL_TRACER
    pair = {"functional": payload.functional_name, "condition": payload.condition_id}
    chunk_span = recorder.begin("chunk", "chunk", **pair)
    compile_span = recorder.begin("compile", "compile", parent=chunk_span, **pair)
    problem, solver, compile_seconds = _worker_compile(payload, config)
    recorder.finish(
        compile_span,
        cache_hit=compile_seconds == 0.0,
        compile_seconds=compile_seconds,
    )
    solve_span = recorder.begin(
        f"solve:{pair['functional']}/{pair['condition']}", "solve",
        parent=chunk_span, **pair,
    )
    verifier = Verifier(config, solver=solver)
    report = verifier.verify(problem)
    recorder.finish(
        solve_span,
        steps=report.total_solver_steps,
        **verifier.stats_totals.as_attrs(),
    )
    report.compile_seconds = compile_seconds
    report.area_fractions()
    report.classification()
    if to_store:
        encode_span = recorder.begin("encode", "encode", parent=chunk_span, **pair)
        text = encode_report(report)
        recorder.finish(encode_span, bytes=len(text))
    recorder.finish(chunk_span)
    return report, recorder.records if recorder.enabled else ()


# ---------------------------------------------------------------------------
# result object
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything a campaign run produced.

    ``reports`` maps ``(functional_name, condition_id)`` to the cell's
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
# the campaign driver
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


def run_campaign(
    pairs: Iterable,
    config: VerifierConfig | None = None,
    *,
    max_workers: int | None = None,
    store: CampaignStore | str | os.PathLike | None = None,
    resume: bool = True,
    executor: ProcessPoolExecutor | None = None,
    on_cell: Callable[[tuple[str, str], VerificationReport, bool], None] | None = None,
    tracer=None,
) -> CampaignResult:
    """Run a verification campaign over (functional, condition) pairs.

    The parent encodes and tape-compiles each cell once; a worker receives
    that :class:`CompiledProblem`, never re-encodes, and runs one
    :meth:`Verifier.verify` over the pair's whole domain.

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
    store / resume:
        A :class:`~repro.verifier.store.CampaignStore` (or a path --
        opened, under a ``store_open`` span, and closed again by this
        call).  Completed cells are persisted immediately under their
        content-hash key.  The worker that computed a cell encodes its
        store line's payload (an ``encode`` span when traced), so the
        parent's ``store.put`` only appends and fsyncs it; a run without
        a store encodes nothing.  A store this call does not own is used
        only through ``get(key)`` and ``put(key, report)``.  With
        ``resume=True`` cells whose key is already stored are returned
        from the store without solving.  Note that even a store *hit*
        pays the parent-side encode + tape-compile: the key must be
        derived from the **current** tapes, or a code change (functional,
        condition, expression builder, compiler) could serve stale results --
        soundness of the content addressing is bought with that encode.
    executor:
        An existing pool to share across campaigns; the caller keeps
        ownership.  Incompatible with in-process mode.
    tracer:
        A :class:`~repro.obs.trace.Tracer` (default: the ambient
        :func:`~repro.obs.trace.current_tracer`, a no-op unless a trace
        sink was activated).  When enabled, the run emits a campaign
        span, a ``store_get`` span (``hit`` attr) per resume lookup, one
        span per computed cell with its ``store_put`` child, per-cell
        dispatch spans and the workers' pid-stamped chunk/compile/solve/
        encode spans.  Tracing is purely
        observational: reports, store contents and keys are
        byte-identical with tracing on or off.

    KeyboardInterrupt is caught: completed cells are kept (and already
    persisted), ``result.interrupted`` is set, and in-flight work is
    cancelled.
    """
    config = config or VerifierConfig()
    CampaignConfig(max_workers=max_workers)  # loud one-line validation
    cells_spec = dedupe_pairs(pairs)

    tracer = tracer if tracer is not None else current_tracer()
    campaign_span = None
    if tracer.enabled:
        campaign_span = tracer.begin(
            "campaign", "campaign", pairs=len(cells_spec),
            workers=effective_workers(max_workers, executor),
        )
    result = CampaignResult()
    owned_store = None

    def absorb(cell: _Cell, worker_out) -> None:
        report, span_records = worker_out
        # reattach the worker's pid-stamped spans; records name their
        # own parents, so out-of-order completion needs no bookkeeping
        tracer.emit_records(span_records)
        result.reports[cell.key] = report
        result.computed.append(cell.key)
        _CELLS_COUNTER.inc(result="computed")
        traced = cell.span is not None
        if store is not None and cell.content_key is not None:
            # the store write is a child span of the cell, so the
            # parent-side tail of a cell is not an untraced gap; the
            # worker encoded the line, so this is the append and fsync
            if traced:
                span = tracer.begin("store_put", "store", cell.span)
            written = store.put(cell.content_key, report)
            if traced:
                # a store wrapper that does not report its size adds no attr
                tracer.finish(span, **({} if written is None else {"bytes": written}))
        if traced:
            tracer.finish(
                cell.span,
                steps=report.total_solver_steps,
                regions=len(report.records),
                compile_seconds=report.compile_seconds,
            )
        if on_cell is not None:
            on_cell(cell.key, report, False)

    try:
        if isinstance(store, (str, os.PathLike)):
            with tracer.span("store_open", "store", campaign_span):
                store = owned_store = open_store(store)

        # -- resolve cells: hash, serve store hits, build payloads ------------
        cells: list[_Cell] = []
        for key, functional, condition in cells_spec:
            content_key = None
            compiled = None
            if store is not None:
                # hashing needs the compiled tapes; compile once and reuse
                # the object as the worker payload below.  a key hit always
                # implies a bit-identical report (see pair_content_key)
                compiled = compile_problem(encode(functional, condition))
                content_key = pair_content_key(
                    functional, condition, config, compiled=compiled
                )
                result.cell_keys[key] = content_key
                if resume:
                    span = tracer.begin("store_get", "store", campaign_span)
                    stored = store.get(content_key)
                    tracer.finish(span, hit=stored is not None)
                    if stored is not None:
                        result.reports[key] = stored
                        result.store_hits.append(key)
                        _CELLS_COUNTER.inc(result="store_hit")
                        if on_cell is not None:
                            on_cell(key, stored, True)
                        continue
            cells.append(
                _Cell(
                    key,
                    compiled or compile_problem(encode(functional, condition)),
                    content_key,
                )
            )

        # -- one chunk per computed cell, each with its parent-side span ----
        for cell in cells:
            if tracer.enabled:
                cell.span = tracer.begin(
                    f"cell:{cell.key[0]}/{cell.key[1]}", "cell", campaign_span,
                    functional=cell.key[0], condition=cell.key[1],
                )
        _CHUNKS_COUNTER.inc(len(cells))
        drive_chunks(
            [(cell, (cell.payload, config, cell.content_key is not None)) for cell in cells],
            _campaign_worker,
            absorb,
            max_workers=max_workers,
            executor=executor,
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
        if owned_store is not None:
            owned_store.close()
    return result
