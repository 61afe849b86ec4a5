"""Span-based structured tracing across CLI, campaign, workers, solver.

One *trace* is one JSONL file: a header line followed by span records,
appended through :class:`~repro.obs.jsonl.JsonlWriter` (flushed per
span, truncated tail skipped on read) -- a SIGINT'd campaign leaves a
partial trace that still parses and reopens clean.

The design splits along the process boundary the campaign engine
already has:

* the **parent** holds the :class:`Tracer`: it mints span ids, stamps
  monotonic timestamps and writes finished spans to the sink.  A
  tracer is installed for a region of code with :func:`activate_tracer`
  and read with :func:`current_tracer`; the default is
  :data:`NULL_TRACER`, whose ``enabled`` flag lets hot paths skip all
  tracing work with one attribute check -- tracing off costs a branch;
* **workers** cannot reach the sink (they live in other processes), so
  a chunk's dispatch args carry a pickled :class:`SpanContext` and the
  worker records its spans into a :class:`SpanRecorder` -- plain dicts
  stamped with the worker pid, returned alongside the chunk result and
  re-emitted into the sink by the parent's absorb.  Because every
  record names its own parent span, reassembly is insensitive to
  completion order: out-of-order chunk results interleave records in
  the file, and the tree is rebuilt from the ids (:func:`repro.obs.export.span_tree`).

``CLOCK_MONOTONIC`` is shared across processes on Linux, so parent and
worker timestamps land on one timeline without offset negotiation (see
:mod:`.clock`).
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .clock import mono_now, wall_now
from .jsonl import JsonlWriter
from .logging import run_id as _process_run_id

__all__ = [
    "NULL_TRACER",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceSink",
    "Tracer",
    "activate_tracer",
    "current_tracer",
]

#: bump when the record layout changes; readers refuse mismatched traces
TRACE_SCHEMA_VERSION = 1

_ids = itertools.count(1)


def _new_id() -> str:
    """Span ids unique across the pool: worker pid + process-local counter."""
    return f"{os.getpid():x}.{next(_ids):x}"


@dataclass(frozen=True)
class SpanContext:
    """The picklable handle a chunk carries into a worker process."""

    trace_id: str
    span_id: str
    run_id: str


class Span:
    """One timed operation; finished spans become one JSONL record."""

    __slots__ = ("span_id", "parent_id", "name", "cat", "start", "attrs")

    def __init__(self, name, cat, parent_id, attrs):
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start = mono_now()
        self.attrs = attrs

    def record(self, run_id: str, *, end: float | None = None) -> dict:
        rec = {
            "kind": "span",
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "ts": self.start,
            "dur": (end if end is not None else mono_now()) - self.start,
            "pid": os.getpid(),
            "run_id": run_id,
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec


class TraceSink:
    """Append-only JSONL span file; writes the header line on open."""

    def __init__(self, path):
        self.path = str(path)
        self.trace_id = _new_id()
        self._writer = JsonlWriter(self.path)
        self._writer.write(
            {
                "kind": "header",
                "v": TRACE_SCHEMA_VERSION,
                "trace_id": self.trace_id,
                "run_id": _process_run_id(),
                "wall_start": wall_now(),
                "mono_start": mono_now(),
                "pid": os.getpid(),
            }
        )

    def emit(self, record: dict) -> None:
        self._writer.write(record)

    def close(self) -> None:
        self._writer.close()


class Tracer:
    """Parent-side tracer writing finished spans to a :class:`TraceSink`."""

    enabled = True

    def __init__(self, sink: TraceSink):
        self.sink = sink
        self.run_id = _process_run_id()
        #: the default parent for spans begun without one -- the CLI sets
        #: this to its command span, so campaign spans opened deep inside
        #: library code still land under the command that ran them
        self.root: Span | None = None

    # -- span lifecycle ----------------------------------------------------
    def begin(self, name: str, cat: str, parent: "Span | SpanContext | None" = None,
              **attrs) -> Span:
        if parent is None:
            parent = self.root
        parent_id = None
        if parent is not None:
            parent_id = parent.span_id
        return Span(name, cat, parent_id, attrs)

    def finish(self, span: Span, **attrs) -> None:
        if attrs:
            span.attrs.update(attrs)
        self.sink.emit(span.record(self.run_id))

    @contextmanager
    def span(self, name: str, cat: str, parent=None, **attrs):
        span = self.begin(name, cat, parent, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    # -- worker plumbing ---------------------------------------------------
    def context(self, span: Span) -> SpanContext:
        """The pickled handle that makes ``span`` a cross-process parent."""
        return SpanContext(self.sink.trace_id, span.span_id, self.run_id)

    def emit_records(self, records) -> None:
        """Reattach a worker's recorded spans to this trace (absorb side)."""
        for record in records:
            self.sink.emit(record)


class _NullSpan:
    __slots__ = ()
    span_id = None
    attrs: dict = {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``enabled`` is False so hot paths can skip span construction with a
    single attribute check -- the only cost tracing-off leaves behind.
    """

    enabled = False
    run_id = ""

    def begin(self, name, cat, parent=None, **attrs):
        return _NULL_SPAN

    def finish(self, span, **attrs):
        return None

    @contextmanager
    def span(self, name, cat, parent=None, **attrs):
        yield _NULL_SPAN

    def context(self, span):
        return None

    def emit_records(self, records):
        return None


NULL_TRACER = NullTracer()

_active: list = []


def current_tracer():
    """The innermost active tracer, or :data:`NULL_TRACER`."""
    return _active[-1] if _active else NULL_TRACER


@contextmanager
def activate_tracer(tracer):
    """Install ``tracer`` as the ambient tracer for the enclosed region."""
    _active.append(tracer)
    try:
        yield tracer
    finally:
        _active.pop()


class SpanRecorder:
    """Worker-side tracer: buffers span records for the return trip.

    Built from the :class:`SpanContext` that rode in with the chunk;
    every span recorded here is stamped with this worker's pid and
    parented (directly or transitively) under the context's span, so the
    parent's absorb can drop the records straight into the sink.
    """

    enabled = True

    def __init__(self, ctx: SpanContext):
        self.ctx = ctx
        self.records: list[dict] = []

    def begin(self, name: str, cat: str, parent=None, **attrs) -> Span:
        parent_id = self.ctx.span_id if parent is None else parent.span_id
        return Span(name, cat, parent_id, attrs)

    def finish(self, span: Span, **attrs) -> None:
        if attrs:
            span.attrs.update(attrs)
        self.records.append(span.record(self.ctx.run_id))

    @contextmanager
    def span(self, name: str, cat: str, parent=None, **attrs):
        span = self.begin(name, cat, parent, **attrs)
        try:
            yield span
        finally:
            self.finish(span)
