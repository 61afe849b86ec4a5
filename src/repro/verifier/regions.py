"""Region records and verification reports (the output of Algorithm 1)."""

from __future__ import annotations

import gc
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

from ..solver.box import Box


_GC_LOCK = threading.Lock()
_gc_depth = 0
_gc_disabled_here = False


@contextmanager
def gc_paused():
    """Pause CPython's cyclic collector for the body of the ``with``.

    Decoding, unpickling or encoding one budget-exhausted cell allocates
    hundreds of thousands of tracked objects that all stay alive, so the
    collector's full passes re-walk an ever larger heap and find nothing
    to free.  Wrap only work whose run time grows with a cell's bytes,
    never solver work: the service runs campaigns on long-lived threads.

    Re-entrant and thread-safe: the outermost pause of any thread
    disables the collector if it was enabled, and the last one out
    re-enables only what the first one disabled.
    """
    global _gc_depth, _gc_disabled_here
    with _GC_LOCK:
        if _gc_depth == 0:
            _gc_disabled_here = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _GC_LOCK:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_disabled_here:
                _gc_disabled_here = False
                gc.enable()


def _gc_after_fork() -> None:
    # a child forked while another thread held a pause must not inherit
    # it: that thread does not exist in the child, so nothing would ever
    # end the pause (the forking thread itself never holds one)
    global _GC_LOCK, _gc_depth, _gc_disabled_here
    _GC_LOCK = threading.Lock()
    if _gc_disabled_here:
        gc.enable()
    _gc_depth = 0
    _gc_disabled_here = False


os.register_at_fork(after_in_child=_gc_after_fork)


class Outcome(Enum):
    """Per-region verdicts, matching the paper's figure legend."""

    VERIFIED = "verified"            # dReal: UNSAT on the region
    COUNTEREXAMPLE = "counterexample"  # delta-SAT with a *valid* model
    INCONCLUSIVE = "inconclusive"    # delta-SAT with a spurious model
    TIMEOUT = "timeout"              # solver budget exhausted


#: Table I cell symbols
SYMBOL_VERIFIED = "OK"        # paper: check mark
SYMBOL_PARTIAL = "OK*"        # paper: check mark with asterisk
SYMBOL_COUNTEREXAMPLE = "CEX"  # paper: cross
SYMBOL_UNKNOWN = "?"
SYMBOL_NOT_APPLICABLE = "-"


@dataclass(slots=True)
class RegionRecord:
    """One VERIFIER call: the box it examined and what it concluded.

    Slotted and pickled positionally: a budget-exhausted cell holds tens
    of thousands of records, and every one crosses the worker -> parent
    pickle boundary.
    """

    index: int
    depth: int
    box: Box
    outcome: Outcome
    model: dict[str, float] | None = None
    children: list[int] = field(default_factory=list)
    solver_steps: int = 0

    def __reduce__(self):
        # positional fields: no per-record field names in the pickle
        return RegionRecord, (
            self.index, self.depth, self.box, self.outcome,
            self.model, self.children, self.solver_steps,
        )


def _report_from_pickle(
    functional_name, condition_id, domain, records_blob, total_solver_steps,
    elapsed_seconds, budget_exhausted, compile_seconds,
) -> "VerificationReport":
    with gc_paused():
        records = pickle.loads(records_blob)
    return VerificationReport(
        functional_name, condition_id, domain, records, total_solver_steps,
        elapsed_seconds, budget_exhausted, compile_seconds,
    )


@dataclass
class VerificationReport:
    """Everything Algorithm 1 learned about one DFA-condition pair."""

    functional_name: str
    condition_id: str
    domain: Box
    records: list[RegionRecord]
    total_solver_steps: int = 0
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False
    #: wall-clock cold workers spent setting up the problem's solver
    #: (``repro stats`` reports it); ~0.0 when the per-worker compile
    #: cache was warm.  A timing, not an outcome: excluded from
    #: :meth:`identical_to` like ``elapsed_seconds``.
    compile_seconds: float = 0.0

    def __reduce__(self):
        # the records travel as one inner pickle, unpickled with the
        # collector paused in whichever thread receives the report
        with gc_paused():
            blob = pickle.dumps(self.records, pickle.HIGHEST_PROTOCOL)
        return _report_from_pickle, (
            self.functional_name, self.condition_id, self.domain, blob,
            self.total_solver_steps, self.elapsed_seconds,
            self.budget_exhausted, self.compile_seconds,
        )

    # -- aggregation -------------------------------------------------------------
    def area_fractions(self) -> dict[Outcome, float]:
        """Domain-volume fraction finally labelled with each outcome.

        A record owns its box's volume minus its children's, clamped at
        zero; each box's volume is computed once.
        """
        total = self.domain.volume()
        fractions = {outcome: 0.0 for outcome in Outcome}
        volumes = [record.box.volume() for record in self.records]
        for record, vol in zip(self.records, volumes):
            for child_index in record.children:
                vol -= volumes[child_index]
            fractions[record.outcome] += max(vol, 0.0)
        if total > 0.0:
            for outcome in fractions:
                fractions[outcome] /= total
        return fractions

    def max_depth(self) -> int:
        """Deepest split level reached (-1 for an empty report)."""
        return max((r.depth for r in self.records), default=-1)

    def identical_to(self, other: "VerificationReport") -> bool:
        """Bit-exact region-tree equality.

        True iff both reports carry the same records in the same order --
        boxes compared on exact endpoints, plus outcomes, models, child
        links, per-record and total step counts, and the exhaustion flag.
        This is the equivalence the campaign engine guarantees between
        pooled and in-process runs; wall-clock (``elapsed_seconds``,
        ``compile_seconds``) is deliberately excluded.  The differential test corpus asserts
        field-by-field for readable failures; gates that only need the
        verdict use this.
        """
        if (
            len(self.records) != len(other.records)
            or self.total_solver_steps != other.total_solver_steps
            or self.budget_exhausted != other.budget_exhausted
            or self.domain != other.domain
        ):
            return False
        for a, b in zip(self.records, other.records):
            if (
                a.index != b.index
                or a.depth != b.depth
                or a.box != b.box
                or a.outcome is not b.outcome
                or a.model != b.model
                or a.children != b.children
                or a.solver_steps != b.solver_steps
            ):
                return False
        return True

    def counterexamples(self) -> list[RegionRecord]:
        return [r for r in self.records if r.outcome is Outcome.COUNTEREXAMPLE]

    def has_counterexample(self) -> bool:
        return any(r.outcome is Outcome.COUNTEREXAMPLE for r in self.records)

    def verified_fraction(self) -> float:
        return self.area_fractions()[Outcome.VERIFIED]

    def classification(self) -> str:
        """Table I cell for this pair.

        Precedence follows the paper: a single valid counterexample makes
        the pair CEX; otherwise fully verified -> OK; partially verified
        -> OK*; nothing verified -> ?.
        """
        if self.has_counterexample():
            return SYMBOL_COUNTEREXAMPLE
        fractions = self.area_fractions()
        verified = fractions[Outcome.VERIFIED]
        if verified >= 1.0 - 1e-9:
            return SYMBOL_VERIFIED
        if verified > 1e-9:
            return SYMBOL_PARTIAL
        return SYMBOL_UNKNOWN

    def counterexample_bbox(self) -> Box | None:
        """Hull of the *leaf* counterexample regions (for PB comparison).

        Non-leaf counterexample records exist because Algorithm 1 records
        the verdict and then splits to isolate the violating subregions;
        only the finest-level (childless) regions describe the violation
        set, so the hull is taken over those.
        """
        leaves = [r for r in self.counterexamples() if not r.children]
        boxes = [r.box for r in (leaves or self.counterexamples())]
        if not boxes:
            return None
        names = boxes[0].names
        from ..solver.interval import make
        bounds = {}
        for name in names:
            lo = min(b[name].lo for b in boxes)
            hi = max(b[name].hi for b in boxes)
            bounds[name] = make(lo, hi)
        return Box(bounds)

    def summary(self) -> str:
        fractions = self.area_fractions()
        parts = ", ".join(
            f"{outcome.value}={fraction:.1%}"
            for outcome, fraction in fractions.items()
            if fraction > 0.0
        )
        return (
            f"{self.functional_name}/{self.condition_id}: "
            f"{self.classification()} ({parts}; {len(self.records)} regions, "
            f"{self.total_solver_steps} solver steps)"
        )
