"""Delta-complete branch-and-prune solver (the dReal substitute).

Implements the ICP (interval constraint propagation) decision procedure at
the core of dReal (Gao, Kong & Clarke, CADE 2013):

* maintain a worklist of boxes, initially the input domain;
* *prune* each box with the HC4 contractor against the delta-weakened
  formula; discard empty boxes;
* if a box's midpoint (or a probe point) satisfies the formula exactly,
  answer ``delta-SAT`` with that model;
* if a box cannot be pruned and is smaller than the precision threshold,
  answer ``delta-SAT`` with its midpoint (this is where *spurious* models
  come from -- the midpoint satisfies the weakened formula but possibly not
  the original one, exactly the "SAT with an invalid model" case the paper
  reports as *inconclusive*);
* otherwise bisect the widest dimension and recurse;
* an exhausted worklist proves ``UNSAT`` (the condition is *verified* on
  the domain);
* exceeding the step budget reports ``TIMEOUT``, mirroring the paper's
  two-hour dReal limit.

One call may decide several *roots* (:meth:`ICPSolver.solve_many`): each
keeps its own worklist, budget and stats, while their boxes share the
batched kernel calls.  Algorithm 1 uses this for sibling boxes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .box import Box
from .constraint import Conjunction
from .contractor import HC4Contractor

#: Upper bound on the boxes per frontier batch, summed over the roots of a
#: multi-root call.  It bounds the endpoint matrices (and so peak memory);
#: results are bit-identical for every width.
BATCH_SIZE = 256


class SolverStatus(Enum):
    UNSAT = "unsat"
    DELTA_SAT = "delta-sat"
    TIMEOUT = "timeout"


@dataclass
class Budget:
    """Resource limits for one solver call.

    ``max_steps`` bounds the number of boxes processed per root
    (deterministic and platform-independent; the default is calibrated so
    that the PBE/LYP/AM05/VWN-class formulas finish while SCAN-class
    formulas -- >1000 operations per residual -- exhaust it, reproducing
    the timeout column of Table I).  There is deliberately no wall-clock
    bound: an outcome that depends on host load could not be reused
    across runs, stores or batched sibling solves.
    """

    max_steps: int = 20_000


@dataclass
class SolverStats:
    boxes_processed: int = 0
    boxes_pruned: int = 0
    boxes_split: int = 0
    probe_hits: int = 0
    #: this root's share of its call's wall time: every round's time is
    #: split over the roots by their columns in it, so the shares of one
    #: multi-root call sum to the call's wall time
    elapsed_seconds: float = 0.0
    #: frontier-loop counters: batches of boxes pulled from the worklist,
    #: boxes the batched contraction pruned, and boxes settled as
    #: certainly-sat by the batch's vectorised decide pass
    batches: int = 0
    batch_pruned: int = 0
    batch_certain: int = 0
    #: dispatch counters: solver calls (counted on a call's first root),
    #: roots solved, and this root's kernel columns that ran the tapes'
    #: scalar per-column executors (narrower than ``_VECTOR_MIN`` /
    #: ``_VECTOR_MIN_BWD``) or their NumPy kernels
    calls: int = 0
    roots: int = 0
    scalar_columns: int = 0
    vector_columns: int = 0

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another call's counters (the verifier's per-run
        totals, surfaced as solver-internals span attributes)."""
        self.boxes_processed += other.boxes_processed
        self.boxes_pruned += other.boxes_pruned
        self.boxes_split += other.boxes_split
        self.probe_hits += other.probe_hits
        self.elapsed_seconds += other.elapsed_seconds
        self.batches += other.batches
        self.batch_pruned += other.batch_pruned
        self.batch_certain += other.batch_certain
        self.calls += other.calls
        self.roots += other.roots
        self.scalar_columns += other.scalar_columns
        self.vector_columns += other.vector_columns

    def as_attrs(self) -> dict:
        """JSON-safe span attributes: batched vs scalar dispatch and
        contract/classify outcomes, the fields the trace cares about."""
        return {
            "boxes_processed": self.boxes_processed,
            "boxes_pruned": self.boxes_pruned,
            "boxes_split": self.boxes_split,
            "probe_hits": self.probe_hits,
            "batches": self.batches,
            "batch_pruned": self.batch_pruned,
            "batch_certain": self.batch_certain,
            "calls": self.calls,
            "roots": self.roots,
            "scalar_columns": self.scalar_columns,
            "vector_columns": self.vector_columns,
        }


@dataclass
class SolverResult:
    status: SolverStatus
    model: dict[str, float] | None
    stats: SolverStats

    @property
    def is_unsat(self) -> bool:
        return self.status is SolverStatus.UNSAT

    @property
    def is_timeout(self) -> bool:
        return self.status is SolverStatus.TIMEOUT


class ICPSolver:
    """Delta-complete satisfiability solver for conjunctions of inequalities.

    Parameters
    ----------
    delta:
        Weakening applied to every atom (``g <= 0`` becomes ``g <= delta``).
        UNSAT answers are exact; delta-SAT answers hold for the weakened
        formula.
    precision:
        Minimal box width; boxes narrower than this are not split further
        and yield delta-SAT with their midpoint as the model.

    The worklist is processed in frontier batches, each contracted
    *wholesale* by the batched tape executors
    (:meth:`HC4Contractor.contract_batch`: vectorised forward and
    HC4-backward passes), leaving per-box work to probing and splitting.
    A multi-root call (:meth:`solve_many`) runs in *rounds*: each round
    concatenates the next boxes of every unfinished root into one batch,
    capped at :data:`BATCH_SIZE` columns (which bounds the endpoint
    matrices, and so peak memory, however many roots there are), and
    hands the contracted columns back to their roots.  A root whose level does not fit the
    cap continues it in the next round, still in FIFO order.
    """

    def __init__(self, delta: float = 1e-5, precision: float = 1e-4):
        if precision <= 0.0:
            raise ValueError("precision must be positive")
        self.delta = delta
        self.precision = precision

    def solve(
        self, formula: Conjunction, domain: Box, budget: Budget | None = None
    ) -> SolverResult:
        """Decide satisfiability of ``formula`` within ``domain``."""
        return self.solve_many(formula, [domain], budget)[0]

    def solve_many(
        self, formula: Conjunction, domains: list[Box], budget: Budget | None = None
    ) -> list[SolverResult]:
        """Decide ``formula`` on each of ``domains`` in one multi-root call.

        Result ``i`` equals ``solve(formula, domains[i], budget)`` --
        status, model and per-box counters; ``budget`` bounds each root on
        its own.  The roots share every kernel call (see
        :meth:`_solve_frontier`), which is what makes this cheaper than
        solving them one by one.
        """
        max_steps = (budget or Budget()).max_steps
        t0 = time.monotonic()
        # building a contractor only collects the atoms' tapes (tape_for
        # memoises them), so each call builds its own
        contractor = HC4Contractor(formula, delta=self.delta)
        needed = formula.free_var_names()
        for domain in domains:
            missing = needed - set(domain.names)
            if missing:
                raise ValueError(f"domain does not bind variables: {sorted(missing)}")
        return self._solve_frontier(formula, domains, contractor, max_steps, t0)

    def _solve_frontier(
        self, formula, domains: list[Box], contractor, max_steps: int, t0: float
    ) -> list[SolverResult]:
        """Frontier loop over several roots: contract whole batches, per-box
        work on survivors.

        Every root keeps its own worklist, step count and stats.  A round
        pulls each unfinished root's next boxes FIFO, in root order, until
        the round holds :data:`BATCH_SIZE` boxes; a root whose level does not
        fit continues it next round.  FIFO (breadth-first) keeps refinement
        uniform: un-prunable regions exhaust the budget (timeout) instead
        of diving to a precision box and reporting a spurious delta-SAT.
        The round's boxes are contracted wholesale with the batched tape
        executors (:meth:`HC4Contractor.contract_batch`), which also
        decides certainly-sat for every surviving box in the same sweep,
        and the results are handed back root by root.  Only probing, the
        precision check and splitting remain per box.  The batched
        contraction is bit-identical per column whatever the batch holds,
        and each root visits its boxes in the order of a classic
        pop-one-box loop, so every root's status, model and per-box stats
        match a solo call.  A root takes no more boxes than it has steps
        left: the step after the last one reports TIMEOUT without
        contracting anything.
        """
        frontiers = [deque([domain]) for domain in domains]
        stats = [SolverStats(roots=1) for _ in domains]
        if stats:
            stats[0].calls = 1
        results: list[SolverResult | None] = [None] * len(domains)

        def finished(r: int) -> bool:
            if results[r] is None:
                if not frontiers[r]:
                    results[r] = SolverResult(SolverStatus.UNSAT, None, stats[r])
                elif stats[r].boxes_processed >= max_steps:
                    results[r] = SolverResult(SolverStatus.TIMEOUT, None, stats[r])
            return results[r] is not None

        live = [r for r in range(len(domains)) if not finished(r)]
        t_mark = t0
        while live:
            batch: list[Box] = []
            segments: list[tuple[int, int, int]] = []
            for r in live:
                room = BATCH_SIZE - len(batch)
                if room == 0:
                    break
                frontier = frontiers[r]
                start = len(batch)
                take = min(room, len(frontier), max_steps - stats[r].boxes_processed)
                batch.extend(frontier.popleft() for _ in range(take))
                segments.append((r, start, len(batch)))
            columns = np.zeros((2, len(batch)), dtype=np.int64)
            contracted, allsat = contractor.contract_batch(batch, columns=columns)
            for r, start, stop in segments:
                st = stats[r]
                st.batches += 1
                frontier = frontiers[r]
                for j in range(start, stop):
                    st.boxes_processed += 1

                    if batch[j].is_empty():
                        st.boxes_pruned += 1
                        continue

                    box = contracted[j]
                    if box.is_empty():
                        st.batch_pruned += 1
                        st.boxes_pruned += 1
                        continue

                    probe = box.midpoint()
                    if formula.holds_at(probe):
                        st.probe_hits += 1
                        results[r] = SolverResult(SolverStatus.DELTA_SAT, probe, st)
                        break

                    if box.max_width() <= self.precision:
                        # cannot prune, cannot split: delta-SAT by delta-completeness
                        results[r] = SolverResult(SolverStatus.DELTA_SAT, box.midpoint(), st)
                        break

                    if allsat[j]:
                        st.batch_certain += 1
                        results[r] = SolverResult(SolverStatus.DELTA_SAT, box.midpoint(), st)
                        break

                    lower, upper = box.split()
                    st.boxes_split += 1
                    frontier.append(lower)
                    frontier.append(upper)
                st.scalar_columns += int(columns[0, start:stop].sum())
                st.vector_columns += int(columns[1, start:stop].sum())
            # the round's wall time, shared out by columns
            now = time.monotonic()
            per_column = (now - t_mark) / len(batch)
            for r, start, stop in segments:
                stats[r].elapsed_seconds += per_column * (stop - start)
            t_mark = now
            live = [r for r in live if not finished(r)]
        if stats:
            # setup and a round-free call: charged to the first root
            stats[0].elapsed_seconds += time.monotonic() - t_mark
        return results
