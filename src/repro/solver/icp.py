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
* exceeding the step/time budget reports ``TIMEOUT``, mirroring the paper's
  two-hour dReal limit.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .box import Box
from .constraint import Conjunction
from .contractor import HC4Contractor
from .newton import NewtonContractor


class SolverStatus(Enum):
    UNSAT = "unsat"
    DELTA_SAT = "delta-sat"
    TIMEOUT = "timeout"


@dataclass
class Budget:
    """Resource limits for one solver call.

    ``max_steps`` bounds the number of boxes processed (deterministic and
    platform-independent; the default is calibrated so that the
    PBE/LYP/AM05/VWN-class formulas finish while SCAN-class formulas --
    >1000 operations per residual -- exhaust it, reproducing the timeout
    column of Table I).  ``max_seconds`` optionally adds a wall-clock bound
    like the paper's two-hour dReal limit.
    """

    max_steps: int = 20_000
    max_seconds: float | None = None

    def start(self) -> "_BudgetClock":
        return _BudgetClock(self)


@dataclass
class _BudgetClock:
    budget: Budget
    steps: int = 0
    t0: float = field(default_factory=time.monotonic)

    def tick(self) -> bool:
        """Consume one step; return False when the budget is exhausted."""
        self.steps += 1
        if self.steps > self.budget.max_steps:
            return False
        if (
            self.budget.max_seconds is not None
            and time.monotonic() - self.t0 > self.budget.max_seconds
        ):
            return False
        return True


@dataclass
class SolverStats:
    boxes_processed: int = 0
    boxes_pruned: int = 0
    boxes_split: int = 0
    probe_hits: int = 0
    elapsed_seconds: float = 0.0
    #: frontier-loop counters: batches of boxes pulled from the worklist,
    #: boxes the batched contraction pruned, and boxes settled as
    #: certainly-sat by the batch's vectorised decide pass
    batches: int = 0
    batch_pruned: int = 0
    batch_certain: int = 0

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
    def is_sat(self) -> bool:
        return self.status is SolverStatus.DELTA_SAT

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
    contraction_rounds:
        Fixpoint rounds of the HC4 contractor per box.
    use_probing:
        Evaluate the exact formula at box midpoints to short-circuit to a
        *valid* model quickly (dReal similarly finds models early; disabling
        this is an ablation knob).
    use_contraction:
        Disable to fall back to pure bisection (ablation knob; dramatically
        slower, used to quantify the value of HC4 pruning).
    use_newton:
        Additionally apply the first-order mean-value contractor
        (:class:`~repro.solver.newton.NewtonContractor`) after HC4 on each
        box.  Pays off on derivative-heavy residuals where HC4's
        syntax-directed pruning stalls; costs one symbolic derivative per
        (atom, variable) up front plus extra interval sweeps per box.
    search:
        ``"bfs"`` (default) pulls up to ``batch_size`` boxes FIFO per
        iteration; ``"dfs"`` pops one box at a time LIFO (ablation knob).
    batch_size:
        Upper bound on the number of boxes per frontier batch.  Each batch
        is contracted *wholesale* by the batched tape executors
        (:meth:`HC4Contractor.contract_batch`: vectorised forward and
        HC4-backward passes), leaving per-box work to probing, splitting
        and the optional Newton contractor.  A pure performance knob:
        results are bit-identical for every batch size.
    """

    def __init__(
        self,
        delta: float = 1e-5,
        precision: float = 1e-4,
        contraction_rounds: int = 2,
        use_probing: bool = True,
        use_contraction: bool = True,
        use_newton: bool = False,
        search: str = "bfs",
        batch_size: int = 256,
    ):
        if precision <= 0.0:
            raise ValueError("precision must be positive")
        if search not in ("bfs", "dfs"):
            raise ValueError("search must be 'bfs' or 'dfs'")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.delta = delta
        self.precision = precision
        self.contraction_rounds = contraction_rounds
        self.use_probing = use_probing
        self.use_contraction = use_contraction
        self.use_newton = use_newton
        self.search = search
        self.batch_size = batch_size
        # contractors are pure functions of the formula; reuse across the
        # many solver calls Algorithm 1 makes for the same condition.
        # Keyed on the formula itself (holding a strong reference), NOT on
        # id(formula): ids are recycled after garbage collection, which
        # could silently serve a stale contractor for a different formula.
        self._contractors: dict[object, HC4Contractor] = {}
        self._newtons: dict[object, NewtonContractor] = {}

    def _contractor_for(self, formula: Conjunction) -> HC4Contractor:
        contractor = self._contractors.get(formula)
        if contractor is None:
            contractor = HC4Contractor(formula, delta=self.delta)
            self._contractors[formula] = contractor
        return contractor

    def _newton_for(self, formula: Conjunction) -> NewtonContractor:
        contractor = self._newtons.get(formula)
        if contractor is None:
            contractor = NewtonContractor(formula, delta=self.delta)
            self._newtons[formula] = contractor
        return contractor

    def solve(
        self, formula: Conjunction, domain: Box, budget: Budget | None = None
    ) -> SolverResult:
        """Decide satisfiability of ``formula`` within ``domain``."""
        budget = budget or Budget()
        clock = budget.start()
        stats = SolverStats()
        t0 = time.monotonic()
        contractor = self._contractor_for(formula)
        newton = self._newton_for(formula) if self.use_newton else None

        missing = formula.free_var_names() - set(domain.names)
        if missing:
            raise ValueError(f"domain does not bind variables: {sorted(missing)}")

        return self._solve_frontier(formula, domain, contractor, newton, clock, stats, t0)

    def _solve_frontier(
        self, formula, domain: Box, contractor, newton, clock, stats, t0
    ) -> SolverResult:
        """Frontier loop: contract whole batches, per-box work on survivors.

        BFS pulls up to ``batch_size`` boxes FIFO per iteration and
        contracts them wholesale with the batched tape executors
        (:meth:`HC4Contractor.contract_batch`), which also decides
        certainly-sat for every surviving box in the same sweep.  Only
        probing, the precision check, splitting and the optional Newton
        contractor remain per box.  The batched contraction is
        bit-identical to per-box :meth:`~HC4Contractor.contract` and the
        boxes are visited in FIFO order, so results, models and per-box
        stats match a classic pop-one-box BFS loop exactly.

        The ablation knobs run through the same loop: ``search="dfs"``
        pops LIFO batches of one box, and with contraction off each box is
        passed through uncontracted and decided by a per-box
        :meth:`~HC4Contractor.certainly_sat`.
        """
        # BFS keeps refinement uniform: un-prunable regions exhaust the
        # budget (timeout) instead of diving to a precision box and
        # reporting a spurious delta-SAT; DFS is kept as an ablation knob.
        lifo = self.search == "dfs"
        # the batch's certainly-sat verdicts hold for the contracted boxes;
        # Newton narrows them further and no contraction means no verdicts,
        # so either case re-decides per box
        decide_per_box = newton is not None or not self.use_contraction
        stack: deque[Box] = deque([domain])
        while stack:
            if lifo:
                batch = [stack.pop()]
            else:
                take = min(self.batch_size, len(stack))
                batch = [stack.popleft() for _ in range(take)]
            stats.batches += 1
            if self.use_contraction:
                contracted, allsat = contractor.contract_batch(
                    batch, rounds=self.contraction_rounds
                )
            else:
                contracted, allsat = batch, None
            for j, original in enumerate(batch):
                if not clock.tick():
                    stats.elapsed_seconds = time.monotonic() - t0
                    return SolverResult(SolverStatus.TIMEOUT, None, stats)
                stats.boxes_processed += 1

                if original.is_empty():
                    stats.boxes_pruned += 1
                    continue

                box = contracted[j]
                if box.is_empty():
                    stats.batch_pruned += 1
                    stats.boxes_pruned += 1
                    continue

                if newton is not None:
                    box = newton.contract(box)
                    if box.is_empty():
                        stats.boxes_pruned += 1
                        continue

                if self.use_probing:
                    probe = box.midpoint()
                    if formula.holds_at(probe):
                        stats.probe_hits += 1
                        stats.elapsed_seconds = time.monotonic() - t0
                        return SolverResult(SolverStatus.DELTA_SAT, probe, stats)

                if box.max_width() <= self.precision:
                    # cannot prune, cannot split: delta-SAT by delta-completeness
                    stats.elapsed_seconds = time.monotonic() - t0
                    return SolverResult(SolverStatus.DELTA_SAT, box.midpoint(), stats)

                if decide_per_box:
                    certainly = contractor.certainly_sat(box)
                else:
                    certainly = bool(allsat[j])
                    if certainly:
                        stats.batch_certain += 1
                if certainly:
                    stats.elapsed_seconds = time.monotonic() - t0
                    return SolverResult(SolverStatus.DELTA_SAT, box.midpoint(), stats)

                left, right = box.split()
                stats.boxes_split += 1
                stack.append(left)
                stack.append(right)

        stats.elapsed_seconds = time.monotonic() - t0
        return SolverResult(SolverStatus.UNSAT, None, stats)
