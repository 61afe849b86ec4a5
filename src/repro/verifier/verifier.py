"""The VERIFIER driver: Algorithm 1 of the paper.

Iterative domain splitting around the delta-complete solver, driven by an
explicit work queue (no Python recursion):

* UNSAT on a box            -> the condition is *verified* there;
* delta-SAT, model checks   -> a *counterexample* (still split, to isolate
  out exactly                  the violating subregions);
* delta-SAT, spurious model -> *inconclusive* (split);
* budget exhausted          -> *timeout* (split);
* box below threshold t     -> stop (line 1-2 of Algorithm 1); the parent
                               verdict stands for that area.  ``verify``
                               never queues such children (popping one
                               would only discard it), so the check at
                               pop time guards just the root domain.

The per-call budget plays the role of the paper's two-hour dReal limit; an
optional *global* budget models the finite total compute of an evaluation
campaign -- once it is exhausted, every remaining box is recorded as a
timeout without solving, which is precisely what the all-``?`` SCAN column
of Table I looks like.

Queue entries carry the box, its depth and its width, so the processing
order is a config knob: the default ``"dfs"`` order replays the recursive
traversal of Algorithm 1 exactly (bit-identical region trees, budget
consumption and indices -- ``tests/verifier/test_workqueue.py`` pins
this), while ``"widest"`` is a priority order that spends the global
budget on the widest unknown boxes first.  Records accumulate in the
returned report; the campaign store checkpoints whole cells, not records.

Sibling batching (``"dfs"`` order, with a solver that has
:meth:`~repro.solver.icp.ICPSolver.solve_many`): when a box is popped, it
and the siblings popped after it are solved in one multi-root call, so
the solver's kernels see their frontiers side by side instead of one
narrow frontier at a time.  The *zero-waste rule* decides which siblings
join: in dfs order sibling k runs only after the whole subtrees of
siblings 0..k-1, and :func:`subtree_bound` caps how many boxes each of
those subtrees can solve, so sibling k joins only while the global steps
left minus ``per_call_budget`` times those bounds still cover a full
``per_call_budget``.  Then its sequential budget is known to be exactly
``per_call_budget``: every batched result is the one the one-box run
would compute, none is wasted or re-solved, and steps are charged when
each sibling is popped.  A batched box popped with a different budget
raises instead of changing the tree.  Duck-typed solvers with only
``solve`` and the ``"widest"`` order (whose budget is not consumed
sibling by sibling) keep one-box calls.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

from ..expr.evaluator import evaluate
from ..solver.box import Box
from ..solver.icp import Budget, ICPSolver, SolverResult, SolverStats, SolverStatus
from .encoder import CompiledProblem, EncodedProblem
from .regions import Outcome, RegionRecord, VerificationReport


@dataclass(frozen=True)
class VerifierConfig:
    """Tuning knobs for Algorithm 1.

    ``split_threshold`` is the paper's t = 0.05 (boxes narrower than this
    are not split further).  ``per_call_budget`` bounds each solver call;
    ``global_step_budget`` bounds the whole verification run (None for
    unlimited).  ``split_on_counterexample`` reproduces the paper's choice
    of splitting even after a valid counterexample, to isolate violating
    subregions; disabling it is an ablation.
    """

    split_threshold: float = 0.05
    per_call_budget: int = 400
    global_step_budget: int | None = 200_000
    delta: float = 1e-5
    precision: float = 1e-3
    split_on_counterexample: bool = True
    split_on_timeout: bool = True
    #: boxes per frontier batch of the solver (see :class:`ICPSolver`): a
    #: bit-identical perf knob, excluded from :meth:`semantic_key`
    batch_size: int = 256
    #: work-queue discipline of the iterative driver.  ``"dfs"`` (default)
    #: replays Algorithm 1's recursive pre-order exactly -- bit-identical
    #: region trees and budget consumption.  ``"widest"`` is a priority
    #: queue keyed on (box width, depth, insertion order): the widest --
    #: i.e. least resolved -- boxes are solved first, so an exhausted
    #: global budget degrades breadth-first instead of starving whole
    #: subtrees.
    queue_order: str = "dfs"

    def __post_init__(self):
        # reject nonsense at construction (the CampaignConfig pattern):
        # a bad knob used to surface only deep inside the solver loop
        if not self.split_threshold > 0.0:
            raise ValueError(
                f"split_threshold must be > 0, got {self.split_threshold}"
            )
        if self.per_call_budget < 1:
            raise ValueError(
                f"per_call_budget must be >= 1, got {self.per_call_budget}"
            )
        # 0 is a meaningful degenerate budget (everything times out
        # immediately); only negatives are nonsense
        if self.global_step_budget is not None and self.global_step_budget < 0:
            raise ValueError(
                f"global_step_budget must be >= 0 or None, got {self.global_step_budget}"
            )
        if not self.delta >= 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if not self.precision > 0.0:
            raise ValueError(f"precision must be > 0, got {self.precision}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_order not in ("dfs", "widest"):
            raise ValueError(
                f"queue_order must be 'dfs' or 'widest', got {self.queue_order!r}"
            )

    def semantic_key(self) -> tuple:
        """The config fields that determine verification *outcomes*.

        Used by the campaign store's content-hash keys: two configs with
        the same semantic key produce bit-identical reports, so stored
        cells stay valid across changes to the pure performance knob
        ``batch_size`` (proven bit-identical by the solver's differential
        test corpus and deliberately excluded).
        """
        return (
            self.split_threshold,
            self.per_call_budget,
            None,  # the removed per_call_seconds slot: keeps stored keys valid
            self.global_step_budget,
            self.delta,
            self.precision,
            self.split_on_counterexample,
            self.split_on_timeout,
            False,  # the removed specialize_boxes slot: keeps stored keys valid
            self.queue_order,
        )

    def make_solver(self) -> ICPSolver:
        return ICPSolver(
            delta=self.delta,
            precision=self.precision,
            batch_size=self.batch_size,
        )


class _WorkQueue:
    """Explicit scheduling queue replacing Algorithm 1's call stack.

    Entries are ``(box, depth, parent record, pre-solved result)``; every
    box additionally carries its width as the scheduling priority.
    ``"dfs"`` is a LIFO that, with children pushed in reverse split order,
    replays the recursive pre-order traversal exactly.  ``"widest"`` is a
    max-heap on width (ties: shallowest first, then FIFO): the widest
    (least resolved) unknown boxes are solved first; its entries are
    never pre-solved.
    """

    __slots__ = ("order", "_stack", "_heap", "_seq")

    def __init__(self, order: str):
        if order not in ("dfs", "widest"):
            raise ValueError(f"unknown queue_order {order!r} (use 'dfs' or 'widest')")
        self.order = order
        self._stack: list[tuple[Box, int, RegionRecord | None, SolverResult | None]] = []
        self._heap: list[tuple[float, int, int, Box, RegionRecord | None]] = []
        self._seq = 0

    def push(self, box: Box, depth: int, parent: RegionRecord | None) -> None:
        if self.order == "dfs":
            self._stack.append((box, depth, parent, None))
        else:
            heapq.heappush(self._heap, (-box.max_width(), depth, self._seq, box, parent))
            self._seq += 1

    def push_children(
        self, children: list[Box], depth: int, parent: RegionRecord
    ) -> None:
        if self.order == "dfs":
            # reversed so the LIFO pops them in split order, exactly as the
            # recursion descended
            for child in reversed(children):
                self._stack.append((child, depth, parent, None))
        else:
            for child in children:
                self.push(child, depth, parent)

    def pop(self) -> tuple[Box, int, RegionRecord | None, SolverResult | None]:
        if self.order == "dfs":
            return self._stack.pop()
        _, depth, _, box, parent = heapq.heappop(self._heap)
        return box, depth, parent, None

    def next_siblings(self, parent: RegionRecord) -> list[Box]:
        """The boxes ``dfs`` pops next under ``parent``, in pop order."""
        out = []
        for box, _, entry_parent, _ in reversed(self._stack):
            if entry_parent is not parent:
                break
            out.append(box)
        return out

    def attach(self, results: list[SolverResult]) -> None:
        """Store pre-solved results on the next ``len(results)`` entries."""
        stack = self._stack
        for i, result in enumerate(results, 1):
            box, depth, parent, _ = stack[-i]
            stack[-i] = (box, depth, parent, result)

    def __bool__(self) -> bool:
        return bool(self._stack) or bool(self._heap)


def subtree_bound(box: Box, threshold: float) -> float:
    """Upper bound on the boxes Algorithm 1 can solve under ``box``, itself
    included.

    Every split halves each dimension and keeps the (at most 2^n) children
    at least ``threshold`` wide, so a level exists only while the halved
    maximum width stays at or above the threshold.  Each halving adds a
    few ulps of the largest endpoint as slack, since the computed
    midpoint may round either way; an unbounded box gives ``inf``.
    """
    width = box.max_width()
    reach = max((max(abs(iv.lo), abs(iv.hi)) for iv in box.intervals), default=0.0)
    if not math.isfinite(width) or not math.isfinite(reach):
        return math.inf
    slack = 4.0 * math.ulp(reach)
    fan = 2 ** len(box)
    level = total = 1
    while True:
        width = width / 2.0 + slack
        if width < threshold:
            return total
        level *= fan
        total += level


class Verifier:
    """Drives the solver over an iteratively split domain (Algorithm 1)."""

    def __init__(self, config: VerifierConfig | None = None, solver: ICPSolver | None = None):
        self.config = config or VerifierConfig()
        self.solver = solver or self.config.make_solver()
        #: solver-internals totals of the last verify()/solve_root() run:
        #: contract/classify outcomes and batched-kernel dispatch counts,
        #: summed over every solver call -- the campaign worker surfaces
        #: them as per-unit span attributes (see repro.obs.trace)
        self.stats_totals = SolverStats()

    def verify(
        self,
        problem: EncodedProblem | CompiledProblem,
        domain: Box | None = None,
        *,
        depth_offset: int = 0,
    ) -> VerificationReport:
        """Run Algorithm 1 on one encoded (or tape-compiled) pair.

        ``depth_offset`` shifts recorded depths, so a scheduler handing out
        subdomains of a pre-split domain gets records whose depths match
        the equivalent single-domain run.
        """
        functional_name, condition_id = self._problem_names(problem)
        domain = domain if domain is not None else problem.domain
        report = VerificationReport(
            functional_name=functional_name,
            condition_id=condition_id,
            domain=domain,
            records=[],
        )
        self.stats_totals = SolverStats()
        t_start = time.monotonic()
        self._steps_left = (
            self.config.global_step_budget
            if self.config.global_step_budget is not None
            else math.inf
        )

        # -- the work-queue loop (Algorithm 1, de-recursed) -------------------
        threshold = self.config.split_threshold
        queue = _WorkQueue(self.config.queue_order)
        # sibling batching needs the dfs order's sibling-by-sibling budget
        # and a solver with the multi-root call (duck-typed solvers that
        # only have solve() keep one-box calls)
        batch_siblings = queue.order == "dfs" and hasattr(self.solver, "solve_many")
        queue.push(domain, depth_offset, None)
        while queue:
            box, depth, parent, presolved = queue.pop()
            if box.max_width() < threshold:  # Alg. 1, lines 1-2
                continue
            if (
                presolved is None
                and batch_siblings
                and parent is not None
                and self._steps_left >= self.config.per_call_budget
            ):
                presolved = self._solve_siblings(problem, box, parent, queue)
            record = self._solve_box(problem, box, depth, report, presolved)
            if parent is not None:
                parent.children.append(record.index)
            if self._should_split(record.outcome):
                # Alg. 1, lines 14-15; children below the threshold would
                # be popped and dropped (lines 1-2), so they are not queued
                queue.push_children(box.split_all(threshold), depth + 1, record)

        report.elapsed_seconds = time.monotonic() - t_start
        report.budget_exhausted = self._steps_left <= 0
        return report

    def _solve_siblings(
        self, problem, box: Box, parent: RegionRecord, queue: _WorkQueue
    ) -> SolverResult | None:
        """Solve ``box`` and the siblings popped after it in one multi-root
        call; return ``box``'s result, or None to solve it on its own.

        The zero-waste rule: in dfs order sibling k runs only after the
        whole subtrees of the siblings before it, each of which spends at
        most ``per_call_budget`` steps on each of its ``subtree_bound``
        boxes.  So while ``steps_left - sum(per_call_budget *
        subtree_bound(i) for i < k) >= per_call_budget``, sibling k's
        sequential budget is known to be exactly ``per_call_budget``, and
        its result can be computed now.  Every result computed here is
        used, nothing is re-solved, and the steps are charged when each
        sibling is popped, as in the one-box run.  The caller checks
        ``steps_left >= per_call_budget`` first, so an exhausted budget
        costs nothing here.
        """
        budget = self.config.per_call_budget
        threshold = self.config.split_threshold
        roots = [box]
        spare = self._steps_left
        for sibling in queue.next_siblings(parent):
            if spare != math.inf:
                spare -= budget * subtree_bound(roots[-1], threshold)
                if spare < budget:
                    break
            roots.append(sibling)
        if len(roots) == 1:
            return None
        results = self.solver.solve_many(
            problem.negation, roots, Budget(max_steps=budget)
        )
        queue.attach(results[1:])
        return results[0]

    def solve_root(
        self,
        problem: EncodedProblem | CompiledProblem,
        box: Box,
        depth: int = 0,
    ) -> tuple[RegionRecord | None, list[Box] | None]:
        """Solve exactly one box and report whether it would split.

        This is the campaign scheduler's *spill* primitive: instead of
        descending locally, a worker solves the root of its work unit and
        hands the split children back for re-enqueueing on the shared
        queue.  Returns ``(record, children)``; ``record`` is None when the
        box is below the split threshold (Algorithm 1 lines 1-2 -- nothing
        to solve), ``children`` is None when the verdict is terminal.
        All 2^n children are returned, sub-threshold ones included: the
        campaign divides the remaining budget by their count.
        """
        if box.max_width() < self.config.split_threshold:
            return None, None
        self.stats_totals = SolverStats()
        self._steps_left = (
            self.config.global_step_budget
            if self.config.global_step_budget is not None
            else math.inf
        )
        scratch = VerificationReport(
            functional_name="", condition_id="", domain=box, records=[]
        )
        record = self._solve_box(problem, box, depth, scratch)
        children = box.split_all() if self._should_split(record.outcome) else None
        return record, children

    def _problem_names(
        self, problem: EncodedProblem | CompiledProblem
    ) -> tuple[str, str]:
        if isinstance(problem, CompiledProblem):
            return problem.functional_name, problem.condition_id
        return problem.functional.name, problem.condition.cid

    def _should_split(self, outcome: Outcome) -> bool:
        if outcome is Outcome.VERIFIED:
            return False
        if outcome is Outcome.COUNTEREXAMPLE:
            return self.config.split_on_counterexample
        if outcome is Outcome.TIMEOUT:
            return self.config.split_on_timeout
        return True

    def _solve_box(
        self,
        problem: EncodedProblem,
        box: Box,
        depth: int,
        report: VerificationReport,
        presolved: SolverResult | None = None,
    ) -> RegionRecord:
        index = len(report.records)
        if presolved is not None:
            if self._steps_left < self.config.per_call_budget:
                # a broken subtree bound must not silently change the tree
                raise RuntimeError(
                    f"pre-solved box popped with {self._steps_left} global steps "
                    f"left, fewer than per_call_budget={self.config.per_call_budget}"
                )
            result = presolved
        elif self._steps_left <= 0:
            # global campaign budget exhausted: everything left times out
            record = RegionRecord(index, depth, box, Outcome.TIMEOUT)
            report.records.append(record)
            return record
        else:
            budget = Budget(max_steps=int(min(self.config.per_call_budget, self._steps_left)))
            result = self.solver.solve(problem.negation, box, budget)
        self.stats_totals.merge(result.stats)
        steps = result.stats.boxes_processed
        self._steps_left -= steps
        report.total_solver_steps += steps

        if result.status is SolverStatus.UNSAT:
            outcome, model = Outcome.VERIFIED, None
        elif result.status is SolverStatus.DELTA_SAT:
            if self._is_valid_counterexample(problem, result.model):
                outcome, model = Outcome.COUNTEREXAMPLE, result.model
            else:
                outcome, model = Outcome.INCONCLUSIVE, result.model
        else:
            outcome, model = Outcome.TIMEOUT, None

        record = RegionRecord(index, depth, box, outcome, model, solver_steps=steps)
        report.records.append(record)
        return record

    @staticmethod
    def _is_valid_counterexample(
        problem: EncodedProblem | CompiledProblem, model: dict[str, float] | None
    ) -> bool:
        """The ``valid(x)`` check of Algorithm 1 (line 8).

        Plug the model back into the *original* condition psi with plain
        floating-point arithmetic; only a definite violation counts (NaN
        from out-of-domain evaluation is treated as inconclusive).
        """
        if model is None:
            return False
        if isinstance(problem, CompiledProblem):
            return problem.is_violation(model)
        gap = evaluate(problem.psi.lhs, model) - evaluate(problem.psi.rhs, model)
        if math.isnan(gap):
            return False
        return not problem.psi.holds(gap)


def verify_pair(
    functional,
    condition,
    config: VerifierConfig | None = None,
    domain: Box | None = None,
) -> VerificationReport:
    """Convenience one-call API: encode and verify a DFA-condition pair."""
    from .encoder import encode

    problem = encode(functional, condition)
    return Verifier(config).verify(problem, domain=domain)
