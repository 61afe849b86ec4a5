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
budget on the widest unknown boxes first.  Results stream out through an
optional per-record callback, which is how the campaign store checkpoints
progress.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable

from ..expr.evaluator import evaluate
from ..solver.box import Box
from ..solver.icp import Budget, ICPSolver, SolverStats, SolverStatus
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
    per_call_seconds: float | None = None
    global_step_budget: int | None = 200_000
    delta: float = 1e-5
    precision: float = 1e-3
    split_on_counterexample: bool = True
    split_on_timeout: bool = True
    #: specialise the formula to each box before solving (Section VI-A
    #: scalability extension): decidable Ite guards fold away, so piecewise
    #: functionals (SCAN's alpha switches) collapse to a single analytic
    #: piece on boxes that stay on one side of the switch.  Costs one
    #: rebuild per box; pays off on Ite-heavy formulas.
    specialize_boxes: bool = False
    #: solver execution strategy (see :class:`ICPSolver`): the batched
    #: frontier loop by default; "tape"/"walk" select the per-box paths
    #: (all bit-identical -- these are perf/ablation knobs, and workers of
    #: the parallel drivers inherit them through the pickled config)
    solver_backend: str = "batch"
    batch_size: int = 256
    #: minimum frontier width before the batched executors use the vector
    #: kernels (None = module default / ``REPRO_VECTOR_MIN``); like
    #: ``batch_size`` it is a bit-identical perf knob, excluded from
    #: :meth:`semantic_key`
    vector_min: int | None = None
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
        if self.per_call_seconds is not None and not self.per_call_seconds > 0:
            raise ValueError(
                f"per_call_seconds must be > 0 or None, got {self.per_call_seconds}"
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
        if self.solver_backend not in ("batch", "tape", "walk"):
            raise ValueError(
                f"solver_backend must be 'batch', 'tape' or 'walk', "
                f"got {self.solver_backend!r}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.vector_min is not None and self.vector_min < 0:
            raise ValueError(
                f"vector_min must be >= 0 or None, got {self.vector_min}"
            )
        if self.queue_order not in ("dfs", "widest"):
            raise ValueError(
                f"queue_order must be 'dfs' or 'widest', got {self.queue_order!r}"
            )

    def semantic_key(self) -> tuple:
        """The config fields that determine verification *outcomes*.

        Used by the campaign store's content-hash keys: two configs with
        the same semantic key produce bit-identical reports, so stored
        cells stay valid across changes to the pure performance knobs
        (``solver_backend``, ``batch_size`` and ``vector_min`` are proven
        bit-identical by the solver's differential test corpus and are
        deliberately excluded).
        """
        return (
            self.split_threshold,
            self.per_call_budget,
            self.per_call_seconds,
            self.global_step_budget,
            self.delta,
            self.precision,
            self.split_on_counterexample,
            self.split_on_timeout,
            self.specialize_boxes,
            self.queue_order,
        )

    def make_solver(self) -> ICPSolver:
        return ICPSolver(
            delta=self.delta,
            precision=self.precision,
            backend=self.solver_backend,
            batch_size=self.batch_size,
            vector_min=self.vector_min,
        )

    def make_budget(self) -> Budget:
        return Budget(
            max_steps=self.per_call_budget, max_seconds=self.per_call_seconds
        )


class _WorkQueue:
    """Explicit scheduling queue replacing Algorithm 1's call stack.

    Entries are ``(box, depth, parent record)``; every box additionally
    carries its width as the scheduling priority.  ``"dfs"`` is a LIFO
    that, with children pushed in reverse split order, replays the
    recursive pre-order traversal exactly.  ``"widest"`` is a max-heap on
    width (ties: shallowest first, then FIFO): the widest (least
    resolved) unknown boxes are solved first.
    """

    __slots__ = ("order", "_stack", "_heap", "_seq")

    def __init__(self, order: str):
        if order not in ("dfs", "widest"):
            raise ValueError(f"unknown queue_order {order!r} (use 'dfs' or 'widest')")
        self.order = order
        self._stack: list[tuple[Box, int, RegionRecord | None]] = []
        self._heap: list[tuple[float, int, int, Box, RegionRecord | None]] = []
        self._seq = 0

    def push(self, box: Box, depth: int, parent: RegionRecord | None) -> None:
        if self.order == "dfs":
            self._stack.append((box, depth, parent))
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
                self._stack.append((child, depth, parent))
        else:
            for child in children:
                self.push(child, depth, parent)

    def pop(self) -> tuple[Box, int, RegionRecord | None]:
        if self.order == "dfs":
            return self._stack.pop()
        _, depth, _, box, parent = heapq.heappop(self._heap)
        return box, depth, parent

    def __bool__(self) -> bool:
        return bool(self._stack) or bool(self._heap)


#: bound on the per-verifier specialised-formula interning table; one entry
#: per observed Ite branch combination, so real formulas stay far below it,
#: but a pathological campaign can no longer grow it without limit
_SPECIALIZED_CACHE_MAX = 512


class Verifier:
    """Drives the solver over an iteratively split domain (Algorithm 1)."""

    def __init__(self, config: VerifierConfig | None = None, solver: ICPSolver | None = None):
        self.config = config or VerifierConfig()
        self.solver = solver or self.config.make_solver()
        # interning table for specialised formulas: hash-consing makes equal
        # specialisations share residual objects, so keying on residual ids
        # dedupes them -- and keeps the solver's per-formula contractor
        # cache effective (it is keyed on formula identity).  Cleared per
        # top-level verify() and bounded, so long campaigns cannot grow it
        # without limit.
        self._specialized_cache: dict[tuple, object] = {}
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
        on_record: Callable[[RegionRecord], None] | None = None,
    ) -> VerificationReport:
        """Run Algorithm 1 on one encoded (or tape-compiled) pair.

        ``depth_offset`` shifts recorded depths, so a scheduler handing out
        subdomains of a pre-split domain gets records whose depths match
        the equivalent single-domain run.  ``on_record`` is called with
        each :class:`RegionRecord` as soon as it is solved -- the result
        *stream* consumed by campaign checkpointing; the records still
        accumulate in the returned report.
        """
        functional_name, condition_id = self._problem_names(problem)
        domain = domain if domain is not None else problem.domain
        report = VerificationReport(
            functional_name=functional_name,
            condition_id=condition_id,
            domain=domain,
            records=[],
        )
        self._specialized_cache.clear()
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
        queue.push(domain, depth_offset, None)
        while queue:
            box, depth, parent = queue.pop()
            if box.max_width() < threshold:  # Alg. 1, lines 1-2
                continue
            record = self._solve_box(problem, box, depth, report)
            if parent is not None:
                parent.children.append(record.index)
            if on_record is not None:
                on_record(record)
            if self._should_split(record.outcome):
                # Alg. 1, lines 14-15; children below the threshold would
                # be popped and dropped (lines 1-2), so they are not queued
                queue.push_children(box.split_all(threshold), depth + 1, record)

        report.elapsed_seconds = time.monotonic() - t_start
        report.budget_exhausted = self._steps_left <= 0
        return report

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
        self._problem_names(problem)  # validates specialize_boxes pairing
        if box.max_width() < self.config.split_threshold:
            return None, None
        self._specialized_cache.clear()
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
            if self.config.specialize_boxes:
                raise ValueError(
                    "specialize_boxes needs expression-level residuals; "
                    "pass the EncodedProblem instead of a CompiledProblem"
                )
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
    ) -> RegionRecord:
        index = len(report.records)

        if self._steps_left <= 0:
            # global campaign budget exhausted: everything left times out
            record = RegionRecord(index, depth, box, Outcome.TIMEOUT)
            report.records.append(record)
            return record

        budget = Budget(
            max_steps=int(min(self.config.per_call_budget, self._steps_left)),
            max_seconds=self.config.per_call_seconds,
        )
        formula = problem.negation
        if self.config.specialize_boxes and not isinstance(problem, CompiledProblem):
            formula = self._specialized(formula, box)
        result = self.solver.solve(formula, box, budget)
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

    def _specialized(self, formula, box: Box):
        """Fold box-decidable Ite guards out of every atom's residual.

        Returns the original formula object when nothing folds.  Distinct
        boxes on the same side of every switch specialise to identical
        residuals (hash-consing makes them the *same* objects), so the
        result is interned by residual identities -- keeping the solver's
        per-formula contractor cache (keyed on formula identity) effective
        and bounding this cache to one entry per branch combination.
        """
        from ..expr.simplify import specialize
        from ..solver.constraint import Atom, Conjunction

        new_atoms = []
        changed = False
        for atom in formula.atoms:
            residual = specialize(atom.residual, box)
            if residual is not atom.residual:
                changed = True
                new_atoms.append(Atom(residual, atom.op))
            else:
                new_atoms.append(atom)
        if not changed:
            return formula
        key = tuple((id(a.residual), a.op) for a in new_atoms)
        cached = self._specialized_cache.get(key)
        if cached is None:
            if len(self._specialized_cache) >= _SPECIALIZED_CACHE_MAX:
                # drop the oldest interned specialisation (dict insertion
                # order); losing an entry only costs a re-intern later
                self._specialized_cache.pop(next(iter(self._specialized_cache)))
            cached = Conjunction(atoms=tuple(new_atoms))
            self._specialized_cache[key] = cached
        return cached

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
