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

The work queue is a LIFO of ``(box, depth, parent, pre-solved result)``
entries; children are pushed in reverse split order, so it replays the
recursive pre-order traversal of Algorithm 1 exactly (bit-identical
region trees, budget consumption and indices --
``tests/verifier/test_workqueue.py`` pins this).  Records accumulate in
the returned report; the campaign store checkpoints whole cells, not
records.

Sibling batching (with a solver that has
:meth:`~repro.solver.icp.ICPSolver.solve_many`): when a box is popped, it
and the siblings popped after it are solved in one multi-root call, so
the solver's kernels see their frontiers side by side instead of one
narrow frontier at a time.  The *zero-waste rule* decides which siblings
join: sibling k runs only after the whole subtrees of siblings 0..k-1,
and :func:`subtree_bound` caps how many boxes each of those subtrees can
solve, so sibling k joins only while the global steps left minus
``per_call_budget`` times those bounds still cover a full
``per_call_budget``.  Then its sequential budget is known to be exactly
``per_call_budget``: every batched result is the one the one-box run
would compute, none is wasted or re-solved, and steps are charged when
each sibling is popped.  A batched box popped with a different budget
raises instead of changing the tree.  Duck-typed solvers with only
``solve`` keep one-box calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..solver.box import Box
from ..solver.icp import Budget, ICPSolver, SolverResult, SolverStats, SolverStatus
from .encoder import CompiledProblem, EncodedProblem, compile_problem
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

    def semantic_key(self) -> tuple:
        """The config fields that determine verification *outcomes*.

        Used by the campaign store's content-hash keys: two configs with
        the same semantic key produce bit-identical reports.
        """
        return (
            self.split_threshold,
            self.per_call_budget,
            None,  # the removed per_call_seconds slot: keeps stored keys valid
            self.global_step_budget,
            self.delta,
            self.precision,
            self.split_on_counterexample,
            True,  # the removed split_on_timeout slot: keeps stored keys valid
            False,  # the removed specialize_boxes slot: keeps stored keys valid
            "dfs",  # the removed queue_order slot: keeps stored keys valid
        )

    def make_solver(self) -> ICPSolver:
        return ICPSolver(delta=self.delta, precision=self.precision)


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
        #: solver-internals totals of the last verify() run:
        #: contract/classify outcomes and batched-kernel dispatch counts,
        #: summed over every solver call -- the campaign worker surfaces
        #: them as solve-span attributes (see repro.obs.trace)
        self.stats_totals = SolverStats()

    def verify(
        self,
        problem: EncodedProblem | CompiledProblem,
        domain: Box | None = None,
    ) -> VerificationReport:
        """Run Algorithm 1 on one encoded (or tape-compiled) pair.

        An encoded pair is compiled to tapes first: the solver and the
        counterexample check then run the same tapes either way.
        """
        if isinstance(problem, EncodedProblem):
            problem = compile_problem(problem)
        domain = domain if domain is not None else problem.domain
        report = VerificationReport(
            functional_name=problem.functional_name,
            condition_id=problem.condition_id,
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
        # LIFO of (box, depth, parent record, pre-solved result)
        stack: list[tuple[Box, int, RegionRecord | None, SolverResult | None]] = [
            (domain, 0, None, None)
        ]
        # sibling batching needs a solver with the multi-root call
        # (duck-typed solvers that only have solve() keep one-box calls)
        batch_siblings = hasattr(self.solver, "solve_many")
        while stack:
            box, depth, parent, presolved = stack.pop()
            if box.max_width() < threshold:  # Alg. 1, lines 1-2
                continue
            if (
                presolved is None
                and batch_siblings
                and parent is not None
                and self._steps_left >= self.config.per_call_budget
            ):
                presolved = self._solve_siblings(problem, box, parent, stack)
            record = self._solve_box(problem, box, depth, report, presolved)
            if parent is not None:
                parent.children.append(record.index)
            if self._should_split(record.outcome):
                # Alg. 1, lines 14-15; children below the threshold would
                # be popped and dropped (lines 1-2), so they are not queued.
                # Reversed so the LIFO pops them in split order, exactly as
                # the recursion descended.
                for child in reversed(box.split_all(threshold)):
                    stack.append((child, depth + 1, record, None))

        report.elapsed_seconds = time.monotonic() - t_start
        report.budget_exhausted = self._steps_left <= 0
        return report

    def _solve_siblings(
        self, problem: CompiledProblem, box: Box, parent: RegionRecord, stack: list
    ) -> SolverResult | None:
        """Solve ``box`` and the siblings popped after it in one multi-root
        call; return ``box``'s result, or None to solve it on its own.

        The zero-waste rule: sibling k runs only after the whole subtrees
        of the siblings before it, each of which spends at most
        ``per_call_budget`` steps on each of its ``subtree_bound`` boxes.  So while ``steps_left - sum(per_call_budget *
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
        # the entries on top of the stack under the same parent are the
        # siblings popped next, in pop order
        for entry in reversed(stack):
            if entry[2] is not parent:
                break
            if spare != math.inf:
                spare -= budget * subtree_bound(roots[-1], threshold)
                if spare < budget:
                    break
            roots.append(entry[0])
        if len(roots) == 1:
            return None
        results = self.solver.solve_many(
            problem.negation, roots, Budget(max_steps=budget)
        )
        for i, result in enumerate(results[1:], 1):
            sibling, depth, _, _ = stack[-i]
            stack[-i] = (sibling, depth, parent, result)
        return results[0]

    def _should_split(self, outcome: Outcome) -> bool:
        if outcome is Outcome.VERIFIED:
            return False
        if outcome is Outcome.COUNTEREXAMPLE:
            return self.config.split_on_counterexample
        return True

    def _solve_box(
        self,
        problem: CompiledProblem,
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
        problem: CompiledProblem, model: dict[str, float] | None
    ) -> bool:
        """The ``valid(x)`` check of Algorithm 1 (line 8).

        Plug the model back into the *original* condition psi with plain
        floating-point arithmetic; only a definite violation counts (NaN
        from out-of-domain evaluation is treated as inconclusive).
        """
        return model is not None and problem.is_violation(model)


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
