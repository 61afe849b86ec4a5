"""Sibling batching in ``Verifier.verify``: the same trees from fewer calls.

The verifier solves a popped box together with the siblings popped after
it in one multi-root ``ICPSolver.solve_many`` call, as far as the
zero-waste rule knows their sequential budget.  A solver with only
``solve()`` gets one-box calls, so wrapping the production solver in
:class:`OneBoxSolver` gives the reference run: every region tree must be
``identical_to`` it, record for record.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.conditions.catalog import get_condition
from repro.functionals.registry import get_functional
from repro.solver.box import Box
from repro.verifier import verifier as verifier_module
from repro.verifier.encoder import compile_problem, encode
from repro.verifier.verifier import Verifier, VerifierConfig, subtree_bound

#: the table1-coarse benchmark configuration
TABLE1_CONFIG = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=2500)

CELLS = [
    ("PBE", "EC3", TABLE1_CONFIG),  # the global budget runs out
    ("LYP", "EC2", TABLE1_CONFIG),  # finishes within it
    ("SCAN", "EC1", TABLE1_CONFIG),  # three dimensions, exhausted
    ("VWN RPA", "EC7", TABLE1_CONFIG),
    ("LYP", "EC1", replace(TABLE1_CONFIG, global_step_budget=None)),
]


class OneBoxSolver:
    """Duck-typed solver with ``solve()`` only: the verifier's one-box path."""

    def __init__(self, solver):
        self.solver = solver

    def solve(self, formula, box, budget):
        return self.solver.solve(formula, box, budget)


@functools.cache
def problem_for(functional: str, condition: str):
    return compile_problem(encode(get_functional(functional), get_condition(condition)))


@pytest.fixture(scope="module")
def trees():
    out = {}
    for functional, condition, config in CELLS:
        problem = problem_for(functional, condition)
        batched = Verifier(config)
        one_box = Verifier(config, solver=OneBoxSolver(config.make_solver()))
        out[(functional, condition, config.global_step_budget)] = (
            batched.verify(problem), batched.stats_totals,
            one_box.verify(problem), one_box.stats_totals,
        )
    return out


def test_batched_trees_identical_to_one_box_trees(trees):
    for key, (batched, _, one_box, _) in trees.items():
        assert batched.identical_to(one_box), key


def test_one_box_path_makes_one_call_per_root(trees):
    for key, (_, _, _, one_box_stats) in trees.items():
        assert one_box_stats.calls == one_box_stats.roots, key


def test_dfs_batches_siblings(trees):
    for _, stats, _, one_stats in trees.values():
        # zero waste: the same roots and the same steps as one-box calls
        assert stats.roots == one_stats.roots
        assert stats.boxes_processed == one_stats.boxes_processed
    pbe = trees[("PBE", "EC3", 2500)][1]
    unlimited = trees[("LYP", "EC1", None)][1]
    assert pbe.calls < pbe.roots
    assert unlimited.calls < unlimited.roots


def test_batching_moves_columns_off_the_scalar_path(trees):
    stats, one_stats = trees[("PBE", "EC3", 2500)][1::2]
    assert stats.scalar_columns < one_stats.scalar_columns


def _descendants(records, index, memo):
    if index not in memo:
        memo[index] = sum(1 + _descendants(records, c, memo) for c in records[index].children)
    return memo[index]


def test_subtree_bound_covers_every_record(trees):
    for key, (report, *_rest) in trees.items():
        threshold = TABLE1_CONFIG.split_threshold
        memo: dict = {}
        for record in report.records:
            assert subtree_bound(record.box, threshold) >= 1 + _descendants(
                report.records, record.index, memo
            ), (key, record.index)


def test_subtree_bound_edges():
    box = Box.from_bounds({"a": (0.0, 5.0), "b": (0.0, 5.0)})
    # widths 5 -> 2.5 -> 1.25 -> 0.625: two split levels of four children
    assert subtree_bound(box, 0.7) == 1 + 4 + 16
    assert subtree_bound(box, 6.0) == 1
    assert subtree_bound(Box.from_bounds({"a": (0.0, float("inf"))}), 0.7) == float("inf")


def test_unlimited_budget_batches_every_sibling_without_bounds(monkeypatch):
    calls = []

    def counting(box, threshold):
        calls.append(box)
        return subtree_bound(box, threshold)

    monkeypatch.setattr(verifier_module, "subtree_bound", counting)
    config = replace(TABLE1_CONFIG, global_step_budget=None)
    Verifier(config).verify(problem_for("LYP", "EC1"))
    assert calls == []


def test_bound_evaluations_scale_with_solves_not_records(monkeypatch):
    # an exhausted SCAN cell holds thousands of zero-step records; the rule
    # must stop at the O(1) budget check for each of them
    calls = []

    def counting(box, threshold):
        calls.append(box)
        return subtree_bound(box, threshold)

    monkeypatch.setattr(verifier_module, "subtree_bound", counting)
    config = VerifierConfig(split_threshold=0.1, per_call_budget=40, global_step_budget=200)
    verifier = Verifier(config)
    report = verifier.verify(problem_for("SCAN", "EC1"))
    assert report.budget_exhausted
    assert len(report.records) > 1000
    assert len(calls) <= 8 * sum(1 for r in report.records if r.solver_steps > 0)
    # nothing is batched there: one root per call
    assert verifier.stats_totals.calls == verifier.stats_totals.roots


def test_broken_bound_fails_loudly(monkeypatch):
    # a bound that claims empty subtrees batches siblings whose sequential
    # budget is not per_call_budget: the verifier must raise, not diverge
    monkeypatch.setattr(verifier_module, "subtree_bound", lambda box, threshold: 0)
    with pytest.raises(RuntimeError, match="pre-solved box popped"):
        Verifier(TABLE1_CONFIG).verify(problem_for("PBE", "EC3"))
