"""Differential tests: the iterative work-queue verifier vs Algorithm 1's
original recursion.

The recursive traversal (kept here as the test oracle) and the work-queue
loop must agree *bit for bit*: same records in the same order, same
boxes, outcomes, models, child links, per-record step counts and global
budget consumption -- including runs whose global budget exhausts
mid-tree.  The queue additionally handles split chains deeper than
Python's recursion limit, which the recursion could not.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import pytest

from repro.conditions import EC1
from repro.expr.builder import const, var
from repro.expr.nodes import Rel
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.verifier.encoder import EncodedProblem, compile_problem, encode
from repro.verifier.regions import Outcome, VerificationReport
from repro.verifier.verifier import Verifier, VerifierConfig


def recursive_oracle(config: VerifierConfig, problem, domain=None):
    """Algorithm 1 exactly as the pre-campaign Verifier recursed it, on
    the tape-compiled problem that ``Verifier.verify`` solves."""
    verifier = Verifier(config)
    problem = compile_problem(problem)
    domain = domain if domain is not None else problem.domain
    report = VerificationReport(
        functional_name=problem.functional_name,
        condition_id=problem.condition_id,
        domain=domain,
        records=[],
    )
    verifier._steps_left = (
        config.global_step_budget if config.global_step_budget is not None else math.inf
    )

    def visit(box, depth, parent):
        if box.max_width() < config.split_threshold:
            return
        record = verifier._solve_box(problem, box, depth, report)
        if parent is not None:
            parent.children.append(record.index)
        if record.outcome is Outcome.VERIFIED:
            return
        if (
            record.outcome is Outcome.COUNTEREXAMPLE
            and not config.split_on_counterexample
        ):
            return
        for child in box.split_all():
            visit(child, depth + 1, record)

    visit(domain, 0, None)
    report.budget_exhausted = verifier._steps_left <= 0
    return report


def assert_reports_identical(expected, actual):
    assert len(expected.records) == len(actual.records)
    for a, b in zip(expected.records, actual.records):
        assert a.index == b.index
        assert a.depth == b.depth
        assert a.box == b.box  # exact endpoint equality
        assert a.outcome == b.outcome
        assert a.model == b.model
        assert a.children == b.children
        assert a.solver_steps == b.solver_steps
    assert expected.total_solver_steps == actual.total_solver_steps
    assert expected.budget_exhausted == actual.budget_exhausted


#: the differential corpus: (functional, condition, domain, config) spanning
#: verified/counterexample/mixed/timeout shapes and mid-run budget exhaustion
CORPUS = [
    (
        "PBE", EC1, {"rs": (1.0, 3.0), "s": (0.0, 1.0)},
        VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000),
    ),
    (
        "LYP", EC1, {"rs": (1.0, 3.0), "s": (0.0, 4.0)},
        VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000),
    ),
    (
        "VWN RPA", EC1, None,
        VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000),
    ),
    # fine threshold: hundreds of records
    (
        "LYP", EC1, {"rs": (1.0, 3.0), "s": (1.0, 3.0)},
        VerifierConfig(split_threshold=0.3, per_call_budget=150, global_step_budget=20_000),
    ),
    # global budget exhausts mid-tree: the timeout tail must match exactly
    (
        "LYP", EC1, {"rs": (1.0, 3.0), "s": (0.0, 4.0)},
        VerifierConfig(split_threshold=0.5, per_call_budget=200, global_step_budget=700),
    ),
    (
        "PBE", EC1, None,
        VerifierConfig(split_threshold=0.15, per_call_budget=200, global_step_budget=300),
    ),
    # no-split ablation
    (
        "LYP", EC1, {"rs": (1.0, 3.0), "s": (2.0, 4.0)},
        VerifierConfig(
            split_threshold=0.7, per_call_budget=250, global_step_budget=8000,
            split_on_counterexample=False,
        ),
    ),
    # per-call timeouts split until the global budget runs out
    (
        "PBE", EC1, None,
        VerifierConfig(split_threshold=0.5, per_call_budget=5, global_step_budget=100),
    ),
]


class TestDifferentialCorpus:
    @pytest.mark.parametrize("case", range(len(CORPUS)))
    def test_workqueue_matches_recursion(self, case):
        name, condition, bounds, config = CORPUS[case]
        problem = encode(get_functional(name), condition)
        domain = Box.from_bounds(bounds) if bounds else None
        oracle = recursive_oracle(config, problem, domain)
        actual = Verifier(config).verify(problem, domain=domain)
        assert_reports_identical(oracle, actual)


def _edge_chain_problem():
    """A 1-D toy problem whose split tree is a deep linear chain.

    psi: x <= 0 on the domain [-1, 0] -- never violated, but the negated
    query ``x > 0`` stays delta-satisfiable (spurious models) on every box
    touching the right edge, so Algorithm 1 keeps splitting the edge box
    while each left sibling is verified UNSAT.  Near 0 the subnormals keep
    halving essentially forever, so a tiny split threshold drives the
    chain far past Python's recursion limit -- breadth stays 2 per level.
    """
    x = var("x")
    psi = Rel(x, const(0.0), "<=")
    negation = Conjunction.of(Atom.from_rel(psi).negate())
    return EncodedProblem(
        functional=SimpleNamespace(name="ToyEdge"),
        condition=SimpleNamespace(cid="TEC"),
        psi=psi,
        negation=negation,
        domain=Box.from_bounds({"x": (-1.0, 0.0)}),
    )


class TestDeepSplitChains:
    CONFIG = VerifierConfig(
        split_threshold=1e-310,  # deep in the subnormals: ~1030 split levels
        per_call_budget=50,
        global_step_budget=None,
        delta=1e-320,
    )

    def test_deep_chain_exceeds_recursion_limit_iteratively(self):
        problem = _edge_chain_problem()
        report = Verifier(self.CONFIG).verify(problem)
        max_depth = max(r.depth for r in report.records)
        assert max_depth > sys.getrecursionlimit()
        assert max_depth > 1000  # ~log2(1 / 1e-310)
        # a *chain*, not a blow-up: at most 2 records per level
        assert len(report.records) <= 2 * (max_depth + 1)
        # structure: everything off the edge is verified, the edge is not
        assert sum(r.outcome is Outcome.VERIFIED for r in report.records) > 800

    def test_recursive_oracle_cannot_run_the_chain(self):
        problem = _edge_chain_problem()
        with pytest.raises(RecursionError):
            recursive_oracle(self.CONFIG, problem)

    def test_shallow_slice_of_chain_matches_oracle(self):
        # the same problem with a coarse threshold stays within the
        # recursion limit, where both drivers must agree bit-for-bit
        config = VerifierConfig(
            split_threshold=2.0 ** -40,
            per_call_budget=50,
            global_step_budget=None,
            delta=1e-300,
        )
        problem = _edge_chain_problem()
        oracle = recursive_oracle(config, problem)
        actual = Verifier(config).verify(problem)
        assert_reports_identical(oracle, actual)

