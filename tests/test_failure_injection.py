"""Failure-injection and degenerate-input tests across the stack.

Production users hit the edges first: zero budgets, empty/degenerate
boxes, out-of-domain formulas, unbound variables, absurd configurations.
Every failure must be either a clean Python exception or a sound verdict
-- never a wrong answer.
"""

import math

import pytest

from repro import get_condition, get_functional, verify_pair
from repro.expr import builder as b
from repro.expr.nodes import Var
from repro.numerics.campaign import NumericsConfig
from repro.pb import GridSpec, PBChecker
from repro.solver import Atom, Box, Budget, Conjunction, ICPSolver, SolverStatus
from repro.verifier.regions import Outcome
from repro.verifier.verifier import VerifierConfig

X = Var("x", nonneg=True)


class TestSolverDegenerateInputs:
    def test_zero_step_budget_times_out(self):
        formula = Conjunction.of(Atom(b.sub(X, 1.0), "<="))
        box = Box.from_bounds({"x": (0.0, 4.0)})
        result = ICPSolver().solve(formula, box, Budget(max_steps=0))
        assert result.is_timeout

    def test_point_domain(self):
        formula = Conjunction.of(Atom(b.sub(X, 1.0), "<="))
        box = Box.from_bounds({"x": (0.5, 0.5)})
        result = ICPSolver().solve(formula, box, Budget(max_steps=100))
        assert result.status is SolverStatus.DELTA_SAT
        assert result.model["x"] == pytest.approx(0.5)

    def test_point_domain_infeasible(self):
        formula = Conjunction.of(Atom(b.sub(X, 1.0), "<="))
        box = Box.from_bounds({"x": (3.0, 3.0)})
        result = ICPSolver().solve(formula, box, Budget(max_steps=100))
        assert result.is_unsat

    def test_unbound_variable_raises(self):
        y = Var("y", nonneg=True)
        formula = Conjunction.of(Atom(b.sub(y, 1.0), "<="))
        box = Box.from_bounds({"x": (0.0, 1.0)})
        with pytest.raises(ValueError, match="does not bind"):
            ICPSolver().solve(formula, box, Budget(max_steps=10))

    def test_formula_undefined_on_whole_domain(self):
        # log(-1 - x) is nowhere defined on x >= 0: domain clipping makes
        # the root enclosure empty -> UNSAT (no point can satisfy it)
        formula = Conjunction.of(
            Atom(b.log(b.sub(-1.0, X)), "<=")
        )
        box = Box.from_bounds({"x": (0.0, 4.0)})
        result = ICPSolver().solve(formula, box, Budget(max_steps=1000))
        assert result.is_unsat

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            ICPSolver(precision=0.0)

    def test_invalid_search_rejected(self):
        # the solver runs one algorithm and the verifier one queue order:
        # the removed search-order, ablation, batch-width and queue-order
        # knobs are rejected, not silently ignored
        for knob, value in (
            ("search", "best-first"), ("use_newton", True), ("use_contraction", False),
            ("use_probing", False), ("contraction_rounds", 3), ("batch_size", 7),
        ):
            with pytest.raises(TypeError, match=knob):
                ICPSolver(**{knob: value})
        for config_cls in (VerifierConfig, NumericsConfig):
            for knob, value in (("queue_order", "widest"), ("batch_size", 7)):
                with pytest.raises(TypeError, match=knob):
                    config_cls(**{knob: value})


class TestVerifierDegenerateConfigs:
    def test_zero_global_budget_all_timeout(self):
        config = VerifierConfig(
            split_threshold=0.7, per_call_budget=100, global_step_budget=0
        )
        report = verify_pair(get_functional("LYP"), get_condition("EC1"), config)
        fractions = report.area_fractions()
        assert fractions.get(Outcome.TIMEOUT, 0.0) == pytest.approx(1.0)
        assert report.classification() == "?"

    def test_threshold_larger_than_domain(self):
        # the whole domain is below the split threshold: nothing is solved
        config = VerifierConfig(split_threshold=100.0, per_call_budget=100)
        report = verify_pair(get_functional("LYP"), get_condition("EC1"), config)
        assert report.records == []

    def test_budget_exhaustion_flag(self):
        config = VerifierConfig(
            split_threshold=0.3, per_call_budget=200, global_step_budget=400
        )
        report = verify_pair(get_functional("PBE"), get_condition("EC3"), config)
        assert report.budget_exhausted

    def test_single_call_config(self):
        # threshold just under the domain width (4.9999): the root is
        # solved, and its children (half as wide) are below the threshold,
        # so none is queued whatever the root's outcome -- exactly one
        # solver call
        config = VerifierConfig(
            split_threshold=4.9, per_call_budget=50, global_step_budget=100,
        )
        report = verify_pair(get_functional("VWN RPA"), get_condition("EC1"), config)
        assert len(report.records) == 1
        assert 0 < report.total_solver_steps <= config.per_call_budget


class TestPBDegenerateGrids:
    def test_tiny_grid_runs(self):
        checker = PBChecker(spec=GridSpec(n_rs=4, n_s=4))
        result = checker.check(get_functional("LYP"), get_condition("EC1"))
        assert result.satisfied.shape == (4, 4)

    def test_boundary_trim_larger_than_grid(self):
        checker = PBChecker(spec=GridSpec(n_rs=4, n_s=4), boundary_trim=2)
        result = checker.check(get_functional("PBE"), get_condition("EC2"))
        # everything trimmed or finite; no crash, verdict on what's left
        assert result.undefined.shape == (4, 4)

    def test_inapplicable_pair_raises(self):
        checker = PBChecker(spec=GridSpec(n_rs=8, n_s=8))
        with pytest.raises(ValueError, match="does not apply"):
            checker.check(get_functional("LYP"), get_condition("EC5"))


class TestEvaluatorEdges:
    def test_nan_on_domain_error_by_default(self):
        from repro.expr.evaluator import evaluate

        assert math.isnan(evaluate(b.log(X), {"x": -1.0}))

    def test_strict_mode_raises(self):
        from repro.expr.evaluator import EvalError, evaluate

        with pytest.raises(EvalError):
            evaluate(b.log(X), {"x": -1.0}, strict=True)

    def test_kernel_ieee_semantics(self):
        import numpy as np

        from repro.expr.codegen import compile_numpy

        kernel = compile_numpy(b.log(X), arg_order=(X,))
        out = kernel(np.array([-1.0, 0.0, 1.0]))
        assert math.isnan(out[0])
        assert out[1] == -math.inf
        assert out[2] == 0.0

    def test_overflowing_exp(self):
        from repro.expr.evaluator import evaluate

        assert math.isnan(evaluate(b.exp(X), {"x": 1e9}))


class TestBoxEdges:
    def test_empty_interval_box(self):
        from repro.solver.interval import EMPTY

        box = Box({"x": EMPTY})
        assert box.is_empty()

    def test_intersect_disjoint_is_empty(self):
        a = Box.from_bounds({"x": (0.0, 1.0)})
        c = Box.from_bounds({"x": (2.0, 3.0)})
        assert a.intersect(c).is_empty()

    def test_intersect_mismatched_names_raises(self):
        a = Box.from_bounds({"x": (0.0, 1.0)})
        c = Box.from_bounds({"y": (0.0, 1.0)})
        with pytest.raises(ValueError):
            a.intersect(c)

    def test_split_point_box(self):
        box = Box.from_bounds({"x": (1.0, 1.0)})
        left, right = box.split("x")
        assert left["x"].lo == left["x"].hi == 1.0
        assert right["x"].lo == right["x"].hi == 1.0
