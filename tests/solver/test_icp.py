"""Tests for the delta-complete branch-and-prune solver."""

import math

import pytest

from repro.expr import builder as b
from repro.expr.nodes import Var
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver.icp import Budget, ICPSolver, SolverStatus

X = Var("x")
Y = Var("y")


def formula(*rels):
    return Conjunction.of(*[Atom.from_rel(r) for r in rels])


class TestDecisions:
    def test_trivially_sat(self):
        res = ICPSolver().solve(formula(X.le(100.0)), Box.from_bounds({"x": (0, 1)}))
        assert res.status is SolverStatus.DELTA_SAT
        assert 0.0 <= res.model["x"] <= 1.0

    def test_trivially_unsat(self):
        res = ICPSolver().solve(formula(X.ge(100.0)), Box.from_bounds({"x": (0, 1)}))
        assert res.status is SolverStatus.UNSAT
        assert res.model is None

    def test_nonlinear_sat(self):
        f = formula((X**2 + Y**2).le(1.0), (X + Y).ge(1.3))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (-2, 2), "y": (-2, 2)}))
        assert res.status is SolverStatus.DELTA_SAT
        m = res.model
        assert m["x"] ** 2 + m["y"] ** 2 <= 1.0 + 1e-6
        assert m["x"] + m["y"] >= 1.3 - 1e-6

    def test_nonlinear_unsat(self):
        f = formula((X**2 + Y**2).le(1.0), (X + Y).ge(3.0))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (-2, 2), "y": (-2, 2)}))
        assert res.status is SolverStatus.UNSAT

    def test_transcendental_unsat(self):
        f = formula(b.exp(X).le(0.5), X.ge(0.0))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (-5, 5)}))
        assert res.status is SolverStatus.UNSAT

    def test_transcendental_sat_model_valid(self):
        f = formula(b.exp(X).le(0.5))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (-5, 5)}))
        assert res.status is SolverStatus.DELTA_SAT
        assert math.exp(res.model["x"]) <= 0.5 + 1e-6

    def test_thin_feasible_region_found(self):
        # a near-measure-zero band: |x - pi| <= 1e-4
        band = b.abs_(b.sub(X, math.pi)).le(1e-4)
        res = ICPSolver(precision=1e-7).solve(
            formula(band), Box.from_bounds({"x": (0, 10)})
        )
        assert res.status is SolverStatus.DELTA_SAT
        assert res.model["x"] == pytest.approx(math.pi, abs=1e-3)

    def test_unsat_near_boundary_is_delta_sat(self):
        """delta-weakening: a margin thinner than delta yields delta-SAT."""
        solver = ICPSolver(delta=1e-2, precision=1e-6)
        # x >= 1e-3 is unsat on [-1, 0], but within delta of sat
        res = solver.solve(formula(X.ge(1e-3)), Box.from_bounds({"x": (-1.0, 0.0)}))
        assert res.status is SolverStatus.DELTA_SAT
        # the model satisfies the weakened formula, not the original:
        assert res.model["x"] < 1e-3

    def test_unsat_with_wide_margin_regardless_of_delta(self):
        solver = ICPSolver(delta=1e-2)
        res = solver.solve(formula(X.ge(1.0)), Box.from_bounds({"x": (-1.0, 0.0)}))
        assert res.status is SolverStatus.UNSAT

    def test_domain_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            ICPSolver().solve(formula((X + Y).le(0.0)), Box.from_bounds({"x": (0, 1)}))


class TestBudget:
    def test_timeout_reported(self):
        # hard feasibility boundary + tiny budget; no midpoint probe lands
        # in the thin band
        f = formula((b.sin(X) * b.cos(Y)).ge(0.9999999))
        res = ICPSolver().solve(
            f,
            Box.from_bounds({"x": (0, 10), "y": (0, 10)}),
            Budget(max_steps=3),
        )
        assert res.status is SolverStatus.TIMEOUT
        assert res.stats.probe_hits == 0

    def test_step_accounting(self):
        f = formula(X.ge(100.0))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (0, 1)}), Budget(max_steps=50))
        assert res.stats.boxes_processed <= 50

    def test_stats_populated(self):
        f = formula((X**2).le(0.5))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (-1, 1)}))
        assert res.stats.boxes_processed >= 1
        assert res.stats.elapsed_seconds >= 0.0


class TestKnobs:
    def test_probing_short_circuits(self):
        f = formula(X.le(10.0))
        fast = ICPSolver().solve(f, Box.from_bounds({"x": (0, 1)}))
        assert fast.stats.probe_hits == 1

    def test_no_probing_still_sat(self):
        # HC4 narrows x <= 0 to [0, delta]; its midpoint misses the exact
        # atom, so the precision check answers delta-SAT without a probe hit
        f = formula(X.le(0.0))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (0, 1)}))
        assert res.status is SolverStatus.DELTA_SAT
        assert res.stats.probe_hits == 0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ICPSolver(precision=0.0)

    def test_contractor_cache_reused(self):
        solver = ICPSolver()
        f = formula(X.le(0.5))
        solver.solve(f, Box.from_bounds({"x": (0, 1)}))
        solver.solve(f, Box.from_bounds({"x": (0, 0.25)}))
        assert len(solver._contractors) == 1


class TestResultProperties:
    def test_flags(self):
        sat = ICPSolver().solve(formula(X.le(10.0)), Box.from_bounds({"x": (0, 1)}))
        unsat = ICPSolver().solve(formula(X.ge(10.0)), Box.from_bounds({"x": (0, 1)}))
        assert sat.status is SolverStatus.DELTA_SAT
        assert not sat.is_unsat and not sat.is_timeout
        assert unsat.is_unsat and not unsat.is_timeout
