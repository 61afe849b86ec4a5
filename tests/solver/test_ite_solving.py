"""Solver behaviour on piecewise (ITE) constraints.

SCAN-style functionals put if-then-else terms inside solver formulas; the
contractor must stay *sound* across undecided conditions (hull semantics)
and *exact* once a box decides the branch.
"""


import pytest

from repro.expr import builder as b
from repro.expr.nodes import Var
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver.tape import tape_for
from repro.solver.icp import Budget, ICPSolver, SolverStatus

from .oracles import enclosure

X = Var("x")

# f(x) = x^2 for x < 1 else 2x - 1  (continuous at the switch, like SCAN's f)
PIECEWISE = b.ite(X.lt(1.0), b.pow_(X, 2.0), b.sub(b.mul(2.0, X), 1.0))


class TestEnclosures:
    def test_decided_below(self):
        enc = enclosure(tape_for(PIECEWISE), Box.from_bounds({"x": (-0.5, 0.5)}))
        assert enc.lo >= -1e-12 and enc.hi <= 0.25 + 1e-9

    def test_decided_above(self):
        enc = enclosure(tape_for(PIECEWISE), Box.from_bounds({"x": (2.0, 3.0)}))
        assert enc.lo == pytest.approx(3.0, abs=1e-9)
        assert enc.hi == pytest.approx(5.0, abs=1e-9)

    def test_undecided_takes_hull(self):
        enc = enclosure(tape_for(PIECEWISE), Box.from_bounds({"x": (0.5, 2.0)}))
        # hull of [0.25, 4] (quadratic part) and [0, 3] (linear part)
        assert enc.contains(0.25) and enc.contains(3.0)

    def test_point_containment_across_switch(self):
        from repro.expr.evaluator import evaluate
        box = Box.from_bounds({"x": (0.0, 2.0)})
        enc = enclosure(tape_for(PIECEWISE), box)
        for xv in (0.0, 0.5, 0.999, 1.0, 1.5, 2.0):
            assert enc.contains(evaluate(PIECEWISE, {"x": xv}))


class TestSolving:
    def test_unsat_on_decided_region(self):
        # on x in [2, 3], f = 2x-1 in [3, 5]: f <= 2 is unsat
        f = Conjunction.of(Atom.from_rel(PIECEWISE.le(2.0)))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (2.0, 3.0)}))
        assert res.status is SolverStatus.UNSAT

    def test_sat_across_switch(self):
        # f <= 0.1 holds near x ~ 0
        f = Conjunction.of(Atom.from_rel(PIECEWISE.le(0.1)))
        res = ICPSolver().solve(f, Box.from_bounds({"x": (-1.0, 3.0)}))
        assert res.status is SolverStatus.DELTA_SAT
        assert res.model["x"] < 1.0

    def test_unsat_straddling_switch(self):
        # min over [0.5, 3] is 0.25 at x=0.5: f <= 0.2 unsat
        f = Conjunction.of(Atom.from_rel(PIECEWISE.le(0.2)))
        res = ICPSolver().solve(
            f, Box.from_bounds({"x": (0.5, 3.0)}), Budget(max_steps=20_000)
        )
        assert res.status is SolverStatus.UNSAT

    def test_scan_switch_formula_solves(self):
        """The real SCAN switching function as a solver constraint."""
        from repro.functionals.scan import f_alpha_c
        from repro.pysym import lift

        alpha = Var("alpha", nonneg=True)
        f_expr = lift(f_alpha_c, alpha)
        # f_c(alpha) >= 0.5 only for alpha well below 1
        formula = Conjunction.of(Atom.from_rel(f_expr.ge(0.5)))
        res = ICPSolver().solve(
            formula, Box.from_bounds({"alpha": (0.0, 5.0)}), Budget(max_steps=5000)
        )
        assert res.status is SolverStatus.DELTA_SAT
        assert res.model["alpha"] < 1.0

        # f_c(alpha) >= 1.5 never happens (f <= 1): provably UNSAT on any
        # branch-decided region
        formula2 = Conjunction.of(Atom.from_rel(f_expr.ge(1.5)))
        res2 = ICPSolver().solve(
            formula2, Box.from_bounds({"alpha": (0.0, 0.9)}), Budget(max_steps=20_000)
        )
        assert res2.status is SolverStatus.UNSAT

    def test_switch_point_yields_spurious_delta_sat(self):
        """Across the singular switch the hull enclosure blows up, so the
        solver can only answer delta-SAT with a spurious model -- the
        mechanism behind the paper's 'inconclusive' results near piecewise
        boundaries (and SCAN's difficulty in general)."""
        from repro.functionals.scan import f_alpha_c
        from repro.pysym import lift

        alpha = Var("alpha", nonneg=True)
        f_expr = lift(f_alpha_c, alpha)
        formula = Conjunction.of(Atom.from_rel(f_expr.ge(1.5)))
        res = ICPSolver().solve(
            formula, Box.from_bounds({"alpha": (0.9, 1.1)}), Budget(max_steps=20_000)
        )
        assert res.status is SolverStatus.DELTA_SAT
        # ... and the model does not actually satisfy the formula
        assert not formula.holds_at(res.model)
