"""Tests for the HC4 forward/backward contractor."""

import math

import pytest

from repro.expr import builder as b
from repro.expr.nodes import Var
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver.contractor import HC4Contractor
from repro.solver.tape import tape_for

from .oracles import TapeContractor, enclosure, interval_eval

X = Var("x")
Y = Var("y")
S = Var("s", nonneg=True)


def contract_one(contractor, box, rounds=2):
    """The production batched contractor on a batch of one box."""
    return contractor.contract_batch([box], rounds=rounds)[0][0]


def contract(expr_rel, bounds, delta=0.0, rounds=3):
    formula = Conjunction.of(Atom.from_rel(expr_rel))
    contractor = HC4Contractor(formula, delta=delta)
    return contract_one(contractor, Box.from_bounds(bounds), rounds=rounds)


class TestForwardEnclosure:
    def test_linear(self):
        box = Box.from_bounds({"x": (0.0, 1.0)})
        out = enclosure(tape_for(b.add(b.mul(2.0, X), 1.0)), box)
        assert out.lo == pytest.approx(1.0, abs=1e-12)
        assert out.hi == pytest.approx(3.0, abs=1e-12)

    def test_nonlinear(self):
        box = Box.from_bounds({"x": (-1.0, 2.0)})
        out = enclosure(tape_for(b.pow_(X, 2.0)), box)
        assert out.lo == 0.0
        assert out.hi >= 4.0

    def test_transcendental(self):
        box = Box.from_bounds({"x": (0.0, 1.0)})
        out = enclosure(tape_for(b.exp(X)), box)
        assert out.contains(1.0) and out.contains(math.e)

    def test_containment_on_samples(self):
        expr = b.exp(-X) * b.log(1.0 + Y**2) + b.atan(X * Y)
        box = Box.from_bounds({"x": (-1.0, 1.0), "y": (0.5, 2.0)})
        out = enclosure(tape_for(expr), box)
        from repro.expr.evaluator import evaluate
        for pt in box.sample_grid(5):
            assert out.contains(evaluate(expr, pt))

    def test_ite_decided_condition(self):
        e = b.ite(X.ge(0.0), b.const(1.0), b.const(-1.0))
        assert enclosure(tape_for(e), Box.from_bounds({"x": (1.0, 2.0)})).contains(1.0)
        assert enclosure(tape_for(e), Box.from_bounds({"x": (-2.0, -1.0)})).contains(-1.0)

    def test_ite_undecided_hull(self):
        e = b.ite(X.ge(0.0), b.const(1.0), b.const(-1.0))
        out = enclosure(tape_for(e), Box.from_bounds({"x": (-1.0, 1.0)}))
        assert out.contains(1.0) and out.contains(-1.0)

    def test_unbound_variable_raises(self):
        with pytest.raises(KeyError):
            enclosure(tape_for(X + Y), Box.from_bounds({"x": (0.0, 1.0)}))

    def test_interval_eval_returns_all_nodes(self):
        e = b.exp(X) + 1.0
        box = Box.from_bounds({"x": (0.0, 1.0)})
        ivals = interval_eval(e, box)
        assert len(ivals) == e.dag_size()


class TestBackwardContraction:
    def test_linear_contraction(self):
        # x + 2 <= 0  =>  x <= -2
        out = contract(b.add(X, 2.0).le(0.0), {"x": (-10.0, 10.0)})
        assert out["x"].hi == pytest.approx(-2.0, abs=1e-6)
        assert out["x"].lo == -10.0

    def test_two_sided_via_two_atoms(self):
        formula = Conjunction.of(
            Atom.from_rel(X.ge(1.0)), Atom.from_rel(X.le(3.0))
        )
        contractor = HC4Contractor(formula, delta=0.0)
        out = contract_one(contractor, Box.from_bounds({"x": (-10.0, 10.0)}))
        assert out["x"].lo == pytest.approx(1.0, abs=1e-9)
        assert out["x"].hi == pytest.approx(3.0, abs=1e-9)

    def test_empty_when_infeasible(self):
        out = contract(X.ge(20.0), {"x": (-10.0, 10.0)})
        assert out.is_empty()

    def test_exp_inversion(self):
        # exp(x) <= 1  =>  x <= 0
        out = contract(b.exp(X).le(1.0), {"x": (-5.0, 5.0)})
        assert out["x"].hi == pytest.approx(0.0, abs=1e-9)

    def test_log_inversion(self):
        # log(x) >= 0  =>  x >= 1
        out = contract(b.log(X).ge(0.0), {"x": (0.1, 10.0)})
        assert out["x"].lo == pytest.approx(1.0, rel=1e-9)

    def test_square_inversion_keeps_both_signs(self):
        # x^2 <= 4  =>  x in [-2, 2]
        out = contract(b.pow_(X, 2.0).le(4.0), {"x": (-10.0, 10.0)})
        assert out["x"].lo == pytest.approx(-2.0, abs=1e-6)
        assert out["x"].hi == pytest.approx(2.0, abs=1e-6)

    def test_square_inversion_with_sign_info(self):
        out = contract(b.pow_(X, 2.0).le(4.0), {"x": (0.0, 10.0)})
        assert out["x"].lo == 0.0
        assert out["x"].hi == pytest.approx(2.0, abs=1e-6)

    def test_odd_power_inversion(self):
        # x^3 >= 8  =>  x >= 2
        out = contract(b.pow_(X, 3.0).ge(8.0), {"x": (-10.0, 10.0)})
        assert out["x"].lo == pytest.approx(2.0, rel=1e-6)

    def test_fractional_power_inversion(self):
        # s^0.5 <= 2  =>  s <= 4
        out = contract(b.pow_(S, 0.5).le(2.0), {"s": (0.0, 100.0)})
        assert out["s"].hi == pytest.approx(4.0, rel=1e-6)

    def test_reciprocal_inversion(self):
        # 1/x <= 0.5 with x > 0  =>  x >= 2
        out = contract(b.pow_(X, -1.0).le(0.5), {"x": (0.1, 100.0)})
        assert out["x"].lo == pytest.approx(2.0, rel=1e-6)

    def test_abs_inversion(self):
        out = contract(b.abs_(X).le(3.0), {"x": (-10.0, 10.0)})
        assert out["x"].lo == pytest.approx(-3.0, abs=1e-6)
        assert out["x"].hi == pytest.approx(3.0, abs=1e-6)

    def test_atan_inversion(self):
        out = contract(b.atan(X).le(0.0), {"x": (-10.0, 10.0)})
        assert out["x"].hi == pytest.approx(0.0, abs=1e-9)

    def test_tanh_inversion(self):
        out = contract(b.tanh(X).ge(0.5), {"x": (-5.0, 5.0)})
        assert out["x"].lo == pytest.approx(math.atanh(0.5), rel=1e-6)

    def test_lambertw_inversion(self):
        # W(x) >= 1  =>  x >= e
        out = contract(b.lambertw(X).ge(1.0), {"x": (0.0, 100.0)})
        assert out["x"].lo == pytest.approx(math.e, rel=1e-6)

    def test_multivariate(self):
        # x + y <= 0 with y >= 5  =>  x <= -5
        formula = Conjunction.of(
            Atom.from_rel(b.add(X, Y).le(0.0)), Atom.from_rel(Y.ge(5.0))
        )
        contractor = HC4Contractor(formula, delta=0.0)
        out = contract_one(contractor, Box.from_bounds({"x": (-10.0, 10.0), "y": (-10.0, 10.0)}))
        assert out["x"].hi == pytest.approx(-5.0, abs=1e-6)

    def test_soundness_no_solution_lost(self):
        """Points satisfying the formula must survive contraction."""
        expr = b.exp(-X) * (1.0 + Y**2) - 2.0
        formula = Conjunction.of(Atom.from_rel(expr.le(0.0)))
        contractor = HC4Contractor(formula, delta=0.0)
        box = Box.from_bounds({"x": (-2.0, 2.0), "y": (-2.0, 2.0)})
        out = contract_one(contractor, box)
        from repro.expr.evaluator import evaluate
        for pt in box.sample_grid(9):
            if evaluate(expr, pt) <= 0.0:
                assert out.contains_point(pt), f"lost solution {pt}"

    def test_delta_weakening_keeps_near_solutions(self):
        # with delta = 1, x <= -2 relaxes to x <= -1
        formula = Conjunction.of(Atom.from_rel(b.add(X, 2.0).le(0.0)))
        contractor = HC4Contractor(formula, delta=1.0)
        out = contract_one(contractor, Box.from_bounds({"x": (-10.0, 10.0)}))
        assert out["x"].hi >= -1.0 - 1e-9

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            HC4Contractor(Conjunction.of(Atom.from_rel(X.le(0.0))), delta=-1.0)


class TestCertainlySat:
    def test_whole_box_satisfies(self):
        formula = Conjunction.of(Atom.from_rel(X.le(100.0)))
        contractor = TapeContractor(formula, delta=0.0)
        assert contractor.certainly_sat(Box.from_bounds({"x": (0.0, 1.0)}))

    def test_partial_box_not_certain(self):
        formula = Conjunction.of(Atom.from_rel(X.le(0.5)))
        contractor = TapeContractor(formula, delta=0.0)
        assert not contractor.certainly_sat(Box.from_bounds({"x": (0.0, 1.0)}))
