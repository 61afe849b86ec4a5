"""Tests for capture-free substitution."""

import math

import pytest

from repro.expr import builder as b
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Const, Var
from repro.expr.substitute import substitute

X = Var("x")
Y = Var("y")
S = Var("s", nonneg=True)


class TestSubstitute:
    def test_variable_to_constant_folds(self):
        e = b.exp(X) + X**2
        out = substitute(e, {X: 0.0})
        assert out is Const(1.0)

    def test_variable_to_expression(self):
        e = X**2
        out = substitute(e, {X: b.add(Y, 1.0)})
        assert evaluate(out, {"y": 2.0}) == pytest.approx(9.0)

    def test_untouched_variables_remain(self):
        e = X + Y
        out = substitute(e, {X: 1.0})
        assert {v.name for v in out.free_vars()} == {"y"}

    def test_substitution_is_simultaneous(self):
        # x -> y, y -> x swaps, not chains
        e = X - Y
        out = substitute(e, {X: Y, Y: X})
        assert evaluate(out, {"x": 1.0, "y": 5.0}) == pytest.approx(4.0)

    def test_through_functions_and_powers(self):
        e = b.log(b.pow_(X, 2.0) + 1.0)
        out = substitute(e, {X: 2.0})
        assert isinstance(out, Const)
        assert out.value == pytest.approx(math.log(5.0))

    def test_through_ite(self):
        e = b.ite(X.lt(0.0), Const(-1.0), Const(1.0))
        assert substitute(e, {X: -5.0}) is Const(-1.0)
        assert substitute(e, {X: 5.0}) is Const(1.0)

    def test_ite_with_remaining_symbolic_condition(self):
        e = b.ite(X.lt(Y), X, Y)
        out = substitute(e, {X: 1.0})
        assert evaluate(out, {"y": 5.0}) == pytest.approx(1.0)
        assert evaluate(out, {"y": 0.0}) == pytest.approx(0.0)

    def test_empty_mapping_is_identity(self):
        e = b.exp(X)
        assert substitute(e, {}) is e

    def test_rs_infinity_use_case(self):
        """The EC6 encoder path: pin rs = 100 in F_c."""
        from repro.functionals import get_functional
        from repro.functionals.vars import RS

        fc = get_functional("LYP").fc()
        fc_inf = substitute(fc, {RS: 100.0})
        assert "rs" not in {v.name for v in fc_inf.free_vars()}
        assert evaluate(fc_inf, {"s": 1.0}) == pytest.approx(
            evaluate(fc, {"rs": 100.0, "s": 1.0})
        )
