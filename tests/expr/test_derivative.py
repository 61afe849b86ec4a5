"""Tests for the symbolic differentiation engine."""

import math

import pytest

from repro.expr import builder as b
from repro.expr.derivative import derivative, gradient
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Const, Var

X = Var("x")
Y = Var("y")
S = Var("s", nonneg=True)


def dval(expr, wrt, point, order=1):
    return evaluate(derivative(expr, wrt, order), point)


def fd(fn, x0, h=1e-6):
    return (fn(x0 + h) - fn(x0 - h)) / (2.0 * h)


class TestBasicRules:
    def test_constant(self):
        assert derivative(Const(3.0), X) is Const(0.0)

    def test_variable(self):
        assert derivative(X, X) is Const(1.0)
        assert derivative(Y, X) is Const(0.0)

    def test_linearity(self):
        e = b.add(b.mul(3.0, X), b.mul(5.0, Y))
        assert derivative(e, X) is Const(3.0)
        assert derivative(e, Y) is Const(5.0)

    def test_product_rule_binary(self):
        e = b.mul(X, Y)
        assert dval(e, X, {"x": 2.0, "y": 7.0}) == pytest.approx(7.0)

    def test_product_rule_nary(self):
        e = b.mul(X, Y, b.exp(X))
        point = {"x": 0.5, "y": 2.0}
        expected = fd(lambda t: t * 2.0 * math.exp(t), 0.5)
        assert dval(e, X, point) == pytest.approx(expected, rel=1e-8)

    def test_quotient(self):
        e = b.div(X, b.add(X, 1.0))
        expected = fd(lambda t: t / (t + 1.0), 2.0)
        assert dval(e, X, {"x": 2.0}) == pytest.approx(expected, rel=1e-8)

    def test_power_constant_exponent(self):
        e = b.pow_(X, 5.0)
        assert dval(e, X, {"x": 2.0}) == pytest.approx(5 * 2.0**4)

    def test_power_negative_exponent(self):
        e = b.pow_(X, -2.0)
        assert dval(e, X, {"x": 2.0}) == pytest.approx(-2 * 2.0**-3)

    def test_power_fractional_exponent(self):
        e = b.pow_(S, 1.0 / 3.0)
        expected = (1.0 / 3.0) * 8.0 ** (-2.0 / 3.0)
        assert dval(e, S, {"s": 8.0}) == pytest.approx(expected)

    def test_general_power_symbolic_exponent(self):
        e = b.pow_(S, X)  # s**x
        point = {"s": 2.0, "x": 3.0}
        # d/dx s**x = s**x log s
        assert dval(e, X, point) == pytest.approx(8.0 * math.log(2.0))
        # d/ds s**x = x s**(x-1)
        assert dval(e, S, point) == pytest.approx(3.0 * 4.0)

    def test_second_derivative(self):
        e = b.pow_(X, 4.0)
        assert dval(e, X, {"x": 3.0}, order=2) == pytest.approx(12 * 9.0)

    def test_zeroth_derivative_is_identity(self):
        e = b.exp(X)
        assert derivative(e, X, order=0) is e

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            derivative(X, X, order=-1)

    def test_gradient(self):
        e = b.add(b.pow_(X, 2.0), b.mul(3.0, Y))
        gx, gy = gradient(e, (X, Y))
        assert evaluate(gx, {"x": 2.0, "y": 0.0}) == pytest.approx(4.0)
        assert evaluate(gy, {"x": 2.0, "y": 0.0}) == pytest.approx(3.0)


class TestFunctionRules:
    @pytest.mark.parametrize(
        "ctor,fn,x0",
        [
            (b.exp, math.exp, 0.7),
            (b.log, math.log, 2.3),
            (b.atan, math.atan, 0.9),
            (b.sin, math.sin, 1.1),
            (b.cos, math.cos, 1.1),
            (b.tanh, math.tanh, 0.4),
            (b.erf, math.erf, 0.3),
        ],
    )
    def test_unary_chain_rule(self, ctor, fn, x0):
        e = ctor(b.mul(2.0, X))
        expected = fd(lambda t: fn(2.0 * t), x0)
        assert dval(e, X, {"x": x0}) == pytest.approx(expected, rel=1e-7)

    def test_sqrt(self):
        e = b.sqrt(S)
        assert dval(e, S, {"s": 4.0}) == pytest.approx(0.25)

    def test_cbrt(self):
        e = b.cbrt(X)
        expected = fd(lambda t: math.copysign(abs(t) ** (1 / 3), t), 8.0)
        assert dval(e, X, {"x": 8.0}) == pytest.approx(expected, rel=1e-7)

    def test_abs_derivative_is_sign(self):
        e = b.abs_(X)
        assert dval(e, X, {"x": 3.0}) == pytest.approx(1.0)
        assert dval(e, X, {"x": -3.0}) == pytest.approx(-1.0)

    def test_lambertw_derivative(self):
        from scipy.special import lambertw
        e = b.lambertw(X)
        x0 = 1.7
        w = float(lambertw(x0).real)
        expected = w / (x0 * (1.0 + w))
        assert dval(e, X, {"x": x0}) == pytest.approx(expected, rel=1e-10)

    def test_lambertw_derivative_at_zero(self):
        # the exp-form rule is regular at x = 0: W'(0) = 1
        e = b.lambertw(X)
        assert dval(e, X, {"x": 0.0}) == pytest.approx(1.0)

    def test_ite_branchwise(self):
        e = b.ite(X.lt(0.0), b.mul(2.0, X), b.mul(3.0, X))
        assert dval(e, X, {"x": -1.0}) == pytest.approx(2.0)
        assert dval(e, X, {"x": 1.0}) == pytest.approx(3.0)


class TestAgainstSymPy:
    @pytest.mark.parametrize(
        "make_expr,point",
        [
            (lambda: b.exp(b.neg(X)) * (1 + 2 * X**2) / (X + 2.0), {"x": 1.3}),
            (lambda: b.log(1 + X**2) * b.atan(X), {"x": 0.8}),
            (lambda: b.pow_(b.add(1.0, b.pow_(S, 2.0)), -0.25), {"s": 1.9}),
            (lambda: b.tanh(X) + b.erf(X) * b.cos(X), {"x": 0.4}),
        ],
    )
    def test_first_derivative_matches_sympy(self, make_expr, point):
        from .sympy_bridge import sympy_derivative

        e = make_expr()
        wrt = next(iter(e.free_vars()))
        ours = evaluate(derivative(e, wrt), point)
        theirs = evaluate(sympy_derivative(e, wrt), point)
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_second_derivative_matches_sympy(self):
        from .sympy_bridge import sympy_derivative

        e = b.exp(b.neg(b.pow_(X, 2.0))) * b.log(b.add(X, 2.0))
        ours = evaluate(derivative(e, X, 2), {"x": 0.6})
        theirs = evaluate(sympy_derivative(e, X, 2), {"x": 0.6})
        assert ours == pytest.approx(theirs, rel=1e-8)


class TestDerivativeOnFunctionals:
    """Derivatives of real DFA enhancement factors vs finite differences."""

    @pytest.mark.parametrize("name", ["PBE", "LYP", "AM05", "VWN RPA"])
    def test_dfc_drs_matches_fd(self, name):
        from repro.functionals import get_functional
        from repro.functionals.vars import RS

        f = get_functional(name)
        fc = f.fc()
        dfc = derivative(fc, RS)
        point = {"rs": 2.1, "s": 1.3}
        h = 1e-6

        def fc_at(rs_value):
            return evaluate(fc, {**point, "rs": rs_value})

        expected = (fc_at(2.1 + h) - fc_at(2.1 - h)) / (2 * h)
        assert evaluate(dfc, point) == pytest.approx(expected, rel=1e-5)

    def test_scan_dfc_drs_matches_fd(self):
        from repro.functionals import get_functional
        from repro.functionals.vars import RS

        f = get_functional("SCAN")
        fc = f.fc()
        dfc = derivative(fc, RS)
        point = {"rs": 1.5, "s": 0.8, "alpha": 0.5}
        h = 1e-6

        def fc_at(rs_value):
            return evaluate(fc, {**point, "rs": rs_value})

        expected = (fc_at(1.5 + h) - fc_at(1.5 - h)) / (2 * h)
        assert evaluate(dfc, point) == pytest.approx(expected, rel=1e-5)
