"""Tests for the SymPy round-trip bridge."""


import pytest
import sympy as sp

from repro.expr import builder as b
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Var
from .sympy_bridge import from_sympy, sympy_derivative, to_sympy

X = Var("x")
S = Var("s", nonneg=True)


def roundtrip_value(expr, env):
    back = from_sympy(to_sympy(expr))
    return evaluate(back, env), evaluate(expr, env)


class TestToSympy:
    def test_arithmetic(self):
        e = (X + 1.0) * (X - 2.0)
        sym = to_sympy(e)
        assert float(sym.subs({sp.Symbol("x", real=True): 3.0})) == pytest.approx(4.0)

    def test_functions(self):
        e = b.exp(X) + b.atan(X) + b.tanh(X)
        sym = to_sympy(e)
        val = float(sym.subs({sp.Symbol("x", real=True): 0.5}))
        assert val == pytest.approx(evaluate(e, {"x": 0.5}), rel=1e-12)

    def test_lambertw(self):
        sym = to_sympy(b.lambertw(X))
        assert sym.has(sp.LambertW)

    def test_ite_becomes_piecewise(self):
        e = b.ite(X.lt(0.0), -X, X)
        sym = to_sympy(e)
        assert isinstance(sym, sp.Piecewise)

    def test_nonneg_tag_propagates(self):
        sym = to_sympy(S)
        assert sym.is_nonnegative


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make_expr,env",
        [
            (lambda: b.exp(-(X**2)) * b.log(X + 2.0), {"x": 0.7}),
            (lambda: b.atan(X) / (1.0 + X**2), {"x": 1.4}),
            (lambda: b.pow_(S, 1.5) + b.pow_(S, -0.5), {"s": 2.0}),
            (lambda: b.abs_(X) + b.erf(X), {"x": -0.9}),
            (lambda: b.lambertw(S), {"s": 1.1}),
        ],
    )
    def test_value_preserved(self, make_expr, env):
        e = make_expr()
        back_val, orig_val = roundtrip_value(e, env)
        assert back_val == pytest.approx(orig_val, rel=1e-10)

    def test_piecewise_roundtrip(self):
        e = b.ite(X.le(0.0), b.const(1.0), b.exp(-X))
        back = from_sympy(to_sympy(e))
        for xv in (-1.0, 0.0, 1.0):
            assert evaluate(back, {"x": xv}) == pytest.approx(
                evaluate(e, {"x": xv})
            )


class TestSympyDerivative:
    def test_matches_own_engine(self):
        from repro.expr.derivative import derivative

        e = b.exp(-X) * b.log(1.0 + X**2)
        ours = evaluate(derivative(e, X), {"x": 1.2})
        theirs = evaluate(sympy_derivative(e, X), {"x": 1.2})
        assert ours == pytest.approx(theirs, rel=1e-10)

    def test_functional_cross_check(self):
        """Cross-validate d F_c / d rs for PBE via SymPy (paper's tool)."""
        from repro.expr.derivative import derivative
        from repro.functionals import get_functional
        from repro.functionals.vars import RS

        fc = get_functional("PBE").fc()
        ours = derivative(fc, RS)
        theirs = sympy_derivative(fc, RS)
        for env in ({"rs": 0.5, "s": 1.0}, {"rs": 3.0, "s": 4.0}):
            assert evaluate(ours, env) == pytest.approx(
                evaluate(theirs, env), rel=1e-8
            )
