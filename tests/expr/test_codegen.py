"""Tests for NumPy kernel compilation."""

import math

import numpy as np
import pytest

from repro.expr import builder as b
from repro.expr.codegen import compile_numpy
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Var

X = Var("x")
Y = Var("y")
S = Var("s", nonneg=True)


class TestCompilation:
    def test_scalar_input(self):
        k = compile_numpy(b.exp(X))
        assert float(k(1.0)) == pytest.approx(math.e)

    def test_array_input(self):
        k = compile_numpy(X**2 + 1.0)
        out = k(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [2.0, 5.0, 10.0])

    def test_argument_order_default_sorted(self):
        k = compile_numpy(X - Y)
        assert k.__arg_order__ == ("x", "y")
        assert float(k(5.0, 3.0)) == pytest.approx(2.0)

    def test_explicit_argument_order(self):
        k = compile_numpy(X - Y, arg_order=(Y, X))
        assert float(k(3.0, 5.0)) == pytest.approx(2.0)

    def test_extra_args_allowed_in_order(self):
        k = compile_numpy(X + 1.0, arg_order=(X, Y))
        out = k(np.array([1.0]), np.array([99.0]))
        np.testing.assert_allclose(out, [2.0])

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            compile_numpy(X + Y, arg_order=(X,))

    def test_constant_expression_broadcasts(self):
        k = compile_numpy(b.const(7.0), arg_order=(X,))
        out = k(np.zeros(5))
        np.testing.assert_allclose(out, np.full(5, 7.0))

    def test_source_attached(self):
        k = compile_numpy(b.exp(X))
        assert "np.exp" in k.__source__

    def test_broadcasting_2d(self):
        k = compile_numpy(X * Y)
        xs = np.array([[1.0], [2.0]])
        ys = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(k(xs, ys), [[3.0, 4.0], [6.0, 8.0]])


class TestAgreementWithScalarEval:
    @pytest.mark.parametrize(
        "make_expr,env",
        [
            (lambda: b.exp(-X) * (1 + X**2), {"x": 1.7}),
            (lambda: b.log(1 + S**2) / (S + 1.0), {"s": 0.9}),
            (lambda: b.atan(X) + b.tanh(X) - b.sin(X) * b.cos(X), {"x": 0.3}),
            (lambda: b.lambertw(S) + b.cbrt(S), {"s": 2.5}),
            (lambda: b.erf(X) * b.abs_(X), {"x": -1.2}),
            (lambda: b.pow_(S, -1.5) + b.pow_(S, 2.0), {"s": 0.7}),
        ],
    )
    def test_kernel_matches_evaluate(self, make_expr, env):
        e = make_expr()
        k = compile_numpy(e)
        names = k.__arg_order__
        args = [env[n] for n in names]
        assert float(k(*args)) == pytest.approx(evaluate(e, env), rel=1e-12)

    def test_out_of_domain_yields_nonfinite_not_exception(self):
        e = b.log(X)
        k = compile_numpy(e)
        out = k(np.array([-1.0, 0.0, 1.0]))
        assert np.isnan(out[0])
        assert np.isneginf(out[1])
        assert out[2] == pytest.approx(0.0)

    def test_ite_compiles_to_where(self):
        e = b.ite(X.lt(0.0), -X, X)
        k = compile_numpy(e)
        np.testing.assert_allclose(k(np.array([-2.0, 3.0])), [2.0, 3.0])

    def test_integer_power_unrolled(self):
        e = b.pow_(X, 3.0)
        k = compile_numpy(e)
        assert "np.power" not in k.__source__
        np.testing.assert_allclose(k(np.array([2.0])), [8.0])

    def test_functional_kernels_match_scalar(self):
        from repro.functionals import paper_functionals

        envs = [
            {"rs": 0.5, "s": 0.3, "alpha": 0.2},
            {"rs": 2.0, "s": 2.5, "alpha": 1.7},
            {"rs": 4.5, "s": 4.9, "alpha": 4.0},
        ]
        for f in paper_functionals():
            k = f.fc_kernel()
            fc = f.fc()
            for env in envs:
                args = [env[v.name] for v in f.variables]
                assert float(k(*args)) == pytest.approx(
                    evaluate(fc, env), rel=1e-10
                ), f"{f.name} kernel mismatch at {env}"


class TestIteOverflowSemantics:
    """Ite guards compare operands directly, never via ``(lhs - rhs) op 0``.

    Regression for an unsound lowering: when both guard operands overflow
    to the same infinity, ``inf - inf`` is NaN, every comparison against 0
    is False, and the gap encoding silently took the else branch -- while
    the scalar evaluator (which now also compares operands directly) still
    orders the two infinities correctly.
    """

    def _both_inf_expr(self):
        # at x >= 1e109, 1e200*x and 2e200*x both overflow to +inf (plain
        # float multiplication saturates in the scalar evaluator too); the
        # guard 1e200*x <= 2e200*x is true for every positive x
        return b.ite(
            b.mul(1e200, X).le(b.mul(2e200, X)), b.const(1.0), b.const(-1.0)
        )

    def test_overflowed_guard_takes_true_branch(self):
        k = compile_numpy(self._both_inf_expr())
        out = k(np.array([1e200, 1e308, 3.0]))
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])

    def test_overflowed_guard_matches_scalar_evaluator(self):
        e = self._both_inf_expr()
        k = compile_numpy(e)
        for x in (1e200, 1e308, 0.5, 3.0):
            assert float(k(x)) == evaluate(e, {"x": x}), x

    def test_scalar_tree_and_tape_agree_on_inf_operands(self):
        from tests.solver.oracles import evaluate_tree

        e = self._both_inf_expr()
        for x in (1e200, 1e308):
            assert evaluate(e, {"x": x}) == 1.0
            assert evaluate_tree(e, {"x": x}) == 1.0

    def test_strict_inequality_on_equal_infinities(self):
        # inf < inf is False: the else branch, in kernel and scalar alike
        e = b.ite(
            b.mul(1e200, X).lt(b.mul(2e200, X)), b.const(1.0), b.const(-1.0)
        )
        k = compile_numpy(e)
        assert float(k(1e200)) == -1.0
        assert evaluate(e, {"x": 1e200}) == -1.0
        # ...while at finite scale the guard is genuinely strict
        assert float(k(3.0)) == 1.0
        assert evaluate(e, {"x": 3.0}) == 1.0

    def test_nan_guard_operand_is_documented_divergence(self):
        # kernel: NaN comparison is False -> else branch (total semantics);
        # scalar evaluator: EvalError -> NaN (partial semantics)
        e = b.ite(b.log(X).le(b.const(0.0)), b.const(1.0), b.const(-1.0))
        k = compile_numpy(e)
        assert float(k(-1.0)) == -1.0  # log(-1) = NaN -> else branch
        assert math.isnan(evaluate(e, {"x": -1.0}))

    def test_nonfinite_constants_compile(self):
        # constant folding can produce Const(inf); repr(inf) = "inf" is
        # not a defined name inside the kernel (was: NameError)
        e = b.mul(b.const(1e200), b.const(1e200))  # folds to Const(inf)
        k = compile_numpy(e, arg_order=(X,))
        assert float(k(1.0)) == math.inf
        assert evaluate(e, {"x": 1.0}) == math.inf
        # ...and the printer no longer chokes on them (was: OverflowError)
        from repro.expr.nodes import Const

        assert repr(Const(math.inf)) == "inf"
        assert repr(Const(math.nan)) == "nan"

    def test_power_nan_semantics_documented(self):
        # np.power(negative, fractional) is a silent NaN in the kernel;
        # the scalar evaluator raises (NaN in non-strict mode)
        e = b.pow_(X, 0.5)
        k = compile_numpy(e)
        assert math.isnan(float(k(-2.0)))
        assert math.isnan(evaluate(e, {"x": -2.0}))
        with pytest.raises(Exception):
            evaluate(e, {"x": -2.0}, strict=True)
        assert "IEEE-kernel semantics" in __import__("repro.expr.codegen", fromlist=["x"]).__doc__
