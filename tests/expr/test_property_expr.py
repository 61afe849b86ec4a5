"""Property-based tests for the expression IR (hypothesis).

Core invariants:

* the canonicalising constructors preserve value,
* scalar evaluation and compiled NumPy kernels agree,
* symbolic derivatives agree with central finite differences,
* substitution commutes with evaluation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.expr import builder as b
from repro.expr.codegen import compile_numpy
from repro.expr.derivative import derivative
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Expr, Var

from tests.support import hyp_examples

X = Var("px")
Y = Var("py")

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
small_consts = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def exprs(draw, depth: int = 3) -> Expr:
    """Random expressions over px, py that are total on [-10, 10]^2.

    Partial primitives are composed through totalising wrappers
    (log(1+x^2), sqrt via even powers) so evaluation never leaves the
    domain; this keeps the properties about *values*, not NaN plumbing.
    """
    if depth == 0:
        leaf = draw(st.sampled_from(["x", "y", "const"]))
        if leaf == "x":
            return X
        if leaf == "y":
            return Y
        return b.const(draw(small_consts))
    op = draw(
        st.sampled_from(
            ["add", "mul", "neg", "exp", "log1p_sq", "atan", "sin", "cos",
             "tanh", "poly", "leaf"]
        )
    )
    if op == "leaf":
        return draw(exprs(depth=0))
    if op == "add":
        return b.add(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    if op == "mul":
        return b.mul(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    if op == "neg":
        return b.neg(draw(exprs(depth=depth - 1)))
    inner = draw(exprs(depth=depth - 1))
    if op == "exp":
        # bound the argument to avoid overflow: exp(tanh(e))
        return b.exp(b.tanh(inner))
    if op == "log1p_sq":
        return b.log(b.add(1.0, b.pow_(inner, 2.0)))
    if op == "atan":
        return b.atan(inner)
    if op == "sin":
        return b.sin(inner)
    if op == "cos":
        return b.cos(inner)
    if op == "tanh":
        return b.tanh(inner)
    if op == "poly":
        return b.pow_(inner, draw(st.sampled_from([2.0, 3.0])))
    raise AssertionError(op)


@given(e=exprs(), xv=finite_floats, yv=finite_floats)
@settings(max_examples=hyp_examples(150), deadline=None)
def test_scalar_eval_matches_numpy_kernel(e, xv, yv):
    env = {"px": xv, "py": yv}
    scalar = evaluate(e, env)
    assume(math.isfinite(scalar))
    kernel = compile_numpy(e, arg_order=(X, Y))
    vec = float(kernel(np.asarray(xv), np.asarray(yv)))
    assert vec == pytest.approx(scalar, rel=1e-9, abs=1e-9)


@given(e=exprs(), xv=finite_floats, yv=finite_floats)
@settings(max_examples=hyp_examples(100), deadline=None)
def test_derivative_matches_sympy(e, xv, yv):
    """Exact oracle: our derivative engine vs SymPy's, evaluated pointwise.

    (Finite differences are used in the unit tests at benign points; for
    arbitrary random expressions FD truncation error is unbounded, so the
    property uses SymPy as the reference instead.)
    """
    from .sympy_bridge import sympy_derivative

    env = {"px": xv, "py": yv}
    analytic = evaluate(derivative(e, X), env)
    assume(math.isfinite(analytic))
    assume(abs(analytic) < 1e12)
    reference = evaluate(sympy_derivative(e, X), env)
    assume(math.isfinite(reference))
    assert analytic == pytest.approx(reference, rel=1e-6, abs=1e-8)


@given(e=exprs(), xv=finite_floats, yv=finite_floats)
@settings(max_examples=hyp_examples(150), deadline=None)
def test_substitution_commutes_with_evaluation(e, xv, yv):
    from repro.expr.substitute import substitute

    env = {"px": xv, "py": yv}
    direct = evaluate(e, env)
    assume(math.isfinite(direct))
    pinned = substitute(e, {X: xv})
    via_subst = evaluate(pinned, {"py": yv})
    assert via_subst == pytest.approx(direct, rel=1e-9, abs=1e-9)


@given(e=exprs())
@settings(max_examples=hyp_examples(100), deadline=None)
def test_interning_gives_structural_equality(e):
    # rebuilding the same structure yields the same object
    from repro.expr.substitute import substitute

    rebuilt = substitute(e, {})
    assert rebuilt is e


@given(e=exprs(), xv=finite_floats, yv=finite_floats)
@settings(max_examples=hyp_examples(100), deadline=None)
def test_sympy_roundtrip_preserves_value(e, xv, yv):
    from .sympy_bridge import from_sympy, to_sympy

    env = {"px": xv, "py": yv}
    direct = evaluate(e, env)
    assume(math.isfinite(direct))
    assume(abs(direct) < 1e12)
    back = from_sympy(to_sympy(e))
    assert evaluate(back, env) == pytest.approx(direct, rel=1e-7, abs=1e-7)
