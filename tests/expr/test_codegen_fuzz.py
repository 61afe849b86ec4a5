"""Randomized differential corpus: ``compile_numpy`` vs ``evaluate``.

Generates expressions including Ite (with guards at overflow scale),
transcendentals, fractional/negative powers and domain-edge inputs, and
pins the compiled NumPy kernel against the scalar evaluator under the
"IEEE-kernel semantics" contract documented in :mod:`repro.expr.codegen`:

* wherever the (partial) scalar evaluator produces a value, the (total)
  kernel must agree;
* Ite branch selection must agree *exactly* -- including when both guard
  operands overflow to the same infinity, the regression this corpus was
  built around;
* where the scalar evaluator refuses (NaN in non-strict mode), the
  kernel is unconstrained -- that divergence is the documented contract,
  not a bug.

Budgets scale through ``tests.support.hyp_examples`` for the nightly 25x
run.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.expr import builder as b
from repro.expr.codegen import compile_numpy
from repro.expr.evaluator import evaluate, evaluate_tree
from repro.expr.nodes import Var
from tests.support import hyp_examples

X = Var("x")
Y = Var("y")

#: constants for guard operands: moderate, overflow-scale and tiny --
#: products of these drive Ite guard operands to the same infinity
GUARD_CONSTS = st.sampled_from(
    [0.0, 1.0, -1.0, 0.5, -3.0, 1e200, -1e200, 1e-300, 2.0, 7.5]
)

#: moderate constants for the smooth-value corpus
SMOOTH_CONSTS = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 3.0, -2.5])

REL_OPS = st.sampled_from(["le", "lt", "ge", "gt"])


def _kernel_value(expr, env):
    kernel = compile_numpy(expr)
    args = [np.asarray(env[name], dtype=float) for name in kernel.__arg_order__]
    return float(kernel(*args))


# ---------------------------------------------------------------------------
# part 1: Ite branch selection, exact (indicator branches)
# ---------------------------------------------------------------------------
#
# Guard operands use only ops whose scalar and kernel lowerings round
# identically (sums, correctly rounded on both sides, and multiplication
# chains), so whenever the scalar
# evaluator reaches a verdict the kernel must reach the *same branch* --
# bitwise, no tolerance.  Branch bodies are distinct integer constants, so
# a wrong branch is a loud, exact mismatch.

def _contains_pow(expr) -> bool:
    """Whether a Pow node survives anywhere in ``expr``.

    The builder's canonicalising constructors collapse repeated factors
    (``mul(x, mul(x, x))`` -> ``x**3``), so a "multiplication chain"
    corpus silently grows Pow nodes -- whose kernel lowering (mult chain
    / np.power) and scalar lowering (libm pow) legitimately differ by an
    ulp (see "IEEE-kernel semantics" in repro/expr/codegen.py; witness:
    ``ite(x**3*y < x**4, 1, -1)`` at x = y = 0.3 picks different
    branches).  Exact branch-selection equality is only promised for
    add/mul/const/var operands, so Pow-carrying guards are discarded.
    """
    from repro.expr.nodes import Add, Mul, Pow

    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Pow):
            return True
        if isinstance(node, (Add, Mul)):
            stack.extend(node.args)
    return False


def guard_operands(depth: int = 2):
    leaf = st.one_of(GUARD_CONSTS.map(b.const), st.sampled_from([X, Y]))
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda t: b.mul(t[0], t[1])),
            st.tuples(children, children).map(lambda t: b.add(t[0], t[1])),
        ),
        max_leaves=6,
    ).filter(lambda expr: not _contains_pow(expr))


@st.composite
def ite_indicator_exprs(draw):
    lhs = draw(guard_operands())
    rhs = draw(guard_operands())
    op = draw(REL_OPS)
    guard = getattr(lhs, op)(rhs)
    then = b.const(draw(st.sampled_from([1.0, 2.0, 5.0])))
    orelse = b.const(draw(st.sampled_from([-1.0, -2.0, -5.0])))
    if draw(st.booleans()):
        inner_guard = getattr(draw(guard_operands()), draw(REL_OPS))(
            draw(guard_operands())
        )
        orelse = b.ite(inner_guard, b.const(-7.0), b.const(9.0))
    return b.ite(guard, then, orelse)


ENV_VALUES = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.sampled_from([0.0, 1e-300, -1e-300, 1e154, -1e154, 1e308, -1e308]),
)


class TestIteBranchSelection:
    @settings(max_examples=hyp_examples(200),
              deadline=None)
    @given(ite_indicator_exprs(), ENV_VALUES, ENV_VALUES)
    # a left-to-right kernel sum cancels 1 + 1e308 - 1e308 to 0 (else
    # branch) where the scalar fsum keeps the 1 (then branch)
    @example(b.ite(b.const(0.0).lt(b.add(1.0, X, Y)), 1.0, -1.0), 1e308, -1e308)
    def test_kernel_selects_same_branch_as_scalar(self, expr, x, y):
        env = {"x": x, "y": y}
        scalar = evaluate(expr, env)
        if math.isnan(scalar):
            return  # scalar refused (NaN guard operand): kernel unconstrained
        assert _kernel_value(expr, env) == scalar

    @settings(max_examples=hyp_examples(200),
              deadline=None)
    @given(ite_indicator_exprs(), ENV_VALUES, ENV_VALUES)
    def test_tape_and_tree_evaluators_agree(self, expr, x, y):
        env = {"x": x, "y": y}
        tape = evaluate(expr, env)
        tree = evaluate_tree(expr, env)
        assert (math.isnan(tape) and math.isnan(tree)) or tape == tree


class TestSumRounding:
    """n-ary sums: the kernel's ``_fsum`` is ``math.fsum``, bit for bit."""

    @settings(max_examples=hyp_examples(300),
              deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([1.0, -1.0, 1e16, -1e16, 1e-16, 2.0**-53, 1e308, -1e308]),
        ),
        min_size=3, max_size=6,
    ))
    # the remainder below the top partials breaks a rounding tie upward
    @example([1e-16, 1.0, 1e16])
    def test_nary_sum_is_fsum(self, terms):
        try:
            expected = math.fsum(terms)
        except OverflowError:
            return  # intermediate overflow: the scalar evaluator refuses
        names = tuple(Var(f"t{i}") for i in range(len(terms)))
        kernel = compile_numpy(b.add(*names), arg_order=names)
        assert float(kernel(*terms)) == expected


# ---------------------------------------------------------------------------
# part 2: smooth-value agreement (no Ite, moderate magnitudes)
# ---------------------------------------------------------------------------
#
# Full operator mix including partial operations at their domain edges.
# Transcendentals and powers round differently, so agreement is up to
# tolerance; NaN from the scalar evaluator again means no claim.

def _build(op, *args):
    """Apply a builder op, degrading to the first argument when the
    builder itself rejects the combination (symbolic division by a
    constant zero, constant folding outside a domain, ...)."""
    try:
        return op(*args)
    except (ZeroDivisionError, ValueError, OverflowError):
        return args[0] if args else b.const(1.0)


def smooth_exprs():
    leaf = st.one_of(SMOOTH_CONSTS.map(b.const), st.sampled_from([X, Y]))
    unary = st.sampled_from(
        [b.exp, b.log, b.sqrt, b.cbrt, b.atan, b.abs_, b.tanh, b.sin, b.cos, b.erf]
    )
    exponent = st.sampled_from([2.0, 3.0, -1.0, 0.5, -0.5, 1.5, -2.0])
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda t: _build(b.add, t[0], t[1])),
            st.tuples(children, children).map(lambda t: _build(b.mul, t[0], t[1])),
            st.tuples(children, children).map(lambda t: _build(b.sub, t[0], t[1])),
            st.tuples(children, children).map(lambda t: _build(b.div, t[0], t[1])),
            st.tuples(unary, children).map(lambda t: _build(t[0], t[1])),
            st.tuples(children, exponent).map(lambda t: _build(b.pow_, t[0], t[1])),
        ),
        max_leaves=8,
    )


SMOOTH_ENV = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.sampled_from([0.0, -1.0, 1e-300, 4.0]),
)


class TestSmoothValueAgreement:
    @settings(max_examples=hyp_examples(300),
              deadline=None)
    @given(smooth_exprs(), SMOOTH_ENV, SMOOTH_ENV)
    # the base is x after exact cancellation; a left-to-right kernel sum
    # loses x and returns 0**-1 = inf
    @example(b.pow_(b.add(1.0, X, b.mul(-1.0, b.add(1.0, X))), -1.0),
             1.175494351e-38, 0.0)
    def test_kernel_matches_scalar_where_scalar_defined(self, expr, x, y):
        env = {"x": x, "y": y}
        scalar = evaluate(expr, env)
        if math.isnan(scalar) or abs(scalar) > 1e300:
            return  # scalar refused or sits at the overflow boundary
        kernel = _kernel_value(expr, env)
        assert math.isclose(kernel, scalar, rel_tol=1e-9, abs_tol=1e-12), (
            expr, env, kernel, scalar
        )

    @settings(max_examples=hyp_examples(150),
              deadline=None)
    @given(smooth_exprs(), SMOOTH_ENV, SMOOTH_ENV)
    def test_scalar_nan_matches_strictness_contract(self, expr, x, y):
        """Non-strict NaN iff strict raises: the two scalar modes agree."""
        from repro.expr.evaluator import EvalError

        env = {"x": x, "y": y}
        value = evaluate(expr, env)
        if math.isnan(value):
            try:
                strict = evaluate(expr, env, strict=True)
            except (EvalError, OverflowError, ZeroDivisionError):
                return
            assert math.isnan(strict)
        else:
            assert evaluate(expr, env, strict=True) == value
