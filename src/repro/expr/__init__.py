"""Symbolic expression IR: nodes, constructors, calculus, and evaluators.

This package is the term language shared by every other subsystem:

* :mod:`repro.expr.nodes` -- hash-consed DAG node types,
* :mod:`repro.expr.builder` -- canonicalising constructors,
* :mod:`repro.expr.derivative` -- symbolic differentiation,
* :mod:`repro.expr.substitute` -- capture-free substitution,
* :mod:`repro.expr.evaluator` -- scalar point evaluation,
* :mod:`repro.expr.codegen` -- vectorised NumPy compilation.
"""

from .nodes import (
    Add,
    Const,
    Expr,
    Func,
    Ite,
    Mul,
    Pow,
    Rel,
    Var,
    UNARY_FUNCTIONS,
    is_const,
    is_nonneg,
    is_positive,
)
from .builder import (
    abs_,
    add,
    as_expr,
    atan,
    cbrt,
    const,
    cos,
    div,
    erf,
    exp,
    ite,
    lambertw,
    log,
    maximum,
    minimum,
    mul,
    neg,
    pow_,
    sin,
    sqrt,
    sub,
    tanh,
    var,
)
from .derivative import derivative, gradient
from .substitute import replace_subexpr, substitute
from .evaluator import EvalError, evaluate, evaluate_rel
from .codegen import compile_numpy
from .printer import to_str

__all__ = [
    "Add", "Const", "Expr", "Func", "Ite", "Mul", "Pow", "Rel", "Var",
    "UNARY_FUNCTIONS", "is_const", "is_nonneg", "is_positive",
    "abs_", "add", "as_expr", "atan", "cbrt", "const", "cos", "div", "erf",
    "exp", "ite", "lambertw", "log", "maximum", "minimum", "mul", "neg",
    "pow_", "sin", "sqrt", "sub", "tanh", "var",
    "derivative", "gradient", "replace_subexpr", "substitute",
    "EvalError", "evaluate", "evaluate_rel", "compile_numpy", "to_str",
]
