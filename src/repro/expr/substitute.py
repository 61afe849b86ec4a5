"""Capture-free substitution over expression DAGs."""

from __future__ import annotations

from . import builder
from .nodes import Add, Const, Expr, Func, Ite, Mul, Pow, Rel, Var


def substitute(expr: Expr, mapping: dict[Var, Expr | float]) -> Expr:
    """Replace variables in ``expr`` according to ``mapping``.

    Values may be expressions or Python numbers.  The rebuild goes through
    the canonicalising constructors, so substituting constants also folds
    the expression (used by the encoder to realise the paper's
    ``F_c |_{rs=100}`` limit approximation).
    """
    subs: dict[int, Expr] = {
        id(k): builder.as_expr(v) for k, v in mapping.items()
    }
    memo: dict[int, Expr] = {}

    for node in expr.walk():
        replacement = subs.get(id(node))
        if replacement is not None:
            memo[id(node)] = replacement
            continue
        if isinstance(node, (Const, Var)):
            memo[id(node)] = node
        elif isinstance(node, Add):
            memo[id(node)] = builder.add(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Mul):
            memo[id(node)] = builder.mul(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Pow):
            memo[id(node)] = builder.pow_(
                memo[id(node.base)], memo[id(node.exponent)]
            )
        elif isinstance(node, Func):
            memo[id(node)] = getattr(builder, _CTOR[node.name])(memo[id(node.arg)])
        elif isinstance(node, Ite):
            cond = Rel.make(
                memo[id(node.cond.lhs)], memo[id(node.cond.rhs)], node.cond.op
            )
            memo[id(node)] = builder.ite(
                cond, memo[id(node.then)], memo[id(node.orelse)]
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node).__name__}")

    return memo[id(expr)]


_CTOR = {
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "cbrt": "cbrt",
    "atan": "atan",
    "abs": "abs_",
    "lambertw": "lambertw",
    "sin": "sin",
    "cos": "cos",
    "tanh": "tanh",
    "erf": "erf",
}


def replace_subexpr(expr: Expr, target: Expr, replacement: Expr | float) -> Expr:
    """Replace every occurrence of the subexpression ``target``.

    Like :func:`substitute` but keyed on an arbitrary node rather than a
    variable.  Thanks to hash-consing, "occurrence" means object identity.
    Used by the numerical-issues analysis to isolate the branches of an
    :class:`~repro.expr.nodes.Ite` node: replacing the Ite with one of its
    branch bodies yields the expression "as if that branch were always
    taken".
    """
    repl = builder.as_expr(replacement)
    if expr is target:
        return repl
    memo: dict[int, Expr] = {id(target): repl}

    for node in expr.walk():
        if id(node) in memo:
            continue
        if isinstance(node, (Const, Var)):
            memo[id(node)] = node
        elif isinstance(node, Add):
            memo[id(node)] = builder.add(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Mul):
            memo[id(node)] = builder.mul(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Pow):
            memo[id(node)] = builder.pow_(
                memo[id(node.base)], memo[id(node.exponent)]
            )
        elif isinstance(node, Func):
            memo[id(node)] = getattr(builder, _CTOR[node.name])(memo[id(node.arg)])
        elif isinstance(node, Ite):
            cond = Rel.make(
                memo[id(node.cond.lhs)], memo[id(node.cond.rhs)], node.cond.op
            )
            memo[id(node)] = builder.ite(
                cond, memo[id(node.then)], memo[id(node.orelse)]
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node).__name__}")

    return memo[id(expr)]
