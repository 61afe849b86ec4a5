"""Round-trip translation between the expression IR and SymPy.

The paper uses SymPy to compute derivatives symbolically; the package has
its own derivative engine (:mod:`repro.expr.derivative`), and the tests use
this bridge to cross-check it against SymPy.  SymPy is a test dependency
only (``requirements-dev.txt``).
"""

from __future__ import annotations

import sympy as sp

from repro.expr import builder as b
from repro.expr.nodes import Add, Const, Expr, Func, Ite, Mul, Pow, Rel, Var


def to_sympy(expr: Expr) -> sp.Expr:
    """Translate an IR expression into a SymPy expression."""
    memo: dict[int, sp.Expr] = {}
    for node in expr.walk():
        memo[id(node)] = _node_to_sympy(node, memo)
    return memo[id(expr)]


def _node_to_sympy(node: Expr, memo: dict[int, sp.Expr]) -> sp.Expr:
    if isinstance(node, Const):
        return sp.Float(node.value)
    if isinstance(node, Var):
        return sp.Symbol(node.name, real=True, nonnegative=node.nonneg or None)
    if isinstance(node, Add):
        return sp.Add(*[memo[id(a)] for a in node.args])
    if isinstance(node, Mul):
        return sp.Mul(*[memo[id(a)] for a in node.args])
    if isinstance(node, Pow):
        return sp.Pow(memo[id(node.base)], memo[id(node.exponent)])
    if isinstance(node, Func):
        arg = memo[id(node.arg)]
        table = {
            "exp": sp.exp,
            "log": sp.log,
            "sqrt": sp.sqrt,
            "cbrt": sp.cbrt,
            "atan": sp.atan,
            "abs": sp.Abs,
            "lambertw": sp.LambertW,
            "sin": sp.sin,
            "cos": sp.cos,
            "tanh": sp.tanh,
            "erf": sp.erf,
        }
        return table[node.name](arg)
    if isinstance(node, Ite):
        lhs = memo[id(node.cond.lhs)]
        rhs = memo[id(node.cond.rhs)]
        rel = {
            "<=": sp.Le,
            "<": sp.Lt,
            ">=": sp.Ge,
            ">": sp.Gt,
            "==": sp.Eq,
        }[node.cond.op](lhs, rhs)
        return sp.Piecewise((memo[id(node.then)], rel), (memo[id(node.orelse)], True))
    raise TypeError(f"cannot translate {type(node).__name__}")  # pragma: no cover


def from_sympy(expr: sp.Expr, nonneg_vars: frozenset[str] = frozenset()) -> Expr:
    """Translate a SymPy expression into the IR."""
    if expr.is_Number or isinstance(expr, sp.NumberSymbol):
        return b.const(float(expr))
    if isinstance(expr, sp.Symbol):
        return b.var(expr.name, nonneg=expr.name in nonneg_vars)
    if isinstance(expr, sp.Add):
        return b.add(*[from_sympy(a, nonneg_vars) for a in expr.args])
    if isinstance(expr, sp.Mul):
        return b.mul(*[from_sympy(a, nonneg_vars) for a in expr.args])
    if isinstance(expr, sp.Pow):
        return b.pow_(
            from_sympy(expr.base, nonneg_vars), from_sympy(expr.exp, nonneg_vars)
        )
    table = {
        sp.exp: b.exp,
        sp.log: b.log,
        sp.atan: b.atan,
        sp.Abs: b.abs_,
        sp.LambertW: b.lambertw,
        sp.sin: b.sin,
        sp.cos: b.cos,
        sp.tanh: b.tanh,
        sp.erf: b.erf,
    }
    for sym_fn, ctor in table.items():
        if isinstance(expr, sym_fn):
            return ctor(from_sympy(expr.args[0], nonneg_vars))
    if isinstance(expr, sp.Piecewise) and len(expr.args) == 2:
        (then, cond), (orelse, other) = expr.args
        if other is not sp.true:
            raise TypeError("only two-branch Piecewise with default is supported")
        rel_table = {sp.Le: "<=", sp.Lt: "<", sp.Ge: ">=", sp.Gt: ">", sp.Eq: "=="}
        for sym_rel, op in rel_table.items():
            if isinstance(cond, sym_rel):
                atom = Rel.make(
                    from_sympy(cond.lhs, nonneg_vars),
                    from_sympy(cond.rhs, nonneg_vars),
                    op,
                )
                return b.ite(
                    atom,
                    from_sympy(then, nonneg_vars),
                    from_sympy(orelse, nonneg_vars),
                )
    raise TypeError(f"cannot translate SymPy node {type(expr).__name__}")


def sympy_derivative(expr: Expr, wrt: Var, order: int = 1) -> Expr:
    """Differentiate via SymPy and translate back (cross-check path)."""
    sym = to_sympy(expr)
    dsym = sp.diff(sym, sp.Symbol(wrt.name, real=True, nonnegative=wrt.nonneg or None), order)
    nonneg = frozenset(v.name for v in expr.free_vars() if v.nonneg)
    return from_sympy(dsym, nonneg)
