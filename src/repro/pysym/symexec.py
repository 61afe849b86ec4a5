"""Symbolic execution of Python model code into expression IR.

This is the reproduction of XCEncoder's front end.  In the paper, LibXC's
Maple sources are translated to Python with Maple's ``CodeGeneration``
package and then symbolically executed by "a symbolic execution engine for
(a subset of) Python" into dReal expressions.  Our DFA model code is
already Python, and :func:`lift` is that engine.

Supported subset (matching the paper's observation that "DFA
implementations do not contain loops, arrays, etc., [but] they do contain
(non-recursive) function calls and if-then-else statements"):

* arithmetic and unary expressions, numeric literals, names, parenthesised
  tuples in assignments,
* simple and tuple assignments, augmented assignments,
* calls to registered intrinsics (:mod:`repro.pysym.intrinsics`) and to
  other pure-Python model functions (inlined recursively, recursion is
  rejected),
* ``if``/``elif``/``else`` on comparisons of symbolic values -- both arms
  are executed and the results merged into :class:`~repro.expr.nodes.Ite`
  terms,
* conditional expressions ``a if cond else b``,
* a single ``return`` per control path.

Anything else raises :class:`SymExecError` with the offending source line.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Callable

from ..expr import builder as b
from ..expr.nodes import Expr, Rel
from .intrinsics import INTRINSIC_FUNCTIONS

__all__ = ["lift", "SymExecError"]


class SymExecError(TypeError):
    """Raised when model code falls outside the supported Python subset."""


_MAX_INLINE_DEPTH = 32


def lift(func: Callable, *args, **kwargs) -> Expr:
    """Symbolically execute ``func`` on expression/number arguments.

    Returns the IR expression for the function's return value.  Arguments
    may be :class:`Expr` nodes or Python numbers.
    """
    return _Executor(depth=0).call(func, list(args), kwargs)


class _Executor:
    def __init__(self, depth: int):
        if depth > _MAX_INLINE_DEPTH:
            raise SymExecError("function inlining too deep (recursive model code?)")
        self.depth = depth

    # -- function-level driver ------------------------------------------------
    def call(self, func: Callable, args: list, kwargs: dict) -> Any:
        intrinsic = getattr(func, "__intrinsic__", None)
        if intrinsic is not None:
            if kwargs or len(args) != 1:
                raise SymExecError(f"intrinsic {intrinsic} takes one positional argument")
            return func(args[0])

        try:
            source = textwrap.dedent(inspect.getsource(func))
        except (OSError, TypeError) as exc:
            raise SymExecError(
                f"cannot obtain source for {getattr(func, '__name__', func)!r}"
            ) from exc
        tree = ast.parse(source)
        fdef = tree.body[0]
        if not isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raise SymExecError("expected a function definition")

        env: dict[str, Any] = {}
        params = [a.arg for a in fdef.args.args]
        defaults = fdef.args.defaults
        # bind positional
        for name, value in zip(params, args):
            env[name] = _coerce(value)
        # bind keyword
        for name, value in kwargs.items():
            if name not in params:
                raise SymExecError(f"unknown keyword argument {name!r}")
            env[name] = _coerce(value)
        # bind defaults for the trailing unbound params
        unbound = [p for p in params if p not in env]
        if len(unbound) > len(defaults):
            raise SymExecError(
                f"missing arguments for {fdef.name}: {unbound[: len(unbound) - len(defaults)]}"
            )
        for name, node in zip(unbound, defaults[len(defaults) - len(unbound):]):
            env[name] = _coerce(self.eval_expr(node, {}, func))

        result = self.exec_block(fdef.body, env, func)
        if result is _NO_RETURN:
            raise SymExecError(f"{fdef.name} finished without returning a value")
        return result

    # -- statements ------------------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt], env: dict, func: Callable):
        """Execute statements; return the return-value or _NO_RETURN.

        Symbolic ``if`` statements are handled by *continuation folding*:
        the remainder of the block is appended to both arms and each folded
        path is executed in its own environment.  Every control path that
        produces the function's value must end in ``return``; the two
        path results are merged into an :class:`~repro.expr.nodes.Ite`.
        This uniformly supports both ``if/else`` with returns and the
        early-return idiom (``if c: return a`` followed by more code), and
        makes environment merging unnecessary.
        """
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Return):
                if stmt.value is None:
                    raise SymExecError("bare `return` is not supported")
                return self.eval_expr(stmt.value, env, func)
            if isinstance(stmt, ast.Assign):
                value = self.eval_expr(stmt.value, env, func)
                for target in stmt.targets:
                    self.assign(target, value, env)
                continue
            if isinstance(stmt, ast.AugAssign):
                if not isinstance(stmt.target, ast.Name):
                    raise SymExecError("augmented assignment to non-name")
                current = env.get(stmt.target.id)
                if current is None:
                    raise SymExecError(
                        f"augmented assignment to unbound {stmt.target.id!r}"
                    )
                rhs = self.eval_expr(stmt.value, env, func)
                env[stmt.target.id] = _binop(stmt.op, current, rhs)
                continue
            if isinstance(stmt, ast.If):
                cond = self.eval_cond(stmt.test, env, func)
                rest = stmts[index + 1:]
                if isinstance(cond, bool):
                    branch = list(stmt.body if cond else stmt.orelse) + rest
                    return self.exec_block(branch, env, func)
                then_result = self.exec_block(
                    list(stmt.body) + rest, dict(env), func
                )
                else_result = self.exec_block(
                    list(stmt.orelse) + rest, dict(env), func
                )
                then_returns = then_result is not _NO_RETURN
                else_returns = else_result is not _NO_RETURN
                if not then_returns and not else_returns:
                    return _NO_RETURN
                if then_returns != else_returns:
                    raise SymExecError(
                        "every control path through a symbolic `if` must "
                        f"return a value (line {stmt.lineno})"
                    )
                return b.ite(cond, b.as_expr(then_result), b.as_expr(else_result))
            if isinstance(stmt, (ast.Expr,)) and isinstance(stmt.value, ast.Constant):
                continue  # docstring
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if not isinstance(stmt.target, ast.Name):
                    raise SymExecError("annotated assignment to non-name")
                env[stmt.target.id] = self.eval_expr(stmt.value, env, func)
                continue
            if isinstance(stmt, ast.Pass):
                continue
            raise SymExecError(
                f"unsupported statement {type(stmt).__name__} at line {stmt.lineno}"
            )
        return _NO_RETURN

    def assign(self, target: ast.expr, value, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, ast.Tuple):
            if not isinstance(value, tuple) or len(value) != len(target.elts):
                raise SymExecError("tuple assignment arity mismatch")
            for tgt, val in zip(target.elts, value):
                self.assign(tgt, val, env)
            return
        raise SymExecError(f"unsupported assignment target {type(target).__name__}")

    # -- expressions -------------------------------------------------------------
    def eval_expr(self, node: ast.expr, env: dict, func: Callable):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise SymExecError(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self.resolve_global(node.id, func)
        if isinstance(node, ast.BinOp):
            left = self.eval_expr(node.left, env, func)
            right = self.eval_expr(node.right, env, func)
            return _binop(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval_expr(node.operand, env, func)
            if isinstance(node.op, ast.USub):
                return -operand if not isinstance(operand, Expr) else b.neg(operand)
            if isinstance(node.op, ast.UAdd):
                return operand
            raise SymExecError(f"unsupported unary operator {type(node.op).__name__}")
        if isinstance(node, ast.Call):
            callee = self.eval_expr(node.func, env, func)
            args = [self.eval_expr(a, env, func) for a in node.args]
            kwargs = {
                kw.arg: self.eval_expr(kw.value, env, func) for kw in node.keywords
            }
            if None in kwargs:
                raise SymExecError("**kwargs calls are not supported")
            if all(not isinstance(a, Expr) for a in args) and all(
                not isinstance(v, Expr) for v in kwargs.values()
            ) and getattr(callee, "__intrinsic__", None) is not None:
                return callee(*args, **kwargs)
            return _Executor(self.depth + 1).call(callee, args, kwargs)
        if isinstance(node, ast.IfExp):
            cond = self.eval_cond(node.test, env, func)
            if isinstance(cond, bool):
                return self.eval_expr(node.body if cond else node.orelse, env, func)
            then_val = self.eval_expr(node.body, env, func)
            else_val = self.eval_expr(node.orelse, env, func)
            return b.ite(cond, b.as_expr(then_val), b.as_expr(else_val))
        if isinstance(node, ast.Tuple):
            return tuple(self.eval_expr(e, env, func) for e in node.elts)
        if isinstance(node, ast.Attribute):
            base = self.eval_expr(node.value, env, func)
            try:
                return getattr(base, node.attr)
            except AttributeError as exc:
                raise SymExecError(str(exc)) from exc
        raise SymExecError(
            f"unsupported expression {type(node).__name__} at line {node.lineno}"
        )

    def eval_cond(self, node: ast.expr, env: dict, func: Callable) -> Rel | bool:
        if not isinstance(node, ast.Compare):
            raise SymExecError("if-conditions must be comparisons")
        if len(node.ops) != 1 or len(node.comparators) != 1:
            raise SymExecError("chained comparisons are not supported")
        lhs = self.eval_expr(node.left, env, func)
        rhs = self.eval_expr(node.comparators[0], env, func)
        op_map = {
            ast.LtE: "<=",
            ast.Lt: "<",
            ast.GtE: ">=",
            ast.Gt: ">",
            ast.Eq: "==",
        }
        op = op_map.get(type(node.ops[0]))
        if op is None:
            raise SymExecError(
                f"unsupported comparison {type(node.ops[0]).__name__}"
            )
        if not isinstance(lhs, Expr) and not isinstance(rhs, Expr):
            return {
                "<=": lhs <= rhs,
                "<": lhs < rhs,
                ">=": lhs >= rhs,
                ">": lhs > rhs,
                "==": lhs == rhs,
            }[op]
        return Rel.make(b.as_expr(lhs), b.as_expr(rhs), op)

    def resolve_global(self, name: str, func: Callable):
        if name in INTRINSIC_FUNCTIONS:
            return INTRINSIC_FUNCTIONS[name]
        globals_ = getattr(func, "__globals__", {})
        if name in globals_:
            return _coerce(globals_[name])
        builtins_ = globals_.get("__builtins__", {})
        if isinstance(builtins_, dict) and name in builtins_:
            value = builtins_[name]
        else:
            value = getattr(builtins_, name, None)
        if name == "abs":
            return INTRINSIC_FUNCTIONS["fabs"]
        if value is not None and callable(value):
            raise SymExecError(f"builtin {name!r} is not in the supported subset")
        raise SymExecError(f"unbound name {name!r}")


_NO_RETURN = object()


def _coerce(value):
    if isinstance(value, bool):
        raise SymExecError("boolean values are not supported in model code")
    if isinstance(value, int):
        return float(value)
    return value


def _binop(op: ast.operator, left, right):
    symbolic = isinstance(left, Expr) or isinstance(right, Expr)
    if isinstance(op, ast.Add):
        return b.add(left, right) if symbolic else left + right
    if isinstance(op, ast.Sub):
        return b.sub(left, right) if symbolic else left - right
    if isinstance(op, ast.Mult):
        return b.mul(left, right) if symbolic else left * right
    if isinstance(op, ast.Div):
        return b.div(left, right) if symbolic else left / right
    if isinstance(op, ast.Pow):
        return b.pow_(left, right) if symbolic else left ** right
    raise SymExecError(f"unsupported binary operator {type(op).__name__}")
