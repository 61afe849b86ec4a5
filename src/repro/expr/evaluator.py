"""Scalar (point) evaluation of expression DAGs.

Used by the verifier's counterexample-validation step (``valid(x)`` in
Algorithm 1 of the paper): candidate models returned by the delta-complete
solver are plugged back into the *original* condition with ordinary
floating-point arithmetic.  It is also the engine behind ``Atom.holds_at``
probing, which runs once per box inside the ICP loop.

Because of that hot-path role, :func:`evaluate` executes a flat compiled
tape (:mod:`repro.solver.tape`) instead of re-walking the DAG.  The
tree-walking implementation it replaced lives in ``tests/solver/oracles.py``
as the differential-testing oracle; both perform the identical sequence of
float operations, so they agree bit for bit.
"""

from __future__ import annotations

import math

from .nodes import Expr, Rel, Var
from ..scipy_compat import special


class EvalError(ValueError):
    """Raised when a point lies outside an operation's domain."""


# ---------------------------------------------------------------------------
# scalar primitives (shared with the tape VM)
# ---------------------------------------------------------------------------

def _scalar_exp(x: float) -> float:
    if x > 709.0:
        raise OverflowError("exp overflow")
    return math.exp(x)


def _scalar_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _scalar_lambertw(x: float) -> float:
    if x < -1.0 / math.e:
        raise EvalError("lambertw argument below branch point")
    return float(special("lambertw")(x).real)


#: scalar implementation of every unary IR function; the single source of
#: truth for point semantics, used by both execution strategies.
SCALAR_FUNCS = {
    "exp": _scalar_exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "cbrt": _scalar_cbrt,
    "atan": math.atan,
    "abs": abs,
    "lambertw": _scalar_lambertw,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "erf": math.erf,
}


def _env_by_name(env: dict[Var | str, float]) -> dict[str, float]:
    by_name: dict[str, float] = {}
    for key, value in env.items():
        by_name[key.name if isinstance(key, Var) else key] = float(value)
    return by_name


def evaluate(expr: Expr, env: dict[Var | str, float], strict: bool = False) -> float:
    """Evaluate ``expr`` at the point ``env`` (vars may be keyed by name).

    With ``strict=False`` (default) domain errors yield NaN, matching the
    behaviour of grid-based checkers; with ``strict=True`` they raise
    :class:`EvalError`.
    """
    # deferred import: repro.solver.tape imports this module for the
    # scalar primitive table above
    from ..solver.tape import tape_for

    tape = tape_for(expr)
    try:
        return tape.eval_point(_env_by_name(env))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        if strict:
            raise EvalError(str(exc)) from exc
        return math.nan


def evaluate_rel(rel: Rel, env: dict[Var | str, float], tol: float = 0.0) -> bool:
    """Evaluate a relational atom at a point (NaN counts as a violation)."""
    gap = evaluate(rel.lhs, env) - evaluate(rel.rhs, env)
    if math.isnan(gap):
        return False
    return rel.holds(gap, tol=tol)
