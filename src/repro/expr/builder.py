"""Canonicalising constructors for the expression IR.

All expression construction goes through these functions (the operator
overloads on :class:`~repro.expr.nodes.Expr` delegate here).  They perform
the light, always-sound rewrites that keep symbolically differentiated
DFA expressions from exploding:

* constant folding,
* flattening of nested sums/products,
* like-term collection in sums (``2*x + 3*x -> 5*x``),
* identical-base merging in products (``x**a * x**b -> x**(a+b)`` for
  constant exponents),
* identity/annihilator elimination (``x+0``, ``x*1``, ``x*0``, ``x**1``).

Power-of-power collapsing is applied only when sound (integer exponents or
structurally non-negative base) because the DFA input domain facts (rs > 0,
s >= 0) are recorded as ``Var(nonneg=True)`` tags.
"""

from __future__ import annotations

import math

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
    ZERO,
    ONE,
    NEG_ONE,
    is_const,
    is_nonneg,
)


def as_expr(value) -> Expr:
    """Coerce Python numbers to :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


def var(name: str, nonneg: bool = False) -> Var:
    return Var(name, nonneg=nonneg)


def const(value: float) -> Const:
    return Const(value)


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

def _split_coeff(term: Expr) -> tuple[float, Expr]:
    """Split a term into (constant coefficient, remaining factor)."""
    if isinstance(term, Const):
        return term.value, ONE
    if isinstance(term, Mul):
        coeff = 1.0
        rest = []
        for factor in term.args:
            if isinstance(factor, Const):
                coeff *= factor.value
            else:
                rest.append(factor)
        if not rest:
            return coeff, ONE
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Mul(tuple(rest))
    return 1.0, term


def add(*terms) -> Expr:
    """Build a canonical sum of the given terms."""
    flat: list[Expr] = []
    stack = [as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.args))
        else:
            flat.append(t)

    const_part = 0.0
    # collect like terms: key by the non-constant factor (interned -> id key)
    coeffs: dict[int, float] = {}
    reps: dict[int, Expr] = {}
    order: list[int] = []
    for t in flat:
        if isinstance(t, Const):
            const_part += t.value
            continue
        c, rest = _split_coeff(t)
        if rest is ONE:
            const_part += c
            continue
        key = id(rest)
        if key not in coeffs:
            coeffs[key] = 0.0
            reps[key] = rest
            order.append(key)
        coeffs[key] += c

    out: list[Expr] = []
    for key in order:
        c = coeffs[key]
        if c == 0.0:
            continue
        rest = reps[key]
        if c == 1.0:
            out.append(rest)
        else:
            out.append(mul(Const(c), rest))
    if const_part != 0.0 or not out:
        out.insert(0, Const(const_part))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def sub(a, b) -> Expr:
    return add(as_expr(a), neg(as_expr(b)))


def neg(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return Const(-a.value)
    return mul(NEG_ONE, a)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _split_base_exp(factor: Expr) -> tuple[Expr, Expr]:
    if isinstance(factor, Pow):
        return factor.base, factor.exponent
    return factor, ONE


def mul(*factors) -> Expr:
    """Build a canonical product of the given factors."""
    flat: list[Expr] = []
    stack = [as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.args))
        else:
            flat.append(f)

    const_part = 1.0
    exps: dict[int, list[Expr]] = {}
    bases: dict[int, Expr] = {}
    order: list[int] = []
    for f in flat:
        if isinstance(f, Const):
            const_part *= f.value
            continue
        base, expo = _split_base_exp(f)
        key = id(base)
        if key not in exps:
            exps[key] = []
            bases[key] = base
            order.append(key)
        exps[key].append(expo)

    if const_part == 0.0:
        return ZERO

    out: list[Expr] = []
    for key in order:
        base = bases[key]
        exponents = exps[key]
        if len(exponents) == 1:
            expo = exponents[0]
        else:
            # merging x**a * x**b -> x**(a+b) is sound away from x == 0 with
            # negative exponents; functional expressions keep rs, densities
            # strictly positive so we merge unconditionally for same bases.
            expo = add(*exponents)
        out.append(pow_(base, expo))

    # re-flatten: pow_ may have produced constants
    final_const = const_part
    final: list[Expr] = []
    for f in out:
        if isinstance(f, Const):
            final_const *= f.value
        else:
            final.append(f)
    if final_const == 0.0:
        return ZERO
    if final_const != 1.0 or not final:
        final.insert(0, Const(final_const))
    if len(final) == 1:
        return final[0]
    return Mul(tuple(final))


def div(a, b) -> Expr:
    a = as_expr(a)
    b = as_expr(b)
    if isinstance(b, Const):
        if b.value == 0.0:
            raise ZeroDivisionError("symbolic division by constant zero")
        return mul(a, Const(1.0 / b.value))
    return mul(a, pow_(b, NEG_ONE))


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def _safe_const_pow(base: float, expo: float) -> float | None:
    try:
        result = math.pow(base, expo)
    except (ValueError, OverflowError):
        return None
    if math.isnan(result) or math.isinf(result):
        return None
    return result


def pow_(base, exponent) -> Expr:
    base = as_expr(base)
    exponent = as_expr(exponent)

    if is_const(exponent, 0.0):
        return ONE
    if is_const(exponent, 1.0):
        return base
    if isinstance(base, Const) and isinstance(exponent, Const):
        folded = _safe_const_pow(base.value, exponent.value)
        if folded is not None:
            return Const(folded)
        return Pow(base, exponent)
    if is_const(base, 1.0):
        return ONE
    if is_const(base, 0.0) and isinstance(exponent, Const) and exponent.value > 0:
        return ZERO
    if isinstance(base, Pow):
        inner_exp = base.exponent
        # (x**a)**b -> x**(a*b) when sound
        if isinstance(inner_exp, Const) and isinstance(exponent, Const):
            a, b = inner_exp.value, exponent.value
            sound = (
                (a.is_integer() and b.is_integer())
                or is_nonneg(base.base)
                or (a.is_integer() and int(a) % 2 != 0)
            )
            if sound:
                return pow_(base.base, Const(a * b))
    if (
        isinstance(base, Mul)
        and isinstance(exponent, Const)
        and (exponent.is_integer() or all(is_nonneg(f) for f in base.args))
    ):
        # (x*y)**c -> x**c * y**c  (sound for integer c, or all-nonneg factors)
        return mul(*[pow_(f, exponent) for f in base.args])
    if isinstance(base, Func) and base.name == "exp" and isinstance(exponent, Const):
        return exp(mul(exponent, base.arg))
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

def _func(name: str, arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Const):
        folded = _fold_unary(name, arg.value)
        if folded is not None:
            return Const(folded)
    return Func(name, arg)


def _fold_unary(name: str, x: float) -> float | None:
    try:
        if name == "exp":
            value = math.exp(x)
        elif name == "log":
            value = math.log(x)
        elif name == "sqrt":
            value = math.sqrt(x)
        elif name == "cbrt":
            value = math.copysign(abs(x) ** (1.0 / 3.0), x)
        elif name == "atan":
            value = math.atan(x)
        elif name == "abs":
            value = abs(x)
        elif name == "sin":
            value = math.sin(x)
        elif name == "cos":
            value = math.cos(x)
        elif name == "tanh":
            value = math.tanh(x)
        elif name == "erf":
            value = math.erf(x)
        elif name == "lambertw":
            from scipy.special import lambertw as _lw
            value = float(_lw(x).real)
        else:
            return None
    except (ValueError, OverflowError):
        return None
    if math.isnan(value) or math.isinf(value):
        return None
    return value


def exp(arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Func) and arg.name == "log":
        return arg.arg
    return _func("exp", arg)


def log(arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Func) and arg.name == "exp":
        return arg.arg
    return _func("log", arg)


def sqrt(arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Const):
        return _func("sqrt", arg)
    # represent as pow for uniform handling downstream
    return pow_(arg, Const(0.5))


def cbrt(arg) -> Expr:
    return _func("cbrt", arg)


def atan(arg) -> Expr:
    return _func("atan", arg)


def abs_(arg) -> Expr:
    arg = as_expr(arg)
    if is_nonneg(arg):
        return arg
    return _func("abs", arg)


def lambertw(arg) -> Expr:
    return _func("lambertw", arg)


def sin(arg) -> Expr:
    return _func("sin", arg)


def cos(arg) -> Expr:
    return _func("cos", arg)


def tanh(arg) -> Expr:
    return _func("tanh", arg)


def erf(arg) -> Expr:
    return _func("erf", arg)


def ite(cond: Rel, then, orelse) -> Expr:
    """Build an if-then-else expression on a relational condition."""
    then = as_expr(then)
    orelse = as_expr(orelse)
    if then is orelse:
        return then
    # decide constant conditions immediately -- by direct operand
    # comparison, like every runtime decider (Rel.compare): the rounded
    # difference turns two same-sign infinite operands into NaN and would
    # fold to the wrong branch.  NaN operands stay unfolded (the
    # evaluators' partial/total semantics differ there).
    if isinstance(cond.lhs, Const) and isinstance(cond.rhs, Const):
        lhs_v, rhs_v = cond.lhs.value, cond.rhs.value
        if not (math.isnan(lhs_v) or math.isnan(rhs_v)):
            return then if cond.compare(lhs_v, rhs_v) else orelse
    return Ite(cond, then, orelse)


def minimum(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    return ite(a.le(b), a, b)


def maximum(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    return ite(a.ge(b), a, b)
