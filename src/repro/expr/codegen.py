"""Compilation of expression DAGs to vectorised NumPy kernels.

The Pederson-Burke grid baseline evaluates every functional on 10^5-scale
meshes; evaluating the interned DAG node-by-node in Python would dominate
the runtime.  Following the HPC guidance (vectorise, exploit common
subexpressions, avoid Python-level loops), we emit one NumPy statement per
*unique* DAG node -- hash-consing gives us common-subexpression elimination
for free -- and ``exec`` the resulting function once.

Generated kernels accept scalars or broadcastable ``ndarray`` inputs and
evaluate with ``errstate(all='ignore')`` so out-of-domain points yield
NaN/inf instead of raising, mirroring how grid checkers treat them.

IEEE-kernel semantics
---------------------
The compiled kernel is *total*: every input produces an IEEE value.  Where
the scalar evaluator (:func:`repro.expr.evaluator.evaluate`) raises
``EvalError`` (NaN in non-strict mode), the kernel silently continues:

* ``np.power`` with a negative base and fractional exponent yields NaN
  (the scalar evaluator raises); zero to a negative power yields inf;
  finite operands overflowing yield inf (the scalar evaluator raises
  ``OverflowError``).  :mod:`repro.numerics.hazards` classifies a hazard
  witness by exactly this rule: a kernel evaluation that comes back NaN
  or inf is a ``hazard``, a finite kernel value is ``benign``.
* ``Ite`` compiles to ``np.where``: **both** branches are evaluated and
  the untaken branch's NaN/inf never leaks into the result -- but also
  never short-circuits, which is the ``branch_aware=False`` reachability
  semantics of the hazard analysis.
* Ite guards compare their operands **directly** (``lhs op rhs``), never
  via the rounded difference ``(lhs - rhs) op 0``: for finite doubles the
  two agree (gradual underflow makes ``lhs - rhs == 0`` iff
  ``lhs == rhs`` and rounding preserves the difference's sign), but when
  both operands overflow to the same infinity the subtraction
  manufactures ``inf - inf = NaN``, every ``op 0`` test fails, and the
  gap encoding silently takes the else branch where the direct
  comparison still orders the operands correctly.  A NaN guard *operand*
  makes the comparison False (else branch) here, while the scalar
  evaluator raises -- a deliberate divergence.
* Sums of three or more terms are correctly rounded (``_fsum``), so they
  equal the scalar evaluator's ``math.fsum``; a left-to-right
  ``a + b + c`` cancels ``1 + 1e308 - 1e308`` to 0 where ``fsum`` gives
  1, which flips an Ite guard.  Where ``fsum`` raises (``inf - inf``,
  intermediate overflow) the kernel sums left to right.
* ``Pow`` values (and hence guard *operands* containing ``Pow``) may
  differ from the scalar evaluator by an ulp: small integer exponents
  lower to multiplication chains and larger ones to ``np.power``, while
  the scalar evaluator goes through libm ``pow`` -- three rounding
  strategies that disagree in the last place (``0.3**4``:
  ``(x*x)*(x*x)`` and ``math.pow`` round up, ``np.power`` rounds down;
  per-element libm in the kernel would defeat vectorisation, exactly
  why the batched tape executor runs Pow per column on Python floats).
  Direct comparison is therefore bit-identical between kernel and scalar
  only for operands built from add/mul/const/var; a guard whose operands
  contain ``Pow`` can pick the other branch at an exact tie (witness:
  ``ite(x**3*y < x**4, 1, -1)`` at ``x = y = 0.3``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .nodes import Add, Const, Expr, Func, Ite, Mul, Pow, Var

#: version stamp of the compiled kernels' value semantics.  Folded into
#: the numerics cell keys (hazard witnesses and sensitivity maxima are
#: kernel values), so store entries computed under other rounding miss
#: cleanly.  v1: sums of three or more terms are correctly rounded.
CODEGEN_SEMANTICS_VERSION = 1

_FUNC_TEMPLATES = {
    "exp": "np.exp({0})",
    "log": "np.log({0})",
    "sqrt": "np.sqrt({0})",
    "cbrt": "np.cbrt({0})",
    "atan": "np.arctan({0})",
    "abs": "np.abs({0})",
    "lambertw": "_lambertw_real({0})",
    "sin": "np.sin({0})",
    "cos": "np.cos({0})",
    "tanh": "np.tanh({0})",
    "erf": "_erf({0})",
}

_OP_STR = {"<=": "<=", "<": "<", ">=": ">=", ">": ">", "==": "=="}


def _lambertw_real(x):
    from scipy.special import lambertw
    return np.real(lambertw(x))


def _erf(x):
    from scipy.special import erf
    return erf(x)


def _two_sum(a, b):
    """Knuth's error-free sum: ``hi = fl(a + b)`` and ``hi + lo == a + b``."""
    hi = a + b
    b_virtual = hi - a
    a_virtual = hi - b_virtual
    return hi, (a - a_virtual) + (b - b_virtual)


#: elements per block of :func:`_fsum`: its temporaries stay in cache
_FSUM_BLOCK = 16384


def _fsum(*terms):
    """Elementwise ``math.fsum``: the correctly rounded sum of ``terms``.

    Kernel and scalar evaluator thus return the same value for n-ary
    sums.  Large arrays go block by block along the first axis, so the
    temporaries stay in cache instead of streaming through memory.
    """
    terms = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in terms))
    shape = terms[0].shape
    if not shape or terms[0].size <= _FSUM_BLOCK:
        return _fsum_block(terms)
    rows = max(1, _FSUM_BLOCK * shape[0] // terms[0].size)
    out = np.empty(shape)
    for i in range(0, shape[0], rows):
        out[i:i + rows] = _fsum_block([t[i:i + rows] for t in terms])
    return out


def _fsum_block(terms):
    """:func:`_fsum` on one block.

    A compensated left-to-right sum settles almost every element: when
    adding up the cascade's rounding errors ``err`` loses nothing,
    ``total + err`` is the exact sum, so one IEEE add of the two rounds
    it correctly, ties included.  The rest -- non-finite results, and
    the rare element whose errors do not add exactly -- go through
    :func:`_fsum_expansion`.
    """
    total, err = _two_sum(terms[0], terms[1])
    exact = True
    for t in terms[2:]:
        total, q = _two_sum(total, t)
        err, lost = _two_sum(err, q)
        exact = exact & (lost == 0.0)
    r = total + err
    sure = np.isfinite(r) & exact
    if sure.all():
        return r
    unsure = ~sure
    r = np.asarray(r)  # 0-d inputs come back as NumPy scalars
    r[unsure] = _fsum_expansion([t[unsure] for t in terms])
    return r


def _fsum_expansion(terms):
    """``math.fsum`` elementwise on 1-d arrays, transcribed from CPython.

    Shewchuk's grow-expansion, then the partials are rounded from the top
    with the half-even fix-up.  Partials that come out zero stay in their
    slot instead of being dropped; a zero partial changes no later step.
    Where ``math.fsum`` returns no finite value (a NaN or infinite term,
    intermediate overflow) this sums left to right, so the kernel stays
    total.
    """
    partials: list[np.ndarray] = []
    for x in terms:
        for i, p in enumerate(partials):
            x, partials[i] = _two_sum(x, p)
        partials.append(x)
    hi = partials[-1]
    lo = np.zeros_like(hi)
    inexact = np.zeros(hi.shape, dtype=bool)  # the top-down sum broke off
    below = np.zeros_like(hi)  # first nonzero partial under the break
    for p in reversed(partials[:-1]):
        below = np.where(inexact & (below == 0.0), p, below)
        total = hi + p
        rest = p - (total - hi)
        live = ~inexact
        hi = np.where(live, total, hi)
        lo = np.where(live, rest, lo)
        inexact |= rest != 0.0
    # half-even rounding across partials: the remainder below the break
    # pushes a tie at ``lo`` away from ``hi``
    twice = lo * 2.0
    bumped = hi + twice
    same_sign = ((lo < 0.0) & (below < 0.0)) | ((lo > 0.0) & (below > 0.0))
    tie = same_sign & (bumped - hi == twice)
    exact = np.where(tie, bumped, hi)
    plain = terms[0]
    for t in terms[1:]:
        plain = plain + t
    return np.where(np.isfinite(exact), exact, plain)


def compile_numpy(
    expr: Expr, arg_order: tuple[Var, ...] | None = None
) -> Callable[..., np.ndarray]:
    """Compile ``expr`` into ``f(*arrays) -> ndarray``.

    ``arg_order`` fixes the positional argument order; by default the free
    variables are sorted by name.  The compiled function's source is kept on
    the ``__source__`` attribute for inspection/debugging.
    """
    if arg_order is None:
        arg_order = tuple(sorted(expr.free_vars(), key=lambda v: v.name))
    names = [v.name for v in arg_order]
    free = {v.name for v in expr.free_vars()}
    missing = free - set(names)
    if missing:
        raise ValueError(f"arg_order is missing variables: {sorted(missing)}")

    lines: list[str] = []
    memo: dict[int, str] = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"_t{counter}"

    for node in expr.walk():
        if isinstance(node, Const):
            # repr() of the non-finite floats ("inf", "nan") is not a
            # defined name inside the kernel; spell them as float() calls
            value = node.value
            if value != value or value in (float("inf"), float("-inf")):
                memo[id(node)] = f"float({str(value)!r})"
            else:
                memo[id(node)] = repr(value)
            continue
        if isinstance(node, Var):
            memo[id(node)] = node.name
            continue
        name = fresh()
        if isinstance(node, Add):
            terms = [memo[id(a)] for a in node.args]
            # two terms: one IEEE add is already the correctly rounded sum
            rhs = " + ".join(terms) if len(terms) <= 2 else f"_fsum({', '.join(terms)})"
        elif isinstance(node, Mul):
            rhs = " * ".join(f"({memo[id(a)]})" for a in node.args)
        elif isinstance(node, Pow):
            base, expo = node.base, node.exponent
            if isinstance(expo, Const) and expo.is_integer() and 0 < expo.value <= 4:
                rhs = "(" + " * ".join([f"({memo[id(base)]})"] * int(expo.value)) + ")"
            else:
                rhs = f"np.power(np.asarray(({memo[id(base)]}), dtype=float), {memo[id(expo)]})"
        elif isinstance(node, Func):
            rhs = _FUNC_TEMPLATES[node.name].format(memo[id(node.arg)])
        elif isinstance(node, Ite):
            # direct operand comparison, NOT "(lhs - rhs) op 0": when both
            # operands overflow to the same infinity the subtraction is NaN
            # and every comparison against 0 is False (wrong branch)
            cond = (
                f"({memo[id(node.cond.lhs)]})"
                f" {_OP_STR[node.cond.op]} ({memo[id(node.cond.rhs)]})"
            )
            rhs = f"np.where({cond}, {memo[id(node.then)]}, {memo[id(node.orelse)]})"
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot compile {type(node).__name__}")
        lines.append(f"    {name} = {rhs}")
        memo[id(node)] = name

    result = memo[id(expr)]
    body = "\n".join(lines) if lines else "    pass"
    # broadcast the result to the inputs' common shape *without*
    # arithmetic: the old "+ 0.0*(x+y)" trick poisoned every output to
    # NaN whenever the inputs summed past the overflow boundary
    # (0.0 * inf), which is exactly the regime the hazard analysis
    # evaluates kernels in
    shapes = ["np.shape(_res)"] + [f"np.shape({n})" for n in names]
    source = (
        f"def _kernel({', '.join(names)}):\n"
        "  with np.errstate(all='ignore'):\n"
        f"{body}\n"
        f"    _res = np.asarray({result}, dtype=float)\n"
        f"    return np.broadcast_to(_res, np.broadcast_shapes({', '.join(shapes)})).copy()\n"
    )
    namespace = {"np": np, "_lambertw_real": _lambertw_real, "_erf": _erf, "_fsum": _fsum}
    exec(compile(source, f"<repro-kernel-{id(expr)}>", "exec"), namespace)
    kernel = namespace["_kernel"]
    kernel.__source__ = source
    kernel.__arg_order__ = tuple(names)
    return kernel
