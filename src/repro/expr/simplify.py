"""Global simplification passes over expression DAGs.

The canonicalising constructors (:mod:`repro.expr.builder`) apply *local*,
always-sound rewrites at build time.  This module adds the global passes
that need a view of whole subtrees:

* :func:`factor_sums` -- pull maximal common factors out of sums,
  ``a*b + a*c -> a*(b + c)``.  Besides shrinking the term, this is an
  interval-quality rewrite: the factored form evaluates each shared factor
  once, cutting the dependency-problem overestimation that makes HC4
  pruning weak (the same reason Horner form beats expanded polynomials).
* :func:`merge_exponentials` -- ``exp(a) * exp(b) -> exp(a + b)``; sums of
  exponents contract better than products of exponentials.
* :func:`specialize` -- narrow an expression to a :class:`~repro.solver.box.Box`:
  variables pinned to a point interval become constants, and
  :class:`~repro.expr.nodes.Ite` guards decidable from the box's interval
  enclosures are folded away, dropping unreachable branches.  On
  subdomains away from alpha = 1 this collapses SCAN's piecewise
  switching functions into a single analytic piece.
* :func:`simplify` -- fixpoint driver over the above.

Every pass is semantics-preserving on the functionals' input domains
(rs > 0, s >= 0, alpha >= 0); the property tests check equivalence by
random evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import builder as b
from .nodes import Add, Const, Expr, Func, Ite, Mul, Pow, Rel, Var

__all__ = [
    "factor_sums",
    "merge_exponentials",
    "specialize",
    "simplify",
    "SimplifyStats",
]


@dataclass(frozen=True)
class SimplifyStats:
    """Operation counts before/after a :func:`simplify` run."""

    ops_before: int
    ops_after: int
    rounds: int

    @property
    def reduction(self) -> float:
        if self.ops_before == 0:
            return 0.0
        return 1.0 - self.ops_after / self.ops_before


# ---------------------------------------------------------------------------
# generic bottom-up rebuild
# ---------------------------------------------------------------------------

def _rebuild(expr: Expr, rule) -> Expr:
    """Rebuild the DAG bottom-up, applying ``rule`` at every rebuilt node.

    ``rule(node) -> Expr`` receives a node whose children are already
    rebuilt and may return a replacement (or the node unchanged).
    """
    memo: dict[int, Expr] = {}
    for node in expr.walk():
        if isinstance(node, (Const, Var)):
            out = node
        elif isinstance(node, Add):
            out = b.add(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Mul):
            out = b.mul(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Pow):
            out = b.pow_(memo[id(node.base)], memo[id(node.exponent)])
        elif isinstance(node, Func):
            out = getattr(b, _CTOR[node.name])(memo[id(node.arg)])
        elif isinstance(node, Ite):
            cond = Rel.make(
                memo[id(node.cond.lhs)], memo[id(node.cond.rhs)], node.cond.op
            )
            out = b.ite(cond, memo[id(node.then)], memo[id(node.orelse)])
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node).__name__}")
        memo[id(node)] = rule(out)
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


# ---------------------------------------------------------------------------
# pass: factor common terms out of sums
# ---------------------------------------------------------------------------

def _factor_map(term: Expr) -> tuple[float, dict[int, tuple[Expr, float]]]:
    """Decompose a term into (coefficient, {id(base): (base, const_exponent)}).

    Only constant exponents participate in factoring; a plain factor
    counts as exponent 1.
    """
    coeff = 1.0
    factors: dict[int, tuple[Expr, float]] = {}

    def put(base: Expr, expo: float) -> None:
        key = id(base)
        if key in factors:
            factors[key] = (base, factors[key][1] + expo)
        else:
            factors[key] = (base, expo)

    items = term.args if isinstance(term, Mul) else (term,)
    for f in items:
        if isinstance(f, Const):
            coeff *= f.value
        elif isinstance(f, Pow) and isinstance(f.exponent, Const):
            put(f.base, f.exponent.value)
        else:
            put(f, 1.0)
    return coeff, factors


def _factor_add(node: Add) -> Expr:
    terms = node.args
    decomposed = [_factor_map(t) for t in terms]
    # constant terms (empty factor map) block factoring
    if any(not factors for _, factors in decomposed):
        return node

    first = decomposed[0][1]
    common: dict[int, tuple[Expr, float]] = {}
    for key, (base, expo) in first.items():
        common[key] = (base, expo)
    for _, factors in decomposed[1:]:
        nxt: dict[int, tuple[Expr, float]] = {}
        for key, (base, expo) in common.items():
            if key in factors:
                other = factors[key][1]
                shared = min(expo, other)
                # keep only same-sign shared exponents > 0 in magnitude
                if shared > 0.0 or (expo < 0.0 and other < 0.0):
                    shared = min(expo, other) if expo > 0 else max(expo, other)
                    nxt[key] = (base, shared)
        common = nxt
        if not common:
            return node

    common_factors = [b.pow_(base, expo) for base, expo in common.values()]
    reduced_terms = []
    for (coeff, factors), term in zip(decomposed, terms):
        rest = [b.as_expr(coeff)] if coeff != 1.0 else []
        for key, (base, expo) in factors.items():
            remaining = expo - (common[key][1] if key in common else 0.0)
            if remaining != 0.0:
                rest.append(b.pow_(base, remaining))
        reduced_terms.append(b.mul(*rest) if rest else b.as_expr(1.0))
    out = b.mul(*common_factors, b.add(*reduced_terms))
    # factoring can *grow* the DAG (e.g. x + x**3 -> x * (1 + x**2) adds a
    # Mul without removing anything); keep the original in that case so
    # simplify() never increases the operation count
    if out.operation_count() >= node.operation_count():
        return node
    return out


def factor_sums(expr: Expr) -> Expr:
    """Pull maximal common factors out of every sum in the DAG."""

    def rule(node: Expr) -> Expr:
        if isinstance(node, Add):
            return _factor_add(node)
        return node

    return _rebuild(expr, rule)


# ---------------------------------------------------------------------------
# pass: merge exponentials in products
# ---------------------------------------------------------------------------

def _merge_mul_exp(node: Mul) -> Expr:
    exp_args = []
    rest = []
    for f in node.args:
        if isinstance(f, Func) and f.name == "exp":
            exp_args.append(f.arg)
        elif (
            isinstance(f, Pow)
            and isinstance(f.base, Func)
            and f.base.name == "exp"
        ):
            exp_args.append(b.mul(f.exponent, f.base.arg))
        else:
            rest.append(f)
    if len(exp_args) < 2:
        return node
    return b.mul(*rest, b.exp(b.add(*exp_args)))


def merge_exponentials(expr: Expr) -> Expr:
    """Rewrite ``exp(a) * exp(b)`` into ``exp(a + b)`` throughout."""

    def rule(node: Expr) -> Expr:
        if isinstance(node, Mul):
            return _merge_mul_exp(node)
        return node

    return _rebuild(expr, rule)


# ---------------------------------------------------------------------------
# pass: specialise to a box
# ---------------------------------------------------------------------------

def specialize(expr: Expr, box) -> Expr:
    """Narrow ``expr`` to ``box``: pin point variables, fold decided guards.

    Guards are decided with interval enclosures over the box (sound:
    a guard is only folded when its truth value is the same for *every*
    point of the box), so unreachable Ite branches -- and any hazards or
    complexity they carry -- disappear from the expression.
    """
    from ..solver.tape import COND_CODE, decide_cond, tape_for  # shared decision logic

    pins = {}
    for name in box.names:
        iv = box[name]
        if iv.lo == iv.hi:
            pins[name] = iv.lo

    def rule(node: Expr) -> Expr:
        if isinstance(node, Var) and node.name in pins:
            return b.as_expr(pins[node.name])
        if isinstance(node, Ite):
            gap = tape_for(b.sub(node.cond.lhs, node.cond.rhs)).enclosure(box)
            decided = decide_cond(COND_CODE[node.cond.op], gap)
            if decided is True:
                return node.then
            if decided is False:
                return node.orelse
        return node

    return _rebuild(expr, rule)


# ---------------------------------------------------------------------------
# fixpoint driver
# ---------------------------------------------------------------------------

def simplify(
    expr: Expr, box=None, max_rounds: int = 4
) -> tuple[Expr, SimplifyStats]:
    """Run all passes to a fixpoint (bounded by ``max_rounds``).

    Returns the simplified expression and the op-count statistics.  With a
    ``box``, :func:`specialize` runs first so later passes see the pruned
    expression.
    """
    before = expr.operation_count()
    current = expr
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        nxt = current
        if box is not None:
            nxt = specialize(nxt, box)
        nxt = merge_exponentials(nxt)
        nxt = factor_sums(nxt)
        if nxt is current:
            break
        current = nxt
    return current, SimplifyStats(
        ops_before=before, ops_after=current.operation_count(), rounds=rounds
    )
