"""Test-only oracles for the solver's differential corpora.

Production runs one execution path: the batched frontier loop
(:meth:`repro.solver.icp.ICPSolver.solve`) over the tape executors.  This
module keeps the independent implementations it used to ship next to
it, so every walk/tape/batch comparison still has a reference to run
against:

* :func:`evaluate_tree` -- the tree-walking point evaluator that
  :func:`repro.expr.evaluator.evaluate` (a tape VM) replaced; both run
  the identical sequence of float operations.
* :class:`WalkContractor` -- the tree-walking HC4 contractor: forward and
  backward passes re-walk the expression DAG per box with ``Interval``
  objects and never touch a tape, so a tape-VM bug cannot leak into both
  sides of a comparison.  (Point probing via ``Atom.holds_at`` uses the
  tape scalar evaluator on both sides; its own oracle is
  :func:`evaluate_tree`, compared directly in ``test_tape.py``.)
* :class:`TapeContractor` -- HC4 over the production tapes, one box at a
  time, with the scalar executors (``Tape.forward_arrays`` /
  ``Tape.backward_arrays``): the per-box reference that
  :meth:`~repro.solver.contractor.HC4Contractor.contract_batch` must
  reproduce box for box, and that must itself agree with
  :class:`WalkContractor`.
* :func:`enclosure` / :func:`enclosure_batch` -- a tape's root enclosure
  over one box (scalar forward) or a batch (batched forward), and
  :func:`decide_cond`, the interval guard decider the walk oracle uses.
* :func:`solve_per_box` -- the classic pop-one-box branch-and-prune loop,
  driving either per-box contractor one box at a time.  Its results,
  models and processed/pruned/split/probe counts are what the frontier
  loop must reproduce for every batch size and budget.
"""

from __future__ import annotations

import math
import time
from collections import deque
from math import inf

from repro.expr.evaluator import SCALAR_FUNCS, EvalError, _env_by_name
from repro.expr.nodes import Add, Const, Expr, Func, Ite, Mul, Pow, Var
from repro.solver.box import Box
from repro.solver.constraint import Conjunction
from repro.solver.icp import Budget, ICPSolver, SolverResult, SolverStats, SolverStatus
from repro.solver.interval import EMPTY, Interval, make, point
from repro.solver.tape import (
    COND_CODE,
    COND_EQ,
    COND_GE,
    COND_GT,
    COND_LE,
    COND_LT,
    CompiledConjunction,
    Tape,
    atanh_interval as _atanh_interval,
    erfinv_interval as _erfinv_interval,
    root_int as _root_int,
    tan_restricted as _tan_restricted,
    tape_for,
    wexpw as _wexpw,
)


# ---------------------------------------------------------------------------
# point evaluation (tree-walk oracle)
# ---------------------------------------------------------------------------

def evaluate_tree(expr: Expr, env: dict[Var | str, float], strict: bool = False) -> float:
    """Tree-walking reference implementation (differential-testing oracle)."""
    by_name = _env_by_name(env)
    memo: dict[int, float] = {}
    try:
        for node in expr.walk():
            memo[id(node)] = _eval_node(node, memo, by_name)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        if strict:
            raise EvalError(str(exc)) from exc
        return math.nan
    return memo[id(expr)]


def _eval_node(node: Expr, memo: dict[int, float], env: dict[str, float]) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Add):
        return math.fsum(memo[id(a)] for a in node.args)
    if isinstance(node, Mul):
        out = 1.0
        for a in node.args:
            out *= memo[id(a)]
        return out
    if isinstance(node, Pow):
        base = memo[id(node.base)]
        expo = memo[id(node.exponent)]
        if base < 0.0 and not float(expo).is_integer():
            raise EvalError(f"negative base {base} to fractional power {expo}")
        if base == 0.0 and expo < 0.0:
            raise EvalError("zero to a negative power")
        return math.pow(base, expo)
    if isinstance(node, Func):
        return _eval_func(node.name, memo[id(node.arg)])
    if isinstance(node, Ite):
        # direct operand comparison (not the rounded difference): identical
        # for finite operands, and still orders two same-sign infinities,
        # where the gap would be NaN -- mirrors the tape VM and the compiled
        # kernel (see repro.expr.codegen, "IEEE-kernel semantics")
        lhs, rhs = memo[id(node.cond.lhs)], memo[id(node.cond.rhs)]
        if math.isnan(lhs) or math.isnan(rhs):
            raise EvalError("NaN in ite condition")
        taken = node.then if node.cond.compare(lhs, rhs) else node.orelse
        return memo[id(taken)]
    raise TypeError(f"cannot evaluate {type(node).__name__}")  # pragma: no cover


def _eval_func(name: str, x: float) -> float:
    try:
        fn = SCALAR_FUNCS[name]
    except KeyError:  # pragma: no cover
        raise TypeError(f"cannot evaluate function {name}") from None
    return fn(x)


# ---------------------------------------------------------------------------
# forward interval evaluation (tree-walk oracle)
# ---------------------------------------------------------------------------

def interval_eval(expr: Expr, box: Box) -> dict[int, Interval]:
    """Forward pass: enclosure for every DAG node given the box."""
    ivals: dict[int, Interval] = {}
    for node in expr.walk():
        ivals[id(node)] = _forward_node(node, ivals, box)
    return ivals


def _forward_node(node: Expr, ivals: dict[int, Interval], box: Box) -> Interval:
    if isinstance(node, Const):
        return point(node.value)
    if isinstance(node, Var):
        try:
            return box[node.name]
        except KeyError:
            raise KeyError(f"box does not bind variable {node.name!r}") from None
    if isinstance(node, Add):
        out = ivals[id(node.args[0])]
        for arg in node.args[1:]:
            out = out + ivals[id(arg)]
        return out
    if isinstance(node, Mul):
        out = ivals[id(node.args[0])]
        for arg in node.args[1:]:
            out = out * ivals[id(arg)]
        return out
    if isinstance(node, Pow):
        base = ivals[id(node.base)]
        expo = ivals[id(node.exponent)]
        if expo.lo == expo.hi:
            return base.pow(expo.lo)
        # general power via exp(e * log(b)); requires positive base
        return (expo * base.log()).exp()
    if isinstance(node, Func):
        arg = ivals[id(node.arg)]
        return _FORWARD_FUNC[node.name](arg)
    if isinstance(node, Ite):
        gap = ivals[id(node.cond.lhs)] - ivals[id(node.cond.rhs)]
        branch = _decide_cond(node.cond.op, gap)
        if branch is True:
            return ivals[id(node.then)]
        if branch is False:
            return ivals[id(node.orelse)]
        return ivals[id(node.then)].hull(ivals[id(node.orelse)])
    raise TypeError(f"cannot interval-evaluate {type(node).__name__}")


_FORWARD_FUNC = {
    "exp": Interval.exp,
    "log": Interval.log,
    "sqrt": Interval.sqrt,
    "cbrt": Interval.cbrt,
    "atan": Interval.atan,
    "abs": Interval.abs,
    "lambertw": Interval.lambertw,
    "sin": Interval.sin,
    "cos": Interval.cos,
    "tanh": Interval.tanh,
    "erf": Interval.erf,
}


def decide_cond(code: int, gap: Interval) -> bool | None:
    """Decide ``gap op 0`` over an interval, or None if undecided.

    ``Interval``-level twin of the tape executors' endpoint deciders
    (``repro.solver.tape._decide_f`` and its batched mask form).
    """
    if gap.is_empty():
        return None
    if code == COND_LE or code == COND_LT:
        strict = code == COND_LT
        if gap.hi <= 0.0 and not (strict and gap.hi == 0.0 and gap.lo == 0.0):
            return True
        if gap.lo > 0.0 or (strict and gap.lo >= 0.0):
            return False
        return None
    if code == COND_GE or code == COND_GT:
        flipped = decide_cond(COND_LE if code == COND_GT else COND_LT, gap)
        return None if flipped is None else not flipped
    if code == COND_EQ:
        if gap.lo == 0.0 and gap.hi == 0.0:
            return True
        if not gap.contains(0.0):
            return False
        return None
    raise ValueError(code)


def _decide_cond(op: str, gap: Interval) -> bool | None:
    """Decide a condition ``gap op 0`` over an interval, or None if unknown."""
    return decide_cond(COND_CODE[op], gap)


# ---------------------------------------------------------------------------
# tape root enclosures
# ---------------------------------------------------------------------------

def enclosure(tape: Tape, box: Box) -> Interval:
    """Interval enclosure of ``tape``'s expression over ``box`` (scalar
    forward pass; the per-box reference of :func:`enclosure_batch`)."""
    los = [0.0] * tape.n_slots  # forward_arrays re-initialises from the templates
    his = [0.0] * tape.n_slots
    tape.forward_arrays(box, los, his)
    lo = los[tape.root]
    hi = his[tape.root]
    if not lo <= hi:
        return EMPTY
    return Interval(lo, hi)


def enclosure_batch(tape: Tape, boxes: list[Box]):
    """Root enclosure endpoints over a batch of boxes.

    Returns the root row of a ``Tape.forward_batch`` run as two 1-d
    arrays ``(root_lo, root_hi)``; a column with ``lo > hi`` (or NaN)
    encodes an empty enclosure, exactly like :func:`enclosure` returning
    :data:`~repro.solver.interval.EMPTY`.
    """
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat)
    return lo_mat[tape.root].copy(), hi_mat[tape.root].copy()


# ---------------------------------------------------------------------------
# backward propagation (tree-walk oracle)
# ---------------------------------------------------------------------------

def _narrow(ivals: dict[int, Interval], node: Expr, allowed: Interval) -> bool:
    """Intersect the stored enclosure of ``node``; return False if empty."""
    current = ivals[id(node)]
    updated = current.intersect(allowed)
    ivals[id(node)] = updated
    return not updated.is_empty()


def _backward_pow(node: Pow, ivals: dict[int, Interval]) -> bool:
    out = ivals[id(node)]
    base = ivals[id(node.base)]
    expo = ivals[id(node.exponent)]
    if expo.lo != expo.hi:
        # non-constant exponent: propagate through exp(e*log(b)) form
        # log(out) = e * log(b)
        log_out = out.log()
        log_base = base.log()
        if not log_base.is_empty() and not log_out.is_empty():
            # narrow e
            if not (log_base.lo <= 0.0 <= log_base.hi):
                if not _narrow(ivals, node.exponent, log_out / log_base):
                    return False
            # narrow b: log(b) = log(out)/e
            expo2 = ivals[id(node.exponent)]
            if not (expo2.lo <= 0.0 <= expo2.hi):
                if not _narrow(ivals, node.base, (log_out / expo2).exp()):
                    return False
        return True
    p = expo.lo
    if float(p).is_integer() and abs(p) < 2**31:
        n = int(p)
        if n == 0:
            return True
        if n > 0:
            inv = _root_int(out, n, base)
        else:
            recip = out.inverse()
            inv = _root_int(recip, -n, base)
        return _narrow(ivals, node.base, inv)
    # fractional exponent: base >= 0 and monotone
    inv = out.pow_real(1.0 / p)
    return _narrow(ivals, node.base, inv)


def _backward_node(node: Expr, ivals: dict[int, Interval]) -> bool:
    """Push the (already narrowed) enclosure of ``node`` to its children.

    Returns False if some child's enclosure becomes empty (box infeasible).
    """
    out = ivals[id(node)]
    if out.is_empty():
        return False

    if isinstance(node, (Const, Var)):
        return True

    if isinstance(node, Add):
        args = node.args
        n = len(args)
        # prefix[i] = sum of enclosures of args[:i]; suffix[i] = sum args[i+1:]
        prefix = [point(0.0)] * (n + 1)
        for i, arg in enumerate(args):
            prefix[i + 1] = prefix[i] + ivals[id(arg)]
        suffix = [point(0.0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + ivals[id(args[i])]
        for i, arg in enumerate(args):
            others = prefix[i] + suffix[i + 1]
            if not _narrow(ivals, arg, out - others):
                return False
        return True

    if isinstance(node, Mul):
        args = node.args
        n = len(args)
        prefix = [point(1.0)] * (n + 1)
        for i, arg in enumerate(args):
            prefix[i + 1] = prefix[i] * ivals[id(arg)]
        suffix = [point(1.0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * ivals[id(args[i])]
        for i, arg in enumerate(args):
            others = prefix[i] * suffix[i + 1]
            if others.lo <= 0.0 <= others.hi and others.lo != others.hi:
                continue  # division through zero gives no contraction
            if others.lo == 0.0 and others.hi == 0.0:
                continue
            if not _narrow(ivals, arg, out / others):
                return False
        return True

    if isinstance(node, Pow):
        return _backward_pow(node, ivals)

    if isinstance(node, Func):
        arg = node.arg
        name = node.name
        if name == "exp":
            return _narrow(ivals, arg, out.log())
        if name == "log":
            return _narrow(ivals, arg, out.exp())
        if name == "sqrt":
            return _narrow(ivals, arg, out.intersect(make(0.0, inf)).pow_int(2))
        if name == "cbrt":
            return _narrow(ivals, arg, out.pow_int(3))
        if name == "atan":
            return _narrow(ivals, arg, _tan_restricted(out))
        if name == "abs":
            mag = out.intersect(make(0.0, inf))
            if mag.is_empty():
                return False
            current = ivals[id(arg)]
            pos = mag.intersect(current)
            neg = (-mag).intersect(current)
            return _narrow(ivals, arg, pos.hull(neg))
        if name == "tanh":
            return _narrow(ivals, arg, _atanh_interval(out))
        if name == "erf":
            return _narrow(ivals, arg, _erfinv_interval(out))
        if name == "lambertw":
            return _narrow(ivals, arg, _wexpw(out))
        # sin/cos: non-invertible over wide ranges; skip (sound)
        return True

    if isinstance(node, Ite):
        gap = ivals[id(node.cond.lhs)] - ivals[id(node.cond.rhs)]
        branch = _decide_cond(node.cond.op, gap)
        if branch is True:
            return _narrow(ivals, node.then, out)
        if branch is False:
            return _narrow(ivals, node.orelse, out)
        return True  # undecided: no sound single-branch propagation

    raise TypeError(f"cannot backward-propagate {type(node).__name__}")


# ---------------------------------------------------------------------------
# tree-walk HC4 contractor
# ---------------------------------------------------------------------------

class WalkContractor:
    """HC4 contraction by re-walking each atom's residual DAG per box.

    Same interface as :class:`TapeContractor` (``contract``,
    ``certainly_sat``); needs expression-level atoms.
    """

    def __init__(self, formula: Conjunction, delta: float = 1e-5):
        if isinstance(formula, CompiledConjunction):
            raise ValueError("the walk oracle needs expression-level atoms")
        self.formula = formula
        self.delta = delta
        self._orders = [list(atom.residual.walk()) for atom in formula.atoms]

    def contract(self, box: Box, rounds: int = 2) -> Box:
        """Iterate HC4-revise over all atoms up to ``rounds`` fixpoint rounds."""
        for _ in range(max(1, rounds)):
            changed = False
            for i, atom in enumerate(self.formula.atoms):
                new_box = self._revise(i, atom.residual, box)
                if new_box.is_empty():
                    return new_box
                if new_box != box:
                    changed = True
                    box = new_box
            if not changed:
                break
        return box

    def _revise(self, i: int, root: Expr, box: Box) -> Box:
        order = self._orders[i]
        ivals: dict[int, Interval] = {}
        for node in order:
            ivals[id(node)] = _forward_node(node, ivals, box)

        if ivals[id(root)].is_empty():
            return Box({name: EMPTY for name in box.names})
        allowed = make(-inf, self.delta)
        narrowed = ivals[id(root)].intersect(allowed)
        if narrowed.is_empty():
            return Box({name: EMPTY for name in box.names})
        if ivals[id(root)].is_subset(allowed):
            return box  # atom gives no pruning information
        ivals[id(root)] = narrowed

        for node in reversed(order):
            if not _backward_node(node, ivals):
                return Box({name: EMPTY for name in box.names})

        out = {name: box[name] for name in box.names}
        for node in order:
            if isinstance(node, Var) and node.name in out:
                out[node.name] = out[node.name].intersect(ivals[id(node)])
        return Box(out)

    def certainly_sat(self, box: Box) -> bool:
        """True if every atom holds on the *whole* box (within delta)."""
        allowed = make(-inf, self.delta)
        for atom, order in zip(self.formula.atoms, self._orders):
            ivals: dict[int, Interval] = {}
            for node in order:
                ivals[id(node)] = _forward_node(node, ivals, box)
            root = ivals[id(atom.residual)]
            if root.is_empty() or not root.is_subset(allowed):
                return False
        return True


# ---------------------------------------------------------------------------
# per-box tape HC4 contractor
# ---------------------------------------------------------------------------

class TapeContractor:
    """HC4 contraction one box at a time over the production tapes.

    Builds the same per-atom tapes as
    :class:`~repro.solver.contractor.HC4Contractor` (``formula`` may be a
    :class:`Conjunction` or a :class:`CompiledConjunction`) and runs them
    with the scalar executors, ``Tape.forward_arrays`` and
    ``Tape.backward_arrays``, into preallocated per-atom slot arrays.
    """

    def __init__(self, formula, delta: float = 1e-5):
        self.delta = delta
        if isinstance(formula, CompiledConjunction):
            self._tapes = [atom.tape for atom in formula.atoms]
        else:
            self._tapes = [tape_for(atom.residual) for atom in formula.atoms]
        # preallocated per-slot lo/hi endpoint arrays, one pair per atom
        self._los = [[0.0] * t.n_slots for t in self._tapes]
        self._his = [[0.0] * t.n_slots for t in self._tapes]

    def contract(self, box: Box, rounds: int = 2) -> Box:
        """Iterate HC4-revise over all atoms up to ``rounds`` fixpoint rounds."""
        for _ in range(max(1, rounds)):
            changed = False
            for i in range(len(self._tapes)):
                new_box = self._revise(i, box)
                if new_box.is_empty():
                    return new_box
                if new_box != box:
                    changed = True
                    box = new_box
            if not changed:
                break
        return box

    def _revise(self, i: int, box: Box) -> Box:
        """One HC4-revise of atom ``i`` on ``box`` (see :meth:`contract`)."""
        tape = self._tapes[i]
        los = self._los[i]
        his = self._his[i]
        # NB: empty sub-enclosures (domain clipping) are *not* fatal here:
        # they may sit in an untaken ITE branch, where hull() ignores them.
        # Only an empty root enclosure makes the atom unsatisfiable.
        tape.forward_arrays(box, los, his)

        root = tape.root
        root_lo = los[root]
        root_hi = his[root]
        delta = self.delta
        if not root_lo <= root_hi or root_lo > delta:
            # empty root enclosure, or no overlap with (-inf, delta]
            return Box({name: EMPTY for name in box.names})
        if root_hi <= delta:
            return box  # atom gives no pruning information
        his[root] = delta  # intersect root with the allowed set

        if not tape.backward_arrays(los, his):
            return Box({name: EMPTY for name in box.names})

        out = {name: box[name] for name in box.names}
        for name, slot in tape.var_slots:
            if name in out:
                out[name] = out[name].intersect(Interval(los[slot], his[slot]))
        return Box(out)

    def certainly_sat(self, box: Box) -> bool:
        """True if every atom holds on the *whole* box (within delta)."""
        for i, tape in enumerate(self._tapes):
            los = self._los[i]
            his = self._his[i]
            tape.forward_arrays(box, los, his)
            root = tape.root
            if not los[root] <= his[root] or his[root] > self.delta:
                return False
        return True


# ---------------------------------------------------------------------------
# per-box branch-and-prune loop
# ---------------------------------------------------------------------------

def solve_per_box(
    solver: ICPSolver,
    formula: Conjunction,
    domain: Box,
    budget: Budget | None = None,
    executor: str = "tape",
) -> SolverResult:
    """Classic pop-one-box loop (FIFO, HC4, probe, bisect) with
    ``solver``'s delta and precision.

    ``executor="tape"`` contracts each box with :class:`TapeContractor`
    (the production tapes, one box at a time); ``"walk"`` uses
    :class:`WalkContractor`.
    """
    if executor == "walk":
        contractor = WalkContractor(formula, delta=solver.delta)
    else:
        contractor = TapeContractor(formula, delta=solver.delta)
    max_steps = (budget or Budget()).max_steps
    stats = SolverStats()
    t0 = time.monotonic()

    def done(status, model=None):
        stats.elapsed_seconds = time.monotonic() - t0
        return SolverResult(status, model, stats)

    worklist: deque[Box] = deque([domain])
    while worklist:
        if stats.boxes_processed >= max_steps:
            return done(SolverStatus.TIMEOUT)
        box = worklist.popleft()
        stats.boxes_processed += 1

        if box.is_empty():
            stats.boxes_pruned += 1
            continue

        box = contractor.contract(box)
        if box.is_empty():
            stats.boxes_pruned += 1
            continue

        probe = box.midpoint()
        if formula.holds_at(probe):
            stats.probe_hits += 1
            return done(SolverStatus.DELTA_SAT, probe)

        if box.max_width() <= solver.precision:
            # cannot prune, cannot split: delta-SAT by delta-completeness
            return done(SolverStatus.DELTA_SAT, box.midpoint())

        if contractor.certainly_sat(box):
            return done(SolverStatus.DELTA_SAT, box.midpoint())

        left, right = box.split()
        stats.boxes_split += 1
        worklist.append(left)
        worklist.append(right)

    return done(SolverStatus.UNSAT)


def assert_results_identical(r1, r2) -> None:
    """Status, model and the per-box counters the oracle loop keeps."""
    assert r1.status == r2.status
    assert r1.model == r2.model
    assert r1.stats.boxes_processed == r2.stats.boxes_processed
    assert r1.stats.boxes_pruned == r2.stats.boxes_pruned
    assert r1.stats.boxes_split == r2.stats.boxes_split
    assert r1.stats.probe_hits == r2.stats.probe_hits
