"""Tape-compiled interval VM for the solver hot path.

The HC4 contractor and point probing both used to re-walk hash-consed
expression DAGs for every box, paying per node for an ``isinstance``
dispatch chain and two ``dict[id(node)]`` lookups.
This module linearizes each residual DAG *once* into a flat SSA instruction
tape and re-runs the three executors off that tape:

* every unique DAG node gets one integer *slot* (its SSA value number, in
  topological order);
* constants are folded into a literal pool preloaded into the slot vector;
* each interior node becomes one fixed-shape instruction
  ``(opcode, out_slot, a, b, aux)`` dispatched on a small-integer opcode;
* the backward (HC4-revise) pass runs the same instruction list in
  reverse with each opcode's inverse semantics;
* scalar point evaluation runs the same tape with float semantics.

Every instruction the VM executes performs exactly the same
interval/float operations in the same order as the tree-walking oracles
in ``tests/solver/oracles.py`` and :mod:`repro.expr.evaluator`, and the
backward pass skips only inverses that provably change nothing (see
:meth:`Tape.backward_arrays`), so the two execution strategies agree bit
for bit.  The speedup comes from removing the per-node interpretation
overhead and those no-op inverses.  Tapes are flat picklable data (ints,
floats, strings, tuples), which also lets the process-parallel verifier
ship compiled formulas to workers instead of re-encoding DAGs.
"""

from __future__ import annotations

import math
from math import inf

import numpy as np

from ..expr.evaluator import EvalError, SCALAR_FUNCS
from ..expr.nodes import Add, Const, Expr, Func, Ite, Mul, Pow, Var
from ..scipy_compat import special
from . import kernels as _kern
from .interval import EMPTY, Interval, _POW_CHAIN_MAX, make

__all__ = [
    "FUNC_DOMAINS",
    "func_guard_table",
    "Tape",
    "compile_expr",
    "tape_for",
    "clear_tape_cache",
    "CompiledAtom",
    "CompiledConjunction",
]


# ---------------------------------------------------------------------------
# opcodes and auxiliary encodings
# ---------------------------------------------------------------------------

OP_ADD2 = 0   # out = a + b
OP_MUL2 = 1   # out = a * b
OP_ADDN = 2   # out = fold(+, args); a is a tuple of slots
OP_MULN = 3   # out = fold(*, args); a is a tuple of slots
OP_POW = 4    # out = a ** b; aux preresolves a constant exponent
OP_FUNC = 5   # out = fn(a); b is the function index
OP_ITE = 6    # a = (lhs, rhs, then, orelse); b is the condition op code

#: condition operator codes for Ite guards and relational atoms
COND_LE, COND_LT, COND_GE, COND_GT, COND_EQ = 0, 1, 2, 3, 4
COND_CODE = {"<=": COND_LE, "<": COND_LT, ">=": COND_GE, ">": COND_GT, "==": COND_EQ}

#: function indices (position in the forward/scalar tables below)
FUNC_NAMES = (
    "exp", "log", "sqrt", "cbrt", "atan", "abs",
    "lambertw", "sin", "cos", "tanh", "erf",
)
FUNC_INDEX = {name: i for i, name in enumerate(FUNC_NAMES)}
(F_EXP, F_LOG, F_SQRT, F_CBRT, F_ATAN, F_ABS,
 F_LAMBERTW, F_SIN, F_COS, F_TANH, F_ERF) = range(len(FUNC_NAMES))

_FORWARD_TABLE = (
    Interval.exp, Interval.log, Interval.sqrt, Interval.cbrt,
    Interval.atan, Interval.abs, Interval.lambertw, Interval.sin,
    Interval.cos, Interval.tanh, Interval.erf,
)
_SCALAR_TABLE = tuple(SCALAR_FUNCS[name] for name in FUNC_NAMES)

NINF = -inf
PINF = inf

#: below this batch width the batched interval executors run the scalar
#: per-column code instead of NumPy kernels: per-ufunc-call overhead is
#: flat in the width, so narrow batches are cheaper on Python floats (the
#: two strategies are bit-identical; the threshold is pure tuning).  With
#: Pow/Func rows running as whole-batch kernels, the measured crossover on
#: PBE/LYP/SCAN-class tapes sits at ~20-24 columns.  ``forward_batch`` and
#: ``backward_batch`` take a per-call ``vector_min`` override, which the
#: differential tests use to force the scalar per-column reference
_VECTOR_MIN = 24

#: the backward pass has its own, higher crossover.  A reverse
#: instruction that runs costs ~10 ufunc calls (endpoint products,
#: inverses, narrowing masks) against the forward pass's ~4, and the
#: scalar per-column backward stops early on refuted columns while the
#: vector pass keeps executing them.  Both passes skip a total op whose
#: output was never narrowed, but the scalar pass decides that per column
#: with two float compares while the vector pass pays ~5 ufunc calls to
#: decide it and runs the whole row if any live column moved.  On
#: first-atom residuals of the domain quartered into sub-boxes, the
#: vector pass starts to win at ~64-96 columns (PBE/EC1, SCAN/EC5) and
#: not below 256 (LYP/EC1); before the skip the crossover was ~30
#: (SCAN-class) to ~45-60 (PBE/LYP-class).  The constant stays at 48, the
#: value the skip was measured against
_VECTOR_MIN_BWD = 48

#: forward/backward array kernels in FUNC_NAMES index order; the None
#: backward entries (abs needs the current rows and dispatches to
#: ``_kern._bwd_abs``; sin/cos propagate nothing) are special-cased at
#: the dispatch site
_FWD_KERNELS = tuple(_kern.FWD_FUNC[name] for name in FUNC_NAMES)
_BWD_KERNELS = tuple(_kern.BWD_FUNC[name] for name in FUNC_NAMES)


#: per-process cache of built tape runtimes, keyed by the full persistent
#: state: pool workers unpickle identical tapes on every chunk, and
#: rebuilding the dispatch lists each time is pure waste.  The cached
#: structures are immutable in practice -- executors copy the init
#: templates and only iterate the programs.
_RUNTIME_CACHE: dict = {}
_RUNTIME_CACHE_MAX = 512

#: exp overflow guard shared with the scalar evaluator's ``_scalar_exp``
_EXP_OVERFLOW = 709.0
_LAMBERTW_BRANCH = -1.0 / math.e


def _bad_exp(x):
    return x > _EXP_OVERFLOW


def _bad_log(x):
    return x <= 0.0


def _bad_sqrt(x):
    return x < 0.0


def _bad_lambertw(x):
    return x < _LAMBERTW_BRANCH


#: per-function domain-error predicates (None: total on the reals): the
#: inputs on which the scalar point executor raises (wherever the call
#: sits in the tape) instead of returning a silent NaN.  This is the
#: guard model of the TAPE108 audit in ``statan.tapecheck``
_BATCH_FUNC_BAD = (
    _bad_exp, _bad_log, _bad_sqrt, None, None, None,
    _bad_lambertw, None, None, None, None,
)

#: machine-readable domain metadata of the unary IR functions, indexed
#: like ``FUNC_NAMES``: ``(kind, bound)`` describes the safe-input set
#: (``"le"``: x <= bound, ``"ge"``: x >= bound, ``"gt"``: x > bound),
#: ``None`` marks a function total on the reals.  Inputs outside the safe
#: set make the scalar point executor raise.  ``statan.tapecheck``
#: interprets tapes abstractly over this table and cross-checks it
#: against :data:`_BATCH_FUNC_BAD` at import time, so the two cannot
#: drift apart silently.
FUNC_DOMAINS = (
    ("le", _EXP_OVERFLOW),     # exp: overflow guard above 709
    ("gt", 0.0),               # log
    ("ge", 0.0),               # sqrt
    None, None, None,          # cbrt / atan / abs: total
    ("ge", _LAMBERTW_BRANCH),  # lambertw: principal branch only
    None, None, None, None,    # sin / cos / tanh / erf: total
)


def func_guard_table() -> tuple[bool, ...]:
    """Which IR functions the executors guard against silent NaN.

    Indexed like ``FUNC_NAMES``: True means out-of-domain inputs are
    intercepted (the scalar point executor raises), so a NaN can never
    flow *silently* out of that instruction.  Total functions are
    trivially guarded.
    """
    return tuple(
        bad is not None or FUNC_DOMAINS[i] is None
        for i, bad in enumerate(_BATCH_FUNC_BAD)
    )


def cond_holds(code: int, value: float, tol: float = 0.0) -> bool:
    """Scalar relational check ``value op 0`` with delta-weakening ``tol``."""
    if code == COND_LE:
        return value <= tol
    if code == COND_LT:
        return value < tol
    if code == COND_GE:
        return value >= -tol
    if code == COND_GT:
        return value > -tol
    return abs(value) <= tol


def cond_compare(code: int, lhs: float, rhs: float) -> bool:
    """Decide an Ite guard by direct IEEE comparison of its operands.

    Equivalent to ``cond_holds(code, lhs - rhs)`` for finite operands (the
    rounded difference of two finite doubles is zero exactly when they are
    equal -- subtraction is exact in the subnormal range -- and otherwise
    keeps the exact difference's sign), but stays correct when both
    operands overflow to the same infinity, where the subtraction
    manufactures ``inf - inf = NaN`` and every ``gap op 0`` test is False.
    Callers must reject NaN operands first (every comparison below would
    be False, silently selecting the else branch).  The comparisons
    broadcast, so ndarray operands vectorise through the same code --
    there is deliberately only one decider to diverge from.
    """
    if code == COND_LE:
        return lhs <= rhs
    if code == COND_LT:
        return lhs < rhs
    if code == COND_GE:
        return lhs >= rhs
    if code == COND_GT:
        return lhs > rhs
    return lhs == rhs


# ---------------------------------------------------------------------------
# backward-step primitives (inverse interval forms)
# ---------------------------------------------------------------------------
# These are the single source of truth for the HC4 inverse operations: the
# per-box and batched backward passes call them, and so does the tree-walk
# oracle of the differential tests (tests/solver/oracles.py).

def tan_restricted(x: Interval) -> Interval:
    """tan on an interval inside (-pi/2, pi/2) (inverse of atan)."""
    half_pi = math.pi / 2
    x = x.intersect(make(-half_pi, half_pi))
    if x.is_empty():
        return EMPTY
    lo = -inf if x.lo <= -half_pi + 1e-15 else math.tan(x.lo)
    hi = inf if x.hi >= half_pi - 1e-15 else math.tan(x.hi)
    return make(lo, hi).widened(
        1e-12 * (1.0 + abs(lo) + abs(hi)) if lo != -inf and hi != inf else 0.0
    )


def atanh_interval(x: Interval) -> Interval:
    x = x.intersect(make(-1.0, 1.0))
    if x.is_empty():
        return EMPTY
    # both endpoints need both edge guards: narrowing can pin x.lo to
    # +1.0 (or x.hi to -1.0), where math.atanh raises -- the limit is
    # the right enclosure there, as in erfinv_interval
    lo = -inf if x.lo <= -1.0 else (inf if x.lo >= 1.0 else math.atanh(x.lo))
    hi = inf if x.hi >= 1.0 else (-inf if x.hi <= -1.0 else math.atanh(x.hi))
    return make(lo, hi).widened(1e-14)


def erfinv_interval(x: Interval) -> Interval:
    erfinv = special("erfinv")
    x = x.intersect(make(-1.0, 1.0))
    if x.is_empty():
        return EMPTY
    lo = -inf if x.lo <= -1.0 else float(erfinv(x.lo))
    hi = inf if x.hi >= 1.0 else float(erfinv(x.hi))
    return make(lo, hi).widened(1e-12)


def wexpw(w: Interval) -> Interval:
    """Inverse image of lambertw: x = w * exp(w), monotone for w >= -1."""
    w = w.intersect(make(-1.0, inf))
    if w.is_empty():
        return EMPTY
    return (w * w.exp()).widened(1e-14)


def root_int(y: Interval, n: int, current: Interval) -> Interval:
    """Solve b**n = y for b, intersected with the sign info of ``current``."""
    if n % 2 == 1:
        # odd: monotone bijection on R
        def _nth(v: float) -> float:
            if v == inf or v == -inf:
                return v
            return math.copysign(abs(v) ** (1.0 / n), v)
        return make(_nth(y.lo), _nth(y.hi)).widened(
            1e-14 * (1.0 + abs(y.lo) + abs(y.hi))
        )
    # even: |b| = y**(1/n), y >= 0
    y = y.intersect(make(0.0, inf))
    if y.is_empty():
        return EMPTY
    hi_mag = inf if y.hi == inf else y.hi ** (1.0 / n)
    lo_mag = 0.0 if y.lo <= 0.0 else y.lo ** (1.0 / n)
    hi_mag *= 1.0 + 1e-14
    lo_mag *= 1.0 - 1e-14
    pos = make(lo_mag, hi_mag)
    neg = make(-hi_mag, -lo_mag)
    pos_part = pos.intersect(current)
    neg_part = neg.intersect(current)
    return pos_part.hull(neg_part)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile_expr(expr: Expr) -> "Tape":
    """Linearize an expression DAG into a flat instruction tape.

    Slots are assigned in the same topological (children-first) order the
    tree-walk executors use, so both strategies perform the identical
    sequence of primitive operations.
    """
    order = list(expr.walk())
    slot_of: dict[int, int] = {id(node): i for i, node in enumerate(order)}
    instrs: list[tuple] = []
    var_slots: list[tuple[str, int]] = []
    const_slots: list[tuple[int, float]] = []

    for out, node in enumerate(order):
        if isinstance(node, Const):
            const_slots.append((out, node.value))
        elif isinstance(node, Var):
            var_slots.append((node.name, out))
        elif isinstance(node, Add):
            args = tuple(slot_of[id(a)] for a in node.args)
            if len(args) == 2:
                instrs.append((OP_ADD2, out, args[0], args[1], None))
            else:
                instrs.append((OP_ADDN, out, args, 0, None))
        elif isinstance(node, Mul):
            args = tuple(slot_of[id(a)] for a in node.args)
            if len(args) == 2:
                instrs.append((OP_MUL2, out, args[0], args[1], None))
            else:
                instrs.append((OP_MULN, out, args, 0, None))
        elif isinstance(node, Pow):
            aux = None
            if isinstance(node.exponent, Const):
                p = node.exponent.value
                if float(p).is_integer() and abs(p) < 2**31:
                    aux = ("i", int(p), p)
                else:
                    aux = ("r", p, p)
            instrs.append(
                (OP_POW, out, slot_of[id(node.base)], slot_of[id(node.exponent)], aux)
            )
        elif isinstance(node, Func):
            instrs.append(
                (OP_FUNC, out, slot_of[id(node.arg)], FUNC_INDEX[node.name], node.name)
            )
        elif isinstance(node, Ite):
            args = (
                slot_of[id(node.cond.lhs)],
                slot_of[id(node.cond.rhs)],
                slot_of[id(node.then)],
                slot_of[id(node.orelse)],
            )
            instrs.append((OP_ITE, out, args, COND_CODE[node.cond.op], None))
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot compile {type(node).__name__}")

    return Tape(
        instrs=tuple(instrs),
        n_slots=len(order),
        root=slot_of[id(expr)],
        var_slots=tuple(var_slots),
        const_slots=tuple(const_slots),
    )


class Tape:
    """A compiled expression: flat instructions plus slot metadata.

    The persistent state (``instrs``, ``var_slots``, ``const_slots``,
    ``root``, ``n_slots``) is pure flat data and pickles cheaply; the
    resolved per-instruction dispatch lists are rebuilt on unpickle.

    The interval executors keep per-slot ``lo``/``hi`` endpoints in two
    preallocated float arrays instead of ``Interval`` objects, and inline
    the endpoint arithmetic of the hot opcodes (add/mul chains) directly in
    the dispatch loop: the *values* computed are identical to the
    ``Interval`` methods (same operations, same order, same outward
    rounding), but the per-op allocation and method-call overhead is gone.
    The empty interval is encoded the same way (``lo > hi``).

    The forward program is the instruction list itself.  The expression
    builder folds literal-only subtrees to ``Const``, so no instruction
    of a builder-made tape has only literal operands (a tape built from
    raw node constructors just recomputes such an instruction each pass).
    """

    __slots__ = (
        "instrs", "n_slots", "root", "var_slots", "const_slots",
        "_fwd", "_rev", "_scalar", "_init_los", "_init_his", "_scalar_init",
        "_batch_seed",
    )

    def __init__(self, instrs, n_slots, root, var_slots, const_slots):
        self.instrs = instrs
        self.n_slots = n_slots
        self.root = root
        self.var_slots = var_slots
        self.const_slots = const_slots
        self._build_runtime()

    # -- pickling ----------------------------------------------------------
    def __getstate__(self):
        return (self.instrs, self.n_slots, self.root, self.var_slots, self.const_slots)

    def __setstate__(self, state):
        self.instrs, self.n_slots, self.root, self.var_slots, self.const_slots = state
        # per-process compiled-runtime cache: workers unpickle the same
        # tapes on every chunk, and the runtime structures are immutable
        # once built (templates are copied, instruction lists only
        # iterated), so identical tapes can share one build
        key = (
            tuple(tuple(i) for i in self.instrs),
            self.n_slots,
            self.root,
            tuple(tuple(v) for v in self.var_slots),
            tuple(tuple(c) for c in self.const_slots),
        )
        cached = _RUNTIME_CACHE.get(key)
        if cached is None:
            self._build_runtime()
            if len(_RUNTIME_CACHE) >= _RUNTIME_CACHE_MAX:
                _RUNTIME_CACHE.clear()
            _RUNTIME_CACHE[key] = (
                self._fwd, self._rev, self._scalar, self._init_los,
                self._init_his, self._scalar_init, self._batch_seed,
            )
        else:
            (self._fwd, self._rev, self._scalar, self._init_los,
             self._init_his, self._scalar_init, self._batch_seed) = cached

    def fingerprint(self) -> str:
        """Stable content hash of the tape's persistent state.

        Identical tapes -- same instructions, literal pool (bit-for-bit
        floats), slot layout and root -- hash identically across processes
        and interpreter runs, unlike ``id``-keyed identity or ``hash()``
        (which is salted for strings).  This is the content-address the
        campaign result store keys on.
        """
        return stable_digest(self.__getstate__())

    def runtime_program(self) -> tuple:
        """Read-only snapshot of the built forward runtime.

        Returns ``(fwd, batch_seed, init_los, init_his)`` as tuples: the
        resolved forward instruction list, the slot rows the batched pass
        reloads (the literal pool), and the scalar init templates.  This
        is the introspection surface ``statan.tapecheck`` audits -- it
        must describe exactly what the executors run, so it snapshots the
        live structures rather than recomputing them.
        """
        return (
            tuple(self._fwd),
            tuple(self._batch_seed),
            tuple(self._init_los),
            tuple(self._init_his),
        )

    def _build_runtime(self) -> None:
        # resolve FUNC instructions to bound callables; map the binary
        # fast-path opcodes back to their n-ary form for the backward pass
        fwd: list[tuple] = []
        scalar: list[tuple] = []
        rev: list[tuple] = []
        for op, out, a, b, aux in self.instrs:
            if op == OP_FUNC:
                fwd.append((op, out, a, b, _FORWARD_TABLE[b]))
                scalar.append((op, out, a, b, _SCALAR_TABLE[b]))
            else:
                fwd.append((op, out, a, b, aux))
                scalar.append((op, out, a, b, aux))
        for op, out, a, b, aux in reversed(self.instrs):
            # the root always counts as narrowed (the caller clipped it)
            total = out != self.root and _is_total(op, b, aux)
            if op == OP_ADD2:
                rev.append((OP_ADDN, out, (a, b), 0, None, total))
            elif op == OP_MUL2:
                rev.append((OP_MULN, out, (a, b), 0, None, total))
            else:
                rev.append((op, out, a, b, aux, total))
        self._fwd = fwd
        self._scalar = scalar
        self._rev = rev
        self._init_los = [0.0] * self.n_slots
        self._init_his = [0.0] * self.n_slots
        self._scalar_init = [0.0] * self.n_slots
        for slot, value in self.const_slots:
            self._init_los[slot] = value
            self._init_his[slot] = value
            self._scalar_init[slot] = value
        #: slot rows the batched forward pass (re)loads before executing:
        #: the literal pool
        self._batch_seed = [(s, v, v) for s, v in self.const_slots]

    # -- interval forward pass --------------------------------------------
    def forward_arrays(self, box, los: list, his: list) -> None:
        """Forward interval evaluation into preallocated lo/hi arrays."""
        los[:] = self._init_los
        his[:] = self._init_his
        for name, i in self.var_slots:
            try:
                iv = box[name]
            except KeyError:
                raise KeyError(f"box does not bind variable {name!r}") from None
            los[i] = iv.lo
            his[i] = iv.hi
        self._forward_ops(los, his)

    def _forward_ops(self, los: list, his: list) -> None:
        """Run the forward instructions over fully loaded slot arrays."""
        _run_forward_ops(self._fwd, los, his)

    # -- batched interval forward pass --------------------------------------
    def load_batch(self, boxes) -> tuple[np.ndarray, np.ndarray]:
        """Allocate ``(n_slots, n_boxes)`` endpoint matrices for ``boxes``.

        Column ``j`` of the variable rows holds the endpoints of box ``j``;
        every other row is computed by :meth:`forward_batch`.
        """
        n_boxes = len(boxes)
        lo_mat = np.empty((self.n_slots, n_boxes), dtype=np.float64)
        hi_mat = np.empty((self.n_slots, n_boxes), dtype=np.float64)
        for name, i in self.var_slots:
            row_lo = lo_mat[i]
            row_hi = hi_mat[i]
            for j, box in enumerate(boxes):
                try:
                    iv = box[name]
                except KeyError:
                    raise KeyError(f"box does not bind variable {name!r}") from None
                row_lo[j] = iv.lo
                row_hi[j] = iv.hi
        return lo_mat, hi_mat

    def forward_batch(
        self,
        lo_mat: np.ndarray,
        hi_mat: np.ndarray,
        vector_min: int | None = None,
    ) -> None:
        """Forward interval evaluation over a batch of boxes, in place.

        ``lo_mat``/``hi_mat`` are ``(n_slots, n_boxes)`` float64 matrices
        whose variable rows are already filled (see :meth:`load_batch`);
        constant rows are reloaded here and each instruction is executed
        *once* over all columns.  Every column ends up bit-for-bit equal to
        a :meth:`forward_arrays` run on that box: the endpoint arithmetic
        of add/mul chains and Ite guards is vectorised with the exact same
        operations and outward rounding (``np.nextafter`` elementwise
        matches ``math.nextafter``), Pow/Func rows run the whole-batch
        kernels of :mod:`repro.solver.kernels` (per-column ``Interval``
        calls only for exponents no kernel covers).  The empty interval
        keeps its ``lo > hi`` encoding, and NaN endpoints propagate to
        empty exactly like the per-box comparisons do.  Zero-width batches
        are valid and leave the matrices untouched.
        """
        for slot, lo, hi in self._batch_seed:
            lo_mat[slot] = lo
            hi_mat[slot] = hi
        if lo_mat.shape[1] < (_VECTOR_MIN if vector_min is None else vector_min):
            # narrow batch: NumPy's fixed per-ufunc-call overhead beats the
            # vector win, so run the scalar executor column by column (the
            # .tolist() round trip keeps the arithmetic on Python floats)
            cols_lo = lo_mat.T.tolist()
            cols_hi = hi_mat.T.tolist()
            for j in range(lo_mat.shape[1]):
                self._forward_ops(cols_lo[j], cols_hi[j])
            lo_mat[:] = np.asarray(cols_lo).T
            hi_mat[:] = np.asarray(cols_hi).T
            return
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            self._forward_batch_ops(lo_mat, hi_mat)

    def _forward_batch_ops(self, lo_mat: np.ndarray, hi_mat: np.ndarray) -> None:
        _run_forward_batch_ops(self._fwd, lo_mat, hi_mat)

    def load_batch_arrays(
        self, var_los: dict[str, np.ndarray], var_his: dict[str, np.ndarray], n_boxes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Allocate batch matrices with variable rows taken from arrays."""
        lo_mat = np.empty((self.n_slots, n_boxes), dtype=np.float64)
        hi_mat = np.empty((self.n_slots, n_boxes), dtype=np.float64)
        for name, i in self.var_slots:
            try:
                lo_mat[i] = var_los[name]
                hi_mat[i] = var_his[name]
            except KeyError:
                raise KeyError(f"box does not bind variable {name!r}") from None
        return lo_mat, hi_mat

    # -- batched interval backward (HC4-revise) pass -------------------------
    def backward_batch(
        self,
        lo_mat: np.ndarray,
        hi_mat: np.ndarray,
        vector_min: int | None = None,
    ) -> np.ndarray:
        """Batched backward pass; returns the per-column feasibility mask.

        Runs the reverse tape over ``(n_slots, n_boxes)`` matrices (after a
        :meth:`forward_batch` and a root intersection), narrowing slot rows
        in place.  Column ``j`` of the result is False exactly when
        :meth:`backward_arrays` on that box would have returned False; a
        dead column's remaining instructions keep executing (their values
        are garbage but harmless), whereas the per-box pass stops early --
        the surviving columns see the identical narrowing sequence either
        way.  Add/mul chains and Ite guards are vectorised with the same
        endpoint arithmetic as the scalar pass; Pow/Func inverses run the
        whole-batch kernels (per-column primitives only for exponents no
        kernel covers).  A total op is skipped, as in
        :meth:`backward_arrays`, only when no *live* column's output row
        moved off its forward enclosure; otherwise the whole row runs, a
        no-op on the columns that did not move.
        """
        n_boxes = lo_mat.shape[1]
        alive = np.ones(n_boxes, dtype=bool)
        if n_boxes < (_VECTOR_MIN_BWD if vector_min is None else vector_min):
            # narrow batch: the scalar backward per column is cheaper than
            # the per-ufunc-call overhead of the vector path
            cols_lo = lo_mat.T.tolist()
            cols_hi = hi_mat.T.tolist()
            for j in range(n_boxes):
                alive[j] = self.backward_arrays(cols_lo[j], cols_hi[j])
            lo_mat[:] = np.asarray(cols_lo).T
            hi_mat[:] = np.asarray(cols_hi).T
            return alive
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            self._backward_batch_ops(lo_mat, hi_mat, alive)
        return alive

    def _backward_batch_ops(
        self, lo_mat: np.ndarray, hi_mat: np.ndarray, alive: np.ndarray
    ) -> None:
        fwd_lo = lo_mat.copy()
        fwd_hi = hi_mat.copy()
        for op, out, a, b, aux, total in self._rev:
            olo = lo_mat[out]
            ohi = hi_mat[out]
            # an empty stored enclosure anywhere means infeasibility, as in
            # the per-box pass
            alive &= olo <= ohi
            if not alive.any():
                return
            if total:
                # skip a total op unless some live column's output moved
                # off its forward enclosure (see backward_arrays)
                moved = olo != fwd_lo[out]
                moved |= ohi != fwd_hi[out]
                moved &= alive
                if not moved.any():
                    continue

            if op == OP_ADDN:
                n = len(a)
                zeros = np.zeros_like(olo)
                plo = [zeros] * (n + 1)
                phi = [zeros] * (n + 1)
                clo = zeros
                chi = zeros
                for k in range(n):
                    i = a[k]
                    clo, chi = _add_ep_batch(clo, chi, lo_mat[i], hi_mat[i])
                    plo[k + 1] = clo
                    phi[k + 1] = chi
                slo = [zeros] * (n + 1)
                shi = [zeros] * (n + 1)
                clo = zeros
                chi = zeros
                for k in range(n - 1, -1, -1):
                    i = a[k]
                    clo, chi = _add_ep_batch(clo, chi, lo_mat[i], hi_mat[i])
                    slo[k] = clo
                    shi[k] = chi
                for k in range(n):
                    vlo, vhi = _add_ep_batch(plo[k], phi[k], slo[k + 1], shi[k + 1])
                    # allowed = out - others, with the scalar pass's guards
                    nonempty = vlo <= vhi
                    s = olo - vhi
                    alo = np.nextafter(s, NINF)
                    np.copyto(alo, NINF, where=s != s)
                    s = ohi - vlo
                    ahi = np.nextafter(s, PINF)
                    np.copyto(ahi, PINF, where=s != s)
                    np.copyto(alo, PINF, where=~nonempty)
                    np.copyto(ahi, NINF, where=~nonempty)
                    i = a[k]
                    lo = lo_mat[i]
                    hi = hi_mat[i]
                    np.copyto(lo, alo, where=alo > lo)
                    np.copyto(hi, ahi, where=ahi < hi)
                    alive &= lo <= hi

            elif op == OP_MULN:
                n = len(a)
                ones = np.ones_like(olo)
                plo = [ones] * (n + 1)
                phi = [ones] * (n + 1)
                clo = ones
                chi = ones
                for k in range(n):
                    i = a[k]
                    clo, chi = _mul_ep_batch(clo, chi, lo_mat[i], hi_mat[i])
                    plo[k + 1] = clo
                    phi[k + 1] = chi
                slo = [ones] * (n + 1)
                shi = [ones] * (n + 1)
                clo = ones
                chi = ones
                for k in range(n - 1, -1, -1):
                    i = a[k]
                    clo, chi = _mul_ep_batch(clo, chi, lo_mat[i], hi_mat[i])
                    slo[k] = clo
                    shi[k] = chi
                for k in range(n):
                    vlo, vhi = _mul_ep_batch(plo[k], phi[k], slo[k + 1], shi[k + 1])
                    # division through zero gives no contraction (skip), and
                    # the remaining columns have empty or strictly-signed
                    # [vlo, vhi], so the zero-endpoint inverse cases of
                    # Interval.inverse() stay unreachable columnwise too
                    skip = (vlo <= 0.0) & (0.0 <= vhi) & (vlo != vhi)
                    skip |= (vlo == 0.0) & (vhi == 0.0)
                    empty_v = ~(vlo <= vhi)
                    s = 1.0 / vhi
                    ilo = np.nextafter(s, NINF)
                    np.copyto(ilo, NINF, where=s != s)
                    s = 1.0 / vlo
                    ihi = np.nextafter(s, PINF)
                    np.copyto(ihi, PINF, where=s != s)
                    np.copyto(ilo, PINF, where=empty_v)
                    np.copyto(ihi, NINF, where=empty_v)
                    alo, ahi = _mul_ep_batch(olo, ohi, ilo, ihi)
                    i = a[k]
                    lo = lo_mat[i]
                    hi = hi_mat[i]
                    np.copyto(lo, alo, where=~skip & (alo > lo))
                    np.copyto(hi, ahi, where=~skip & (ahi < hi))
                    alive &= skip | (lo <= hi)

            elif op == OP_POW:
                if aux is not None:
                    if aux[0] == "i":
                        n = aux[1]
                        if n == 0:
                            continue  # x**0: no base information
                        got = (
                            _kern.bwd_pow_int(olo, ohi, n, lo_mat[a], hi_mat[a])
                            if abs(n) <= _POW_CHAIN_MAX
                            else None
                        )
                    else:
                        got = _kern.bwd_pow_real(olo, ohi, aux[1])
                    if got is not None:
                        lo = lo_mat[a]
                        hi = hi_mat[a]
                        wlo, whi = got
                        # narrow only live columns, like the per-column
                        # loop over np.nonzero(alive)
                        np.copyto(lo, wlo, where=alive & (wlo > lo))
                        np.copyto(hi, whi, where=alive & (whi < hi))
                        alive &= lo <= hi
                        continue
                # run the existing scalar inverse per column on plain
                # Python floats (dict shims stand in for the slot arrays;
                # only slots a and b are read or narrowed)
                blo = lo_mat[a].tolist()
                bhi = hi_mat[a].tolist()
                elo = lo_mat[b].tolist()
                ehi = hi_mat[b].tolist()
                olo_l = olo.tolist()
                ohi_l = ohi.tolist()
                for j in np.nonzero(alive)[0]:
                    los_d = {a: blo[j], b: elo[j]}
                    his_d = {a: bhi[j], b: ehi[j]}
                    ok = _backward_pow(
                        los_d, his_d, Interval(olo_l[j], ohi_l[j]), a, b, aux
                    )
                    blo[j] = los_d[a]
                    bhi[j] = his_d[a]
                    elo[j] = los_d[b]
                    ehi[j] = his_d[b]
                    if not ok:
                        alive[j] = False
                lo_mat[a] = blo
                hi_mat[a] = bhi
                lo_mat[b] = elo
                hi_mat[b] = ehi

            elif op == OP_FUNC:
                if b == F_SIN or b == F_COS:
                    continue  # non-invertible over wide ranges (sound)
                lo = lo_mat[a]
                hi = hi_mat[a]
                if b == F_ABS:
                    wlo, whi = _kern._bwd_abs(olo, ohi, lo, hi)
                else:
                    wlo, whi = _BWD_KERNELS[b](olo, ohi)
                np.copyto(lo, wlo, where=alive & (wlo > lo))
                np.copyto(hi, whi, where=alive & (whi < hi))
                alive &= lo <= hi

            else:  # OP_ITE
                lhs, rhs, then, orelse = a
                is_true, is_false = _decide_gap_batch(b, lo_mat, hi_mat, lhs, rhs)
                for mask, target in ((is_true, then), (is_false, orelse)):
                    lo = lo_mat[target]
                    hi = hi_mat[target]
                    np.copyto(lo, olo, where=mask & (olo > lo))
                    np.copyto(hi, ohi, where=mask & (ohi < hi))
                    alive &= ~mask | (lo <= hi)

    # -- interval backward (HC4-revise) pass --------------------------------
    def backward_arrays(self, los: list, his: list) -> bool:
        """Push narrowed enclosures down the tape; False if a slot empties.

        ``los``/``his`` hold a forward pass with the root already
        intersected with the allowed set.  Every instruction the pass
        executes mirrors the tree-walk ``_backward_node`` (including its
        treatment of an empty stored enclosure anywhere as
        infeasibility, checked at every instruction), so contraction
        results are identical.  The pass skips the body of a *total* op
        (see :func:`_is_total`) whose output slot still holds its forward
        enclosure: the inverse of an unnarrowed output contains the whole
        input, so intersecting with it changes nothing.  Real- and
        variable-exponent powers, log, sqrt and lambertw always run,
        because their inverse also clips the input to the function's
        domain; cbrt always runs because its forward enclosure is not
        tight enough for the cube to contain the input (see
        :data:`_ALWAYS_RUN_FUNCS`); so does the root's instruction.
        """
        nextafter = math.nextafter
        fwd_los = los[:]
        fwd_his = his[:]
        for op, out, a, b, aux, total in self._rev:
            olo = los[out]
            ohi = his[out]
            if not olo <= ohi:
                return False
            if total and olo == fwd_los[out] and ohi == fwd_his[out]:
                continue  # output never narrowed: the inverse is a no-op

            if op == OP_ADDN:
                n = len(a)
                # prefix[i] = sum of args[:i]; suffix[i] = sum of args[i:]
                plo = [0.0] * (n + 1); phi = [0.0] * (n + 1)
                clo = 0.0; chi = 0.0
                for k in range(n):
                    i = a[k]
                    blo = los[i]; bhi = his[i]
                    if clo <= chi and blo <= bhi:
                        s = clo + blo
                        clo = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                        s = chi + bhi
                        chi = PINF if (s != s or s == PINF) else nextafter(s, PINF)
                    else:
                        clo = PINF; chi = NINF
                    plo[k + 1] = clo; phi[k + 1] = chi
                slo = [0.0] * (n + 1); shi = [0.0] * (n + 1)
                clo = 0.0; chi = 0.0
                for k in range(n - 1, -1, -1):
                    i = a[k]
                    blo = los[i]; bhi = his[i]
                    if clo <= chi and blo <= bhi:
                        s = clo + blo
                        clo = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                        s = chi + bhi
                        chi = PINF if (s != s or s == PINF) else nextafter(s, PINF)
                    else:
                        clo = PINF; chi = NINF
                    slo[k] = clo; shi[k] = chi
                for k in range(n):
                    # others = prefix[k] + suffix[k+1]
                    alo = plo[k]; ahi = phi[k]; blo = slo[k + 1]; bhi = shi[k + 1]
                    if alo <= ahi and blo <= bhi:
                        s = alo + blo
                        vlo = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                        s = ahi + bhi
                        vhi = PINF if (s != s or s == PINF) else nextafter(s, PINF)
                        # allowed = out - others
                        if vlo <= vhi:
                            s = olo - vhi
                            alo = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                            s = ohi - vlo
                            ahi = PINF if (s != s or s == PINF) else nextafter(s, PINF)
                        else:
                            alo = PINF; ahi = NINF
                    else:
                        alo = PINF; ahi = NINF
                    i = a[k]
                    lo = los[i]; hi = his[i]
                    if alo > lo:
                        lo = alo
                    if ahi < hi:
                        hi = ahi
                    los[i] = lo; his[i] = hi
                    if not lo <= hi:
                        return False

            elif op == OP_MULN:
                n = len(a)
                plo = [1.0] * (n + 1); phi = [1.0] * (n + 1)
                clo = 1.0; chi = 1.0
                for k in range(n):
                    i = a[k]
                    blo = los[i]; bhi = his[i]
                    clo, chi = _mul_ep(clo, chi, blo, bhi, nextafter)
                    plo[k + 1] = clo; phi[k + 1] = chi
                slo = [1.0] * (n + 1); shi = [1.0] * (n + 1)
                clo = 1.0; chi = 1.0
                for k in range(n - 1, -1, -1):
                    i = a[k]
                    blo = los[i]; bhi = his[i]
                    clo, chi = _mul_ep(clo, chi, blo, bhi, nextafter)
                    slo[k] = clo; shi[k] = chi
                for k in range(n):
                    vlo, vhi = _mul_ep(plo[k], phi[k], slo[k + 1], shi[k + 1], nextafter)
                    if vlo <= 0.0 <= vhi and vlo != vhi:
                        continue  # division through zero gives no contraction
                    if vlo == 0.0 and vhi == 0.0:
                        continue
                    # allowed = out / others = out * inverse(others); the
                    # two guards above leave only empty or strictly-signed
                    # [vlo, vhi], so the zero-endpoint inverse cases of
                    # Interval.inverse() are unreachable here
                    if not vlo <= vhi:
                        ilo = PINF; ihi = NINF
                    else:
                        s = 1.0 / vhi
                        ilo = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                        s = 1.0 / vlo
                        ihi = PINF if (s != s or s == PINF) else nextafter(s, PINF)
                    alo, ahi = _mul_ep(olo, ohi, ilo, ihi, nextafter)
                    i = a[k]
                    lo = los[i]; hi = his[i]
                    if alo > lo:
                        lo = alo
                    if ahi < hi:
                        hi = ahi
                    los[i] = lo; his[i] = hi
                    if not lo <= hi:
                        return False

            elif op == OP_POW:
                if not _backward_pow(los, his, Interval(olo, ohi), a, b, aux):
                    return False

            elif op == OP_FUNC:
                if not _backward_func(los, his, Interval(olo, ohi), a, b):
                    return False

            else:  # OP_ITE
                lhs, rhs, then, orelse = a
                branch = _decide_gap(b, los, his, lhs, rhs)
                if branch is True:
                    target = then
                elif branch is False:
                    target = orelse
                else:
                    continue  # undecided: no sound single-branch propagation
                lo = los[target]; hi = his[target]
                if olo > lo:
                    lo = olo
                if ohi < hi:
                    hi = ohi
                los[target] = lo; his[target] = hi
                if not lo <= hi:
                    return False
        return True

    # -- scalar (point) evaluation ------------------------------------------
    def eval_point(self, env: dict[str, float]) -> float:
        """Evaluate at a point; raises on domain errors like the tree walk."""
        slots = self._scalar_init[:]
        for name, i in self.var_slots:
            try:
                slots[i] = env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        for op, out, a, b, aux in self._scalar:
            if op == OP_ADD2:
                # fsum, not +: the oracle's fsum raises on inf + -inf where
                # + would yield a silently propagating NaN
                slots[out] = math.fsum((slots[a], slots[b]))
            elif op == OP_MUL2:
                slots[out] = slots[a] * slots[b]
            elif op == OP_FUNC:
                slots[out] = aux(slots[a])
            elif op == OP_POW:
                base = slots[a]
                expo = aux[2] if aux is not None else slots[b]
                if base < 0.0 and not float(expo).is_integer():
                    raise EvalError(
                        f"negative base {base} to fractional power {expo}"
                    )
                if base == 0.0 and expo < 0.0:
                    raise EvalError("zero to a negative power")
                slots[out] = math.pow(base, expo)
            elif op == OP_ADDN:
                slots[out] = math.fsum(slots[i] for i in a)
            elif op == OP_MULN:
                acc = 1.0
                for i in a:
                    acc *= slots[i]
                slots[out] = acc
            else:  # OP_ITE
                lhs, rhs, then, orelse = a
                lv, rv = slots[lhs], slots[rhs]
                if math.isnan(lv) or math.isnan(rv):
                    raise EvalError("NaN in ite condition")
                slots[out] = slots[then] if cond_compare(b, lv, rv) else slots[orelse]
        return slots[self.root]

    def eval_scalar(self, env: dict[str, float]) -> float:
        """Evaluate at a point; domain errors yield NaN (non-strict mode)."""
        try:
            return self.eval_point(env)
        except (ValueError, OverflowError, ZeroDivisionError):
            return math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tape({len(self.instrs)} instrs, {self.n_slots} slots, "
            f"{len(self.var_slots)} var loads, {len(self.const_slots)} consts)"
        )


def _run_forward_ops(fwd: list, los: list, his: list) -> None:
    """Forward instruction interpreter over scalar slot arrays."""
    nextafter = math.nextafter
    for op, out, a, b, aux in fwd:
        if op == OP_ADD2:
            alo = los[a]; ahi = his[a]; blo = los[b]; bhi = his[b]
            if alo <= ahi and blo <= bhi:
                s = alo + blo
                los[out] = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                s = ahi + bhi
                his[out] = PINF if (s != s or s == PINF) else nextafter(s, PINF)
            else:
                los[out] = PINF; his[out] = NINF
        elif op == OP_MUL2:
            alo = los[a]; ahi = his[a]; blo = los[b]; bhi = his[b]
            if alo <= ahi and blo <= bhi:
                p = alo * blo
                if p != p:
                    p = 0.0
                lo = hi = p
                p = alo * bhi
                if p != p:
                    p = 0.0
                if p < lo:
                    lo = p
                elif p > hi:
                    hi = p
                p = ahi * blo
                if p != p:
                    p = 0.0
                if p < lo:
                    lo = p
                elif p > hi:
                    hi = p
                p = ahi * bhi
                if p != p:
                    p = 0.0
                if p < lo:
                    lo = p
                elif p > hi:
                    hi = p
                los[out] = NINF if lo == NINF else nextafter(lo, NINF)
                his[out] = PINF if hi == PINF else nextafter(hi, PINF)
            else:
                los[out] = PINF; his[out] = NINF
        elif op == OP_FUNC:
            iv = aux(Interval(los[a], his[a]))
            los[out] = iv.lo
            his[out] = iv.hi
        elif op == OP_POW:
            if aux is None:
                base = Interval(los[a], his[a])
                elo = los[b]
                if elo == his[b]:
                    iv = base.pow(elo)
                else:
                    iv = (Interval(elo, his[b]) * base.log()).exp()
            elif aux[0] == "i":
                iv = Interval(los[a], his[a]).pow_int(aux[1])
            else:
                iv = Interval(los[a], his[a]).pow_real(aux[1])
            los[out] = iv.lo
            his[out] = iv.hi
        elif op == OP_ADDN:
            i = a[0]
            clo = los[i]; chi = his[i]
            for i in a[1:]:
                blo = los[i]; bhi = his[i]
                if clo <= chi and blo <= bhi:
                    s = clo + blo
                    clo = NINF if (s != s or s == NINF) else nextafter(s, NINF)
                    s = chi + bhi
                    chi = PINF if (s != s or s == PINF) else nextafter(s, PINF)
                else:
                    clo = PINF; chi = NINF
            los[out] = clo; his[out] = chi
        elif op == OP_MULN:
            i = a[0]
            clo = los[i]; chi = his[i]
            for i in a[1:]:
                blo = los[i]; bhi = his[i]
                if clo <= chi and blo <= bhi:
                    p = clo * blo
                    if p != p:
                        p = 0.0
                    lo = hi = p
                    p = clo * bhi
                    if p != p:
                        p = 0.0
                    if p < lo:
                        lo = p
                    elif p > hi:
                        hi = p
                    p = chi * blo
                    if p != p:
                        p = 0.0
                    if p < lo:
                        lo = p
                    elif p > hi:
                        hi = p
                    p = chi * bhi
                    if p != p:
                        p = 0.0
                    if p < lo:
                        lo = p
                    elif p > hi:
                        hi = p
                    clo = NINF if lo == NINF else nextafter(lo, NINF)
                    chi = PINF if hi == PINF else nextafter(hi, PINF)
                else:
                    clo = PINF; chi = NINF
            los[out] = clo; his[out] = chi
        else:  # OP_ITE
            lhs, rhs, then, orelse = a
            branch = _decide_gap(b, los, his, lhs, rhs)
            if branch is True:
                los[out] = los[then]; his[out] = his[then]
            elif branch is False:
                los[out] = los[orelse]; his[out] = his[orelse]
            else:
                tlo = los[then]; thi = his[then]
                olo = los[orelse]; ohi = his[orelse]
                if not tlo <= thi:
                    los[out] = olo; his[out] = ohi
                elif not olo <= ohi:
                    los[out] = tlo; his[out] = thi
                else:
                    los[out] = tlo if tlo <= olo else olo
                    his[out] = thi if thi >= ohi else ohi


def _run_forward_batch_ops(fwd: list, lo_mat: np.ndarray, hi_mat: np.ndarray) -> None:
    """Batched forward instruction interpreter over endpoint matrices."""
    n_boxes = lo_mat.shape[1]
    for op, out, a, b, aux in fwd:
        if op == OP_ADD2:
            lo, hi = _add_ep_batch(lo_mat[a], hi_mat[a], lo_mat[b], hi_mat[b])
            lo_mat[out] = lo
            hi_mat[out] = hi
        elif op == OP_MUL2:
            lo, hi = _mul_ep_batch(lo_mat[a], hi_mat[a], lo_mat[b], hi_mat[b])
            lo_mat[out] = lo
            hi_mat[out] = hi
        elif op == OP_FUNC:
            lo, hi = _FWD_KERNELS[b](lo_mat[a], hi_mat[a])
            lo_mat[out] = lo
            hi_mat[out] = hi
        elif op == OP_POW:
            if aux is not None:
                # whole-row kernels cover constant exponents; a large
                # |n| (no mult chain) drops to the per-column loop
                if aux[0] == "i":
                    got = _kern.fwd_pow_int(lo_mat[a], hi_mat[a], aux[1])
                else:
                    got = _kern.fwd_pow_real(lo_mat[a], hi_mat[a], aux[1])
                if got is not None:
                    lo_mat[out] = got[0]
                    hi_mat[out] = got[1]
                    continue
            blo = lo_mat[a].tolist()
            bhi = hi_mat[a].tolist()
            olo = [0.0] * n_boxes
            ohi = [0.0] * n_boxes
            if aux is None:
                elo_row = lo_mat[b].tolist()
                ehi_row = hi_mat[b].tolist()
                for j in range(n_boxes):
                    base = Interval(blo[j], bhi[j])
                    elo = elo_row[j]
                    if elo == ehi_row[j]:
                        iv = base.pow(elo)
                    else:
                        iv = (Interval(elo, ehi_row[j]) * base.log()).exp()
                    olo[j] = iv.lo
                    ohi[j] = iv.hi
            elif aux[0] == "i":
                n = aux[1]
                for j in range(n_boxes):
                    iv = Interval(blo[j], bhi[j]).pow_int(n)
                    olo[j] = iv.lo
                    ohi[j] = iv.hi
            else:
                p = aux[1]
                for j in range(n_boxes):
                    iv = Interval(blo[j], bhi[j]).pow_real(p)
                    olo[j] = iv.lo
                    ohi[j] = iv.hi
            lo_mat[out] = olo
            hi_mat[out] = ohi
        elif op == OP_ADDN:
            i = a[0]
            clo = lo_mat[i]
            chi = hi_mat[i]
            for i in a[1:]:
                clo, chi = _add_ep_batch(clo, chi, lo_mat[i], hi_mat[i])
            lo_mat[out] = clo
            hi_mat[out] = chi
        elif op == OP_MULN:
            i = a[0]
            clo = lo_mat[i]
            chi = hi_mat[i]
            for i in a[1:]:
                clo, chi = _mul_ep_batch(clo, chi, lo_mat[i], hi_mat[i])
            lo_mat[out] = clo
            hi_mat[out] = chi
        else:  # OP_ITE
            lhs, rhs, then, orelse = a
            is_true, is_false = _decide_gap_batch(b, lo_mat, hi_mat, lhs, rhs)
            tlo = lo_mat[then]
            thi = hi_mat[then]
            olo = lo_mat[orelse]
            ohi = hi_mat[orelse]
            # undecided columns take the hull, ignoring an empty branch;
            # the <=-picks (not np.minimum) replicate the per-box
            # comparisons exactly, including signed-zero choices
            t_empty = ~(tlo <= thi)
            o_empty = ~(olo <= ohi)
            lo = np.where(tlo <= olo, tlo, olo)
            hi = np.where(thi >= ohi, thi, ohi)
            lo = np.where(o_empty, tlo, lo)
            hi = np.where(o_empty, thi, hi)
            lo = np.where(t_empty, olo, lo)
            hi = np.where(t_empty, ohi, hi)
            lo = np.where(is_true, tlo, np.where(is_false, olo, lo))
            hi = np.where(is_true, thi, np.where(is_false, ohi, hi))
            lo_mat[out] = lo
            hi_mat[out] = hi


def _mul_ep(alo: float, ahi: float, blo: float, bhi: float, nextafter) -> tuple:
    """Endpoint form of ``Interval.__mul__`` (same values, no allocation)."""
    if not (alo <= ahi and blo <= bhi):
        return PINF, NINF
    p = alo * blo
    if p != p:
        p = 0.0
    lo = hi = p
    p = alo * bhi
    if p != p:
        p = 0.0
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    p = ahi * blo
    if p != p:
        p = 0.0
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    p = ahi * bhi
    if p != p:
        p = 0.0
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    return (
        NINF if lo == NINF else nextafter(lo, NINF),
        PINF if hi == PINF else nextafter(hi, PINF),
    )


def _add_ep_batch(alo, ahi, blo, bhi) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise form of the inline ADD2 endpoint arithmetic.

    Same values as the per-box code: outward-rounded sums, NaN sums
    saturating to the infinite endpoint, empty inputs producing the empty
    encoding (``lo > hi``).
    """
    nonempty = (alo <= ahi) & (blo <= bhi)
    s = alo + blo
    lo = np.nextafter(s, NINF)
    np.copyto(lo, NINF, where=s != s)
    s = ahi + bhi
    hi = np.nextafter(s, PINF)
    np.copyto(hi, PINF, where=s != s)
    np.copyto(lo, PINF, where=~nonempty)
    np.copyto(hi, NINF, where=~nonempty)
    return lo, hi


def _mul_ep_batch(alo, ahi, blo, bhi) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise form of ``_mul_ep``: identical products and NaN
    cleaning, min/max over the four endpoint products, then one-ulp
    outward rounding.  The scalar code picks min/max with sequential
    ``<``/``>`` compares, which can differ from a reduction only in the
    sign of a zero -- and ``nextafter`` maps both zeros to the same
    neighbour, so the rounded outputs are bit-identical.  Pairwise
    ``minimum``/``maximum`` over four flat products beats a ``(4, n)``
    stack-and-reduce by ~20% at every batch width, and ``nextafter``
    already maps an infinite endpoint toward its own sign to itself, so
    no explicit infinity restore is needed.
    """
    p0 = alo * blo
    p1 = alo * bhi
    p2 = ahi * blo
    p3 = ahi * bhi
    np.copyto(p0, 0.0, where=p0 != p0)
    np.copyto(p1, 0.0, where=p1 != p1)
    np.copyto(p2, 0.0, where=p2 != p2)
    np.copyto(p3, 0.0, where=p3 != p3)
    lo = np.minimum(np.minimum(p0, p1), np.minimum(p2, p3))
    hi = np.maximum(np.maximum(p0, p1), np.maximum(p2, p3))
    out_lo = np.nextafter(lo, NINF, out=lo)
    out_hi = np.nextafter(hi, PINF, out=hi)
    empty = ~((alo <= ahi) & (blo <= bhi))
    np.copyto(out_lo, PINF, where=empty)
    np.copyto(out_hi, NINF, where=empty)
    return out_lo, out_hi


def _decide_masks_batch(code: int, glo, ghi, nonempty) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``_decide_f``: (decided-true, decided-false) masks.

    Columns with an empty gap (``nonempty`` False) are undecided in both
    masks, as :func:`_decide_gap` returns None for them.
    """
    if code == COND_LE or code == COND_LT:
        if code == COND_LT:
            is_true = (ghi <= 0.0) & ~((ghi == 0.0) & (glo == 0.0))
            is_false = (glo >= 0.0) & ~is_true
        else:
            is_true = ghi <= 0.0
            is_false = glo > 0.0
        return is_true & nonempty, is_false & nonempty
    if code == COND_GE or code == COND_GT:
        flipped = COND_LE if code == COND_GT else COND_LT
        is_true, is_false = _decide_masks_batch(flipped, glo, ghi, nonempty)
        return is_false, is_true
    # COND_EQ
    is_true = (glo == 0.0) & (ghi == 0.0)
    is_false = ~((glo <= 0.0) & (ghi >= 0.0)) & ~is_true
    return is_true & nonempty, is_false & nonempty


def _decide_gap_batch(
    code: int, lo_mat: np.ndarray, hi_mat: np.ndarray, lhs: int, rhs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``_decide_gap`` over all columns of an Ite guard."""
    llo = lo_mat[lhs]
    lhi = hi_mat[lhs]
    rlo = lo_mat[rhs]
    rhi = hi_mat[rhs]
    nonempty = (llo <= lhi) & (rlo <= rhi)
    s = llo - rhi
    glo = np.nextafter(s, NINF)
    np.copyto(glo, NINF, where=s != s)
    s = lhi - rlo
    ghi = np.nextafter(s, PINF)
    np.copyto(ghi, PINF, where=s != s)
    return _decide_masks_batch(code, glo, ghi, nonempty)


def _decide_f(code: int, glo: float, ghi: float) -> bool | None:
    """Decide ``gap op 0`` over the non-empty gap ``[glo, ghi]``.

    True or False when every point of the gap decides the same way, None
    when the gap straddles the boundary.
    """
    if code == COND_LE or code == COND_LT:
        strict = code == COND_LT
        if ghi <= 0.0 and not (strict and ghi == 0.0 and glo == 0.0):
            return True
        if glo > 0.0 or (strict and glo >= 0.0):
            return False
        return None
    if code == COND_GE or code == COND_GT:
        flipped = _decide_f(COND_LE if code == COND_GT else COND_LT, glo, ghi)
        return None if flipped is None else not flipped
    # COND_EQ
    if glo == 0.0 and ghi == 0.0:
        return True
    if not glo <= 0.0 <= ghi:
        return False
    return None


def _decide_gap(code: int, los: list, his: list, lhs: int, rhs: int) -> bool | None:
    """Decide an Ite guard from slot endpoints: ``(lhs - rhs) op 0``."""
    llo = los[lhs]; lhi = his[lhs]; rlo = los[rhs]; rhi = his[rhs]
    if not (llo <= lhi and rlo <= rhi):
        return None  # empty gap: undecided
    s = llo - rhi
    glo = NINF if (s != s or s == NINF) else math.nextafter(s, NINF)
    s = lhi - rlo
    ghi = PINF if (s != s or s == PINF) else math.nextafter(s, PINF)
    return _decide_f(code, glo, ghi)


#: FUNC indices whose backward step can narrow an input on its own.  The
#: forward enclosures of log, sqrt and lambertw clip the input to the
#: function's domain first.  cbrt's forward value ``|x| ** (1/3)`` is off
#: by more than its one-ulp outward rounding for huge |x| (the exponent
#: 1/3 is not exact: cbrt(-1e308) comes out ~60 ulps high), so the cube
#: of a clean output can still cut the input's endpoint
_ALWAYS_RUN_FUNCS = frozenset((F_LOG, F_SQRT, F_CBRT, F_LAMBERTW))


def _is_total(op: int, b, aux) -> bool:
    """Whether a reverse instruction is a no-op while its output is clean.

    A *total* op's forward enclosure is defined on the whole input box,
    and its backward step returns an outward-rounded superset of the
    inputs consistent with the output.  While the output still holds the
    forward enclosure, that superset contains the whole input, so the
    intersection changes nothing.  Real- and variable-exponent powers,
    log, sqrt and lambertw clip the input to their domain, and cbrt's
    inverse can cut a huge input (see :data:`_ALWAYS_RUN_FUNCS`); they
    always run.
    """
    if op == OP_POW:
        return aux is not None and aux[0] == "i"
    if op == OP_FUNC:
        return b not in _ALWAYS_RUN_FUNCS
    return True  # add/mul chains and Ite


def _narrow(los: list, his: list, i: int, allowed: Interval) -> bool:
    """Intersect slot ``i`` with ``allowed``; False if it empties."""
    alo = allowed.lo
    ahi = allowed.hi
    lo = los[i]; hi = his[i]
    if alo > lo:
        lo = alo
    if ahi < hi:
        hi = ahi
    los[i] = lo; his[i] = hi
    return lo <= hi


def _backward_pow(los, his, out: Interval, bslot: int, eslot: int, aux) -> bool:
    """Inverse propagation for OP_POW, mirroring the tree walk exactly."""
    if aux is None:
        base = Interval(los[bslot], his[bslot])
        elo = los[eslot]
        ehi = his[eslot]
        if elo != ehi:
            # non-constant exponent: propagate through exp(e*log(b)) form
            log_out = out.log()
            log_base = base.log()
            if not log_base.is_empty() and not log_out.is_empty():
                if not (log_base.lo <= 0.0 <= log_base.hi):
                    if not _narrow(los, his, eslot, log_out / log_base):
                        return False
                expo2 = Interval(los[eslot], his[eslot])
                if not (expo2.lo <= 0.0 <= expo2.hi):
                    if not _narrow(los, his, bslot, (log_out / expo2).exp()):
                        return False
            return True
        p = elo
        if float(p).is_integer() and abs(p) < 2**31:
            aux = ("i", int(p), p)
        else:
            aux = ("r", p, p)
    base = Interval(los[bslot], his[bslot])
    if aux[0] == "i":
        n = aux[1]
        if n == 0:
            return True
        if n > 0:
            inv = root_int(out, n, base)
        else:
            inv = root_int(out.inverse(), -n, base)
        return _narrow(los, his, bslot, inv)
    # fractional exponent: base >= 0 and monotone
    return _narrow(los, his, bslot, out.pow_real(1.0 / aux[1]))


def _backward_func(los, his, out: Interval, arg: int, fidx: int) -> bool:
    """Inverse propagation for OP_FUNC, mirroring the tree-walk cases."""
    if fidx == F_EXP:
        return _narrow(los, his, arg, out.log())
    if fidx == F_LOG:
        return _narrow(los, his, arg, out.exp())
    if fidx == F_SQRT:
        return _narrow(los, his, arg, out.intersect(make(0.0, inf)).pow_int(2))
    if fidx == F_CBRT:
        return _narrow(los, his, arg, out.pow_int(3))
    if fidx == F_ATAN:
        return _narrow(los, his, arg, tan_restricted(out))
    if fidx == F_ABS:
        mag = out.intersect(make(0.0, inf))
        if mag.is_empty():
            return False
        current = Interval(los[arg], his[arg])
        pos = mag.intersect(current)
        neg = (-mag).intersect(current)
        return _narrow(los, his, arg, pos.hull(neg))
    if fidx == F_TANH:
        return _narrow(los, his, arg, atanh_interval(out))
    if fidx == F_ERF:
        return _narrow(los, his, arg, erfinv_interval(out))
    if fidx == F_LAMBERTW:
        return _narrow(los, his, arg, wexpw(out))
    # sin/cos: non-invertible over wide ranges; skip (sound)
    return True


# ---------------------------------------------------------------------------
# tape cache
# ---------------------------------------------------------------------------

#: id-keyed cache holding a strong reference to the expression alongside its
#: tape.  The strong reference pins the id, so the ``is`` check cannot alias
#: a recycled id to a stale tape (unlike a bare ``dict[id(expr)]``).
_TAPE_CACHE: dict[int, tuple[Expr, Tape]] = {}
_TAPE_CACHE_MAX = 4096


def tape_for(expr: Expr) -> Tape:
    """Compile ``expr`` (memoised on the interned expression object)."""
    key = id(expr)
    entry = _TAPE_CACHE.get(key)
    if entry is not None and entry[0] is expr:
        # re-insert so dict order tracks recency: eviction below is LRU,
        # keeping long-lived hot tapes (residuals, psi sides) pinned
        del _TAPE_CACHE[key]
        _TAPE_CACHE[key] = entry
        return entry[1]
    tape = compile_expr(expr)
    if len(_TAPE_CACHE) >= _TAPE_CACHE_MAX:
        # evict the oldest entry (FIFO via dict insertion order) -- a full
        # clear() would recompile the entire hot working set
        _TAPE_CACHE.pop(next(iter(_TAPE_CACHE)))
    _TAPE_CACHE[id(expr)] = (expr, tape)
    return tape


def clear_tape_cache() -> None:
    """Drop the tape cache (used by tests to bound memory)."""
    _TAPE_CACHE.clear()


# ---------------------------------------------------------------------------
# stable content hashing (the campaign store's cache keys)
# ---------------------------------------------------------------------------

def _stable_encode(obj, out: list[str]) -> None:
    """Append a canonical, type-tagged encoding of ``obj`` to ``out``.

    Covers exactly the value shapes that occur in tape state and solver
    configs: None, bools, ints, floats (hex -- bit-exact, round-trip
    safe), strings, and nested tuples/lists.  Type tags keep e.g. the int
    1, the float 1.0 and the string "1" from colliding.
    """
    if obj is None:
        out.append("N;")
    elif obj is True or obj is False:
        out.append("b1;" if obj else "b0;")
    elif isinstance(obj, int):
        out.append(f"i{obj};")
    elif isinstance(obj, float):
        out.append(f"f{obj.hex()};")
    elif isinstance(obj, str):
        out.append(f"s{len(obj)}:{obj};")
    elif isinstance(obj, (tuple, list)):
        out.append("(")
        for item in obj:
            _stable_encode(item, out)
        out.append(")")
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot stably encode {type(obj).__name__}")


def stable_digest(obj) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    import hashlib

    parts: list[str] = []
    _stable_encode(obj, parts)
    return hashlib.sha256("".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# compiled formulas: picklable tape-level atoms and conjunctions
# ---------------------------------------------------------------------------

class CompiledAtom:
    """A normalised inequality atom ``residual op 0`` compiled to a tape."""

    __slots__ = ("tape", "op")

    def __init__(self, tape: Tape, op: str):
        self.tape = tape
        self.op = op

    @classmethod
    def from_atom(cls, atom) -> "CompiledAtom":
        return cls(tape_for(atom.residual), atom.op)

    def holds_at(self, point: dict[str, float], tol: float = 0.0) -> bool:
        """Exact floating-point check at a point (NaN counts as failure)."""
        value = self.tape.eval_scalar(point)
        if math.isnan(value):
            return False
        return cond_holds(COND_CODE[self.op], value, tol)

    def fingerprint(self) -> str:
        """Stable content hash of the atom (tape + relation)."""
        # None: the removed derivative-tape slot, keeps stored keys valid
        return stable_digest(("atom", self.tape.fingerprint(), self.op, None))

    def __getstate__(self):
        return (self.tape, self.op)

    def __setstate__(self, state):
        self.tape, self.op = state


class CompiledConjunction:
    """A conjunction of :class:`CompiledAtom` -- flat, picklable, DAG-free.

    Duck-types the parts of :class:`repro.solver.constraint.Conjunction`
    that the ICP solver uses (``atoms``, ``holds_at``, ``free_var_names``),
    so it can be handed straight to :meth:`ICPSolver.solve`; process-pool
    workers deserialize it without re-encoding any expression DAGs.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[CompiledAtom, ...]):
        self.atoms = tuple(atoms)

    @classmethod
    def from_conjunction(cls, formula) -> "CompiledConjunction":
        return cls(tuple(CompiledAtom.from_atom(a) for a in formula.atoms))

    def holds_at(self, point: dict[str, float], tol: float = 0.0) -> bool:
        return all(atom.holds_at(point, tol=tol) for atom in self.atoms)

    def free_var_names(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self.atoms:
            names.update(name for name, _ in atom.tape.var_slots)
        return frozenset(names)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def fingerprint(self) -> str:
        """Stable content hash over the atom fingerprints, in order."""
        return stable_digest(
            ("conjunction", [atom.fingerprint() for atom in self.atoms])
        )

    def __getstate__(self):
        return self.atoms

    def __setstate__(self, state):
        self.atoms = state
