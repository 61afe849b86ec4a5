"""HC4-revise contractors over expression DAGs.

HC4 is the classic forward/backward interval constraint-propagation
contractor used inside dReal's ICP loop: a *forward* pass computes interval
enclosures bottom-up, the root enclosure is intersected with the set
allowed by the atom (``g <= delta`` after delta-weakening), and a
*backward* pass pushes the narrowed enclosures down through each
operation's inverse, ultimately narrowing the variable box.

Because expressions are hash-consed DAGs (not trees), a node may have many
parents; the backward pass runs in reverse topological order so every
parent's contribution is intersected into a shared per-node interval before
that node propagates to its own children.

Domain clipping: partial primitives (log, sqrt, fractional powers, Lambert
W) contract their argument into the primitive's domain.  This matches
dReal's treatment of partial functions via domain constraints and is the
right semantics for DFA expressions, which are well-defined on the physical
input domain.

Execution: :class:`HC4Contractor` compiles each atom's residual into a
flat instruction tape (:mod:`repro.solver.tape`) and runs forward/backward
off that tape with a preallocated slot vector, per box or wholesale over a
batch of boxes.  The tree-walking reference executors are test-only
(``tests/solver/oracles.py``): the oracle the differential tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..expr.nodes import Expr
from .box import Box
from .constraint import Conjunction
from .interval import EMPTY, Interval
from .tape import _VECTOR_MIN, _VECTOR_MIN_BWD, CompiledConjunction, MultiTape, Tape, tape_for


def enclosure(expr: Expr, box: Box) -> Interval:
    """Interval enclosure of ``expr`` over ``box`` (tape-compiled)."""
    return tape_for(expr).enclosure(box)


# ---------------------------------------------------------------------------
# HC4 contractor for a conjunction of atoms
# ---------------------------------------------------------------------------

@dataclass
class ContractionStats:
    forward_passes: int = 0
    backward_passes: int = 0
    prunes_to_empty: int = 0


class HC4Contractor:
    """Contract boxes against ``residual <= delta`` for every atom.

    ``delta`` is the weakening of the delta-complete framework: pruning uses
    the relaxed atoms, so an UNSAT (empty) outcome certifies unsatisfiability
    of the *original* formula as well.

    ``formula`` may be a :class:`Conjunction` (residual DAGs are compiled to
    tapes here) or an already-compiled
    :class:`~repro.solver.tape.CompiledConjunction` (e.g. shipped to a
    worker process).
    """

    def __init__(
        self,
        formula: Conjunction | CompiledConjunction,
        delta: float = 1e-5,
    ):
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        self.formula = formula
        self.delta = delta
        self.stats = ContractionStats()
        self._multi: MultiTape | bool | None = None
        if isinstance(formula, CompiledConjunction):
            self._tapes: list[Tape] = [atom.tape for atom in formula.atoms]
        else:
            self._tapes = [tape_for(atom.residual) for atom in formula.atoms]
        # preallocated per-slot lo/hi endpoint arrays, one pair per atom
        self._los: list[list[float]] = [[0.0] * t.n_slots for t in self._tapes]
        self._his: list[list[float]] = [[0.0] * t.n_slots for t in self._tapes]

    def _multi_tape(self) -> MultiTape | None:
        """Lazily-built fused forward program over all atom tapes.

        Only worth building (and only used) when there is more than one
        atom; built per contractor instance on first batch use and reused
        for every later batch.  Forward-only: the backward revise stays
        per-tape.
        """
        if self._multi is None:
            if len(self._tapes) > 1:
                self._multi = MultiTape.from_tapes(self._tapes)
            else:
                self._multi = False
        return self._multi or None

    def contract(self, box: Box, rounds: int = 2) -> Box:
        """Iterate HC4-revise over all atoms up to ``rounds`` fixpoint rounds."""
        for _ in range(max(1, rounds)):
            changed = False
            for i in range(len(self._tapes)):
                new_box = self._revise(i, box)
                if new_box.is_empty():
                    self.stats.prunes_to_empty += 1
                    return new_box
                if new_box != box:
                    changed = True
                    box = new_box
            if not changed:
                break
        return box

    def _revise(self, i: int, box: Box) -> Box:
        self.stats.forward_passes += 1
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

        self.stats.backward_passes += 1
        if not tape.backward_arrays(los, his):
            return Box({name: EMPTY for name in box.names})

        out = {name: box[name] for name in box.names}
        for name, slot in tape.var_slots:
            if name in out:
                out[name] = out[name].intersect(Interval(los[slot], his[slot]))
        return Box(out)

    def contract_batch(
        self, boxes: list[Box], rounds: int = 2, columns: np.ndarray | None = None
    ) -> tuple[list[Box], np.ndarray]:
        """Contract a whole batch of boxes with the batched tape executors.

        Semantically equivalent -- box for box, bit for bit -- to calling
        :meth:`contract` on each element: the same fixpoint rounds, the
        same atom order, the same forward/backward endpoint arithmetic
        (see :meth:`Tape.forward_batch` / :meth:`Tape.backward_batch`),
        with each instruction executed once per *batch* instead of once
        per box.  Columns refuted by an atom drop out of later atoms, and
        columns whose box reached the per-box loop's break condition (no
        change in a round) stop iterating, exactly like the scalar loop.

        Returns ``(contracted, certainly_sat)``: the contracted box per
        input (an empty box where pruned; the *original* object where
        contraction was a no-op) and a boolean per box that equals
        :meth:`certainly_sat` on the contracted box (False for pruned
        boxes), computed from one extra batched forward pass per atom.

        Boxes that are *already empty* on input are returned untouched
        and never contracted -- mirroring the solver loops, which prune
        them before contraction.  ``ContractionStats`` counters advance by
        the per-column revise/backward counts, matching what the
        equivalent sequence of per-box :meth:`contract` calls would
        record.

        ``columns``, an optional ``(2, len(boxes))`` integer array, counts
        per box the kernel columns it took up: row 0 where a tape call ran
        its scalar per-column executor (narrower than ``_VECTOR_MIN``
        forward or ``_VECTOR_MIN_BWD`` backward), row 1 where it ran the
        NumPy kernels.
        """
        n_boxes = len(boxes)
        if n_boxes == 0:
            return [], np.zeros(0, dtype=bool)
        names = boxes[0].names
        var_lo = {name: np.array([b[name].lo for b in boxes]) for name in names}
        var_hi = {name: np.array([b[name].hi for b in boxes]) for name in names}

        input_empty = np.array([b.is_empty() for b in boxes])
        alive = ~input_empty
        ever_changed = np.zeros(n_boxes, dtype=bool)
        active = alive.copy()  # columns still iterating rounds
        for _ in range(max(1, rounds)):
            changed = np.zeros(n_boxes, dtype=bool)
            for i, tape in enumerate(self._tapes):
                cols = np.nonzero(active & alive)[0]
                if cols.size == 0:
                    break
                self._revise_batch(i, tape, cols, var_lo, var_hi, alive, changed, columns)
            active &= alive & changed
            ever_changed |= changed
            if not active.any():
                break

        # one batched forward (fused across atoms when possible) over the
        # final boxes decides certainly_sat for the whole batch
        allsat = alive.copy()
        multi = self._multi_tape()
        if multi is not None:
            cols = np.nonzero(allsat)[0]
            if cols.size:
                _count_columns(columns, cols, _VECTOR_MIN)
                sub_lo = {name: arr[cols] for name, arr in var_lo.items()}
                sub_hi = {name: arr[cols] for name, arr in var_hi.items()}
                lo_mat, hi_mat = multi.load_batch_arrays(sub_lo, sub_hi, cols.size)
                multi.forward_batch(lo_mat, hi_mat)
                sat = np.ones(cols.size, dtype=bool)
                for r in multi.roots:
                    root_lo = lo_mat[r]
                    root_hi = hi_mat[r]
                    sat &= (root_lo <= root_hi) & (root_hi <= self.delta)
                allsat[cols] &= sat
        else:
            for tape in self._tapes:
                cols = np.nonzero(allsat)[0]
                if cols.size == 0:
                    break
                _count_columns(columns, cols, _VECTOR_MIN)
                sub_lo = {name: arr[cols] for name, arr in var_lo.items()}
                sub_hi = {name: arr[cols] for name, arr in var_hi.items()}
                lo_mat, hi_mat = tape.load_batch_arrays(sub_lo, sub_hi, cols.size)
                tape.forward_batch(lo_mat, hi_mat)
                root_lo = lo_mat[tape.root]
                root_hi = hi_mat[tape.root]
                allsat[cols] &= (root_lo <= root_hi) & (root_hi <= self.delta)

        out: list[Box] = []
        for j, box in enumerate(boxes):
            if input_empty[j]:
                out.append(box)
            elif not alive[j]:
                self.stats.prunes_to_empty += 1
                out.append(Box({name: EMPTY for name in names}))
            elif not ever_changed[j]:
                out.append(box)
            else:
                out.append(
                    Box(
                        {
                            name: Interval(float(var_lo[name][j]), float(var_hi[name][j]))
                            for name in names
                        }
                    )
                )
        return out, allsat

    def _revise_batch(
        self,
        i: int,
        tape: Tape,
        cols: np.ndarray,
        var_lo: dict[str, np.ndarray],
        var_hi: dict[str, np.ndarray],
        alive: np.ndarray,
        changed: np.ndarray,
        columns: np.ndarray | None,
    ) -> None:
        """One batched HC4-revise of atom ``i`` over the columns ``cols``."""
        self.stats.forward_passes += int(cols.size)
        _count_columns(columns, cols, _VECTOR_MIN)
        sub_lo = {name: arr[cols] for name, arr in var_lo.items()}
        sub_hi = {name: arr[cols] for name, arr in var_hi.items()}
        lo_mat, hi_mat = tape.load_batch_arrays(sub_lo, sub_hi, cols.size)
        tape.forward_batch(lo_mat, hi_mat)
        root = tape.root
        root_lo = lo_mat[root]
        root_hi = hi_mat[root]
        delta = self.delta
        nonempty = root_lo <= root_hi
        # empty root enclosure, or no overlap with (-inf, delta]: refuted
        refuted = ~nonempty | (root_lo > delta)
        alive[cols[refuted]] = False
        # enclosure within the allowed set: the atom gives no pruning
        # information for that column, leave its box untouched
        needs_backward = ~refuted & (root_hi > delta)
        sub = np.nonzero(needs_backward)[0]
        if sub.size == 0:
            return
        self.stats.backward_passes += int(sub.size)
        blo = lo_mat[:, sub]
        bhi = hi_mat[:, sub]
        bhi[root] = delta  # intersect root with the allowed set
        ok = tape.backward_batch(blo, bhi)
        bcols = cols[sub]
        _count_columns(columns, bcols, _VECTOR_MIN_BWD)
        narrowed_lo = {}
        narrowed_hi = {}
        for name, slot in tape.var_slots:
            cur_lo = var_lo[name][bcols]
            cur_hi = var_hi[name][bcols]
            s_lo = blo[slot]
            s_hi = bhi[slot]
            # Interval.intersect endpoint picks (max/min with the scalar
            # tie and NaN behaviour), then its emptiness normalisation
            n_lo = np.where(s_lo > cur_lo, s_lo, cur_lo)
            n_hi = np.where(s_hi < cur_hi, s_hi, cur_hi)
            ok &= ~((n_lo > n_hi) | np.isnan(n_lo) | np.isnan(n_hi))
            narrowed_lo[name] = n_lo
            narrowed_hi[name] = n_hi
        atom_changed = np.zeros(len(bcols), dtype=bool)
        for name in narrowed_lo:
            cur_lo = var_lo[name][bcols]
            cur_hi = var_hi[name][bcols]
            n_lo = narrowed_lo[name]
            n_hi = narrowed_hi[name]
            atom_changed |= (n_lo != cur_lo) | (n_hi != cur_hi)
            write = ok
            var_lo[name][bcols[write]] = n_lo[write]
            var_hi[name][bcols[write]] = n_hi[write]
        alive[bcols[~ok]] = False
        changed[bcols[ok & atom_changed]] = True

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


def _count_columns(columns: np.ndarray | None, cols: np.ndarray, vector_min: int) -> None:
    """Count one tape call over ``cols``: scalar below ``vector_min`` columns."""
    if columns is not None:
        columns[0 if cols.size < vector_min else 1, cols] += 1
