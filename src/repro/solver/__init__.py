"""Delta-complete interval constraint solver (dReal substitute).

Subpackages:

* :mod:`repro.solver.interval` -- outward-rounded interval arithmetic,
* :mod:`repro.solver.box` -- variable boxes (search state / regions),
* :mod:`repro.solver.constraint` -- atoms, conjunctions, delta-weakening,
* :mod:`repro.solver.tape` -- the tape-compiled interval VM (flat SSA
  instruction tapes for the forward/backward/point executors),
* :mod:`repro.solver.contractor` -- HC4-revise forward/backward contractor,
* :mod:`repro.solver.icp` -- the branch-and-prune decision procedure: one
  algorithm, batched HC4 contraction, midpoint probing and breadth-first
  bisection.
"""

from .interval import EMPTY, Interval, REALS, make, point
from .box import Box
from .constraint import Atom, Conjunction
from .tape import CompiledAtom, CompiledConjunction, Tape, compile_expr, tape_for
from .contractor import HC4Contractor
from .icp import Budget, ICPSolver, SolverResult, SolverStats, SolverStatus

__all__ = [
    "EMPTY", "Interval", "REALS", "make", "point",
    "Box", "Atom", "Conjunction",
    "CompiledAtom", "CompiledConjunction", "Tape", "compile_expr", "tape_for",
    "HC4Contractor",
    "Budget", "ICPSolver", "SolverResult", "SolverStats", "SolverStatus",
]
