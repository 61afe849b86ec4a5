"""XCEncoder: (functional, condition) -> solver problem.

Pulls together the pieces exactly as Section III-A describes:

1. the functional's model code is lifted into IR by the symbolic-execution
   front end (:mod:`repro.pysym`) -- the analogue of translating LibXC's
   Maple source and symbolically executing it;
2. the condition builder computes any required derivatives symbolically
   and produces the local condition psi;
3. psi is negated into the satisfiability query ``not psi`` whose models
   are condition violations (Equations 11-12 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..conditions.base import Condition
from ..expr.nodes import Rel
from ..functionals.base import Functional
from ..solver.box import Box
from ..solver.constraint import Atom, Conjunction


@dataclass(frozen=True)
class EncodedProblem:
    """A ready-to-solve verification problem.

    ``negation`` is the formula handed to the solver: SAT models are
    candidate counterexamples to psi; UNSAT on a box proves psi there.
    """

    functional: Functional
    condition: Condition
    psi: Rel
    negation: Conjunction
    domain: Box

    @property
    def label(self) -> str:
        return f"{self.functional.name} / {self.condition.cid}"

    def complexity(self) -> int:
        """Operation count of the negated formula (the paper's size metric)."""
        return self.negation.max_operation_count()


def encode(
    functional: Functional,
    condition: Condition,
    domain: Box | None = None,
) -> EncodedProblem:
    """Encode the local condition of ``condition`` for ``functional``."""
    psi = _psi_cached(functional, condition)
    negation = Conjunction.of(Atom.from_rel(psi).negate())
    return EncodedProblem(
        functional=functional,
        condition=condition,
        psi=psi,
        negation=negation,
        domain=domain if domain is not None else functional.domain(),
    )


@lru_cache(maxsize=None)
def _psi_cached(functional: Functional, condition: Condition) -> Rel:
    return condition.local_condition(functional)


class CompiledProblem:
    """A verification problem compiled to instruction tapes -- DAG-free.

    Everything Algorithm 1 needs, as flat picklable data: the negated
    formula as a :class:`~repro.solver.tape.CompiledConjunction` (solver
    input), the two sides of the original condition psi as scalar tapes
    (counterexample validation), and the domain box.  Process-pool workers
    deserialize this directly instead of re-running the symbolic encoder;
    the tapes were compiled once in the parent.
    """

    __slots__ = (
        "functional_name", "condition_id", "negation",
        "psi_lhs", "psi_rhs", "psi_op", "domain",
    )

    def __init__(self, functional_name, condition_id, negation, psi_lhs, psi_rhs, psi_op, domain):
        self.functional_name = functional_name
        self.condition_id = condition_id
        self.negation = negation
        self.psi_lhs = psi_lhs
        self.psi_rhs = psi_rhs
        self.psi_op = psi_op
        self.domain = domain

    @property
    def label(self) -> str:
        return f"{self.functional_name} / {self.condition_id}"

    def is_violation(self, model: dict[str, float]) -> bool:
        """The ``valid(x)`` check of Algorithm 1: does ``model`` break psi?"""
        import math

        from ..solver.tape import COND_CODE, cond_holds

        gap = self.psi_lhs.eval_scalar(model) - self.psi_rhs.eval_scalar(model)
        if math.isnan(gap):
            return False
        return not cond_holds(COND_CODE[self.psi_op], gap)

    def content_hash(self, domain: Box | None = None, extra: tuple = ()) -> str:
        """Stable content hash of this problem over ``domain``.

        The hash covers everything that determines verification outcomes:
        the negation's compiled tapes bit-for-bit (instructions + literal
        pool), the psi tapes and relation used for counterexample
        validation, and the domain bounds.  ``extra`` lets callers fold in
        additional outcome-relevant state -- the campaign store passes
        :meth:`VerifierConfig.semantic_key` -- so a store written with one
        configuration is never misread under another.

        Identical (functional, condition) encodings hash identically
        across processes and runs; any change to a functional's model
        code, a condition's derivation, the expression builder, or the
        tape compiler changes the tapes and therefore the key, turning
        stale store entries into clean cache misses.
        """
        from ..solver.interval import KERNEL_SEMANTICS_VERSION
        from ..solver.tape import stable_digest

        domain = domain if domain is not None else self.domain
        bounds = [(name, iv.lo, iv.hi) for name, iv in domain.items()]
        return stable_digest(
            (
                "problem",
                # version-stamps the interval kernel semantics: a sound
                # change to endpoint rounding (e.g. the pow mult-chain
                # tightening) invalidates stored cells as clean misses
                KERNEL_SEMANTICS_VERSION,
                self.negation.fingerprint(),
                self.psi_lhs.fingerprint(),
                self.psi_rhs.fingerprint(),
                self.psi_op,
                bounds,
                list(extra),
            )
        )

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


def compile_problem(problem: EncodedProblem) -> CompiledProblem:
    """Compile an encoded problem into picklable tapes."""
    from ..solver.tape import CompiledConjunction, tape_for

    return CompiledProblem(
        functional_name=problem.functional.name,
        condition_id=problem.condition.cid,
        negation=CompiledConjunction.from_conjunction(problem.negation),
        psi_lhs=tape_for(problem.psi.lhs),
        psi_rhs=tape_for(problem.psi.rhs),
        psi_op=problem.psi.op,
        domain=problem.domain,
    )
