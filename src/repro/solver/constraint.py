"""Solver formulas: atoms, conjunctions, and delta-weakening.

The Verifier decides validity of ``forall x in D . psi(x)`` by checking
satisfiability of ``D /\\ not(psi)`` (Equations 11-12 of the paper).  This
module provides the normalised constraint objects for that encoding:

* :class:`Atom` -- a single inequality ``g(x) op 0``,
* :class:`Conjunction` -- a conjunction of atoms (the only connective the
  encoder needs: the negation of each local condition is a conjunction of
  one or two atoms),

plus delta-weakening, which converts ``g <= 0`` into ``g <= delta`` exactly
as in dReal's delta-complete decision framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..expr import builder as b
from ..expr.evaluator import evaluate
from ..expr.nodes import Expr, Rel


@dataclass(frozen=True)
class Atom:
    """A normalised inequality atom ``residual op 0``.

    ``op`` is one of ``<=``, ``<``, ``>=``, ``>``.  Strictness only matters
    for exact point validation; the interval tests treat strict and
    non-strict alike, as dReal's delta-weakening does.
    """

    residual: Expr
    op: str

    @classmethod
    def from_rel(cls, rel: Rel) -> "Atom":
        if rel.op == "==":
            raise ValueError("equality atoms are not used by the encoder")
        return cls(residual=rel.gap(), op=rel.op)

    def negate(self) -> "Atom":
        flip = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}
        return Atom(residual=self.residual, op=flip[self.op])

    def normalized(self) -> "Atom":
        """Rewrite to ``residual' <= 0`` / ``residual' < 0`` form."""
        if self.op in ("<=", "<"):
            return self
        return Atom(residual=b.neg(self.residual), op="<=" if self.op == ">=" else "<")

    def holds_at(self, point: dict[str, float], tol: float = 0.0) -> bool:
        """Exact floating-point check at a point (NaN counts as failure)."""
        value = evaluate(self.residual, point)
        if math.isnan(value):
            return False
        if self.op == "<=":
            return value <= tol
        if self.op == "<":
            return value < tol
        if self.op == ">=":
            return value >= -tol
        return value > -tol

    def __repr__(self) -> str:  # pragma: no cover
        from ..expr.printer import to_str
        return f"Atom({to_str(self.residual, max_len=120)} {self.op} 0)"


@dataclass(frozen=True)
class Conjunction:
    """A conjunction of atoms, closed under normalisation."""

    atoms: tuple[Atom, ...]

    @classmethod
    def of(cls, *parts) -> "Conjunction":
        atoms: list[Atom] = []
        for part in parts:
            if isinstance(part, Conjunction):
                atoms.extend(part.atoms)
            elif isinstance(part, Atom):
                atoms.append(part)
            elif isinstance(part, Rel):
                atoms.append(Atom.from_rel(part))
            else:
                raise TypeError(f"cannot include {type(part).__name__} in formula")
        return cls(atoms=tuple(a.normalized() for a in atoms))

    def holds_at(self, point: dict[str, float], tol: float = 0.0) -> bool:
        return all(atom.holds_at(point, tol=tol) for atom in self.atoms)

    def max_operation_count(self) -> int:
        """Complexity proxy: the largest residual's operation count.

        The paper characterises functional difficulty by operation count
        (PBE correlation ~300 ops, SCAN >1000); budgets can scale on this.
        """
        return max((a.residual.operation_count() for a in self.atoms), default=0)

    def free_var_names(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self.atoms:
            names.update(v.name for v in atom.residual.free_vars())
        return frozenset(names)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)
