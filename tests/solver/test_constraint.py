"""Tests for atoms, conjunctions, and negation."""

import pytest

from repro.expr import builder as b
from repro.expr.nodes import Var
from repro.solver.constraint import Atom, Conjunction

X = Var("x")
Y = Var("y")


class TestAtom:
    def test_from_rel_moves_everything_left(self):
        atom = Atom.from_rel(X.le(3.0))
        assert atom.op == "<="
        assert atom.holds_at({"x": 2.0})
        assert not atom.holds_at({"x": 4.0})

    def test_from_rel_rejects_equality(self):
        with pytest.raises(ValueError):
            Atom.from_rel(X.eq(0.0))

    def test_negate(self):
        atom = Atom.from_rel(X.le(0.0))
        neg = atom.negate()
        assert neg.op == ">"
        assert neg.holds_at({"x": 1.0})
        assert not neg.holds_at({"x": -1.0})

    def test_negate_involution_semantics(self):
        atom = Atom.from_rel(X.ge(0.0))
        again = atom.negate().negate()
        for xv in (-1.0, 0.0, 1.0):
            assert atom.holds_at({"x": xv}) == again.holds_at({"x": xv})

    def test_normalized_converts_ge_to_le(self):
        atom = Atom.from_rel(X.ge(2.0)).normalized()
        assert atom.op in ("<=", "<")
        assert atom.holds_at({"x": 3.0})
        assert not atom.holds_at({"x": 1.0})

    def test_normalized_le_is_identity(self):
        atom = Atom.from_rel(X.le(0.0))
        assert atom.normalized() is atom

    def test_holds_at_nan_is_false(self):
        atom = Atom(residual=b.log(X), op="<=")
        assert not atom.holds_at({"x": -1.0})

    def test_holds_at_with_tolerance(self):
        atom = Atom.from_rel(X.le(0.0))
        assert atom.holds_at({"x": 0.5}, tol=1.0)

    def test_strict_vs_nonstrict_at_boundary(self):
        le = Atom.from_rel(X.le(0.0))
        lt = Atom.from_rel(X.lt(0.0))
        assert le.holds_at({"x": 0.0})
        assert not lt.holds_at({"x": 0.0})


class TestConjunction:
    def test_of_mixed_parts(self):
        f = Conjunction.of(
            X.le(1.0), Atom.from_rel(Y.ge(0.0)), Conjunction.of(X.ge(-1.0))
        )
        assert len(f) == 3

    def test_of_rejects_junk(self):
        with pytest.raises(TypeError):
            Conjunction.of("x <= 0")

    def test_holds_at_all_atoms(self):
        f = Conjunction.of(X.le(1.0), X.ge(-1.0))
        assert f.holds_at({"x": 0.0})
        assert not f.holds_at({"x": 2.0})
        assert not f.holds_at({"x": -2.0})

    def test_free_var_names(self):
        f = Conjunction.of(X.le(Y))
        assert f.free_var_names() == {"x", "y"}

    def test_max_operation_count(self):
        f = Conjunction.of(b.exp(b.exp(X)).le(0.0), X.le(0.0))
        assert f.max_operation_count() >= 2

    def test_iteration(self):
        f = Conjunction.of(X.le(0.0), Y.le(0.0))
        assert all(isinstance(a, Atom) for a in f)
