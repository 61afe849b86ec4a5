"""Property-based tests for the ICP solver against a brute-force oracle.

For random low-degree polynomial constraints on a small box we can decide
satisfiability by dense sampling plus the solver's own guarantees:

* if the solver says UNSAT, no sampled point may satisfy the formula;
* if the solver says delta-SAT with a model from probing, the model must
  satisfy the formula exactly;
* contraction must never remove sampled solutions.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.expr import builder as b
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Var
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver.contractor import HC4Contractor
from repro.solver.icp import Budget, ICPSolver, SolverStatus

from tests.support import hyp_examples

X = Var("hx")
Y = Var("hy")

coef = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def quadratic_atoms(draw):
    """c0 + c1 x + c2 y + c3 x^2 + c4 y^2 + c5 x y <= 0."""
    c = [draw(coef) for _ in range(6)]
    expr = b.add(
        c[0],
        b.mul(c[1], X),
        b.mul(c[2], Y),
        b.mul(c[3], b.pow_(X, 2.0)),
        b.mul(c[4], b.pow_(Y, 2.0)),
        b.mul(c[5], X, Y),
    )
    return Atom.from_rel(expr.le(0.0))


def sample_points(n=21):
    xs = np.linspace(-1.0, 1.0, n)
    return [
        {"hx": float(a), "hy": float(bb)}
        for a, bb in itertools.product(xs, xs)
    ]


DOMAIN = Box.from_bounds({"hx": (-1.0, 1.0), "hy": (-1.0, 1.0)})
POINTS = sample_points()


@given(atom=quadratic_atoms())
@settings(max_examples=hyp_examples(60), deadline=None)
def test_unsat_answers_have_no_sampled_solutions(atom):
    f = Conjunction.of(atom)
    res = ICPSolver(delta=1e-9).solve(f, DOMAIN, Budget(max_steps=4000))
    if res.status is SolverStatus.UNSAT:
        for pt in POINTS:
            assert not f.holds_at(pt), (
                f"solver claimed UNSAT but {pt} satisfies the formula"
            )


@given(atom=quadratic_atoms())
@settings(max_examples=hyp_examples(60), deadline=None)
def test_sampled_solution_implies_sat(atom):
    f = Conjunction.of(atom)
    # if a sampled point clearly satisfies the formula (with margin), the
    # solver must not answer UNSAT
    margin_points = [
        pt for pt in POINTS if evaluate(atom.residual, pt) <= -1e-3
    ]
    assume(margin_points)
    res = ICPSolver().solve(f, DOMAIN, Budget(max_steps=4000))
    assert res.status is SolverStatus.DELTA_SAT


@given(atom=quadratic_atoms())
@settings(max_examples=hyp_examples(60), deadline=None)
def test_probed_models_are_exact(atom):
    f = Conjunction.of(atom)
    res = ICPSolver().solve(f, DOMAIN, Budget(max_steps=2000))
    if res.status is SolverStatus.DELTA_SAT and res.stats.probe_hits:
        assert f.holds_at(res.model)


@given(atom=quadratic_atoms())
@settings(max_examples=hyp_examples(60), deadline=None)
def test_contraction_preserves_sampled_solutions(atom):
    f = Conjunction.of(atom)
    contractor = HC4Contractor(f, delta=0.0)
    contracted = contractor.contract_batch([DOMAIN], rounds=3)[0][0]
    for pt in POINTS:
        if f.holds_at(pt):
            assert contracted.contains_point(pt), f"contraction lost {pt}"
