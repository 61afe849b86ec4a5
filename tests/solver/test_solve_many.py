"""Multi-root solver calls: ``solve_many`` equals one ``solve`` per root.

Every root keeps its own worklist, step budget and stats while the roots
share the batched kernel calls; kernel columns are bit-identical whatever
the batch holds, so each root's status, model and per-box counters must
match a solo call exactly (``tests/solver/oracles.py``'s
``assert_results_identical``).
"""

from __future__ import annotations

import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.conditions.catalog import get_condition
from repro.expr import builder as b
from repro.expr.nodes import Var
from repro.functionals.registry import get_functional
from repro.solver import icp
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver.icp import Budget, ICPSolver, SolverStatus
from repro.verifier.encoder import compile_problem, encode

from tests.solver.oracles import assert_results_identical
from tests.support import hyp_examples

X = Var("mx")
Y = Var("my")
DOMAIN = Box.from_bounds({"mx": (-1.0, 1.0), "my": (-1.0, 1.0)})


def formula(*rels):
    return Conjunction.of(*[Atom.from_rel(r) for r in rels])


def assert_matches_solo(solver, f, roots, budget=None):
    results = solver.solve_many(f, roots, budget)
    assert len(results) == len(roots)
    for root, result in zip(roots, results):
        assert_results_identical(result, solver.solve(f, root, budget))
    return results


coef = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
corner = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def quadratic(draw):
    """c0 + c1 x + c2 y + c3 x^2 + c4 y^2 + c5 x y <= 0 (plus an optional
    second atom, so the per-atom certainly-sat pass is covered too)."""
    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        c = [draw(coef) for _ in range(6)]
        expr = b.add(
            c[0], b.mul(c[1], X), b.mul(c[2], Y),
            b.mul(c[3], b.pow_(X, 2.0)), b.mul(c[4], b.pow_(Y, 2.0)), b.mul(c[5], X, Y),
        )
        atoms.append(Atom.from_rel(expr.le(0.0)))
    return Conjunction.of(*atoms)


@st.composite
def sub_box(draw):
    x0, x1 = sorted((draw(corner), draw(corner)))
    y0, y1 = sorted((draw(corner), draw(corner)))
    return Box.from_bounds({"mx": (x0, x1), "my": (y0, y1)})


@given(
    f=quadratic(),
    roots=st.lists(sub_box(), min_size=0, max_size=6),
    steps=st.integers(1, 300),
    batch_size=st.sampled_from([1, 2, 7, 24, 256]),
)
@settings(max_examples=hyp_examples(60), deadline=None)
def test_solve_many_equals_per_root_solve(f, roots, steps, batch_size):
    # patched in the body: Hypothesis rejects function-scoped fixtures
    with mock.patch.object(icp, "BATCH_SIZE", batch_size):
        solver = ICPSolver(delta=1e-9, precision=1e-3)
        assert_matches_solo(solver, f, roots, Budget(max_steps=steps))


def test_empty_roots():
    assert ICPSolver().solve_many(formula(X.le(0.0)), []) == []


def test_roots_finishing_in_round_one():
    # probing settles every root on its first box
    roots = [DOMAIN, Box.from_bounds({"mx": (0.0, 0.5), "my": (-1.0, 0.0)})]
    results = assert_matches_solo(ICPSolver(), formula(X.le(10.0)), roots)
    assert [r.status for r in results] == [SolverStatus.DELTA_SAT] * 2
    assert [r.stats.batches for r in results] == [1, 1]


def test_timeout_roots_beside_finishing_roots():
    # a thin feasible band times out under a small budget, while roots
    # far from it are refuted at once
    f = formula((b.sin(X) * b.cos(Y)).ge(0.9999999))
    roots = [
        Box.from_bounds({"mx": (0.0, 10.0), "my": (0.0, 10.0)}),
        Box.from_bounds({"mx": (0.0, 0.1), "my": (0.0, 0.1)}),
        Box.from_bounds({"mx": (-10.0, 0.0), "my": (0.0, 10.0)}),
    ]
    results = assert_matches_solo(ICPSolver(), f, roots, Budget(max_steps=40))
    # no midpoint probe lands in the band
    assert [r.stats.probe_hits for r in results] == [0, 0, 0]
    statuses = [r.status for r in results]
    assert SolverStatus.TIMEOUT in statuses
    assert SolverStatus.UNSAT in statuses


def test_zero_step_budget_times_out_every_root():
    results = ICPSolver().solve_many(formula(X.le(0.0)), [DOMAIN, DOMAIN], Budget(max_steps=0))
    assert [r.status for r in results] == [SolverStatus.TIMEOUT] * 2
    assert [r.stats.boxes_processed for r in results] == [0, 0]


def test_batch_size_one():
    f = formula((X**2 + Y**2).le(0.25), (X + Y).ge(0.9))
    roots = [DOMAIN, Box.from_bounds({"mx": (0.0, 1.0), "my": (0.0, 1.0)})]
    with mock.patch.object(icp, "BATCH_SIZE", 1):
        assert_matches_solo(ICPSolver(), f, roots, Budget(max_steps=200))


@pytest.fixture(scope="module")
def pbe_ec3():
    return compile_problem(encode(get_functional("PBE"), get_condition("EC3")))


def test_mixed_widths_cross_the_vector_crossover(pbe_ec3):
    # quarter-domain roots whose frontiers, side by side, grow past the
    # tapes' scalar/vector crossovers, next to a sliver of the domain
    quarters = pbe_ec3.domain.split_all()
    sliver = quarters[0].split_all()[0].split_all()[0]
    roots = quarters + [sliver]
    budget = Budget(max_steps=120)
    solver = ICPSolver(delta=1e-5, precision=1e-3)
    results = assert_matches_solo(solver, pbe_ec3.negation, roots, budget)
    solo = [solver.solve(pbe_ec3.negation, root, budget) for root in roots]
    many_scalar = sum(r.stats.scalar_columns for r in results)
    solo_scalar = sum(r.stats.scalar_columns for r in solo)
    assert sum(r.stats.vector_columns for r in results) > 0
    # the shared batches move columns from the scalar to the vector path;
    # no root stops early on a model here, so every root contracts the
    # same boxes either way and the column total is unchanged
    assert many_scalar < solo_scalar
    assert sum(r.stats.scalar_columns + r.stats.vector_columns for r in results) == sum(
        r.stats.scalar_columns + r.stats.vector_columns for r in solo
    )


def test_dispatch_counters_and_time_shares():
    f = formula((X**2 + Y**2).le(0.25), (X + Y).ge(0.9))
    roots = DOMAIN.split_all()
    start = time.monotonic()
    results = ICPSolver().solve_many(f, roots, Budget(max_steps=100))
    wall = time.monotonic() - start
    assert [r.stats.calls for r in results] == [1, 0, 0, 0]
    assert [r.stats.roots for r in results] == [1, 1, 1, 1]
    shares = [r.stats.elapsed_seconds for r in results]
    assert min(shares) >= 0.0
    # the shares partition the call's own wall time: no double counting
    assert sum(shares) <= wall + 1e-9


def test_unbound_variable_rejected():
    with pytest.raises(ValueError, match="does not bind"):
        ICPSolver().solve_many(
            formula((X + Y).le(0.0)), [DOMAIN, Box.from_bounds({"mx": (0.0, 1.0)})]
        )
