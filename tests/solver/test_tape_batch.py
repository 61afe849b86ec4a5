"""Differential tests: batched tape executors vs the per-box tape VM.

The batched forward/backward passes are specified to produce, column for
column, bit-for-bit the endpoints the per-box executors produce box for
box -- including NaN/infinite endpoints, empty intervals (``lo > hi``),
and zero-width batches.  Both the vectorised kernels and the narrow-batch
scalar fallback (below ``repro.solver.tape._VECTOR_MIN`` columns) are
exercised by running every corpus case at widths on both sides of the
threshold.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest

from repro.expr import builder as b
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver import icp, tape as tape_mod
from repro.solver.contractor import HC4Contractor
from repro.solver.icp import Budget, ICPSolver
from repro.solver.interval import Interval
from repro.solver.tape import _VECTOR_MIN, tape_for

from .oracles import (
    TapeContractor,
    WalkContractor,
    assert_results_identical,
    enclosure,
    enclosure_batch,
    solve_per_box,
)
from .test_tape import (
    CLIPPING_BOX,
    CLIPPING_NODES,
    assert_boxes_identical,
    clipping_formula,
    random_box,
    random_expr,
)

#: one width per side of the vectorisation threshold, so every case runs
#: through both the scalar fallback and the NumPy kernels
WIDTHS = (3, _VECTOR_MIN + 5)


def same_endpoint(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def columns_match(tape, boxes, lo_mat, hi_mat) -> None:
    """Every column must equal a per-box forward_arrays run."""
    los = [0.0] * tape.n_slots
    his = [0.0] * tape.n_slots
    for j, box in enumerate(boxes):
        tape.forward_arrays(box, los, his)
        for slot in range(tape.n_slots):
            assert same_endpoint(los[slot], lo_mat[slot, j]), (j, slot)
            assert same_endpoint(his[slot], hi_mat[slot, j]), (j, slot)


# ---------------------------------------------------------------------------
# forward batch parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("width", WIDTHS)
def test_forward_batch_matches_forward_arrays(seed, width):
    rng = random.Random(seed)
    expr = random_expr(rng)
    tape = tape_for(expr)
    boxes = [random_box(rng) for _ in range(width)]
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat)
    columns_match(tape, boxes, lo_mat, hi_mat)


@pytest.mark.parametrize("width", WIDTHS)
def test_forward_batch_with_nan_and_inf_endpoints(width):
    rng = random.Random(99)
    expr = random_expr(rng)
    tape = tape_for(expr)
    weird = [
        Box({"x": Interval(0.0, math.inf), "y": Interval(-math.inf, math.inf),
             "z": Interval(math.nan, math.nan)}),
        Box({"x": Interval(math.inf, -math.inf), "y": Interval(-1.0, 1.0),
             "z": Interval(0.0, 0.0)}),
        Box({"x": Interval(1.0, math.nan), "y": Interval(math.inf, math.inf),
             "z": Interval(-0.0, 0.0)}),
    ]
    boxes = (weird * -(-width // len(weird)))[:width]
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat)
    columns_match(tape, boxes, lo_mat, hi_mat)


def test_forward_batch_empty_batch():
    tape = tape_for(b.exp(b.var("x", nonneg=True)) + b.var("y"))
    lo_mat, hi_mat = tape.load_batch([])
    assert lo_mat.shape == (tape.n_slots, 0)
    tape.forward_batch(lo_mat, hi_mat)  # must not raise
    root_lo, root_hi = enclosure_batch(tape, [])
    assert root_lo.shape == (0,)
    assert root_hi.shape == (0,)


@pytest.mark.parametrize("seed", range(10))
def test_enclosure_batch_matches_enclosure(seed):
    rng = random.Random(500 + seed)
    expr = random_expr(rng)
    tape = tape_for(expr)
    boxes = [random_box(rng) for _ in range(11)]
    root_lo, root_hi = enclosure_batch(tape, boxes)
    for j, box in enumerate(boxes):
        want = enclosure(tape, box)
        if want.is_empty():
            assert not root_lo[j] <= root_hi[j]
        else:
            assert (want.lo, want.hi) == (root_lo[j], root_hi[j])


def test_load_batch_reports_unbound_variable():
    tape = tape_for(b.var("x", nonneg=True) + b.var("y"))
    with pytest.raises(KeyError, match="does not bind"):
        tape.load_batch([Box({"x": (0.0, 1.0)})])


# ---------------------------------------------------------------------------
# backward batch parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("width", WIDTHS)
def test_backward_batch_matches_backward_arrays(seed, width):
    rng = random.Random(7000 + seed)
    expr = random_expr(rng)
    tape = tape_for(expr)
    boxes = [random_box(rng) for _ in range(width)]
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat)
    # intersect the root with (-inf, delta] like a revise step would
    delta = 1e-5
    root = tape.root
    np.copyto(hi_mat[root], delta, where=hi_mat[root] > delta)

    ref_alive = []
    ref_cols = []
    los = [0.0] * tape.n_slots
    his = [0.0] * tape.n_slots
    for j, box in enumerate(boxes):
        tape.forward_arrays(box, los, his)
        if his[root] > delta:
            his[root] = delta
        ref_alive.append(tape.backward_arrays(los, his))
        ref_cols.append((list(los), list(his)))

    alive = tape.backward_batch(lo_mat, hi_mat)
    for j in range(width):
        assert bool(alive[j]) == ref_alive[j], j
        if not ref_alive[j]:
            continue  # per-box pass stops early; dead columns hold garbage
        ref_los, ref_his = ref_cols[j]
        for slot in range(tape.n_slots):
            assert same_endpoint(ref_los[slot], lo_mat[slot, j]), (j, slot)
            assert same_endpoint(ref_his[slot], hi_mat[slot, j]), (j, slot)


# ---------------------------------------------------------------------------
# batched contraction and classification parity
# ---------------------------------------------------------------------------

def random_formula(rng: random.Random) -> Conjunction:
    return Conjunction.of(
        *[Atom(random_expr(rng), rng.choice(["<=", "<"]))
          for _ in range(rng.randint(1, 3))]
    )


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("width", WIDTHS)
def test_contract_batch_matches_contract(seed, width):
    rng = random.Random(1000 + seed)
    formula = random_formula(rng)
    boxes = [random_box(rng) for _ in range(width)]
    reference = TapeContractor(formula, delta=1e-5)
    rounds = rng.choice([1, 2, 3])
    got, allsat = HC4Contractor(formula, delta=1e-5).contract_batch(boxes, rounds=rounds)
    for j, box in enumerate(boxes):
        want = reference.contract(box, rounds=rounds)
        assert_boxes_identical(got[j], want)
        want_sat = (not want.is_empty()) and reference.certainly_sat(want)
        assert bool(allsat[j]) == want_sat, j


@pytest.mark.parametrize("vector_min", (0, 10**9))
@pytest.mark.parametrize("kind", sorted(CLIPPING_NODES))
def test_clipping_op_under_clean_output_batch_matches_walk(kind, vector_min, monkeypatch):
    """The clipping corpus of ``test_tape.py`` through both backward
    executors, next to a column whose y stays inside the domain and one
    whose atom needs no backward pass."""
    monkeypatch.setattr(tape_mod, "_VECTOR_MIN_BWD", vector_min)
    formula = clipping_formula(kind)
    boxes = [
        CLIPPING_BOX,
        Box.from_bounds({"x": (0.0, 30.0), "y": (0.5, 4.0), "z": (1.0, 2.0)}),
        Box.from_bounds({"x": (0.0, 1.0), "y": (-5.0, 4.0), "z": (1.0, 2.0)}),
    ]
    got, _ = HC4Contractor(formula, delta=1e-5).contract_batch(boxes)
    walk = WalkContractor(formula, delta=1e-5)
    for box, g in zip(boxes, got):
        assert_boxes_identical(g, walk.contract(box))
    assert got[0]["y"].lo > CLIPPING_BOX["y"].lo


def test_contract_batch_returns_original_object_when_unchanged():
    x = b.var("x", nonneg=True)
    formula = Conjunction.of(Atom(x + (-100.0), "<="))  # never prunes on [0, 1]
    contractor = HC4Contractor(formula, delta=1e-5)
    boxes = [Box({"x": (0.0, 1.0)}) for _ in range(3)]
    got, allsat = contractor.contract_batch(boxes)
    for j, box in enumerate(boxes):
        assert got[j] is box
        assert bool(allsat[j])


def test_contract_batch_empty_input():
    formula = Conjunction.of(Atom(b.var("x", nonneg=True), "<="))
    contractor = HC4Contractor(formula, delta=1e-5)
    got, allsat = contractor.contract_batch([])
    assert got == []
    assert allsat.shape == (0,)


def test_contract_batch_passes_through_already_empty_boxes():
    formula = Conjunction.of(Atom(b.var("x", nonneg=True), "<="))
    contractor = HC4Contractor(formula, delta=1e-5)
    empty = Box({"x": Interval(math.inf, -math.inf)})
    full = Box({"x": (0.5, 1.0)})
    got, allsat = contractor.contract_batch([empty, full])
    # already-empty input: returned untouched (the solver prunes it upstream)
    assert got[0] is empty
    assert not allsat[0]
    assert got[1].is_empty()  # x in [0.5, 1] refutes x <= delta


@pytest.mark.parametrize("seed", range(15))
def test_classify_batch_matches_per_box_decisions(seed):
    """The batch's refute and certainly-sat verdicts match per-box ones: a
    box per-box contraction refutes comes back empty, and a box every atom
    already satisfies comes back as the very same object, flagged
    certainly-sat."""
    rng = random.Random(4000 + seed)
    formula = random_formula(rng)
    boxes = [random_box(rng) for _ in range(13)]
    reference = TapeContractor(formula, delta=1e-5)
    got, allsat = HC4Contractor(formula, delta=1e-5).contract_batch(boxes, rounds=1)
    for j, box in enumerate(boxes):
        contracted = reference.contract(box, rounds=1)
        assert got[j].is_empty() == contracted.is_empty(), j
        if reference.certainly_sat(box):
            assert contracted is box
            assert got[j] is box and bool(allsat[j]), j


# ---------------------------------------------------------------------------
# frontier solver parity (the property the PR must preserve end to end)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_frontier_solver_matches_tape_and_walk(seed):
    rng = random.Random(3000 + seed)
    formula = Conjunction.of(
        *[Atom(random_expr(rng, depth=3), "<=") for _ in range(rng.randint(1, 2))]
    )
    box = random_box(rng)
    budget = Budget(max_steps=250)
    solver = ICPSolver(delta=1e-5, precision=1e-2)
    with mock.patch.object(icp, "BATCH_SIZE", rng.choice([1, 3, 64])):
        batch = solver.solve(formula, box, budget)
    for executor in ("tape", "walk"):
        oracle = solve_per_box(solver, formula, box, budget, executor=executor)
        assert_results_identical(batch, oracle)
    assert batch.stats.batches > 0


def test_frontier_timeout_mid_batch_matches_per_box():
    rng = random.Random(11)
    formula = Conjunction.of(Atom(random_expr(rng, depth=3), "<="))
    box = random_box(rng)
    solver = ICPSolver(precision=1e-3)
    for steps in (1, 2, 3, 7, 19):
        budget = Budget(max_steps=steps)
        with mock.patch.object(icp, "BATCH_SIZE", 4):
            batch = solver.solve(formula, box, budget)
        assert_results_identical(batch, solve_per_box(solver, formula, box, budget))


def test_frontier_solver_vector_min_override_identical(monkeypatch):
    """The vector/scalar crossover only moves work between the NumPy
    kernels and the per-column scalar path, never results."""
    rng = random.Random(77)
    formula = Conjunction.of(Atom(random_expr(rng, depth=3), "<="))
    box = random_box(rng)
    budget = Budget(max_steps=200)
    results = []
    for vm in (0, 4, 10**9, None):
        with monkeypatch.context() as m:
            if vm is not None:
                m.setattr(tape_mod, "_VECTOR_MIN", vm)
                m.setattr(tape_mod, "_VECTOR_MIN_BWD", vm)
            m.setattr(icp, "BATCH_SIZE", 8)
            results.append(ICPSolver(precision=1e-3).solve(formula, box, budget))
    for other in results[1:]:
        assert_results_identical(results[0], other)


def test_solver_rejects_bad_batch_options():
    # the frontier batch width is a module constant, not a parameter
    with pytest.raises(TypeError, match="batch_size"):
        ICPSolver(batch_size=0)


def test_paper_functional_frontier_parity():
    """PBE-class residual: the acceptance-criterion formula class."""
    from repro.conditions import EC1
    from repro.functionals import get_functional
    from repro.verifier import encode

    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    budget = Budget(max_steps=300)
    solver = ICPSolver(precision=1e-3)
    assert_results_identical(
        solver.solve(problem.negation, box, budget),
        solve_per_box(solver, problem.negation, box, budget),
    )
