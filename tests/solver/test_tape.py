"""Differential tests: tape VM vs the tree-walking oracles.

The tape executors are specified to perform the *identical* sequence of
primitive float/interval operations as the tree walks, so every comparison
here is exact (bit for bit), which is stronger than the outward-rounding
slack the solver itself would tolerate.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.expr import builder as b
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Expr, Func
from repro.solver.box import Box
from repro.solver.constraint import Atom, Conjunction
from repro.solver.contractor import HC4Contractor
from repro.solver import tape as tape_mod
from repro.solver.icp import Budget, ICPSolver
from repro.solver.tape import CompiledConjunction, Tape, compile_expr, tape_for

from .oracles import (
    TapeContractor,
    WalkContractor,
    enclosure,
    evaluate_tree,
    interval_eval,
    solve_per_box,
)


# ---------------------------------------------------------------------------
# random residual generator
# ---------------------------------------------------------------------------

X = b.var("x", nonneg=True)
Y = b.var("y")
Z = b.var("z", nonneg=True)

_UNARY = ("exp", "log", "sqrt", "cbrt", "atan", "abs", "sin", "cos", "tanh", "erf")


def random_expr(rng: random.Random, depth: int = 4) -> Expr:
    """A random residual over x (nonneg), y, z (nonneg)."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(
            [X, Y, Z, b.const(rng.uniform(-3.0, 3.0)), b.const(rng.choice([0.5, 1.0, 2.0, 3.0]))]
        )
    kind = rng.random()
    if kind < 0.3:
        n = rng.randint(2, 4)
        return b.add(*[random_expr(rng, depth - 1) for _ in range(n)])
    if kind < 0.55:
        n = rng.randint(2, 3)
        return b.mul(*[random_expr(rng, depth - 1) for _ in range(n)])
    if kind < 0.7:
        expo = rng.choice([-2, -1, 2, 3, 0.5, 1.5, -0.5])
        return b.pow_(random_expr(rng, depth - 1), expo)
    if kind < 0.92:
        name = rng.choice(_UNARY)
        return getattr(b, name if name != "abs" else "abs_")(random_expr(rng, depth - 1))
    cond = random_expr(rng, depth - 2).le(random_expr(rng, depth - 2))
    return b.ite(cond, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_box(rng: random.Random) -> Box:
    def iv(lo_min, lo_max, w_max):
        lo = rng.uniform(lo_min, lo_max)
        return (lo, lo + rng.uniform(0.0, w_max))

    return Box.from_bounds(
        {"x": iv(0.0, 2.0, 2.0), "y": iv(-2.0, 1.0, 3.0), "z": iv(0.0, 1.0, 1.5)}
    )


def assert_boxes_identical(b1: Box, b2: Box) -> None:
    assert b1.names == b2.names
    for name in b1.names:
        i1, i2 = b1[name], b2[name]
        if i1.is_empty() and i2.is_empty():
            continue
        assert i1.lo == i2.lo and i1.hi == i2.hi, (name, i1, i2)


CORPUS_SEEDS = range(40)


# ---------------------------------------------------------------------------
# forward enclosure parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_forward_enclosure_matches_tree_walk(seed):
    rng = random.Random(seed)
    expr = random_expr(rng)
    box = random_box(rng)
    walk = interval_eval(expr, box)[id(expr)]
    tape = enclosure(tape_for(expr), box)
    if walk.is_empty():
        assert tape.is_empty()
    else:
        assert (walk.lo, walk.hi) == (tape.lo, tape.hi)


# ---------------------------------------------------------------------------
# HC4 contraction parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_contraction_matches_tree_walk(seed):
    rng = random.Random(1000 + seed)
    formula = Conjunction.of(
        *[Atom(random_expr(rng), rng.choice(["<=", "<"])) for _ in range(rng.randint(1, 3))]
    )
    box = random_box(rng)
    tape_c = TapeContractor(formula, delta=1e-5)
    walk_c = WalkContractor(formula, delta=1e-5)
    assert_boxes_identical(tape_c.contract(box), walk_c.contract(box))


def test_certainly_sat_agrees_with_walk_revise():
    rng = random.Random(7)
    for _ in range(20):
        expr = random_expr(rng)
        formula = Conjunction.of(Atom(expr, "<="))
        box = random_box(rng)
        contractor = TapeContractor(formula, delta=1e-5)
        walk = interval_eval(expr, box)[id(expr)]
        expected = (not walk.is_empty()) and walk.hi <= 1e-5
        assert contractor.certainly_sat(box) == expected


# ---------------------------------------------------------------------------
# scalar point-evaluation parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_point_eval_matches_tree_walk(seed):
    rng = random.Random(2000 + seed)
    expr = random_expr(rng)
    for _ in range(5):
        env = {
            "x": rng.uniform(0.0, 3.0),
            "y": rng.uniform(-3.0, 3.0),
            "z": rng.uniform(0.0, 2.0),
        }
        v_tape = evaluate(expr, env)
        v_walk = evaluate_tree(expr, env)
        if math.isnan(v_walk):
            assert math.isnan(v_tape)
        else:
            assert v_tape == v_walk


# ---------------------------------------------------------------------------
# solver-status parity (the property the PR must preserve end to end)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_solver_status_and_model_match(seed):
    rng = random.Random(3000 + seed)
    formula = Conjunction.of(Atom(random_expr(rng, depth=3), "<="))
    box = random_box(rng)
    budget = Budget(max_steps=300)
    solver = ICPSolver(delta=1e-5, precision=1e-2)
    results = {
        "tape": solver.solve(formula, box, budget),
        "walk": solve_per_box(solver, formula, box, budget, executor="walk"),
    }
    assert results["tape"].status == results["walk"].status
    assert results["tape"].model == results["walk"].model
    assert (
        results["tape"].stats.boxes_processed == results["walk"].stats.boxes_processed
    )


# ---------------------------------------------------------------------------
# tape structure, cache, and pickling
# ---------------------------------------------------------------------------

def test_tape_is_flat_picklable_data():
    rng = random.Random(42)
    expr = random_expr(rng)
    tape = compile_expr(expr)
    clone = pickle.loads(pickle.dumps(tape))
    assert clone.instrs == tape.instrs
    assert clone.root == tape.root
    box = random_box(rng)
    t1, t2 = enclosure(tape, box), enclosure(clone, box)
    if t1.is_empty():
        assert t2.is_empty()
    else:
        assert (t1.lo, t1.hi) == (t2.lo, t2.hi)


def test_unpickled_tapes_share_one_cached_runtime():
    """Workers unpickle identical tapes on every chunk: the first unpickle
    builds the runtime into the per-process cache, later ones reuse it."""
    from repro.solver.tape import _RUNTIME_CACHE

    tape = compile_expr(b.exp(X) * Y + b.const(0.5))
    blob = pickle.dumps(tape)
    _RUNTIME_CACHE.clear()
    first = pickle.loads(blob)
    second = pickle.loads(blob)
    assert len(_RUNTIME_CACHE) == 1
    assert first.runtime_program() == tape.runtime_program()
    assert second._fwd is first._fwd
    assert first.fingerprint() == tape.fingerprint()


def test_tape_cache_returns_same_tape_for_interned_expr():
    expr = b.exp(X) + Y
    assert tape_for(expr) is tape_for(expr)
    # hash-consing means structural reconstruction hits the same tape
    assert tape_for(b.exp(X) + Y) is tape_for(expr)


def test_constants_folded_into_literal_pool():
    expr = b.const(2.0) * X + b.const(3.5)
    tape = compile_expr(expr)
    values = {v for _, v in tape.const_slots}
    assert {2.0, 3.5} <= values
    # constants generate no instructions: only the mul and the add remain
    assert len(tape.instrs) == 2


def test_corpus_tapes_have_no_literal_only_instruction():
    """The expression builder folds literal-only subtrees to ``Const``, so
    no instruction of any corpus tape (negation atoms, psi_lhs, psi_rhs)
    reads only literal-pool slots: there is nothing for a tape-level
    constant-folding pass to precompute."""
    from repro.solver.tape import OP_ADDN, OP_FUNC, OP_ITE, OP_MULN
    from repro.statan.tapecheck import corpus_pairs
    from repro.verifier.encoder import compile_problem, encode

    pairs = corpus_pairs()
    assert len(pairs) == 88
    for functional, condition in pairs:
        compiled = compile_problem(encode(functional, condition))
        tapes = [atom.tape for atom in compiled.negation.atoms]
        tapes += [compiled.psi_lhs, compiled.psi_rhs]
        for tape in tapes:
            literals = {slot for slot, _ in tape.const_slots}
            for op, out, a, b_, _aux in tape.instrs:
                if op == OP_FUNC:
                    operands = (a,)
                elif op in (OP_ADDN, OP_MULN, OP_ITE):
                    operands = a
                else:  # ADD2 / MUL2 / POW
                    operands = (a, b_)
                assert not literals.issuperset(operands), (
                    f"{functional.name}/{condition.cid}: slot {out} "
                    "has only literal operands"
                )


def test_compiled_conjunction_roundtrip_through_pickle():
    rng = random.Random(5)
    formula = Conjunction.of(Atom(random_expr(rng), "<="))
    compiled = pickle.loads(pickle.dumps(CompiledConjunction.from_conjunction(formula)))
    box = random_box(rng)
    assert_boxes_identical(
        TapeContractor(compiled, delta=1e-5).contract(box),
        WalkContractor(formula, delta=1e-5).contract(box),
    )
    env = {"x": 0.3, "y": -0.7, "z": 0.9}
    assert compiled.holds_at(env) == formula.holds_at(env)
    assert compiled.free_var_names() == formula.free_var_names()


def test_walk_backend_rejects_compiled_conjunction():
    formula = Conjunction.of(Atom(X + Y, "<="))
    compiled = CompiledConjunction.from_conjunction(formula)
    with pytest.raises(ValueError, match="walk"):
        WalkContractor(compiled)


# ---------------------------------------------------------------------------
# solver cache keying (regression: id() reuse must not alias contractors)
# ---------------------------------------------------------------------------

def test_contractor_cache_is_not_id_keyed():
    solver = ICPSolver()
    box = Box.from_bounds({"x": (0.0, 1.0)})
    import gc

    seen = set()
    for k in range(6):
        formula = Conjunction.of(Atom(X - float(k), "<="))
        solver.solve(formula, box, Budget(max_steps=10))
        contractor = solver._contractors[formula]
        assert contractor.formula is formula
        seen.add(id(formula))
        del formula
        gc.collect()
    # every formula got its own cached contractor, held by strong reference
    assert len(solver._contractors) == 6


#: one applicable condition per paper functional, each with sub-boxes
#: that contract to a smaller non-empty box
PAPER_PAIRS = (("PBE", "EC1"), ("LYP", "EC1"), ("AM05", "EC4"), ("SCAN", "EC1"),
               ("VWN RPA", "EC3"))


@pytest.mark.parametrize("functional, cid", PAPER_PAIRS)
def test_paper_functional_contraction_parity(functional, cid):
    """Paper residuals: the acceptance-criterion formula class, per box
    and batched, over the domain split twice along every variable."""
    from repro.conditions import get_condition
    from repro.functionals import get_functional
    from repro.verifier import encode

    problem = encode(get_functional(functional), get_condition(cid))
    subs = [half for box in problem.domain.split_all() for half in box.split_all()]
    tape_c = TapeContractor(problem.negation, delta=1e-5)
    walk_c = WalkContractor(problem.negation, delta=1e-5)
    want = [walk_c.contract(sub) for sub in subs]
    for sub, w in zip(subs, want):
        assert_boxes_identical(tape_c.contract(sub), w)
    got, _ = HC4Contractor(problem.negation, delta=1e-5).contract_batch(subs)
    for g, w in zip(got, want):
        assert_boxes_identical(g, w)
    assert any(not w.is_empty() and w != sub for sub, w in zip(subs, want))


# ---------------------------------------------------------------------------
# the backward pass's skip rule: domain-clipping ops always run
# ---------------------------------------------------------------------------

#: a domain-clipping node over y, one per op the backward pass must never
#: skip; ``y`` crosses the domain boundary on CLIPPING_BOX
CLIPPING_NODES = {
    "pow_real": b.pow_(Y, 1.5),
    "pow_var": b.pow_(Y, Z),
    "log": b.log(Y),
    "sqrt": Func("sqrt", Y),
    "lambertw": b.lambertw(Y),
}

#: the root sum narrows x, but every clipping node's enclosure on this box
#: (at most [0, 16]) lies inside the root's allowed 20 + delta - x, so its
#: output slot keeps its forward value
CLIPPING_BOX = Box.from_bounds({"x": (0.0, 30.0), "y": (-5.0, 4.0), "z": (1.0, 2.0)})


def clipping_formula(kind: str) -> Conjunction:
    """``node(y) + x - 20 <= 0``: only the clipping step can narrow y."""
    return Conjunction.of(Atom(b.add(CLIPPING_NODES[kind], X, b.const(-20.0)), "<="))


def skip_always_run_ops(tape: Tape) -> list:
    """The tape's reverse program with every non-root op marked skippable:
    a deliberately wrong always-run list."""
    return [
        (op, out, a, bb, aux, total or out != tape.root)
        for op, out, a, bb, aux, total in tape._rev
    ]


@pytest.mark.parametrize("kind", sorted(CLIPPING_NODES))
def test_clipping_op_under_clean_output_matches_walk(kind):
    formula = clipping_formula(kind)
    got = TapeContractor(formula, delta=1e-5).contract(CLIPPING_BOX)
    want = WalkContractor(formula, delta=1e-5).contract(CLIPPING_BOX)
    assert_boxes_identical(got, want)
    # the clipping step narrowed y: the case exercises the always-run rule
    assert got["y"].lo > CLIPPING_BOX["y"].lo


@pytest.mark.parametrize("kind", sorted(CLIPPING_NODES))
def test_skipping_a_clipping_op_diverges_from_walk(kind, monkeypatch):
    """Mutation check: with the clipping op marked skippable, the case
    above no longer matches the walk on any executor, so the corpus
    catches a wrong always-run list."""
    formula = clipping_formula(kind)
    contractor = HC4Contractor(formula, delta=1e-5)
    reference = TapeContractor(formula, delta=1e-5)
    tape = contractor._tapes[0]
    assert reference._tapes[0] is tape  # one mutation reaches every executor
    monkeypatch.setattr(tape, "_rev", skip_always_run_ops(tape))
    want = WalkContractor(formula, delta=1e-5).contract(CLIPPING_BOX)
    got = [reference.contract(CLIPPING_BOX)]
    for vector_min in (0, 10**9):
        monkeypatch.setattr(tape_mod, "_VECTOR_MIN_BWD", vector_min)
        got.append(contractor.contract_batch([CLIPPING_BOX])[0][0])
    for box in got:
        assert box["y"].lo == CLIPPING_BOX["y"].lo
        assert box["y"].lo != want["y"].lo


#: ``cbrt(y) + x - 20 <= 0`` on a y reaching -1e308: cbrt's output stays
#: clean, yet the cube of its forward lower bound cuts y's endpoint
CBRT_FORMULA = Conjunction.of(Atom(b.add(b.cbrt(Y), X, b.const(-20.0)), "<="))
CBRT_BOX = Box.from_bounds({"x": (0.0, 30.0), "y": (-1e308, 4.0)})


def test_cbrt_of_huge_input_matches_walk(monkeypatch):
    """cbrt is on the always-run list: every executor matches the walk,
    and marking it skippable leaves y uncut."""
    want = WalkContractor(CBRT_FORMULA, delta=1e-5).contract(CBRT_BOX)
    assert want["y"].lo > CBRT_BOX["y"].lo  # the case stays live
    contractor = HC4Contractor(CBRT_FORMULA, delta=1e-5)
    reference = TapeContractor(CBRT_FORMULA, delta=1e-5)
    tape = contractor._tapes[0]
    assert reference._tapes[0] is tape  # one mutation reaches every executor

    def contract_all() -> list[Box]:
        got = [reference.contract(CBRT_BOX)]
        for vector_min in (0, 10**9):
            monkeypatch.setattr(tape_mod, "_VECTOR_MIN_BWD", vector_min)
            got.append(contractor.contract_batch([CBRT_BOX])[0][0])
        return got

    for box in contract_all():
        assert_boxes_identical(box, want)
    monkeypatch.setattr(tape, "_rev", skip_always_run_ops(tape))
    for box in contract_all():
        assert box["y"].lo == CBRT_BOX["y"].lo
