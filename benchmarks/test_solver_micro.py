"""Microbenchmarks of the solver and kernel substrates.

Not a paper artifact, but the performance envelope everything else rests
on: HC4 contraction throughput on real DFA formulas, compiled-kernel grid
throughput, and symbolic differentiation cost per functional.

The timing benchmarks additionally publish their numbers: when the
``BENCH_SOLVER_JSON`` environment variable names a file, every measured
timing is merged into that JSON document (CI uploads it as the
``BENCH_solver.json`` artifact, giving the perf trajectory one file per
commit).  The bit-identity checks run production against the test-only
oracles of ``tests/solver/oracles.py`` (tree-walk and per-box tape
contractors, per-box loop) and a forced-scalar build of the same tapes.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
import pytest

from repro.conditions import EC1
from repro.expr.derivative import derivative
from repro.functionals import get_functional, paper_functionals
from repro.functionals.vars import RS
from repro.solver import tape as tape_mod
from repro.solver.box import Box
from repro.solver.contractor import HC4Contractor
from repro.solver.icp import Budget, ICPSolver
from repro.solver.tape import CompiledAtom, CompiledConjunction, compile_expr
from repro.verifier import encode
from tests.solver.oracles import (
    TapeContractor,
    WalkContractor,
    assert_results_identical,
    solve_per_box,
)

from _settings import record_bench as _record_bench

record_bench = partial(_record_bench, "BENCH_SOLVER_JSON")


def test_hc4_contraction_throughput(benchmark):
    problem = encode(get_functional("PBE"), EC1)
    contractor = HC4Contractor(problem.negation, delta=1e-5)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})

    benchmark(contractor.contract_batch, [box])


def test_tape_contraction_matches_tree_walk():
    """Tape-compiled HC4 contraction of a PBE-class residual, per box and
    batched, is bit-identical to the tree-walk oracle."""
    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    walk_box = WalkContractor(problem.negation, delta=1e-5).contract(box)
    for tape_box in (
        TapeContractor(problem.negation, delta=1e-5).contract(box),
        HC4Contractor(problem.negation, delta=1e-5).contract_batch([box])[0][0],
    ):
        for name in tape_box.names:
            assert tape_box[name].lo == walk_box[name].lo
            assert tape_box[name].hi == walk_box[name].hi


def test_solver_call_matches_tree_walk():
    """Full ICP solver calls (contract + probe + split) on the PBE EC1
    negation: the frontier solver replays the per-box tree-walk loop."""
    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    budget = Budget(max_steps=60)
    solver = ICPSolver(delta=1e-5, precision=1e-3)
    assert_results_identical(
        solver.solve(problem.negation, box, budget),
        solve_per_box(solver, problem.negation, box, budget, executor="walk"),
    )


def test_batched_frontier_matches_per_box_oracle():
    """A full-domain PBE EC1 frontier solve, with the BFS frontier a few
    hundred boxes wide (the regime the batched executors are built for),
    matches the per-box tape loop in status, model and per-box stats."""
    problem = encode(get_functional("PBE"), EC1)
    budget = Budget(max_steps=5000)
    solver = ICPSolver(delta=1e-5, precision=1e-3)
    result = solver.solve(problem.negation, problem.domain, budget)
    assert result.stats.batches > 0
    assert_results_identical(
        result, solve_per_box(solver, problem.negation, problem.domain, budget)
    )


def _split_domain(domain, width):
    boxes = [domain]
    while len(boxes) < width:
        boxes = [half for box in boxes for half in box.split()]
    return boxes[:width]


def _assert_batches_identical(got, want):
    boxes_g, sat_g = got
    boxes_w, sat_w = want
    assert np.array_equal(sat_g, sat_w)
    for x, y in zip(boxes_g, boxes_w):
        assert x.is_empty() == y.is_empty()
        if not x.is_empty():
            for name in x.names:
                assert x[name].lo == y[name].lo and x[name].hi == y[name].hi


def _forced_scalar(monkeypatch, formula) -> CompiledConjunction:
    """The per-column reference configuration: freshly built tapes, with
    every batch below the vector/scalar crossover."""
    monkeypatch.setattr(tape_mod, "_VECTOR_MIN", 10**9)
    monkeypatch.setattr(tape_mod, "_VECTOR_MIN_BWD", 10**9)
    return CompiledConjunction(
        tuple(
            CompiledAtom(compile_expr(atom.residual), atom.op)
            for atom in formula.atoms
        )
    )


def test_pow_func_batch_kernels_match_forced_scalar(monkeypatch):
    """The whole-batch Pow/Func kernels contract PBE EC1 batches
    bit-identically to the per-column scalar interpreter, across frontier
    widths.  PBE EC1 is the Pow/Func-heavy
    pair: its residual tapes are dominated by integer-power chains, real
    powers and exp/log rows."""
    problem = encode(get_functional("PBE"), EC1)
    widths = (256, 512, 1024)
    batches = {w: _split_domain(problem.domain, w) for w in widths}
    contractor = HC4Contractor(problem.negation, delta=1e-5)
    kernel = {w: contractor.contract_batch(boxes) for w, boxes in batches.items()}
    with monkeypatch.context() as m:
        reference = HC4Contractor(
            _forced_scalar(m, problem.negation), delta=1e-5
        )
        scalar = {w: reference.contract_batch(boxes) for w, boxes in batches.items()}
    for w in widths:
        _assert_batches_identical(kernel[w], scalar[w])


def test_pow_func_frontier_matches_forced_scalar(monkeypatch):
    """The same comparison on a full frontier solve of PBE/EC1."""
    problem = encode(get_functional("PBE"), EC1)
    budget = Budget(max_steps=1200)
    kernel = ICPSolver(delta=1e-5, precision=1e-3).solve(
        problem.negation, problem.domain, budget
    )
    with monkeypatch.context() as m:
        formula = _forced_scalar(m, problem.negation)
        scalar = ICPSolver(delta=1e-5, precision=1e-3).solve(
            formula, problem.domain, budget
        )
    assert_results_identical(kernel, scalar)


#: frontier width of the per-op kernel timings
KERNEL_WIDTH = 256


def _kernel_cases():
    """Per-op (vector kernel, per-column Interval loop) pairs at
    ``KERNEL_WIDTH`` on a fixed random row."""
    from repro.solver import kernels
    from repro.solver.interval import Interval

    width = KERNEL_WIDTH
    rng = np.random.default_rng(7)
    lo = np.abs(rng.normal(1.0, 0.7, width)) + 1e-3
    hi = lo + np.abs(rng.normal(0.5, 0.3, width))

    def per_column(method, *args):
        def run():
            out_lo = np.empty(width)
            out_hi = np.empty(width)
            for j in range(width):
                iv = method(Interval(lo[j], hi[j]), *args)
                out_lo[j] = iv.lo
                out_hi[j] = iv.hi
            return out_lo, out_hi
        return run

    return {
        "pow_int3": (lambda: kernels.fwd_pow_int(lo, hi, 3),
                     per_column(Interval.pow_int, 3)),
        "pow_real": (lambda: kernels.fwd_pow_real(lo, hi, 1.5),
                     per_column(Interval.pow_real, 1.5)),
        "exp": (lambda: kernels.FWD_FUNC["exp"](lo, hi),
                per_column(Interval.exp)),
        "log": (lambda: kernels.FWD_FUNC["log"](lo, hi),
                per_column(Interval.log)),
    }


def _best_us(fn, repeats=5, iters=20):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best * 1e6


def test_per_op_kernel_timings():
    """Publish per-op forward/backward kernel timings (vector vs the
    per-column Interval loops) into the perf artifact.

    No timing gate -- that is the ``perf``-marked
    :func:`test_per_op_vector_kernels_beat_per_column_loops` -- but each
    vector kernel must stay bit-identical to its per-column counterpart.
    """
    width = KERNEL_WIDTH
    values = {}
    for name, (vector_fn, scalar_fn) in _kernel_cases().items():
        v_lo, v_hi = vector_fn()
        s_lo, s_hi = scalar_fn()
        assert np.array_equal(v_lo, s_lo) and np.array_equal(v_hi, s_hi), name
        t_vector = _best_us(vector_fn)
        t_scalar = _best_us(scalar_fn)
        values[f"{name}_vector_us"] = t_vector
        values[f"{name}_scalar_us"] = t_scalar
        print(f"\n{name}: vector {t_vector:.1f} us, per-column {t_scalar:.1f} us "
              f"({t_scalar / t_vector:.1f}x) at width {width}")

    # backward pass at op granularity: a Pow/Func-heavy tape end to end,
    # vector (vector_min=0) vs forced per-column (vector_min > width)
    from repro.solver.tape import clear_tape_cache, tape_for

    clear_tape_cache()
    problem = encode(get_functional("PBE"), EC1)
    tape = tape_for(problem.negation.atoms[0].residual)
    boxes = _split_domain(problem.domain, width)
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat, 0)
    root = tape.root

    def backward(vector_min):
        def run():
            blo, bhi = lo_mat.copy(), hi_mat.copy()
            np.copyto(bhi[root], 1e-5, where=bhi[root] > 1e-5)
            tape.backward_batch(blo, bhi, vector_min)
        return run

    values["backward_vector_us"] = _best_us(backward(0), iters=5)
    values["backward_scalar_us"] = _best_us(backward(width + 1), iters=5)
    print(f"backward pass: vector {values['backward_vector_us']:.1f} us, "
          f"per-column {values['backward_scalar_us']:.1f} us at width {width}")
    record_bench("kernel_ops", width=width, **values)


@pytest.mark.perf
def test_per_op_vector_kernels_beat_per_column_loops():
    """A wall-clock gate, so ``perf``-marked: at frontier width each
    vector kernel must not regress past its per-column loop."""
    for name, (vector_fn, scalar_fn) in _kernel_cases().items():
        assert _best_us(vector_fn) < _best_us(scalar_fn), (
            f"{name} vector kernel slower than the per-column loop at width "
            f"{KERNEL_WIDTH}"
        )


def test_disabled_tracer_overhead_on_solver_calls():
    """Observability gate: with tracing off, the campaign's per-call
    tracer pattern (ambient ``current_tracer()`` lookup + ``enabled``
    check + no-op span) must cost <= 2% on top of bare ICP solve calls.

    This is the exact shape the traced hot paths use -- the solver inner
    loop itself carries no tracing code, so this bounds the *total*
    disabled-tracing tax a campaign pays per cell/unit.  A gated call is
    a bare call plus the gate, so the gate is timed on its own, amortised
    over many passes, and added to the fastest bare solve.  Dividing two
    whole-solve timings instead compares ~20 ms readings whose spread on
    a shared 2-CPU VM (several percent between identical loops) swamps a
    sub-microsecond gate and fails the bound at random.
    """
    from repro.obs.trace import current_tracer

    assert not current_tracer().enabled  # the disabled path is under test
    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    budget = Budget(max_steps=60)
    solver = ICPSolver(delta=1e-5, precision=1e-3)
    solver.solve(problem.negation, box, budget)  # warm caches

    def bare():
        t0 = time.perf_counter()
        solver.solve(problem.negation, box, budget)
        return time.perf_counter() - t0

    def gate(iters):
        t0 = time.perf_counter()
        for _ in range(iters):
            tracer = current_tracer()
            if tracer.enabled:  # off: the one branch the hot path pays
                span = tracer.begin("solve", "solve")
            if tracer.enabled:
                tracer.finish(span)
        return (time.perf_counter() - t0) / iters

    t_bare = min(bare() for _ in range(20))
    t_gate = min(gate(10_000) for _ in range(5))
    t_gated = t_bare + t_gate

    overhead = t_gated / t_bare
    print(f"\ndisabled tracing: bare {t_bare * 1e3:.2f} ms/solve, "
          f"gate {t_gate * 1e6:.3f} us/call, "
          f"overhead {overhead:.6f}x")
    record_bench(
        "tracing_off_overhead",
        bare_ms=t_bare * 1e3,
        gated_ms=t_gated * 1e3,
        gate_us=t_gate * 1e6,
        overhead_ratio=overhead,
    )
    assert overhead <= 1.02, (
        f"disabled tracing costs {(overhead - 1) * 100:.2f}% (> 2% budget)"
    )


def test_scan_contraction_cost(benchmark):
    """SCAN formulas are the most expensive to contract (paper Sec. VI-A)."""
    problem = encode(get_functional("SCAN"), EC1)
    contractor = HC4Contractor(problem.negation, delta=1e-5)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0), "alpha": (0.0, 2.0)})
    benchmark(contractor.contract_batch, [box])


def test_kernel_grid_throughput(benchmark):
    """Vectorised F_c evaluation on a 400x400 mesh."""
    f = get_functional("PBE")
    kernel = f.fc_kernel()
    rs, s = np.meshgrid(
        np.linspace(1e-4, 5, 400), np.linspace(0, 5, 400), indexing="ij"
    )

    out = benchmark(kernel, rs, s)
    assert out.shape == (400, 400)


def test_symbolic_differentiation_cost(benchmark):
    """d2 F_c / d rs2 for SCAN -- the heaviest encoder step (EC3)."""
    f = get_functional("SCAN")
    fc = f.fc()

    def second_derivative():
        return derivative(derivative(fc, RS), RS)

    expr = benchmark.pedantic(second_derivative, rounds=1, iterations=1)
    assert expr.dag_size() > 100


def test_encoding_cost_by_functional(benchmark):
    """Encoding all seven conditions for every functional (cached path
    excluded by re-deriving)."""
    from repro.conditions import PAPER_CONDITIONS

    def encode_all():
        sizes = {}
        for f in paper_functionals():
            for c in PAPER_CONDITIONS:
                if c.applies_to(f):
                    sizes[(f.name, c.cid)] = encode(f, c).complexity()
        return sizes

    sizes = benchmark.pedantic(encode_all, rounds=1, iterations=1)
    assert len(sizes) == 31
    scan_max = max(v for (n, _), v in sizes.items() if n == "SCAN")
    others_max = max(v for (n, _), v in sizes.items() if n != "SCAN")
    print(f"\nlargest SCAN formula: {scan_max} ops; largest other: {others_max} ops")
    assert scan_max > others_max
