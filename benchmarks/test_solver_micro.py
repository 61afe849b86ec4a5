"""Microbenchmarks of the solver and kernel substrates.

Not a paper artifact, but the performance envelope everything else rests
on: HC4 contraction throughput on real DFA formulas, compiled-kernel grid
throughput, and symbolic differentiation cost per functional.

The timing benchmarks additionally publish their numbers: when the
``BENCH_SOLVER_JSON`` environment variable names a file, every measured
timing is merged into that JSON document (CI uploads it as the
``BENCH_solver.json`` artifact, giving the perf trajectory one file per
commit).  The bit-identity checks run production against the test-only
oracles of ``tests/solver/oracles.py`` (tree-walk contractor, per-box
loop) and the forced-scalar, unfused tape build.
"""

from __future__ import annotations

import os
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
from tests.solver.oracles import WalkContractor, assert_results_identical, solve_per_box

from _settings import record_bench as _record_bench

record_bench = partial(_record_bench, "BENCH_SOLVER_JSON")


def test_hc4_contraction_throughput(benchmark):
    problem = encode(get_functional("PBE"), EC1)
    contractor = HC4Contractor(problem.negation, delta=1e-5)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})

    result = benchmark(contractor.contract, box)
    assert not result.is_empty() or True


def test_tape_contraction_matches_tree_walk():
    """Tape-compiled HC4 contraction of a PBE-class residual is
    bit-identical to the tree-walk oracle."""
    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    tape_box = HC4Contractor(problem.negation, delta=1e-5).contract(box)
    walk_box = WalkContractor(problem.negation, delta=1e-5).contract(box)
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


def test_campaign_work_stealing_beats_static_chunks():
    """Acceptance check: the campaign engine's dynamic work-stealing must
    beat static chunk partitioning >= 1.2x wall-clock on a skewed
    multi-pair workload at >= 4 workers.

    The workload is the skew the old drivers handled worst: one
    SCAN-sized pair (LYP EC1, pre-split into 16 subdomain units) next to
    pairs that verify at the root.  The static baseline dispatches each
    cell as one pre-assigned chunk -- whichever worker draws the
    expensive cell drags the whole campaign -- while the stealing run dispatches unit-granularity
    chunks that idle workers pull from the shared queue.  Both runs share
    one warm process pool and must produce bit-identical stitched
    reports.
    """
    import pytest

    from repro.verifier.campaign import run_campaign
    from repro.verifier.verifier import VerifierConfig

    workers = 4
    if (os.cpu_count() or 1) < workers:
        pytest.skip("work-stealing wall-clock gate needs >= 4 CPUs")

    config = VerifierConfig(
        split_threshold=0.04, per_call_budget=150, global_step_budget=24_000
    )
    pairs = [
        ("LYP", "EC1"),      # expensive: deep split tree over 16 units
        ("VWN RPA", "EC1"),  # trivial: verified at the root
        ("Wigner", "EC1"),
        ("VWN RPA", "EC2"),
        ("Wigner", "EC2"),
    ]

    from concurrent.futures import ProcessPoolExecutor

    def best_of(unit_chunk_size, pool, repeats=2):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_campaign(
                pairs,
                config,
                presplit_levels=2,
                unit_chunk_size=unit_chunk_size,
                executor=pool,
            )
            best = min(best, time.perf_counter() - t0)
        return best, result

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # warm the pool (fork + import cost must not skew either mode)
        for _ in pool.map(abs, range(workers)):
            pass
        t_static, r_static = best_of(unit_chunk_size=64, pool=pool)  # chunk = cell
        t_steal, r_steal = best_of(unit_chunk_size=1, pool=pool)

    for key, static_report in r_static.items():
        assert static_report.identical_to(r_steal.reports[key]), key

    ratio = t_static / t_steal
    print(
        f"\ncampaign wall-clock: static chunks {t_static*1e3:.0f} ms, "
        f"work-stealing {t_steal*1e3:.0f} ms, speedup {ratio:.2f}x"
    )
    record_bench(
        "campaign_steal",
        static_ms=t_static * 1e3,
        steal_ms=t_steal * 1e3,
        speedup=ratio,
        workers=workers,
    )
    assert ratio >= 1.2, (
        f"work-stealing only {ratio:.2f}x faster than static chunking"
    )


def test_campaign_work_stealing_correctness_any_cpu():
    """CPU-count-independent half of the gate: stealing-granularity
    scheduling must reproduce the static partition's reports exactly
    (the wall-clock half skips below 4 CPUs)."""
    from repro.verifier.campaign import run_campaign
    from repro.verifier.verifier import VerifierConfig

    # unlimited global budget: with finite budgets the spill path divides
    # the remainder per child (deterministic, but a different policy than
    # the DFS-shared budget), so exact equality is only pinned budget-free
    config = VerifierConfig(
        split_threshold=0.3, per_call_budget=150, global_step_budget=None
    )
    pairs = [("LYP", "EC1"), ("VWN RPA", "EC1")]
    static = run_campaign(
        pairs, config, presplit_levels=1, unit_chunk_size=64, max_workers=2
    )
    stealing = run_campaign(
        pairs, config, presplit_levels=1, unit_chunk_size=1, max_workers=2,
        steal_depth=2,
    )
    assert set(static.reports) == set(stealing.reports)
    for key, report in static.items():
        assert report.identical_to(stealing.reports[key]), key


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


def _forced_scalar_unfused(monkeypatch, formula) -> CompiledConjunction:
    """The per-column reference configuration: every batch below the
    vector/scalar crossover and tapes built without constant folding."""
    monkeypatch.setattr(tape_mod, "_VECTOR_MIN", 10**9)
    monkeypatch.setattr(tape_mod, "_VECTOR_MIN_BWD", 10**9)
    return CompiledConjunction(
        tuple(
            CompiledAtom(compile_expr(atom.residual, fuse=False), atom.op)
            for atom in formula.atoms
        )
    )


def test_pow_func_batch_kernels_match_forced_scalar(monkeypatch):
    """The whole-batch Pow/Func kernels plus tape fusion contract PBE EC1
    batches bit-identically to the per-column scalar interpreter on
    unfused tapes, across frontier widths.  PBE EC1 is the Pow/Func-heavy
    pair: its residual tapes are dominated by integer-power chains, real
    powers and exp/log rows."""
    problem = encode(get_functional("PBE"), EC1)
    widths = (256, 512, 1024)
    batches = {w: _split_domain(problem.domain, w) for w in widths}
    contractor = HC4Contractor(problem.negation, delta=1e-5)
    kernel = {w: contractor.contract_batch(boxes) for w, boxes in batches.items()}
    with monkeypatch.context() as m:
        reference = HC4Contractor(
            _forced_scalar_unfused(m, problem.negation), delta=1e-5
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
        formula = _forced_scalar_unfused(m, problem.negation)
        scalar = ICPSolver(delta=1e-5, precision=1e-3).solve(
            formula, problem.domain, budget
        )
    assert_results_identical(kernel, scalar)


def test_per_op_kernel_timings():
    """Publish per-op forward/backward kernel timings (vector vs the
    per-column Interval loops) into the perf artifact.

    No speedup gate per op -- narrow rows legitimately favour the scalar
    loops -- but each vector kernel must stay bit-identical to its
    per-column counterpart, and at frontier width (256) the vector side
    must not regress past the scalar loop.
    """
    from repro.solver import kernels
    from repro.solver.interval import Interval

    width = 256
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

    cases = {
        "pow_int3": (lambda: kernels.fwd_pow_int(lo, hi, 3),
                     per_column(Interval.pow_int, 3)),
        "pow_real": (lambda: kernels.fwd_pow_real(lo, hi, 1.5),
                     per_column(Interval.pow_real, 1.5)),
        "exp": (lambda: kernels.FWD_FUNC["exp"](lo, hi),
                per_column(Interval.exp)),
        "log": (lambda: kernels.FWD_FUNC["log"](lo, hi),
                per_column(Interval.log)),
    }

    def best_us(fn, repeats=5, iters=20):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                fn()
            best = min(best, (time.perf_counter() - t0) / iters)
        return best * 1e6

    values = {}
    for name, (vector_fn, scalar_fn) in cases.items():
        v_lo, v_hi = vector_fn()
        s_lo, s_hi = scalar_fn()
        assert np.array_equal(v_lo, s_lo) and np.array_equal(v_hi, s_hi), name
        t_vector = best_us(vector_fn)
        t_scalar = best_us(scalar_fn)
        values[f"{name}_vector_us"] = t_vector
        values[f"{name}_scalar_us"] = t_scalar
        print(f"\n{name}: vector {t_vector:.1f} us, per-column {t_scalar:.1f} us "
              f"({t_scalar / t_vector:.1f}x) at width {width}")
        assert t_vector < t_scalar, (
            f"{name} vector kernel slower than the per-column loop at width {width}"
        )

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

    values["backward_vector_us"] = best_us(backward(0), iters=5)
    values["backward_scalar_us"] = best_us(backward(width + 1), iters=5)
    print(f"backward pass: vector {values['backward_vector_us']:.1f} us, "
          f"per-column {values['backward_scalar_us']:.1f} us at width {width}")
    record_bench("kernel_ops", width=width, **values)


@pytest.mark.perf
def test_tape_fusion_and_multitape_timings():
    """Publish fused-vs-unfused forward timings and the cross-atom
    MultiTape's win over per-tape classification; fusion must never lose
    (it only removes instructions).

    A wall-clock ratio gate, so ``perf``-marked: PBE's fused and unfused
    tapes are the same program (nothing folds), and on a loaded host the
    fused <= 1.10x unfused bound compares noise.

    The conjunction is a PBE EC1 residual next to its rs-derivative --
    the gradient-condition shape where atoms share the whole F_c
    subgraph, which is what the MultiTape's cross-atom interning is for.
    """
    from repro.solver.tape import MultiTape

    problem = encode(get_functional("PBE"), EC1)
    residual = problem.negation.atoms[0].residual
    exprs = [residual, derivative(residual, RS)]
    boxes = _split_domain(problem.domain, 256)

    def build_tapes(fused):
        return [compile_expr(e, fuse=fused) for e in exprs]

    fused = build_tapes(fused=True)
    unfused = build_tapes(fused=False)
    multi = MultiTape.from_tapes(fused)

    def tapes_forward(tapes):
        for tape in tapes:
            lo_mat, hi_mat = tape.load_batch(boxes)
            tape.forward_batch(lo_mat, hi_mat, 0)

    def multi_forward(m=multi):
        lo_mat, hi_mat = m.load_batch(boxes)
        m.forward_batch(lo_mat, hi_mat, 0)

    variants = [
        ("fused", lambda: tapes_forward(fused)),
        ("unfused", lambda: tapes_forward(unfused)),
        ("multi", multi_forward),
    ]
    # fine-grained interleaving: every round times one call of each
    # variant in a rotating order, so a load transient lands on all three
    # alike instead of on one variant's block; each variant's fastest
    # single call counts (PBE's fused and unfused tapes run the same
    # program, so their comparison is pure measurement noise otherwise)
    best = {name: float("inf") for name, _ in variants}
    for rnd in range(150):
        for k in range(len(variants)):
            name, run = variants[(rnd + k) % len(variants)]
            t0 = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - t0)
    t_fused, t_unfused, t_multi = (
        best[name] * 1e6 for name in ("fused", "unfused", "multi")
    )

    print(f"\nPBE EC1 residual+derivative forward x{len(fused)} atoms at "
          f"width 256: unfused {t_unfused:.0f} us, fused {t_fused:.0f} us, "
          f"multitape {t_multi:.0f} us")
    record_bench(
        "tape_fusion",
        unfused_us=t_unfused,
        fused_us=t_fused,
        multitape_us=t_multi,
        atoms=len(fused),
        multitape_instrs=len(multi._fwd),
        pertape_instrs=sum(len(t._fwd) for t in fused),
    )
    # fusion strictly removes instructions; allow measurement jitter only
    assert t_fused <= t_unfused * 1.10
    # the shared forward must beat running each atom tape separately
    assert t_multi <= t_fused * 1.05


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
    benchmark(contractor.contract, box)


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
