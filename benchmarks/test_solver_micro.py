"""Microbenchmarks of the solver and kernel substrates.

Not a paper artifact, but the performance envelope everything else rests
on: HC4 contraction throughput on real DFA formulas, compiled-kernel grid
throughput, and symbolic differentiation cost per functional.

The speedup gates additionally publish their timings: when the
``BENCH_SOLVER_JSON`` environment variable names a file, every measured
walk/tape/batch number is merged into that JSON document (CI uploads it
as the ``BENCH_solver.json`` artifact, giving the perf trajectory one
file per commit).
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np
import pytest

from repro.conditions import EC1
from repro.expr.derivative import derivative
from repro.functionals import get_functional, paper_functionals
from repro.functionals.vars import RS
from repro.solver.box import Box
from repro.solver.contractor import HC4Contractor
from repro.solver.icp import Budget, ICPSolver
from repro.verifier import encode


def record_bench(section: str, **values) -> None:
    """Merge one benchmark section into the JSON perf artifact (if enabled)."""
    path = os.environ.get("BENCH_SOLVER_JSON")
    if not path:
        return
    doc: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.setdefault("meta", {}).update(
        {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": os.environ.get("GITHUB_SHA", ""),
        }
    )
    doc.setdefault(section, {}).update(values)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_hc4_contraction_throughput(benchmark):
    problem = encode(get_functional("PBE"), EC1)
    contractor = HC4Contractor(problem.negation, delta=1e-5)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})

    result = benchmark(contractor.contract, box)
    assert not result.is_empty() or True


def test_hc4_tree_walk_throughput(benchmark):
    """The legacy tree-walking executor, kept as the comparison baseline."""
    problem = encode(get_functional("PBE"), EC1)
    contractor = HC4Contractor(problem.negation, delta=1e-5, backend="walk")
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})

    benchmark(contractor.contract, box)


def test_tape_vm_speedup_over_tree_walk():
    """Acceptance check: tape-compiled HC4 >= 2x the tree walk on PBE-class
    residuals, with identical contraction output."""
    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})

    def best_of(contractor, repeats=5, iters=20):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                contractor.contract(box)
            best = min(best, (time.perf_counter() - t0) / iters)
        return best

    tape_c = HC4Contractor(problem.negation, delta=1e-5, backend="tape")
    walk_c = HC4Contractor(problem.negation, delta=1e-5, backend="walk")
    tape_box = tape_c.contract(box)
    walk_box = walk_c.contract(box)
    for name in tape_box.names:
        assert tape_box[name].lo == walk_box[name].lo
        assert tape_box[name].hi == walk_box[name].hi

    t_tape = best_of(tape_c)
    t_walk = best_of(walk_c)
    ratio = t_walk / t_tape
    print(f"\nHC4 contract: walk {t_walk*1e3:.3f} ms, tape {t_tape*1e3:.3f} ms, "
          f"speedup {ratio:.2f}x")
    record_bench(
        "hc4_contract", walk_ms=t_walk * 1e3, tape_ms=t_tape * 1e3, speedup=ratio
    )
    assert ratio >= 2.0, f"tape VM only {ratio:.2f}x faster than tree walk"


def test_solver_call_speedup_over_tree_walk():
    """Full ICP solver calls (contract + probe + split) on the PBE EC1
    negation: the tape backend must at least halve the per-call cost."""
    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    budget = Budget(max_steps=60)

    def best_of(backend, repeats=3):
        solver = ICPSolver(delta=1e-5, precision=1e-3, backend=backend)
        result = solver.solve(problem.negation, box, budget)  # warm caches
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver.solve(problem.negation, box, budget)
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_tape, r_tape = best_of("tape")
    t_walk, r_walk = best_of("walk")
    assert r_tape.status == r_walk.status
    assert r_tape.model == r_walk.model
    ratio = t_walk / t_tape
    print(f"\nICP solve: walk {t_walk*1e3:.1f} ms, tape {t_tape*1e3:.1f} ms, "
          f"speedup {ratio:.2f}x")
    record_bench(
        "icp_solve", walk_ms=t_walk * 1e3, tape_ms=t_tape * 1e3, speedup=ratio
    )
    assert ratio >= 1.5, f"solver calls only {ratio:.2f}x faster than tree walk"


def test_batched_frontier_speedup_over_per_box_tape():
    """Acceptance check: the batched frontier loop (backend="batch") must
    solve a full-domain PBE EC1 run >= 1.5x faster than the per-box tape
    backend, with identical status, model and per-box statistics.

    The budget is sized so the BFS frontier grows a few hundred boxes
    wide -- the regime the batched executors are built for (the verifier
    drives the solver at exactly this scale on the full input domain).
    """
    problem = encode(get_functional("PBE"), EC1)
    domain = problem.domain
    budget = Budget(max_steps=5000)

    def best_of(backend, repeats=3):
        solver = ICPSolver(delta=1e-5, precision=1e-3, backend=backend)
        result = solver.solve(problem.negation, domain, budget)  # warm caches
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver.solve(problem.negation, domain, budget)
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_batch, r_batch = best_of("batch")
    t_tape, r_tape = best_of("tape")
    assert r_batch.status == r_tape.status
    assert r_batch.model == r_tape.model
    assert r_batch.stats.boxes_processed == r_tape.stats.boxes_processed
    assert r_batch.stats.boxes_pruned == r_tape.stats.boxes_pruned
    assert r_batch.stats.boxes_split == r_tape.stats.boxes_split
    assert r_batch.stats.batches > 0
    ratio = t_tape / t_batch
    print(f"\nfrontier solve: tape {t_tape*1e3:.1f} ms, batch {t_batch*1e3:.1f} ms, "
          f"speedup {ratio:.2f}x ({r_batch.stats.batches} batches)")
    record_bench(
        "frontier_solve", tape_ms=t_tape * 1e3, batch_ms=t_batch * 1e3, speedup=ratio
    )
    assert ratio >= 1.5, f"batched frontier only {ratio:.2f}x faster than per-box tape"


def test_campaign_work_stealing_beats_static_chunks():
    """Acceptance check: the campaign engine's dynamic work-stealing must
    beat static chunk partitioning >= 1.2x wall-clock on a skewed
    multi-pair workload at >= 4 workers.

    The workload is the skew the old drivers handled worst: one
    SCAN-sized pair (LYP EC1, pre-split into 16 subdomain units) next to
    pairs that verify at the root.  The static baseline dispatches each
    cell as one pre-assigned chunk -- the ``verify_domain_parallel``
    idiom, where whichever worker draws the expensive cell drags the
    whole campaign -- while the stealing run dispatches unit-granularity
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


def test_pow_func_batch_kernel_speedup_over_seed_backend():
    """Tentpole gate: the whole-batch Pow/Func kernels plus tape fusion
    must contract PBE EC1 batches >= 2x faster than the pre-kernel batch
    backend across frontier widths, bit-identically.

    The baseline reconstructs the seed configuration exactly: per-column
    Pow/Func loops (``legacy`` kernel mode, including the original
    stack-and-reduce endpoint multiply), no fusion pass (which also
    disables the cross-atom ``MultiTape``), and the pre-kernel
    ``vector_min = 48`` crossover.  PBE EC1 is the Pow/Func-heavy pair:
    its residual tapes are dominated by integer-power chains, real
    powers and exp/log rows.

    The gate sums times over a width sweep rather than timing one width:
    the per-width ratio depends on alive-set geometry (how many columns
    survive to the backward pass at that split depth), so any single
    width inherits whichever geometry is least favourable plus its
    jitter, while the summed ratio is what a frontier actually pays.
    Whole passes alternate between the two configurations so a transient
    slowdown (GC, a neighbouring test's subprocess) cannot land entirely
    on one side of the ratio.
    """
    from repro.solver.tape import (
        clear_tape_cache, set_batch_kernel_mode, set_tape_fusion,
    )

    problem = encode(get_functional("PBE"), EC1)
    widths = (256, 512, 1024)
    batches = {w: _split_domain(problem.domain, w) for w in widths}

    def sweep(seed_mode, repeats=3):
        clear_tape_cache()  # tapes must be rebuilt under the active flags
        if seed_mode:
            set_tape_fusion(False)
            set_batch_kernel_mode("legacy")
            contractor = HC4Contractor(problem.negation, delta=1e-5, vector_min=48)
        else:
            contractor = HC4Contractor(problem.negation, delta=1e-5)
        times = {}
        outs = {}
        try:
            for w, boxes in batches.items():
                outs[w] = contractor.contract_batch(boxes)  # warm
                best = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    contractor.contract_batch(boxes)
                    best = min(best, time.perf_counter() - t0)
                times[w] = best
        finally:
            set_tape_fusion(True)
            set_batch_kernel_mode("vector")
        return times, outs

    t_kernel, out_kernel = sweep(seed_mode=False)
    t_seed, out_seed = sweep(seed_mode=True)
    for _ in range(2):
        for w, t in sweep(seed_mode=False)[0].items():
            t_kernel[w] = min(t_kernel[w], t)
        for w, t in sweep(seed_mode=True)[0].items():
            t_seed[w] = min(t_seed[w], t)
    for w in widths:
        _assert_batches_identical(out_kernel[w], out_seed[w])

    total_seed = sum(t_seed.values())
    total_kernel = sum(t_kernel.values())
    ratio = total_seed / total_kernel
    per_width = ", ".join(f"{w}: {t_seed[w] / t_kernel[w]:.2f}x" for w in widths)
    print(f"\npow/func batch kernels: seed backend {total_seed*1e3:.2f} ms, "
          f"kernels {total_kernel*1e3:.2f} ms, speedup {ratio:.2f}x "
          f"({per_width})")
    record_bench(
        "pow_func_kernels",
        seed_ms=total_seed * 1e3,
        kernel_ms=total_kernel * 1e3,
        speedup=ratio,
        **{f"speedup_w{w}": t_seed[w] / t_kernel[w] for w in widths},
    )
    assert ratio >= 2.0, (
        f"batch kernels only {ratio:.2f}x faster than the seed batch backend"
    )


def _pow_func_frontier(repeats):
    """Best-of-``repeats`` seed-mode vs kernel frontier solves of PBE/EC1.

    Returns ``(t_seed, t_kernel, r_seed, r_kernel)``; ``repeats=0`` solves
    once per mode and times nothing.
    """
    from repro.solver.tape import (
        clear_tape_cache, set_batch_kernel_mode, set_tape_fusion,
    )

    problem = encode(get_functional("PBE"), EC1)
    budget = Budget(max_steps=1200)

    def best_of(seed_mode):
        clear_tape_cache()
        if seed_mode:
            set_tape_fusion(False)
            set_batch_kernel_mode("legacy")
            solver = ICPSolver(
                delta=1e-5, precision=1e-3, backend="batch", vector_min=48
            )
        else:
            solver = ICPSolver(delta=1e-5, precision=1e-3, backend="batch")
        try:
            result = solver.solve(problem.negation, problem.domain, budget)
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                solver.solve(problem.negation, problem.domain, budget)
                best = min(best, time.perf_counter() - t0)
        finally:
            set_tape_fusion(True)
            set_batch_kernel_mode("vector")
        return best, result

    t_kernel, r_kernel = best_of(seed_mode=False)
    t_seed, r_seed = best_of(seed_mode=True)
    if repeats:
        # one more alternation evens out one-sided scheduling jitter
        t_kernel = min(t_kernel, best_of(seed_mode=False)[0])
        t_seed = min(t_seed, best_of(seed_mode=True)[0])
    return t_seed, t_kernel, r_seed, r_kernel


def test_pow_func_frontier_matches_seed_backend():
    """The seed batch backend and the kernels solve PBE/EC1 identically."""
    _, _, r_seed, r_kernel = _pow_func_frontier(repeats=0)
    assert r_kernel.status == r_seed.status
    assert r_kernel.model == r_seed.model
    assert r_kernel.stats.boxes_processed == r_seed.stats.boxes_processed


@pytest.mark.perf
def test_pow_func_frontier_speedup_over_seed_backend():
    """Regression bench: the same seed-vs-kernels comparison on a full
    frontier solve (contract + probe + split), where splitting and point
    probes dilute the kernel win; gated looser, recorded for trend."""
    t_seed, t_kernel, r_seed, r_kernel = _pow_func_frontier(repeats=3)
    assert r_kernel.stats.boxes_processed == r_seed.stats.boxes_processed

    ratio = t_seed / t_kernel
    print(f"\npow/func frontier: seed backend {t_seed*1e3:.1f} ms, "
          f"kernels {t_kernel*1e3:.1f} ms, speedup {ratio:.2f}x")
    record_bench(
        "pow_func_frontier",
        seed_ms=t_seed * 1e3,
        kernel_ms=t_kernel * 1e3,
        speedup=ratio,
    )
    assert ratio >= 1.3, (
        f"frontier solve only {ratio:.2f}x faster than the seed batch backend"
    )


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


def test_tape_fusion_and_multitape_timings():
    """Publish fused-vs-unfused forward timings and the cross-atom
    MultiTape's win over per-tape classification; fusion must never lose
    (it only removes instructions).

    The conjunction is a PBE EC1 residual next to its rs-derivative --
    the gradient-condition shape where atoms share the whole F_c
    subgraph, which is what the MultiTape's cross-atom interning is for.
    """
    from repro.solver.tape import (
        MultiTape, clear_tape_cache, set_tape_fusion, tape_for,
    )

    problem = encode(get_functional("PBE"), EC1)
    residual = problem.negation.atoms[0].residual
    exprs = [residual, derivative(residual, RS)]
    boxes = _split_domain(problem.domain, 256)

    def build_tapes(fused):
        clear_tape_cache()
        set_tape_fusion(fused)
        try:
            return [tape_for(e) for e in exprs]
        finally:
            set_tape_fusion(True)

    def forward_us(tapes, repeats=5, iters=10):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                for tape in tapes:
                    lo_mat, hi_mat = tape.load_batch(boxes)
                    tape.forward_batch(lo_mat, hi_mat, 0)
            best = min(best, (time.perf_counter() - t0) / iters)
        return best * 1e6

    fused = build_tapes(fused=True)
    unfused = build_tapes(fused=False)
    multi = MultiTape.from_tapes(fused)

    def multi_forward(m=multi):
        lo_mat, hi_mat = m.load_batch(boxes)
        m.forward_batch(lo_mat, hi_mat, 0)

    def multi_us(repeats=5, iters=10):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                multi_forward()
            best = min(best, (time.perf_counter() - t0) / iters)
        return best * 1e6

    # alternate passes: the three variants see the same load transients
    t_fused = t_unfused = t_multi = float("inf")
    for _ in range(3):
        t_fused = min(t_fused, forward_us(fused))
        t_unfused = min(t_unfused, forward_us(unfused))
        t_multi = min(t_multi, multi_us())

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
    disabled-tracing tax a campaign pays per cell/unit.  Whole passes
    alternate between the two loops so load transients land on both
    sides of the ratio.
    """
    from repro.obs.trace import current_tracer

    problem = encode(get_functional("PBE"), EC1)
    box = Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 2.0)})
    budget = Budget(max_steps=60)
    solver = ICPSolver(delta=1e-5, precision=1e-3, backend="tape")
    solver.solve(problem.negation, box, budget)  # warm caches

    def bare(iters):
        t0 = time.perf_counter()
        for _ in range(iters):
            solver.solve(problem.negation, box, budget)
        return time.perf_counter() - t0

    def gated(iters):
        t0 = time.perf_counter()
        for _ in range(iters):
            tracer = current_tracer()
            if tracer.enabled:  # off: the one branch the hot path pays
                span = tracer.begin("solve", "solve")
            solver.solve(problem.negation, box, budget)
            if tracer.enabled:
                tracer.finish(span)
        return time.perf_counter() - t0

    iters = 20
    t_bare = t_gated = float("inf")
    for _ in range(5):
        t_bare = min(t_bare, bare(iters))
        t_gated = min(t_gated, gated(iters))

    overhead = t_gated / t_bare
    print(f"\ndisabled tracing: bare {t_bare / iters * 1e3:.2f} ms/solve, "
          f"gated {t_gated / iters * 1e3:.2f} ms/solve, "
          f"overhead {overhead:.4f}x")
    record_bench(
        "tracing_off_overhead",
        bare_ms=t_bare / iters * 1e3,
        gated_ms=t_gated / iters * 1e3,
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
