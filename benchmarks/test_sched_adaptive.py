"""Adaptive (cost-model-driven) scheduling benchmarks.

Two halves, mirroring the work-stealing gate in ``test_solver_micro``:

* **Bit-identity, any CPU count** -- adaptive ordering is a pure
  permutation of chunk submission, so every report, Table I render and
  Table III cell must be byte-identical to the static and sequential
  paths.  These assertions run unconditionally.
* **Makespan, >= 4 CPUs** -- on a skewed campaign (one pair dominating
  the runtime, submitted *last*), dispatching longest-predicted-first
  with per-pair split knobs must cut the pool makespan by >= 1.3x.
  The timing gate is inactive below 4 CPUs (it still runs and records
  its timings with a 2-worker pool there; only the ratio assertion is
  conditional, so the tier-1 skip count never grows).

The measured numbers publish into ``BENCH_solver.json`` under the
``adaptive_makespan`` section when ``BENCH_SOLVER_JSON`` names a file.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial

from repro.analysis.tables import (
    run_table_one,
    table_one_from_reports,
    table_three_from_cells,
)
from repro.conditions import get_condition
from repro.functionals import get_functional
from repro.numerics.campaign import run_numerics_campaign
from repro.verifier.campaign import run_campaign
from repro.verifier.costmodel import CostModel, SchedulingPolicy
from repro.verifier.verifier import VerifierConfig

from _settings import record_bench as _record_bench

record_bench = partial(_record_bench, "BENCH_SOLVER_JSON")


#: skewed slice: LYP/EC1 dominates the runtime and is submitted LAST,
#: the worst case for static FIFO dispatch on a pool
SKEWED_PAIRS = [
    ("VWN RPA", "EC1"),
    ("Wigner", "EC1"),
    ("VWN RPA", "EC2"),
    ("Wigner", "EC2"),
    ("LYP", "EC1"),
]

TINY = VerifierConfig(
    split_threshold=0.7, per_call_budget=100, global_step_budget=800
)
SKEWED_CONFIG = VerifierConfig(
    split_threshold=0.04, per_call_budget=150, global_step_budget=24_000
)


def _warm_policy(pairs, config, store_path):
    """Learn a cost model from a sequential run persisted to the store."""
    sequential = run_campaign(pairs, config, max_workers=0, store=store_path)
    return SchedulingPolicy(model=CostModel.from_store(store_path)), sequential


def _table_one_text(reports, functionals, conditions):
    return table_one_from_reports(
        reports,
        tuple(get_functional(name) for name in functionals),
        tuple(get_condition(name) for name in conditions),
    ).render()


def test_adaptive_table_one_byte_identical_any_cpu(tmp_path):
    """Table I rendered from sequential, static-pool and adaptive-pool
    campaigns over the same slice must be byte-identical."""
    functionals = ("LYP", "Wigner", "VWN RPA")
    conditions = ("EC1", "EC2")
    store = tmp_path / "history.jsonl"

    policy, sequential = _warm_policy(SKEWED_PAIRS, TINY, store)
    static = run_campaign(SKEWED_PAIRS, TINY, max_workers=2)
    adaptive = run_campaign(SKEWED_PAIRS, TINY, max_workers=2, policy=policy)

    assert set(static.reports) == set(adaptive.reports) == set(sequential.reports)
    seq_text = _table_one_text(sequential.reports, functionals, conditions)
    static_text = _table_one_text(static.reports, functionals, conditions)
    adaptive_text = _table_one_text(adaptive.reports, functionals, conditions)
    assert adaptive_text == static_text == seq_text

    # the full-table path accepts the policy too and stays byte-identical
    baseline = run_table_one(
        TINY,
        tuple(get_functional(name) for name in functionals),
        tuple(get_condition(name) for name in conditions),
    )
    adapted = run_table_one(
        TINY,
        tuple(get_functional(name) for name in functionals),
        tuple(get_condition(name) for name in conditions),
        policy=policy,
    )
    assert adapted.render() == baseline.render()


def test_adaptive_table_three_byte_identical_any_cpu():
    """Numerics payloads carry no timings by design: the adaptive
    permutation must leave every Table III cell (and the rendered table)
    byte-identical to the sequential path."""
    kwargs = dict(
        functionals=["LYP", "Wigner"], checks=("continuity", "hazards")
    )
    sequential = run_numerics_campaign(max_workers=0, **kwargs)
    policy = SchedulingPolicy(model=CostModel())
    adaptive = run_numerics_campaign(max_workers=2, policy=policy, **kwargs)

    assert set(sequential.cells) == set(adaptive.cells)
    seq_doc = json.dumps(
        {"/".join(k): v for k, v in sequential.cells.items()}, sort_keys=True
    )
    ada_doc = json.dumps(
        {"/".join(k): v for k, v in adaptive.cells.items()}, sort_keys=True
    )
    assert ada_doc == seq_doc
    assert (
        table_three_from_cells(adaptive.cells).render()
        == table_three_from_cells(sequential.cells).render()
    )


def test_adaptive_makespan_speedup(tmp_path):
    """Gate: cost-model scheduling >= 1.3x faster than static dispatch on
    the skewed slice at 4 workers.  Table I byte-identity between the two
    timed modes is asserted before the (CPU-gated) timing assertion."""
    from concurrent.futures import ProcessPoolExecutor

    workers = 4
    store = tmp_path / "warmup.jsonl"
    policy, _ = _warm_policy(SKEWED_PAIRS, SKEWED_CONFIG, store)
    functionals = ("LYP", "Wigner", "VWN RPA")
    conditions = ("EC1", "EC2")

    # below the CPU gate a 2-worker pool still exercises the identity half
    pool_workers = workers if (os.cpu_count() or 1) >= workers else 2

    def best_of(pool, policy=None, repeats=2):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_campaign(
                SKEWED_PAIRS, SKEWED_CONFIG, executor=pool, policy=policy
            )
            best = min(best, time.perf_counter() - t0)
        return best, result

    with ProcessPoolExecutor(max_workers=pool_workers) as pool:
        # warm the pool: fork + import cost must not skew either mode
        for _ in pool.map(abs, range(pool_workers)):
            pass
        t_static, r_static = best_of(pool, repeats=1 if pool_workers < workers else 2)
        t_adaptive, r_adaptive = best_of(
            pool, policy=policy, repeats=1 if pool_workers < workers else 2
        )

    # identity half -- unconditional, CPU-count independent
    static_text = _table_one_text(r_static.reports, functionals, conditions)
    adaptive_text = _table_one_text(r_adaptive.reports, functionals, conditions)
    assert adaptive_text == static_text

    ratio = t_static / t_adaptive if t_adaptive > 0 else float("inf")
    print(
        f"\nadaptive makespan: static {t_static*1e3:.0f} ms, "
        f"adaptive {t_adaptive*1e3:.0f} ms, speedup {ratio:.2f}x "
        f"({pool_workers} workers)"
    )
    record_bench(
        "adaptive_makespan",
        static_ms=t_static * 1e3,
        adaptive_ms=t_adaptive * 1e3,
        speedup=ratio,
        workers=pool_workers,
    )
    if (os.cpu_count() or 1) < workers:
        # the identity half above ran in full; the timing gate only
        # applies at the worker count it was calibrated for
        print(f"adaptive makespan gate inactive below {workers} CPUs")
        return
    assert ratio >= 1.3, (
        f"adaptive scheduling only {ratio:.2f}x faster than static dispatch"
    )
