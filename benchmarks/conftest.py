"""Shared configuration for the benchmark harness.

Every paper artifact (Tables I-II, Figures 1-2) has a benchmark that
regenerates it and prints the reproduced rows.  Budgets are scaled down
from the paper's (2-hour dReal calls, t = 0.05 splitting) so the whole
harness runs in minutes; EXPERIMENTS.md records a full-budget run.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

import pytest

from repro.pb.checker import PBChecker
from repro.verifier.verifier import VerifierConfig

from _settings import BENCH_CONFIG, BENCH_SPEC


@pytest.fixture(scope="session")
def bench_config() -> VerifierConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def bench_checker() -> PBChecker:
    return PBChecker(spec=BENCH_SPEC)


@pytest.fixture(scope="session")
def table_one_result(bench_config):
    """Run Table I once per session; several benchmarks consume it.

    Pooled over two workers: a pooled campaign is bit-identical to the
    in-process one (``tests/verifier/test_parallel.py``)."""
    from repro.analysis.tables import run_table_one

    return run_table_one(bench_config, max_workers=2)
