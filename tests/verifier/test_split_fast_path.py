"""Regression tests for the region-bookkeeping fast path.

``Box.split_all`` builds children through the trusted constructor, the
verifier queues only children at or above the split threshold, records
pickle positionally, stitching reuses a first tree unit's records and the
store decodes boxes without re-sorting.  None of it may change one bit of
a region tree: every test here compares against the pre-fast-path
behaviour or against a second route to the same report.
"""

from __future__ import annotations

import pytest

from repro.conditions import get_condition
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.verifier.campaign import run_campaign
from repro.verifier.encoder import compile_problem, encode
from repro.verifier.store import open_store
from repro.verifier.verifier import Verifier, VerifierConfig
from tests.solver.test_box import old_split_all

#: the SCAN workload configuration of ``perfbench/workloads.py``: the
#: 200-step global budget runs out after a few solver calls, and the
#: verifier then splits every box down to the threshold as zero-step
#: TIMEOUT records (37,449 of them per cell)
SCAN_CONFIG = VerifierConfig(split_threshold=0.1, per_call_budget=40, global_step_budget=200)


@pytest.fixture(scope="module")
def scan_problem():
    return compile_problem(encode(get_functional("SCAN"), get_condition("EC1")))


@pytest.fixture(scope="module")
def scan_report(scan_problem):
    return Verifier(SCAN_CONFIG).verify(scan_problem)


def test_exhausted_scan_cell_matches_old_split_path(scan_problem, scan_report, monkeypatch):
    # the old path: chained-replace splits, every child queued, and the
    # sub-threshold ones dropped only when popped
    monkeypatch.setattr(Box, "split_all", lambda box, min_width=None: old_split_all(box))
    old = Verifier(SCAN_CONFIG).verify(scan_problem)
    assert scan_report.budget_exhausted
    assert len(scan_report.records) == 37_449
    assert scan_report.identical_to(old)


def test_widest_queue_order_matches_old_split_path(monkeypatch):
    config = VerifierConfig(
        split_threshold=0.4, per_call_budget=40, global_step_budget=200, queue_order="widest"
    )
    problem = compile_problem(encode(get_functional("SCAN"), get_condition("EC2")))
    new = Verifier(config).verify(problem)
    monkeypatch.setattr(Box, "split_all", lambda box, min_width=None: old_split_all(box))
    assert new.identical_to(Verifier(config).verify(problem))


def test_solve_root_returns_sub_threshold_children_too(scan_problem):
    # the campaign divides a spilled unit's budget by the child count, so
    # solve_root must hand back all 2^n children even when every one of
    # them is below the threshold
    domain = scan_problem.domain
    box = domain.split_all()[0]
    while not box.max_width() < 2 * SCAN_CONFIG.split_threshold:
        box = box.split_all()[0]
    config = VerifierConfig(split_threshold=SCAN_CONFIG.split_threshold, per_call_budget=40)
    record, children = Verifier(config).solve_root(scan_problem, box)
    assert record is not None and children is not None
    assert len(children) == 2 ** len(box.names)
    assert all(c.max_width() < config.split_threshold for c in children)
    assert children == old_split_all(box)


@pytest.mark.parametrize(
    "knobs", [{"steal_depth": 1}, {"presplit_levels": 1}], ids=["steal1", "presplit1"]
)
def test_pooled_campaign_stitches_identically(knobs):
    # records cross the worker -> parent pickle boundary in the pooled run;
    # the presplit case also exercises the reuse of the first tree unit's
    # records at index offset 0
    pair = [("SCAN", "EC1")]
    local = run_campaign(pair, SCAN_CONFIG, max_workers=0, **knobs)
    pooled = run_campaign(pair, SCAN_CONFIG, max_workers=2, **knobs)
    report = pooled.reports[("SCAN", "EC1")]
    assert report.identical_to(local.reports[("SCAN", "EC1")])
    # both runs share the stitcher, so check its tree invariants directly
    records = report.records
    assert [r.index for r in records] == list(range(len(records)))
    for r in records:
        assert all(records[c].depth == r.depth + 1 and c > r.index for c in r.children)


@pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
def test_area_fractions_bit_equal_after_store_round_trip(tmp_path, scan_report, suffix):
    path = tmp_path / f"store{suffix}"
    with open_store(path) as store:
        written = store.put("cell", scan_report)
    assert written > 0
    with open_store(path) as store:
        back = store.get("cell")
    assert back.identical_to(scan_report)
    want = {o: v.hex() for o, v in scan_report.area_fractions().items()}
    assert {o: v.hex() for o, v in back.area_fractions().items()} == want
    assert back.classification() == scan_report.classification()
