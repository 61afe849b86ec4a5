"""Tests for the campaign engine.

The load-bearing property is *bit-identity with the sequential verifier*:
each cell is one ``Verifier.verify`` run, in-process or on a pool of any
width, and its report must carry the same records, indices, depths,
child links, models and step counts the plain in-process run produces.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.conditions import EC1
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.verifier.campaign import (
    CampaignConfig,
    dedupe_pairs,
    effective_workers,
    run_campaign,
)
from repro.verifier.encoder import encode
from repro.verifier.store import report_to_payload
from repro.verifier.verifier import Verifier, VerifierConfig

FAST = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000)
UNLIMITED = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=None)


def assert_reports_identical(expected, actual):
    assert len(expected.records) == len(actual.records)
    for a, b in zip(expected.records, actual.records):
        assert (a.index, a.depth, a.outcome, a.model, a.children, a.solver_steps) == (
            b.index, b.depth, b.outcome, b.model, b.children, b.solver_steps
        )
        assert a.box == b.box
    assert expected.total_solver_steps == actual.total_solver_steps
    assert expected.budget_exhausted == actual.budget_exhausted


def sequential(config, name, condition=EC1):
    return Verifier(config).verify(encode(get_functional(name), condition))


@pytest.mark.parametrize("workers", [1, 2])
class TestInProcessEquivalence:
    def test_cells_match_sequential_exactly(self, workers):
        result = run_campaign(
            [("LYP", "EC1"), ("VWN RPA", "EC1"), ("PBE", "EC2")], FAST,
            max_workers=workers,
        )
        for (fname, cid), report in result.items():
            from repro.conditions import get_condition

            assert_reports_identical(
                sequential(FAST, fname, get_condition(cid)), report
            )
        # pooled cells complete in any order; in-process ones in submission order
        assert sorted(result.computed) == sorted(
            [("LYP", "EC1"), ("VWN RPA", "EC1"), ("PBE", "EC2")]
        )
        if workers == 1:
            assert result.computed == [("LYP", "EC1"), ("VWN RPA", "EC1"), ("PBE", "EC2")]
        assert not result.interrupted

    def test_budget_exhaustion_matches_sequential(self, workers):
        tight = VerifierConfig(
            split_threshold=0.15, per_call_budget=200, global_step_budget=300
        )
        # a lone cell runs in-process unless a pool is handed in, so the
        # pooled case passes its own executor
        if workers == 1:
            result = run_campaign([("PBE", "EC1")], tight, max_workers=1)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                result = run_campaign([("PBE", "EC1")], tight, executor=pool)
        report = result.reports[("PBE", "EC1")]
        assert report.budget_exhausted
        assert_reports_identical(sequential(tight, "PBE"), report)


class TestPooledScheduling:
    def test_pool_results_identical_to_in_process(self):
        pairs = [("LYP", "EC1"), ("VWN RPA", "EC1"), ("Wigner", "EC1")]
        seq = run_campaign(pairs, FAST, max_workers=1)
        par = run_campaign(pairs, FAST, max_workers=2)
        assert set(seq.reports) == set(par.reports)
        for key in seq.reports:
            assert_reports_identical(seq.reports[key], par.reports[key])

    def test_shared_executor_is_not_shut_down(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = run_campaign([("LYP", "EC1")], FAST, executor=pool)
            second = run_campaign([("Wigner", "EC1")], FAST, executor=pool)
            # the pool survives both campaigns (owned by the caller)
            assert pool.submit(int, 7).result() == 7
        assert ("LYP", "EC1") in first.reports
        assert ("Wigner", "EC1") in second.reports

    def test_effective_workers(self):
        assert effective_workers(0) == 1
        assert effective_workers(1) == 1
        assert effective_workers(7) == 7
        assert effective_workers(None) == (os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert effective_workers(None, pool) == 2


class TestCampaignConfigValidation:
    """Loud knob validation on the engine side (the CLI layer is tested
    in test_cli)."""

    def test_rejects_negative_max_workers(self):
        with pytest.raises(ValueError, match="max_workers must be >= 0"):
            CampaignConfig(max_workers=-1)

    def test_accepts_boundary_values(self):
        CampaignConfig(max_workers=0)
        CampaignConfig(max_workers=None)

    def test_run_campaign_validates_before_any_work(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_campaign([("LYP", "EC1")], FAST, max_workers=-2)

    def test_numerics_campaign_validates_too(self):
        from repro.numerics.campaign import run_numerics_campaign

        with pytest.raises(ValueError, match="max_workers"):
            run_numerics_campaign(["Wigner"], max_workers=-1)


class TestDedupe:
    def test_identical_duplicates_are_deduped(self):
        lyp = get_functional("LYP")
        pairs = dedupe_pairs([(lyp, EC1), (lyp, EC1), ("LYP", "EC1")])
        assert len(pairs) == 1
        assert pairs[0][0] == ("LYP", "EC1")

    def test_conflicting_duplicates_raise(self):
        lyp = get_functional("LYP")

        class FakeCondition:
            cid = "EC1"

        with pytest.raises(ValueError, match="conflicting duplicate"):
            dedupe_pairs([(lyp, EC1), (lyp, FakeCondition())])

    def test_campaign_runs_duplicate_pair_once(self):
        result = run_campaign([("LYP", "EC1"), ("LYP", "EC1")], FAST, max_workers=1)
        assert result.computed == [("LYP", "EC1")]
        assert_reports_identical(sequential(FAST, "LYP"), result.reports[("LYP", "EC1")])


class TestStoreIntegration:
    def test_resume_serves_stored_cells(self, tmp_path):
        store = tmp_path / "store.jsonl"
        pairs = [("LYP", "EC1"), ("VWN RPA", "EC1")]
        first = run_campaign(pairs, FAST, max_workers=1, store=store)
        assert len(first.computed) == 2 and not first.store_hits
        second = run_campaign(pairs, FAST, max_workers=1, store=store)
        assert len(second.store_hits) == 2 and not second.computed
        for key in first.reports:
            assert_reports_identical(first.reports[key], second.reports[key])

    def test_config_change_misses_cleanly(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign([("LYP", "EC1")], FAST, max_workers=1, store=store)
        other = VerifierConfig(
            split_threshold=0.7, per_call_budget=99, global_step_budget=8000
        )
        rerun = run_campaign([("LYP", "EC1")], other, max_workers=1, store=store)
        assert rerun.computed == [("LYP", "EC1")]

    def test_performance_knobs_still_hit(self, tmp_path, monkeypatch):
        # the solver's frontier batch width is bit-identical and not a key
        # input: a different width keeps hitting
        from repro.solver import icp

        store = tmp_path / "store.jsonl"
        run_campaign([("VWN RPA", "EC1")], FAST, max_workers=1, store=store)
        monkeypatch.setattr(icp, "BATCH_SIZE", 7)
        rerun = run_campaign([("VWN RPA", "EC1")], FAST, max_workers=1, store=store)
        assert rerun.store_hits == [("VWN RPA", "EC1")]

    def test_resume_false_recomputes_but_stores(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign([("Wigner", "EC1")], FAST, max_workers=1, store=store)
        rerun = run_campaign(
            [("Wigner", "EC1")], FAST, max_workers=1, store=store, resume=False
        )
        assert rerun.computed == [("Wigner", "EC1")]

    def test_subdomain_task_hashes_by_domain(self, tmp_path):
        # same pair, different domain: separate cells in the store by key
        from repro.verifier.encoder import compile_problem

        problem = encode(get_functional("LYP"), EC1)
        compiled = compile_problem(problem)
        full = compiled.content_hash(extra=FAST.semantic_key())
        sub = compiled.content_hash(
            domain=Box.from_bounds({"rs": (1.0, 2.0), "s": (0.0, 1.0)}),
            extra=FAST.semantic_key(),
        )
        assert full != sub


class TestWorkerCompileCache:
    """The persistent per-worker compile cache and its timing telemetry."""

    def test_warm_cache_cells_report_zero_compile_time(self):
        from repro.verifier.campaign import _WORKER_CACHE

        _WORKER_CACHE.clear()
        cold = run_campaign([("LYP", "EC1")], FAST, max_workers=1)
        warm = run_campaign([("LYP", "EC1")], FAST, max_workers=1)
        cold_report = cold.reports[("LYP", "EC1")]
        warm_report = warm.reports[("LYP", "EC1")]
        # cold: the worker paid materialise + solver build; warm: the
        # resident (problem, solver) pair is reused, compile time ~0
        assert cold_report.compile_seconds > 0.0
        assert warm_report.compile_seconds == 0.0
        # the cache is a pure perf layer: reports stay bit-identical
        assert_reports_identical(cold_report, warm_report)
        assert warm_report.identical_to(cold_report)

    def test_cache_is_keyed_on_solver_relevant_config(self):
        import dataclasses

        from repro.verifier.campaign import _WORKER_CACHE

        _WORKER_CACHE.clear()
        run_campaign([("LYP", "EC1")], FAST, max_workers=1)
        other = dataclasses.replace(FAST, delta=2e-5)
        redo = run_campaign([("LYP", "EC1")], other, max_workers=1)
        # a semantically different config must not reuse the resident
        # solver: it recompiles (and reports the time it took)
        assert redo.reports[("LYP", "EC1")].compile_seconds > 0.0

    def test_compile_seconds_round_trips_through_store(self, tmp_path):
        from repro.verifier.campaign import _WORKER_CACHE
        from repro.verifier.store import report_from_payload, report_to_payload

        _WORKER_CACHE.clear()
        result = run_campaign([("Wigner", "EC1")], FAST, max_workers=1)
        report = result.reports[("Wigner", "EC1")]
        assert report.compile_seconds > 0.0
        restored = report_from_payload(report_to_payload(report))
        assert restored.compile_seconds == report.compile_seconds
        # pre-compile-cache payloads (no field) default to 0.0
        payload = report_to_payload(report)
        del payload["compile_seconds"]
        assert report_from_payload(payload).compile_seconds == 0.0


class TestWorkerFinishesCells:
    """The worker sets compile time, sums, classifies and encodes each cell."""

    PAIRS = [("LYP", "EC1"), ("VWN RPA", "EC1"), ("Wigner", "EC1")]

    @staticmethod
    def stored_texts(path) -> dict[str, str]:
        """Each stored line's payload text, exactly as written, by key."""
        texts = {}
        for line in path.read_text().splitlines():
            head, sep, text = line.partition(', "payload": ')
            assert sep and text.endswith("}")
            texts[json.loads(head + "}")["key"]] = text[:-1]
        return texts

    @staticmethod
    def count_encodings(monkeypatch, log):
        """Append the calling pid to ``log`` on every ``report_to_payload``.

        Patched before the pool forks, so worker calls are logged too.
        """
        from repro.verifier import store

        encode = store.report_to_payload

        def logged(report):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return encode(report)

        monkeypatch.setattr(store, "report_to_payload", logged)

    @staticmethod
    def pids(log) -> list[int]:
        return [int(line) for line in log.read_text().split()] if log.exists() else []

    def test_pooled_and_in_process_store_the_same_bytes(self, tmp_path):
        timing = re.compile(r'"(compile|elapsed)_seconds": [0-9.e+-]+')
        texts = []
        for workers in (2, 1):
            path = tmp_path / f"store-{workers}.jsonl"
            run_campaign(self.PAIRS, FAST, max_workers=workers, store=path)
            stored = self.stored_texts(path)
            texts.append({key: timing.sub("", text) for key, text in stored.items()})
        assert len(texts[0]) == 3
        assert texts[0] == texts[1]

    def test_stored_text_is_a_fresh_encoding_of_the_returned_report(self, tmp_path):
        path = tmp_path / "store.jsonl"
        result = run_campaign(self.PAIRS, FAST, max_workers=2, store=path)
        stored = self.stored_texts(path)
        assert sorted(stored) == sorted(result.cell_keys.values())
        for pair, key in result.cell_keys.items():
            fresh = json.dumps(report_to_payload(result.reports[pair]), sort_keys=True)
            assert stored[key] == fresh

    def test_parent_encodes_nothing_in_a_pooled_campaign(self, tmp_path, monkeypatch):
        log = tmp_path / "encodings.log"
        self.count_encodings(monkeypatch, log)
        result = run_campaign(self.PAIRS, FAST, max_workers=2, store=tmp_path / "s.jsonl")
        pids = self.pids(log)
        assert len(result.computed) == 3
        assert len(pids) == 3  # one encoding per cell, each in a worker
        assert os.getpid() not in pids

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_without_a_store_encodes_nothing(self, tmp_path, monkeypatch, workers):
        log = tmp_path / "encodings.log"
        self.count_encodings(monkeypatch, log)
        result = run_campaign(self.PAIRS, FAST, max_workers=workers)
        assert len(result.computed) == 3
        assert self.pids(log) == []

    def test_worker_sets_compile_seconds(self):
        from repro.verifier.campaign import _WORKER_CACHE

        _WORKER_CACHE.clear()
        result = run_campaign(self.PAIRS[:2], FAST, max_workers=2)
        assert all(r.compile_seconds > 0.0 for r in result.reports.values())
