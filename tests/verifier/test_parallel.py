"""Process fan-out through the campaign engine.

:func:`~repro.verifier.campaign.run_campaign` is the one parallel entry point:
pairs fan out as independent cells, and ``presplit_levels`` fans one
pair's domain out as subdomain units that are stitched back into one
report.  These tests pin both fan-outs against the in-process run.
"""


import pytest

from repro.conditions import EC1
from repro.functionals import get_functional
from repro.verifier.campaign import run_campaign
from repro.verifier.verifier import VerifierConfig

FAST = VerifierConfig(
    split_threshold=1.0, per_call_budget=200, global_step_budget=4000
)


def verify_pairs(pairs, max_workers):
    return run_campaign(pairs, FAST, max_workers=max_workers).reports


def verify_domain(max_workers):
    result = run_campaign(
        [(get_functional("LYP"), EC1)], FAST, max_workers=max_workers,
        presplit_levels=1,
    )
    return result.reports[("LYP", "EC1")]


class TestVerifyPairsParallel:
    def test_sequential_fallback(self):
        pairs = [(get_functional("VWN RPA"), EC1), (get_functional("LYP"), EC1)]
        results = verify_pairs(pairs, max_workers=1)
        assert results[("VWN RPA", "EC1")].classification() == "OK"
        assert results[("LYP", "EC1")].classification() == "CEX"

    def test_parallel_two_workers(self):
        pairs = [(get_functional("VWN RPA"), EC1), (get_functional("LYP"), EC1)]
        results = verify_pairs(pairs, max_workers=2)
        assert len(results) == 2
        assert results[("LYP", "EC1")].has_counterexample()

    def test_parallel_matches_sequential_classification(self):
        pairs = [(get_functional("LYP"), EC1)]
        seq = verify_pairs(pairs, max_workers=1)
        par = verify_pairs(pairs, max_workers=2)
        key = ("LYP", "EC1")
        assert seq[key].classification() == par[key].classification()

    def test_duplicate_pair_deduped_not_overwritten(self):
        # regression: the same pair passed twice used to be solved twice,
        # the second result silently overwriting the first
        lyp = get_functional("LYP")
        results = verify_pairs([(lyp, EC1), (lyp, EC1)], max_workers=1)
        assert list(results) == [("LYP", "EC1")]
        assert results[("LYP", "EC1")].classification() == "CEX"

    def test_conflicting_duplicate_pair_raises(self):
        lyp = get_functional("LYP")

        class FakeEC1:
            cid = "EC1"

        with pytest.raises(ValueError, match="conflicting duplicate"):
            verify_pairs([(lyp, EC1), (lyp, FakeEC1())], max_workers=1)


class TestVerifyDomainParallel:
    def test_merged_report_covers_domain(self):
        report = verify_domain(max_workers=1)
        assert report.classification() == "CEX"
        total = sum(
            r.own_volume(report.records) for r in report.records
        )
        # top-level subdomains at depth 1 cover everything their verdicts
        # reach; with a 1.0 threshold every subdomain gets one record
        assert total > 0.0

    def test_levels_produce_subdomain_records(self):
        # the stitched report's top-level records are the four presplit
        # subdomains (2-D domain, one level): no record points at them,
        # and in order they are the split of the functional's domain
        report = verify_domain(max_workers=1)
        top = [r for r in report.records if r.depth == 1]
        linked = {c for r in report.records for c in r.children}
        assert len(top) == 4
        assert {r.index for r in top} == set(range(len(report.records))) - linked
        assert [r.box for r in top] == get_functional("LYP").domain().split_all()

    def test_parallel_workers_agree_with_sequential(self):
        seq = verify_domain(max_workers=1)
        par = verify_domain(max_workers=2)
        assert seq.classification() == par.classification()
        assert len(seq.records) == len(par.records)

    def test_indices_are_consistent(self):
        report = verify_domain(max_workers=1)
        for i, record in enumerate(report.records):
            assert record.index == i
            for child in record.children:
                assert 0 <= child < len(report.records)
