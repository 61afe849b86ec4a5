"""Process fan-out through the campaign engine.

:func:`~repro.verifier.campaign.run_campaign` is the one parallel entry point:
pairs fan out as independent cells, one ``Verifier.verify`` run each.
These tests pin that fan-out against the in-process run.
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
