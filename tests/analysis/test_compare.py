"""Tests for the Table II consistency harness."""


from repro.analysis.compare import (
    CONSISTENT,
    MISMATCH,
    NO_COMPARISON,
    NOT_INCONSISTENT,
    PAPER_TABLE_TWO,
    classify_consistency,
    pb_points_covered_fraction,
    run_table_two,
)
from repro.conditions import EC1
from repro.functionals import get_functional
from repro.pb.checker import PBChecker
from repro.pb.grid import GridSpec
from repro.solver.box import Box
from repro.verifier.regions import Outcome, RegionRecord, VerificationReport
from repro.verifier.verifier import VerifierConfig

SPEC = GridSpec(n_rs=81, n_s=81)
CHECKER = PBChecker(spec=SPEC)
FAST = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000)


def report_with(outcomes_boxes, domain=None):
    domain = domain or Box.from_bounds({"rs": (1e-4, 5.0), "s": (0.0, 5.0)})
    records = [
        RegionRecord(i, 0, Box.from_bounds(bounds), outcome,
                     model=({"rs": 1.0, "s": 1.0} if outcome is Outcome.COUNTEREXAMPLE else None))
        for i, (bounds, outcome) in enumerate(outcomes_boxes)
    ]
    return VerificationReport("X", "EC1", domain, records)


class TestClassification:
    def test_both_clean_is_not_inconsistent(self):
        pb = CHECKER.check(get_functional("PBE"), EC1)
        report = report_with([({"rs": (1e-4, 5.0), "s": (0.0, 5.0)}, Outcome.VERIFIED)])
        assert classify_consistency(pb, report, dilation=0.1) == NOT_INCONSISTENT

    def test_all_timeout_is_no_comparison(self):
        pb = CHECKER.check(get_functional("PBE"), EC1)
        report = report_with([({"rs": (1e-4, 5.0), "s": (0.0, 5.0)}, Outcome.TIMEOUT)])
        assert classify_consistency(pb, report, dilation=0.1) == NO_COMPARISON

    def test_xcv_only_violation_is_mismatch(self):
        pb = CHECKER.check(get_functional("PBE"), EC1)  # no violations
        report = report_with(
            [({"rs": (1.0, 2.0), "s": (1.0, 2.0)}, Outcome.COUNTEREXAMPLE)]
        )
        assert classify_consistency(pb, report, dilation=0.1) == MISMATCH

    def test_pb_only_violation_is_mismatch(self):
        pb = CHECKER.check(get_functional("LYP"), EC1)  # violations at s > 1.7
        report = report_with([({"rs": (1e-4, 5.0), "s": (0.0, 5.0)}, Outcome.VERIFIED)])
        assert classify_consistency(pb, report, dilation=0.1) == MISMATCH

    def test_matching_violations_consistent(self):
        pb = CHECKER.check(get_functional("LYP"), EC1)
        report = report_with(
            [({"rs": (1e-4, 5.0), "s": (1.2, 5.0)}, Outcome.COUNTEREXAMPLE)]
        )
        assert classify_consistency(pb, report, dilation=0.2) == CONSISTENT

    def test_disjoint_violations_mismatch(self):
        pb = CHECKER.check(get_functional("LYP"), EC1)
        # cex region far from PB's violations
        report = report_with(
            [({"rs": (1e-4, 0.5), "s": (0.0, 0.5)}, Outcome.COUNTEREXAMPLE)]
        )
        assert classify_consistency(pb, report, dilation=0.05) == MISMATCH


class TestCoverage:
    def test_full_coverage_fraction(self):
        pb = CHECKER.check(get_functional("LYP"), EC1)
        report = report_with(
            [({"rs": (1e-4, 5.0), "s": (0.0, 5.0)}, Outcome.COUNTEREXAMPLE)]
        )
        assert pb_points_covered_fraction(pb, report, dilation=0.0) == 1.0

    def test_no_violations_is_vacuous_full(self):
        pb = CHECKER.check(get_functional("PBE"), EC1)
        report = report_with([({"rs": (1e-4, 5.0), "s": (0.0, 5.0)}, Outcome.VERIFIED)])
        assert pb_points_covered_fraction(pb, report, dilation=0.0) == 1.0

    def test_dilation_expands_coverage(self):
        pb = CHECKER.check(get_functional("LYP"), EC1)
        report = report_with(
            [({"rs": (1e-4, 5.0), "s": (2.5, 5.0)}, Outcome.COUNTEREXAMPLE)]
        )
        narrow = pb_points_covered_fraction(pb, report, dilation=0.0)
        wide = pb_points_covered_fraction(pb, report, dilation=1.0)
        assert wide > narrow


class TestRunTableTwoSmall:
    def test_lyp_and_vwn_cells(self):
        table = run_table_two(
            verifier_config=FAST,
            checker=CHECKER,
            functionals=(get_functional("LYP"), get_functional("VWN RPA")),
            conditions=(EC1,),
        )
        assert table.symbol(get_functional("LYP"), EC1) == CONSISTENT
        assert table.symbol(get_functional("VWN RPA"), EC1) == NOT_INCONSISTENT
        text = table.render()
        assert "Table II" in text

    def test_reports_reused_when_supplied(self):
        reports = {
            ("VWN RPA", "EC1"): report_with(
                [({"rs": (1e-4, 5.0)}, Outcome.VERIFIED)],
                domain=Box.from_bounds({"rs": (1e-4, 5.0)}),
            )
        }
        table = run_table_two(
            verifier_config=FAST,
            checker=CHECKER,
            functionals=(get_functional("VWN RPA"),),
            conditions=(EC1,),
            reports=reports,
        )
        assert table.reports[("VWN RPA", "EC1")] is reports[("VWN RPA", "EC1")]

    def test_paper_reference_table_shape(self):
        assert set(PAPER_TABLE_TWO) == {"EC1", "EC2", "EC3", "EC6", "EC7", "EC4", "EC5"}
        assert PAPER_TABLE_TWO["EC7"]["PBE"] == "J"

    def test_store_routes_verification_through_campaign(self, tmp_path):
        # the library-level store/resume branch: the verifier half runs
        # through the campaign engine and persists; a second call with the
        # same store serves the cells as hits and yields the same table
        store = tmp_path / "t2.jsonl"
        functionals = (get_functional("LYP"), get_functional("VWN RPA"))
        first = run_table_two(
            verifier_config=FAST, checker=CHECKER,
            functionals=functionals, conditions=(EC1,),
            store=store, resume=True,
        )
        again = run_table_two(
            verifier_config=FAST, checker=CHECKER,
            functionals=functionals, conditions=(EC1,),
            store=store, resume=True,
        )
        assert first.as_dict() == again.as_dict()
        assert first.symbol(get_functional("LYP"), EC1) == CONSISTENT
        for key, report in first.reports.items():
            assert report.identical_to(again.reports[key]), key

    def test_interrupted_partial_reports_skip_missing_cells(self):
        # interrupted=True marks a partial campaign dict: missing cells are
        # left unscored instead of being recomputed against the interrupt
        reports = {
            ("VWN RPA", "EC1"): report_with(
                [({"rs": (1e-4, 5.0)}, Outcome.VERIFIED)],
                domain=Box.from_bounds({"rs": (1e-4, 5.0)}),
            )
        }
        table = run_table_two(
            verifier_config=FAST, checker=CHECKER,
            functionals=(get_functional("VWN RPA"), get_functional("LYP")),
            conditions=(EC1,),
            reports=reports, interrupted=True,
        )
        assert ("VWN RPA", "EC1") in table.cells
        assert ("LYP", "EC1") not in table.cells
        assert PAPER_TABLE_TWO["EC1"]["SCAN"] == "?"
