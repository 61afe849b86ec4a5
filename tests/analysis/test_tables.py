"""Tests for the Table I harness."""


from repro.analysis.tables import PAPER_TABLE_ONE, TableOne, run_table_one
from repro.conditions import EC1, PAPER_CONDITIONS
from repro.functionals import get_functional, paper_functionals
from repro.solver.box import Box
from repro.verifier.regions import Outcome, RegionRecord, VerificationReport
from repro.verifier.verifier import VerifierConfig


def fake_report(fname, cid, outcome):
    domain = Box.from_bounds({"rs": (0.0, 1.0)})
    return VerificationReport(
        fname, cid, domain, [RegionRecord(0, 0, domain, outcome)]
    )


class TestTableOneStructure:
    def test_symbols_from_reports(self):
        table = TableOne(
            functionals=(get_functional("PBE"), get_functional("LYP")),
            conditions=(EC1,),
        )
        table.reports[("PBE", "EC1")] = fake_report("PBE", "EC1", Outcome.VERIFIED)
        assert table.symbol(get_functional("PBE"), EC1) == "OK"
        assert table.symbol(get_functional("LYP"), EC1) == "-"

    def test_render_contains_all_cells(self):
        table = TableOne(
            functionals=(get_functional("PBE"),), conditions=(EC1,)
        )
        table.reports[("PBE", "EC1")] = fake_report("PBE", "EC1", Outcome.COUNTEREXAMPLE)
        text = table.render()
        assert "PBE" in text
        assert "CEX" in text
        assert "Ec non-positivity" in text

    def test_as_dict_shape(self):
        table = TableOne(
            functionals=tuple(paper_functionals()), conditions=PAPER_CONDITIONS
        )
        d = table.as_dict()
        assert set(d) == {c.cid for c in PAPER_CONDITIONS}
        assert set(d["EC1"]) == {f.name for f in paper_functionals()}

    def test_paper_reference_has_31_applicable_cells(self):
        applicable = sum(
            1
            for row in PAPER_TABLE_ONE.values()
            for cell in row.values()
            if cell != "-"
        )
        assert applicable == 31


class TestRunTableOneSmall:
    def test_single_pair_run(self):
        config = VerifierConfig(
            split_threshold=1.5, per_call_budget=200, global_step_budget=2000
        )
        table = run_table_one(
            config,
            functionals=(get_functional("VWN RPA"), get_functional("LYP")),
            conditions=(EC1,),
        )
        assert table.symbol(get_functional("VWN RPA"), EC1) == "OK"
        assert table.symbol(get_functional("LYP"), EC1) == "CEX"


class TestAreaPasses:
    """Rendering a table sums each report's area at most once."""

    @staticmethod
    def count_passes(monkeypatch) -> list:
        """Patch the uncached area sum; the list gets the report of each pass."""
        passes = []
        walk = VerificationReport._sum_area_fractions
        monkeypatch.setattr(
            VerificationReport, "_sum_area_fractions",
            lambda self: passes.append(self) or walk(self),
        )
        return passes

    def test_render_then_as_dict_sums_each_report_once(self, monkeypatch):
        functionals = (get_functional("PBE"), get_functional("LYP"), get_functional("SCAN"))
        table = TableOne(functionals=functionals, conditions=(EC1,))
        outcomes = (Outcome.VERIFIED, Outcome.TIMEOUT, Outcome.INCONCLUSIVE)
        for functional, outcome in zip(functionals, outcomes):
            key = (functional.name, "EC1")
            table.reports[key] = fake_report(*key, outcome)
        passes = self.count_passes(monkeypatch)
        table.render()
        symbols = table.as_dict()
        assert symbols["EC1"] == {"PBE": "OK", "LYP": "?", "SCAN": "?"}
        assert sorted(map(id, passes)) == sorted(map(id, table.reports.values()))

    def test_pooled_campaign_reports_need_no_pass_in_the_parent(self, monkeypatch):
        from repro.analysis.tables import table_one_from_reports
        from repro.verifier.campaign import run_campaign

        config = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000)
        functionals = (get_functional("VWN RPA"), get_functional("Wigner"))
        passes = self.count_passes(monkeypatch)
        result = run_campaign(
            [(f, EC1) for f in functionals], config, max_workers=2
        )
        table = table_one_from_reports(result.reports, functionals, (EC1,))
        table.render()
        table.as_dict()
        for report in result.reports.values():
            report.area_fractions()
            report.summary()
        assert len(result.computed) == 2
        assert passes == []
