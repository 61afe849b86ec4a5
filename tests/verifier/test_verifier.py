"""Tests for the Algorithm 1 driver."""


from repro.conditions import EC1, EC7
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.verifier.encoder import compile_problem, encode
from repro.verifier.regions import Outcome
from repro.verifier.verifier import Verifier, VerifierConfig, verify_pair

FAST = VerifierConfig(
    split_threshold=0.7, per_call_budget=250, global_step_budget=8000
)


def small_domain(rs=(1.0, 3.0), s=(0.0, 1.0)):
    return Box.from_bounds({"rs": rs, "s": s})


class TestOutcomes:
    def test_verified_region(self):
        # PBE satisfies EC1 comfortably at moderate rs and small s
        problem = encode(get_functional("PBE"), EC1)
        report = Verifier(FAST).verify(problem, domain=small_domain())
        assert report.classification() in ("OK", "OK*")
        assert report.verified_fraction() > 0.0

    def test_counterexample_region(self):
        # LYP violates EC1 for s > ~1.7
        problem = encode(get_functional("LYP"), EC1)
        report = Verifier(FAST).verify(
            problem, domain=small_domain(rs=(1.0, 3.0), s=(2.0, 4.0))
        )
        assert report.classification() == "CEX"
        cex = report.counterexamples()
        assert cex
        # every recorded model must genuinely violate psi
        from repro.expr.evaluator import evaluate_rel
        for record in cex:
            assert record.model is not None
            assert not evaluate_rel(problem.psi, record.model)

    def test_mixed_region_finds_boundary(self):
        problem = encode(get_functional("LYP"), EC1)
        report = Verifier(FAST).verify(
            problem, domain=small_domain(rs=(1.0, 3.0), s=(0.0, 4.0))
        )
        fractions = report.area_fractions()
        assert fractions[Outcome.VERIFIED] > 0.1
        assert fractions[Outcome.COUNTEREXAMPLE] > 0.1

    def test_timeout_with_tiny_budget(self):
        problem = encode(get_functional("PBE"), EC1)
        config = VerifierConfig(
            split_threshold=2.0, per_call_budget=2, global_step_budget=20
        )
        report = Verifier(config).verify(problem)
        assert report.area_fractions()[Outcome.TIMEOUT] > 0.0


class TestAlgorithmStructure:
    def test_threshold_stops_recursion(self):
        problem = encode(get_functional("LYP"), EC1)
        config = VerifierConfig(
            split_threshold=5.0, per_call_budget=100, global_step_budget=1000
        )
        report = Verifier(config).verify(problem)
        # domain is 5 wide: only the root call can happen
        assert len(report.records) == 1

    def test_split_creates_children_links(self):
        problem = encode(get_functional("LYP"), EC1)
        report = Verifier(FAST).verify(
            problem, domain=small_domain(rs=(1.0, 3.0), s=(0.0, 4.0))
        )
        roots = [r for r in report.records if r.depth == 0]
        assert len(roots) == 1
        root = roots[0]
        if root.outcome is not Outcome.VERIFIED:
            assert root.children
            for child_index in root.children:
                child = report.records[child_index]
                assert child.depth == 1

    def test_verified_boxes_are_leaves(self):
        problem = encode(get_functional("PBE"), EC1)
        report = Verifier(FAST).verify(problem, domain=small_domain())
        for record in report.records:
            if record.outcome is Outcome.VERIFIED:
                assert record.children == []

    def test_no_split_on_counterexample_option(self):
        problem = encode(get_functional("LYP"), EC1)
        config = VerifierConfig(
            split_threshold=0.7,
            per_call_budget=250,
            global_step_budget=8000,
            split_on_counterexample=False,
        )
        report = Verifier(config).verify(
            problem, domain=small_domain(rs=(1.0, 3.0), s=(2.0, 4.0))
        )
        for record in report.records:
            if record.outcome is Outcome.COUNTEREXAMPLE:
                assert record.children == []

    def test_global_budget_marks_remaining_timeout(self):
        problem = encode(get_functional("PBE"), EC1)
        config = VerifierConfig(
            split_threshold=0.15, per_call_budget=200, global_step_budget=300
        )
        report = Verifier(config).verify(problem)
        assert report.budget_exhausted
        zero_step_timeouts = [
            r for r in report.records
            if r.outcome is Outcome.TIMEOUT and r.solver_steps == 0
        ]
        assert zero_step_timeouts

    def test_total_steps_accounting(self):
        problem = encode(get_functional("LYP"), EC1)
        report = Verifier(FAST).verify(problem, domain=small_domain())
        assert report.total_solver_steps == sum(
            r.solver_steps for r in report.records
        )


class TestPaperShapes:
    """Coarse-budget versions of the paper's headline per-pair outcomes."""

    def test_vwn_rpa_ec1_fully_verified(self):
        report = verify_pair(get_functional("VWN RPA"), EC1, FAST)
        assert report.classification() == "OK"

    def test_lyp_ec1_counterexample(self):
        report = verify_pair(get_functional("LYP"), EC1, FAST)
        assert report.classification() == "CEX"

    def test_lyp_ec1_counterexamples_at_large_s(self):
        report = verify_pair(get_functional("LYP"), EC1, FAST)
        bbox = report.counterexample_bbox()
        assert bbox is not None
        assert bbox["s"].hi > 3.0  # violations reach large s
        # and no counterexample below s ~ 1 (paper: threshold ~1.66)
        for record in report.counterexamples():
            assert record.box["s"].hi > 1.0

    def test_pbe_ec7_counterexample_upper_left(self):
        report = verify_pair(get_functional("PBE"), EC7, FAST)
        assert report.classification() == "CEX"
        bbox = report.counterexample_bbox()
        # the violating region covers small rs at large s (upper left)
        assert bbox["rs"].lo < 1.0
        assert bbox["s"].hi > 3.0

    def test_pbe_ec5_verified(self):
        from repro.conditions import EC5
        report = verify_pair(get_functional("PBE"), EC5, FAST)
        assert report.classification() == "OK"

    def test_valid_counterexample_check_rejects_nan(self):
        problem = compile_problem(encode(get_functional("PBE"), EC1))
        assert not Verifier._is_valid_counterexample(problem, None)
        assert not Verifier._is_valid_counterexample(
            problem, {"rs": -1.0, "s": -1.0}
        )
