"""Tests for VerifierConfig semantics and factory helpers."""

import pytest

from repro.solver.icp import ICPSolver
from repro.verifier.verifier import VerifierConfig


class TestConfig:
    def test_defaults_match_paper_threshold(self):
        assert VerifierConfig().split_threshold == 0.05

    def test_make_solver_propagates_delta_precision(self):
        config = VerifierConfig(delta=1e-3, precision=1e-2)
        solver = config.make_solver()
        assert isinstance(solver, ICPSolver)
        assert solver.delta == 1e-3
        assert solver.precision == 1e-2

    def test_frozen(self):
        config = VerifierConfig()
        with pytest.raises(AttributeError):
            config.split_threshold = 1.0

    def test_unlimited_global_budget(self):
        from repro.conditions import EC1
        from repro.functionals import get_functional
        from repro.verifier import verify_pair

        config = VerifierConfig(
            split_threshold=3.0, per_call_budget=100, global_step_budget=None
        )
        report = verify_pair(get_functional("VWN RPA"), EC1, config)
        assert not report.budget_exhausted
        assert report.classification() == "OK"
