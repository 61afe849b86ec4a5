"""Tests for the PB grid-search condition checker."""

import numpy as np
import pytest

from repro.conditions import EC1, EC2, EC4, EC5, EC6, EC7, get_condition
from repro.expr.codegen import compile_numpy
from repro.functionals import get_functional
from repro.pb.checker import PBChecker
from repro.pb.grid import Grid, GridSpec
from repro.solver.constraint import Atom

SPEC = GridSpec(n_rs=101, n_s=101, n_alpha=11)
CHECKER = PBChecker(spec=SPEC)


class TestVerdicts:
    def test_lyp_ec1_violated(self):
        res = CHECKER.check(get_functional("LYP"), EC1)
        assert res.any_violation
        bounds = res.violation_bounds()
        # violations only at large s (paper: s > ~1.66)
        assert bounds["s"][0] > 1.3
        assert bounds["s"][1] == pytest.approx(5.0)

    def test_lyp_ec2_violated_at_small_rs(self):
        res = CHECKER.check(get_functional("LYP"), EC2)
        assert res.any_violation
        bounds = res.violation_bounds()
        # paper: rs < 2.5 and s > 1.4844
        assert bounds["rs"][1] < 3.0
        assert bounds["s"][0] > 1.2

    def test_lyp_ec6_violated_bottom_right(self):
        res = CHECKER.check(get_functional("LYP"), EC6)
        assert res.any_violation
        bounds = res.violation_bounds()
        # paper: rs > 4.84, s > 2.42 -- a small corner
        assert bounds["rs"][0] > 4.0
        assert res.violation_fraction < 0.05

    def test_pbe_ec7_violated_upper_left(self):
        res = CHECKER.check(get_functional("PBE"), EC7)
        assert res.any_violation
        bounds = res.violation_bounds()
        assert bounds["rs"][0] < 0.5
        assert bounds["s"][1] == pytest.approx(5.0)

    def test_pbe_ec1_satisfied(self):
        res = CHECKER.check(get_functional("PBE"), EC1)
        assert not res.any_violation

    def test_pbe_lieb_oxford_satisfied(self):
        for cond in (EC4, EC5):
            res = CHECKER.check(get_functional("PBE"), cond)
            assert not res.any_violation, cond.cid

    def test_vwn_rpa_all_satisfied(self):
        f = get_functional("VWN RPA")
        for cid in ("EC1", "EC2", "EC3", "EC6", "EC7"):
            res = CHECKER.check(f, get_condition(cid))
            assert not res.any_violation, cid

    def test_am05_all_satisfied(self):
        f = get_functional("AM05")
        for cid in ("EC1", "EC2", "EC6", "EC7", "EC4", "EC5"):
            res = CHECKER.check(f, get_condition(cid))
            assert not res.any_violation, cid

    def test_inapplicable_pair_rejected(self):
        with pytest.raises(ValueError):
            CHECKER.check(get_functional("LYP"), EC4)


class TestResultShape:
    def test_masks_partition_grid(self):
        res = CHECKER.check(get_functional("LYP"), EC1)
        total = res.satisfied | res.violated | res.undefined
        assert total.all()
        assert not (res.satisfied & res.violated).any()

    def test_summary_text(self):
        res = CHECKER.check(get_functional("LYP"), EC1)
        assert "violated" in res.summary()
        res_ok = CHECKER.check(get_functional("PBE"), EC1)
        assert "satisfied" in res_ok.summary()

    def test_violation_fraction_range(self):
        res = CHECKER.check(get_functional("LYP"), EC1)
        assert 0.0 < res.violation_fraction < 1.0

    def test_boundary_trim_marks_undefined(self):
        res = CHECKER.check(get_functional("PBE"), EC7)
        assert res.undefined[0].all()
        assert res.undefined[-1].all()

    def test_no_trim_configuration(self):
        checker = PBChecker(spec=GridSpec(n_rs=51, n_s=51), boundary_trim=0)
        res = checker.check(get_functional("PBE"), EC7)
        assert not res.undefined[1:-1].all()


class TestGridConvergence:
    def test_verdict_stable_across_resolutions(self):
        """E9: the LYP EC1 verdict must not depend on grid resolution."""
        for n in (41, 81, 161):
            checker = PBChecker(spec=GridSpec(n_rs=n, n_s=n))
            res = checker.check(get_functional("LYP"), EC1)
            assert res.any_violation, f"missed violation at n={n}"

    def test_violation_boundary_converges(self):
        thresholds = []
        for n in (41, 161):
            checker = PBChecker(spec=GridSpec(n_rs=n, n_s=n))
            res = checker.check(get_functional("LYP"), EC1)
            thresholds.append(res.violation_bounds()["s"][0])
        # finer grid localises the boundary at or below the coarse one
        assert abs(thresholds[1] - thresholds[0]) < 0.25


class TestMetaGGA:
    def test_scan_grid_is_3d(self):
        res = CHECKER.check(get_functional("SCAN"), EC1)
        assert res.residual.ndim == 3

    def test_scan_ec1_satisfied(self):
        res = CHECKER.check(get_functional("SCAN"), EC1)
        assert not res.any_violation

    def test_scan_ec5_satisfied(self):
        res = CHECKER.check(get_functional("SCAN"), EC5)
        assert not res.any_violation


class TestExactDerivativeCrossCheck:
    """The encoder's local condition psi, with *symbolic* rs-derivatives,
    compiled by ``compile_numpy`` and evaluated on the PB mesh: the
    stencil-free cross-check of the checker's numeric gradients."""

    SPEC = GridSpec(n_rs=81, n_s=81, n_alpha=7)

    @pytest.mark.parametrize("fname,cid,expect", [
        ("PBE", "EC1", False),
        ("PBE", "EC7", True),
        ("LYP", "EC2", True),
        ("SCAN", "EC2", False),
    ])
    def test_exact_residual_verdicts(self, fname, cid, expect):
        functional = get_functional(fname)
        condition = get_condition(cid)
        atom = Atom.from_rel(condition.local_condition(functional)).normalized()
        kernel = compile_numpy(atom.residual, functional.variables)
        residual = Grid.for_functional(functional, self.SPEC).evaluate(kernel)
        undefined = ~np.isfinite(residual)
        violated = np.where(undefined, False, residual > PBChecker().tolerance)
        assert violated.any() == expect
        # no one-sided stencil rows: the rs edges carry real verdicts
        assert not undefined[0].any()
        assert not undefined[-1].any()
