"""E8 -- ablation: delta, budget, and contractor sensitivity.

Probes the knobs Section VI-A discusses: how solver precision/weakening
and budget interact with verification coverage.
"""

from __future__ import annotations


from repro.conditions import EC1
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.solver.icp import Budget, ICPSolver, SolverStatus
from repro.verifier import encode, verify_pair
from repro.verifier.regions import Outcome
from repro.verifier.verifier import VerifierConfig


def test_budget_scaling_increases_coverage(benchmark):
    """More budget -> monotonically more of the domain decided (PBE/EC1)."""
    pbe = get_functional("PBE")
    coverages = {}

    def run_all():
        for budget in (500, 2000, 8000):
            config = VerifierConfig(
                split_threshold=0.7,
                per_call_budget=250,
                global_step_budget=budget,
            )
            report = verify_pair(pbe, EC1, config)
            coverages[budget] = report.area_fractions()[Outcome.VERIFIED]
        return coverages

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"\nverified coverage by global budget: {coverages}")
    budgets = sorted(coverages)
    assert coverages[budgets[0]] <= coverages[budgets[-1]]
    assert coverages[budgets[-1]] > 0.1


def test_delta_controls_spurious_models():
    """Large delta yields delta-SAT with spurious models on thin margins.

    PBE's eps_c approaches 0 from below at large s: with a delta wider
    than the margin the solver reports delta-SAT whose model does *not*
    violate EC1 -- exactly the inconclusive case of Algorithm 1.
    """
    pbe = get_functional("PBE")
    problem = encode(pbe, EC1)
    # a region where the EC1 margin is ~1e-3
    domain = Box.from_bounds({"rs": (4.0, 5.0), "s": (4.5, 5.0)})

    tight = ICPSolver(delta=1e-7, precision=1e-4)
    loose = ICPSolver(delta=1e-1, precision=1e-4)

    r_tight = tight.solve(problem.negation, domain, Budget(max_steps=4000))
    r_loose = loose.solve(problem.negation, domain, Budget(max_steps=4000))

    print(f"\ndelta=1e-7: {r_tight.status.value}; delta=1e-1: {r_loose.status.value}")
    assert r_loose.status is SolverStatus.DELTA_SAT
    # the loose model must be spurious (EC1 actually holds there)
    assert not problem.negation.holds_at(r_loose.model)
    # tight delta either proves it or at least does not produce a valid cex
    if r_tight.status is SolverStatus.DELTA_SAT:
        assert not problem.negation.holds_at(r_tight.model)

