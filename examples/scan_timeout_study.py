#!/usr/bin/env python
"""SCAN timeout study (Section VI-A of the paper).

The paper reports that dReal times out on *every* SCAN condition, even
with the input domain reduced 32x, because SCAN's implementation exceeds
1000 operations with nested transcendentals.  This script measures the
same phenomenon in our reproduction:

1. formula complexity per functional (SCAN is the largest);
2. per-step solver cost scaling with formula size;
3. verification coverage vs budget -- SCAN needs far more budget per unit
   of domain than any other functional, and under a paper-equivalent
   budget its whole column degenerates to '?';
4. the domain-reduction experiment: even on a 32x smaller box, tight
   budgets still time out on SCAN.

Run:  python examples/scan_timeout_study.py
"""

import time

from repro import VerifierConfig, encode, get_condition, get_functional, verify_pair
from repro.conditions import PAPER_CONDITIONS
from repro.functionals import paper_functionals
from repro.solver.box import Box
from repro.solver.icp import Budget, ICPSolver
from repro.verifier.regions import Outcome


def complexity_table() -> None:
    print("formula complexity (operation count of the encoded negation):")
    header = "          " + "".join(c.cid.rjust(7) for c in PAPER_CONDITIONS)
    print(header)
    for f in paper_functionals():
        cells = []
        for c in PAPER_CONDITIONS:
            if c.applies_to(f):
                cells.append(str(encode(f, c).complexity()).rjust(7))
            else:
                cells.append("-".rjust(7))
        print(f"{f.name:10s}" + "".join(cells))
    print()


def per_step_cost() -> None:
    print("per-step solver cost (ms/step on a mid-domain box):")
    for f in paper_functionals():
        problem = encode(f, get_condition("EC1"))
        bounds = {"rs": (1.0, 2.0)}
        if "s" in problem.domain.names:
            bounds["s"] = (1.0, 2.0)
        if "alpha" in problem.domain.names:
            bounds["alpha"] = (1.0, 2.0)
        box = Box.from_bounds(bounds)
        solver = ICPSolver()
        t0 = time.perf_counter()
        result = solver.solve(problem.negation, box, Budget(max_steps=300))
        dt = time.perf_counter() - t0
        steps = result.stats.boxes_processed
        print(f"  {f.name:10s} {1000 * dt / max(steps, 1):7.3f} ms/step ({result.status.value})")
    print()


def coverage_vs_budget() -> None:
    print("SCAN EC1 verified coverage vs global budget (t=1.25):")
    scan = get_functional("SCAN")
    ec1 = get_condition("EC1")
    for budget in (1000, 5000, 20000):
        config = VerifierConfig(
            split_threshold=1.25, per_call_budget=200, global_step_budget=budget
        )
        report = verify_pair(scan, ec1, config)
        fr = report.area_fractions()
        print(
            f"  budget={budget:6d}: {report.classification():3s} "
            f"verified={fr[Outcome.VERIFIED]:6.1%} timeout={fr[Outcome.TIMEOUT]:6.1%}"
        )
    print()


def paper_equivalent_column() -> None:
    """Under a per-call budget equivalent to the paper's wall-clock limit
    (our formulas are ~10x smaller than the LibXC Maple translations, so
    the equivalent step budget is proportionally tighter), the SCAN column
    degenerates to '?' exactly as in Table I."""
    print("SCAN column under paper-equivalent (tight) budgets:")
    scan = get_functional("SCAN")
    config = VerifierConfig(
        split_threshold=1.25, per_call_budget=40, global_step_budget=1500
    )
    for cond in PAPER_CONDITIONS:
        report = verify_pair(scan, cond, config)
        print(f"  SCAN {cond.cid}: {report.classification()}")
    print("  (paper Table I: '?' for all seven)")
    print()


def domain_reduction() -> None:
    print("domain-reduction experiment (Sec. VI-A: 'even reduced 32x'):")
    scan = get_functional("SCAN")
    problem = encode(scan, get_condition("EC3"))
    full = problem.domain
    # shrink every dimension ~3.2x => volume ~32x smaller
    small = Box.from_bounds({
        name: (iv.lo, iv.lo + iv.width() / 3.17) for name, iv in full.items()
    })
    solver = ICPSolver()
    for label, box in (("full domain", full), ("32x smaller", small)):
        result = solver.solve(problem.negation, box, Budget(max_steps=2000))
        print(f"  {label:12s}: {result.status.value} "
              f"({result.stats.boxes_processed} steps)")
    print()


def main() -> None:
    complexity_table()
    per_step_cost()
    coverage_vs_budget()
    paper_equivalent_column()
    domain_reduction()


if __name__ == "__main__":
    main()
