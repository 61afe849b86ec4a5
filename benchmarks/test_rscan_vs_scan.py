"""Extension bench -- SCAN vs regularized SCAN (paper Section VI-A).

The paper proposes the rSCAN/r2SCAN progression as "a fascinating use
case" for verification, hypothesising that regularisation (removing the
essential singularity of the switching function at alpha = 1) should help
the solver.  This bench measures the comparison and documents the nuanced
outcome we observe:

* rSCAN's model is *totally* evaluable (no diverging untaken branch at
  alpha = 1), eliminating the inconclusive NaN channel, and
* its enclosures across the alpha = 1 plane come from a polynomial rather
  than a hull over an exponential pole -- but
* the degree-7 interpolation polynomial has large alternating
  coefficients, so naive (Horner) interval evaluation suffers exactly the
  dependency problem; at equal budgets plain HC4 does *not* automatically
  verify more of rSCAN than SCAN.  Tightening budgets or enclosures (e.g.
  centered forms) is where the paper's future-work direction actually
  leads.
"""

from __future__ import annotations


from repro.conditions import EC1
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.solver.tape import tape_for
from repro.verifier import encode, verify_pair
from repro.verifier.regions import Outcome
from repro.verifier.verifier import VerifierConfig
from tests.solver.oracles import enclosure

SCAN = get_functional("SCAN")
RSCAN = get_functional("rSCAN")


def test_rscan_total_evaluation():
    """rSCAN removes SCAN's alpha = 1 evaluation hazard entirely."""
    import math
    from repro.expr.evaluator import evaluate

    scan_val = evaluate(SCAN.fc(), {"rs": 2.0, "s": 1.0, "alpha": 1.0})
    rscan_val = evaluate(RSCAN.fc(), {"rs": 2.0, "s": 1.0, "alpha": 1.0})
    print(f"\nscalar F_c at alpha=1: SCAN={scan_val}, rSCAN={rscan_val}")
    # SCAN's DAG evaluation hits the diverging untaken branch (NaN);
    # rSCAN evaluates cleanly
    assert math.isnan(scan_val)
    assert math.isfinite(rscan_val)


def test_enclosure_width_across_alpha_one(benchmark):
    """Enclosure quality of F_c on a box straddling alpha = 1."""
    box = Box.from_bounds({"rs": (1.9, 2.1), "s": (0.9, 1.1), "alpha": (0.9, 1.1)})

    def widths():
        return (
            enclosure(tape_for(SCAN.fc()), box).width(),
            enclosure(tape_for(RSCAN.fc()), box).width(),
        )

    scan_w, rscan_w = benchmark.pedantic(widths, rounds=1, iterations=1)
    print(f"\nF_c enclosure width across alpha=1: SCAN={scan_w:.4f}, rSCAN={rscan_w:.4f}")
    # THE finding: SCAN's undecided-Ite hull includes the exponential pole
    # of the untaken branch, so the enclosure across alpha = 1 is unbounded
    # -- no budget can verify such a box without splitting exactly at the
    # switch.  rSCAN's polynomial switching keeps the enclosure finite.
    import math

    assert math.isinf(scan_w)
    assert rscan_w < 10.0


def test_verification_coverage_comparison(benchmark):
    config = VerifierConfig(
        split_threshold=1.25, per_call_budget=200, global_step_budget=8000
    )

    def run():
        return (
            verify_pair(SCAN, EC1, config),
            verify_pair(RSCAN, EC1, config),
        )

    scan_rep, rscan_rep = benchmark.pedantic(run, rounds=1, iterations=1)
    fs = scan_rep.area_fractions()
    fr = rscan_rep.area_fractions()
    print(
        f"\nEC1 coverage at equal budget: "
        f"SCAN verified={fs[Outcome.VERIFIED]:.1%} timeout={fs[Outcome.TIMEOUT]:.1%}; "
        f"rSCAN verified={fr[Outcome.VERIFIED]:.1%} timeout={fr[Outcome.TIMEOUT]:.1%}"
    )
    # neither produces (spurious) counterexamples, both remain hard:
    assert not scan_rep.has_counterexample()
    assert not rscan_rep.has_counterexample()
    assert fs[Outcome.TIMEOUT] > 0.3
    assert fr[Outcome.TIMEOUT] > 0.3


def test_formula_sizes():
    scan_ops = encode(SCAN, EC1).complexity()
    rscan_ops = encode(RSCAN, EC1).complexity()
    print(f"\nEC1 formula ops: SCAN={scan_ops}, rSCAN={rscan_ops}")
    # the polynomial interpolation costs operations but removes the pole
    assert rscan_ops > 0
