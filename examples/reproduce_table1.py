#!/usr/bin/env python
"""Reproduce Table I: verification outcomes for all 31 DFA-condition pairs.

Usage:
    python examples/reproduce_table1.py             # fast preset (~3 min)
    python examples/reproduce_table1.py --full      # closer to paper (~15 min)
    python examples/reproduce_table1.py --parallel  # fan pairs over processes

The fast preset uses a coarse split threshold (0.7) and small solver
budgets; --full tightens both (threshold 0.2).  The paper's exact setting
(t = 0.05, 2-hour dReal calls) is reachable with --threshold/--budget but
takes hours, as it did for the authors.
"""

import argparse
import time

from repro import VerifierConfig, run_table_one
from repro.analysis.tables import PAPER_TABLE_ONE
from repro.conditions import applicable_pairs
from repro.verifier.campaign import run_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="tighter budgets")
    parser.add_argument("--parallel", action="store_true", help="process fan-out")
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--budget", type=int, default=None)
    args = parser.parse_args()

    if args.full:
        threshold, per_call, global_budget = 0.2, 400, 60_000
    else:
        threshold, per_call, global_budget = 0.7, 250, 10_000
    if args.threshold is not None:
        threshold = args.threshold
    if args.budget is not None:
        global_budget = args.budget

    config = VerifierConfig(
        split_threshold=threshold,
        per_call_budget=per_call,
        global_step_budget=global_budget,
    )
    print(
        f"config: t={threshold}, per-call={per_call} steps, "
        f"global={global_budget} steps, parallel={args.parallel}"
    )

    t0 = time.time()
    if args.parallel:
        result = run_campaign(applicable_pairs(), config)
        if result.interrupted:
            raise KeyboardInterrupt
        reports = result.reports
        from repro.analysis.tables import TableOne
        from repro.conditions import PAPER_CONDITIONS
        from repro.functionals import paper_functionals

        table = TableOne(
            functionals=tuple(paper_functionals()),
            conditions=tuple(PAPER_CONDITIONS),
            reports=reports,
        )
    else:
        table = run_table_one(config, verbose=True)
    elapsed = time.time() - t0

    print()
    print(table.render())
    print(f"\nelapsed: {elapsed:.1f} s")

    # cell-by-cell agreement with the published table
    cells = table.as_dict()
    matches = total = 0
    diffs = []
    for cid, row in PAPER_TABLE_ONE.items():
        for fname, expected in row.items():
            if expected == "-":
                continue
            total += 1
            got = cells[cid][fname]
            if got == expected:
                matches += 1
            else:
                diffs.append(f"  {fname}/{cid}: paper={expected} ours={got}")
    print(f"\nagreement with paper's Table I: {matches}/{total} cells")
    if diffs:
        print("differences (budget-dependent cells, see EXPERIMENTS.md):")
        print("\n".join(diffs))


if __name__ == "__main__":
    main()
