"""Workload definitions, seeded inputs and the correctness check.

Every workload drives the public campaign API (``applicable_pairs`` ->
``run_campaign`` -> ``table_one_from_reports``) on ``WORKERS`` pool
workers with a JSONL result store:

* ``table1-coarse`` -- the 31 applicable Table I cells at a coarse budget.
  The solver does almost all of the work and every cell keeps at most 73
  region records, so this workload moves with solver and scheduling changes
  and should not move with verifier bookkeeping or the store.  The seed
  permutes the submission order (a different permutation per iteration of a
  run); stitched reports do not depend on order.
* ``scan-exhausted`` -- SCAN x two conditions whose 200-step global budget
  runs out after a handful of solver calls.  The verifier then keeps
  splitting down to the threshold, so each cell holds ~37k zero-step TIMEOUT
  records (~7.6 MB of store payload): verifier bookkeeping, result transfer
  from the workers and the store write path, with almost no solving.
* ``scan-resume`` -- the same two cells resumed from a store that
  ``scan-exhausted`` wrote with the code under test: every cell must be a
  store hit, so the run pays encode, compile, content keys, the store read
  path, classification and render.

Run ``PYTHONPATH=src python3 perfbench/workloads.py --write-reference`` to
regenerate ``reference.json`` (only when a change is *meant* to alter Table I
symbols or area fractions).
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.tables import applicable_pairs
from repro.conditions.catalog import PAPER_CONDITIONS, get_condition
from repro.functionals.registry import get_functional, paper_functionals
from repro.verifier.campaign import run_campaign
from repro.verifier.verifier import VerifierConfig

WORKLOADS = ("table1-coarse", "scan-exhausted", "scan-resume")

#: pool width of every campaign, sized for a 2-CPU machine
WORKERS = 2

#: benchmarks/_settings.py's BENCH_CONFIG with a quarter of its global
#: budget: the same Table I matrix in about 40% of the time
TABLE1_CONFIG = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=2500)

#: CLI-default budgets cut to 40 steps per call and 200 overall.  The
#: threshold is one split level above the CLI default t = 0.05: 37k instead
#: of 300k records per cell, the same exhausted-budget behaviour
SCAN_CONFIG = VerifierConfig(split_threshold=0.1, per_call_budget=40, global_step_budget=200)

#: SCAN conditions whose 200-step budget runs out, at t = 0.05 as at t = 0.1
SCAN_CONDITIONS = ("EC1", "EC2", "EC3", "EC6", "EC7", "EC4", "EC5")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Inputs:
    """One campaign's inputs: cells in submission order plus the table axes."""

    workload: str
    config: VerifierConfig
    pairs: tuple
    functionals: tuple
    conditions: tuple
    resume: bool

    @property
    def keys(self) -> list[tuple[str, str]]:
        return [(f.name, c.cid) for f, c in self.pairs]


def make_inputs(workload: str, seed: int, iteration: int = 0) -> Inputs:
    """The inputs of ``workload``; the same seed and iteration give the same inputs."""
    if workload == "table1-coarse":
        pairs = applicable_pairs()
        random.Random(f"{seed}/{iteration}").shuffle(pairs)
        return Inputs(
            workload, TABLE1_CONFIG, tuple(pairs), paper_functionals(), PAPER_CONDITIONS, False
        )
    if workload in ("scan-exhausted", "scan-resume"):
        scan = get_functional("SCAN")
        cids = random.Random(seed).sample(SCAN_CONDITIONS, 2)
        conditions = tuple(get_condition(cid) for cid in cids)
        return Inputs(
            workload,
            SCAN_CONFIG,
            tuple((scan, c) for c in conditions),
            (scan,),
            conditions,
            workload == "scan-resume",
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def cell_outcome(report) -> dict:
    """What the correctness check compares: the Table I symbol and area fractions."""
    return {
        "symbol": report.classification(),
        "fractions": {o.value: v for o, v in report.area_fractions().items()},
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_cells(inputs: Inputs, result, outcomes: dict, reference: dict) -> list[str]:
    """One problem line per failed cell; an empty list means every cell passed.

    A cell fails when it is missing, when its symbol (and, for the SCAN
    workloads, its area fractions) differ from the reference, or -- on
    ``scan-resume`` -- when it was recomputed instead of served from the store.
    """
    problems = []
    hits = set(result.store_hits) if result is not None else set()
    for key in inputs.keys:
        name = "/".join(key)
        got = outcomes.get(key)
        if got is None:
            problems.append(f"{name}: missing")
            continue
        if inputs.workload == "table1-coarse":
            want = {"symbol": reference["table1-coarse"].get(key[1], {}).get(key[0])}
            got = {"symbol": got["symbol"]}
        else:
            want = reference["scan"].get(key[1])
        if got != want:
            problems.append(f"{name}: got {got}, reference {want}")
        elif inputs.resume and key not in hits:
            problems.append(f"{name}: recomputed instead of served from the store")
    return problems


def write_reference() -> None:
    """Recompute ``reference.json`` in-process with the current code."""
    table = run_campaign(applicable_pairs(), TABLE1_CONFIG, max_workers=0)
    symbols: dict[str, dict[str, str]] = {}
    for (functional, cid), report in table.reports.items():
        symbols.setdefault(cid, {})[functional] = report.classification()
    scan = get_functional("SCAN")
    pairs = [(scan, get_condition(cid)) for cid in SCAN_CONDITIONS]
    cells = run_campaign(pairs, SCAN_CONFIG, max_workers=0)
    reference = {
        "table1-coarse": symbols,
        "scan": {cid: cell_outcome(cells.reports[("SCAN", cid)]) for cid in SCAN_CONDITIONS},
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    write_reference()
