"""E13 -- extended Table I: all fourteen registered DFAs.

The paper's Section VI-B goal is scaling XCVerifier to every LibXC
functional.  This bench runs the Table I harness over the full registry
(the paper's five plus the nine extensions) at the bench budgets and
prints the extended matrix -- a preview of what the paper's CI vision
would output.

Expected shape: the extra empirical correlation (BLYP = B88 + LYP)
inherits LYP's CEX row; revPBE inherits PBE's EC7 counterexample; the
extra LDAs behave like VWN RPA (all OK); the regularised SCANs stay
budget-hard like SCAN.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import run_table_one
from repro.functionals import all_functionals
from repro.verifier.verifier import VerifierConfig

#: lighter than BENCH_CONFIG: 14 functionals x ~5 conditions is ~70 pairs,
#: so the per-pair budget is scaled down to keep the whole extended sweep
#: in the minutes range (the paper-accuracy run is E1, on the five DFAs)
EXTENDED_CONFIG = VerifierConfig(
    split_threshold=1.25, per_call_budget=200, global_step_budget=3000
)


@pytest.fixture(scope="module")
def extended_table():
    # pooled and in-process campaigns are bit-identical (test_parallel.py)
    return run_table_one(EXTENDED_CONFIG, functionals=all_functionals(), max_workers=2)


def test_extended_table_regenerate(benchmark, extended_table):
    table = benchmark.pedantic(lambda: extended_table, rounds=1, iterations=1)
    print("\n" + table.render())


def test_extension_rows_shape(extended_table):
    cells = extended_table.as_dict()
    # empirical correlation: BLYP inherits LYP's EC1 counterexample
    assert cells["EC1"]["BLYP"] == "CEX"
    assert cells["EC1"]["LYP"] == "CEX"
    # revPBE shares PBE's correlation: same EC7 counterexample verdict
    assert cells["EC7"]["revPBE"] == cells["EC7"]["PBE"] == "CEX"
    # the LDA extensions all satisfy EC1
    for name in ("PZ81", "VWN5", "Wigner"):
        assert cells["EC1"][name] in ("OK", "OK*"), name
    # PBEsol keeps EC1; PW91 carries a genuine high-density violation
    # sliver (rs < 3e-4) that the verifier may or may not pin at bench
    # budgets -- any verdict except a clean full-domain OK is credible
    assert cells["EC1"]["PBEsol"] in ("OK", "OK*")
    assert cells["EC1"]["PW91"] in ("OK*", "CEX", "?")


def test_lieb_oxford_column_widens(extended_table):
    # with B88/PW91/PBEsol/revPBE registered, the LO conditions now apply
    # to nine functionals instead of three
    applicable = [
        f for f in all_functionals() if f.has_exchange and f.has_correlation
    ]
    assert len(applicable) == 9
    cells = extended_table.as_dict()
    assert cells["EC5"]["LYP"] == "-"
    assert cells["EC5"]["BLYP"] != "-"
