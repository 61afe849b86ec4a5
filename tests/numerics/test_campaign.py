"""Differential corpus for the Section VI-C numerics campaign.

Pins the tentpole guarantees:

* campaign cells are **bit-identical** to the sequential per-pair path
  (direct ``check_*`` calls through the payload builders), regardless of
  worker count or completion order;
* the content-hash store turns re-runs into hits and never rewrites
  stored cells;
* KeyboardInterrupt yields a partial result whose completed cells are
  already durable;
* verify-cells and analysis-cells coexist in one store.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import table_three_from_cells, table_three_to_json
from repro.functionals import get_functional
from repro.numerics import (
    NumericsConfig,
    check_continuity,
    check_hazards,
    run_numerics_campaign,
    run_numerics_cell,
    sensitivity_map,
)
from repro.numerics.campaign import (
    CHECKS,
    cell_content_key,
    component_applies,
    continuity_payload,
    hazards_payload,
    numerics_cells,
    sensitivity_payload,
)
from repro.solver.icp import Budget

SLICE = ("LYP", "Wigner", "PZ81")


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestCellEnumeration:
    def test_hazards_expand_to_both_semantics(self):
        cells = numerics_cells([get_functional("Wigner")], checks=("hazards",))
        assert cells == [
            ("Wigner", "fc", "hazards", "branch"),
            ("Wigner", "fc", "hazards", "ieee"),
        ]

    def test_inapplicable_components_skipped(self):
        lyp = get_functional("LYP")  # correlation-only
        assert not component_applies(lyp, "fx")
        cells = numerics_cells([lyp], components=("fc", "fx", "fxc"),
                               checks=("continuity",))
        assert cells == [("LYP", "fc", "continuity", "-")]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            numerics_cells([get_functional("Wigner")], checks=("nope",))

    def test_canonical_check_order_regardless_of_caller_order(self):
        cells = numerics_cells(
            [get_functional("Wigner")], checks=("sensitivity", "continuity")
        )
        assert [c[2] for c in cells] == ["continuity", "sensitivity"]


class TestFunctionalResolution:
    def test_non_registry_functional_rejected(self):
        """Workers re-resolve by registry name; an unregistered (or
        same-named different) object would crash there or poison the
        store with the registry version's results under its key."""
        from dataclasses import replace as dc_replace

        wigner = get_functional("Wigner")
        impostor = dc_replace(wigner, name="NotRegistered")
        with pytest.raises(ValueError, match="not the registered instance"):
            run_numerics_campaign([impostor], checks=("continuity",))

    def test_registry_objects_and_names_equivalent(self):
        by_name = run_numerics_campaign(["Wigner"], checks=("continuity",))
        by_obj = run_numerics_campaign(
            [get_functional("Wigner")], checks=("continuity",)
        )
        key = ("Wigner", "fc", "continuity", "-")
        assert dumps(by_name[key]) == dumps(by_obj[key])


class TestContentKeys:
    def test_key_stable_across_calls(self):
        f = get_functional("Wigner")
        config = NumericsConfig()
        a = cell_content_key(f, "fc", "hazards", "ieee", config)
        b = cell_content_key(f, "fc", "hazards", "ieee", config)
        assert a == b

    def test_key_scoped_per_check_parameters(self):
        f = get_functional("Wigner")
        base = NumericsConfig()
        reseeded = NumericsConfig(seed=7)
        # continuity cells miss on a seed change...
        assert cell_content_key(f, "fc", "continuity", "-", base) != \
            cell_content_key(f, "fc", "continuity", "-", reseeded)
        # ...hazard cells keep hitting (the seed is not theirs)
        assert cell_content_key(f, "fc", "hazards", "branch", base) == \
            cell_content_key(f, "fc", "hazards", "branch", reseeded)

    def test_perf_knobs_excluded(self, monkeypatch):
        # the solver's frontier batch width is bit-identical and not a key
        # input: a different width keeps hitting
        from repro.solver import icp

        f = get_functional("Wigner")
        key = cell_content_key(f, "fc", "hazards", "branch", NumericsConfig())
        monkeypatch.setattr(icp, "BATCH_SIZE", 7)
        assert cell_content_key(f, "fc", "hazards", "branch", NumericsConfig()) == key

    def test_key_stamps_kernel_value_semantics(self, monkeypatch):
        # sensitivity maxima are NumPy-kernel values: a change to how the
        # kernels round (e.g. n-ary sums) must turn stored cells into misses
        from repro.numerics import campaign

        f = get_functional("Wigner")
        before = cell_content_key(f, "fc", "sensitivity", "-", NumericsConfig())
        monkeypatch.setattr(
            campaign, "CODEGEN_SEMANTICS_VERSION",
            campaign.CODEGEN_SEMANTICS_VERSION + 1,
        )
        assert cell_content_key(f, "fc", "sensitivity", "-", NumericsConfig()) != before

    def test_key_differs_per_cell_address(self):
        f = get_functional("PZ81")
        config = NumericsConfig()
        keys = {
            cell_content_key(f, "fc", check, sem, config)
            for _, _, check, sem in numerics_cells([f])
        }
        assert len(keys) == 4  # continuity, hazards x2, sensitivity


class TestDifferentialSequential:
    """Campaign output == the sequential per-pair path, bit for bit."""

    def test_cells_match_direct_check_calls(self):
        config = NumericsConfig()
        result = run_numerics_campaign(SLICE, checks=CHECKS, config=config)
        assert not result.interrupted
        for functional_name in SLICE:
            f = get_functional(functional_name)
            expr = f.fc()
            domain = f.domain()
            expected = {
                "continuity": continuity_payload(
                    check_continuity(
                        expr, domain,
                        n_base_points=config.n_base_points,
                        bisection_steps=config.bisection_steps,
                        seed=config.seed,
                    )
                ),
                ("hazards", "branch"): hazards_payload(
                    check_hazards(
                        expr, domain, branch_aware=True, delta=config.delta,
                        budget=Budget(max_steps=config.hazard_budget),
                        solver=config.make_hazard_solver(),
                    )
                ),
                ("hazards", "ieee"): hazards_payload(
                    check_hazards(
                        expr, domain, branch_aware=False, delta=config.delta,
                        budget=Budget(max_steps=config.hazard_budget),
                        solver=config.make_hazard_solver(),
                    )
                ),
                "sensitivity": sensitivity_payload(
                    sensitivity_map(
                        f, "fc",
                        per_dim=config.per_dim_mgga
                        if f.family == "MGGA" else config.per_dim,
                    )
                ),
            }
            for payload in expected.values():
                payload["functional"] = functional_name
                payload["component"] = "fc"
            expected[("hazards", "branch")]["semantics"] = "branch"
            expected[("hazards", "ieee")]["semantics"] = "ieee"
            expected["continuity"]["semantics"] = "-"
            expected["sensitivity"]["semantics"] = "-"

            key = (functional_name, "fc", "continuity", "-")
            assert dumps(result[key]) == dumps(expected["continuity"])
            key = (functional_name, "fc", "hazards", "branch")
            assert dumps(result[key]) == dumps(expected[("hazards", "branch")])
            key = (functional_name, "fc", "hazards", "ieee")
            assert dumps(result[key]) == dumps(expected[("hazards", "ieee")])
            key = (functional_name, "fc", "sensitivity", "-")
            assert dumps(result[key]) == dumps(expected["sensitivity"])

    def test_worker_pool_bit_identical_to_in_process(self):
        seq = run_numerics_campaign(SLICE, checks=("hazards", "continuity"))
        par = run_numerics_campaign(
            SLICE, checks=("hazards", "continuity"), max_workers=2
        )
        assert set(seq.cells) == set(par.cells)
        for key in seq.cells:
            assert dumps(seq.cells[key]) == dumps(par.cells[key]), key
        # ...and so is the aggregated table, completion order and all
        assert table_three_to_json(table_three_from_cells(seq.cells)) == \
            table_three_to_json(table_three_from_cells(par.cells))

    def test_run_numerics_cell_is_the_worker_path(self):
        f = get_functional("Wigner")
        config = NumericsConfig()
        result = run_numerics_campaign(["Wigner"], checks=("hazards",),
                                       config=config)
        direct = run_numerics_cell(f, "fc", "hazards", "ieee", config)
        assert dumps(result[("Wigner", "fc", "hazards", "ieee")]) == dumps(direct)


class TestSharedPool:
    def test_one_executor_serves_both_campaign_kinds(self):
        """A verification campaign and a numerics campaign share one pool."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.verifier.campaign import run_campaign

        with ProcessPoolExecutor(max_workers=2) as pool:
            verify = run_campaign([("Wigner", "EC1")], executor=pool)
            numerics = run_numerics_campaign(
                ["Wigner"], checks=("hazards",), executor=pool
            )
        assert len(verify.reports) == 1
        assert len(numerics.cells) == 2
        seq = run_numerics_campaign(["Wigner"], checks=("hazards",))
        for key in seq.cells:
            assert dumps(seq.cells[key]) == dumps(numerics.cells[key])


class TestStoreAndResume:
    def test_resume_serves_hits_bit_identically(self, tmp_path):
        store = tmp_path / "numerics.jsonl"
        first = run_numerics_campaign(
            SLICE, checks=("hazards",), store=store, resume=True
        )
        assert len(first.computed) == 6 and not first.store_hits
        before = store.read_bytes()
        second = run_numerics_campaign(
            SLICE, checks=("hazards",), store=store, resume=True
        )
        assert len(second.store_hits) == 6 and not second.computed
        # stored cells are hits, not rewrites: the file did not grow
        assert store.read_bytes() == before
        for key in first.cells:
            assert dumps(first.cells[key]) == dumps(second.cells[key])

    def test_changed_parameters_miss_cleanly(self, tmp_path):
        store = tmp_path / "numerics.jsonl"
        run_numerics_campaign(["Wigner"], checks=("continuity",), store=store)
        rerun = run_numerics_campaign(
            ["Wigner"], checks=("continuity",), store=store, resume=True,
            config=NumericsConfig(seed=3),
        )
        assert rerun.computed and not rerun.store_hits

    def test_mixed_store_with_verifier_cells(self, tmp_path):
        """Verify-cells and analysis-cells coexist; neither misreads the other."""
        from repro.verifier.campaign import run_campaign
        from repro.verifier.store import iter_reports, open_store

        store_path = tmp_path / "mixed.jsonl"
        verify = run_campaign(
            [("Wigner", "EC1")], store=store_path, resume=True
        )
        numerics = run_numerics_campaign(
            ["Wigner"], checks=("hazards",), store=store_path, resume=True
        )
        assert len(verify.reports) == 1 and len(numerics.cells) == 2
        with open_store(store_path) as store:
            assert len(store.keys()) == 3
            # iter_reports yields only the verification report
            reports = list(iter_reports(store))
            assert len(reports) == 1
            assert reports[0][1].functional_name == "Wigner"
            # the numerics payloads read back through the generic API
            for key in numerics.cell_keys.values():
                payload = store.get_payload(key)
                assert payload["kind"] == "numerics/hazards"
                assert store.get(key) is None  # not misread as a report


class TestInterrupt:
    def test_keyboard_interrupt_yields_durable_partial(self, tmp_path):
        store = tmp_path / "numerics.jsonl"
        seen = []

        def explode(key, payload, from_store):
            seen.append(key)
            if len(seen) == 2:
                raise KeyboardInterrupt

        result = run_numerics_campaign(
            SLICE, checks=("hazards",), store=store, on_cell=explode
        )
        assert result.interrupted
        assert len(result.cells) == 2
        # completed cells were persisted before the interrupt...
        resumed = run_numerics_campaign(
            SLICE, checks=("hazards",), store=store, resume=True
        )
        assert not resumed.interrupted
        assert len(resumed.store_hits) == 2
        assert len(resumed.cells) == 6
        # ...and the resumed total matches an uninterrupted run, bit for bit
        fresh = run_numerics_campaign(SLICE, checks=("hazards",))
        for key in fresh.cells:
            assert dumps(fresh.cells[key]) == dumps(resumed.cells[key])


class TestTableThree:
    def test_render_and_dict_shape(self):
        result = run_numerics_campaign(["PZ81"], checks=CHECKS)
        table = table_three_from_cells(result.cells)
        rows = table.as_dict()
        assert set(rows) == {"PZ81/fc"}
        row = rows["PZ81/fc"]
        assert set(row) == {"hazards", "continuity", "sensitivity"}
        assert row["hazards"]["branch"]["counts"]
        assert row["hazards"]["ieee"]["sites"] == row["hazards"]["branch"]["sites"]
        text = table.render()
        assert "PZ81/fc" in text and "Table III" in text

    def test_json_deterministic_under_cell_order(self):
        result = run_numerics_campaign(["LYP", "Wigner"], checks=("hazards",))
        shuffled = dict(reversed(list(result.cells.items())))
        assert table_three_to_json(table_three_from_cells(result.cells)) == \
            table_three_to_json(table_three_from_cells(shuffled))

    def test_scan_alpha_channel_appears_in_ieee_mode(self):
        """The paper's Section VI-C SCAN case: the alpha = 1 exponential
        tail triggers under kernel (np.where) semantics."""
        result = run_numerics_campaign(["SCAN"], checks=("hazards",))
        ieee = result[("SCAN", "fc", "hazards", "ieee")]
        triggered = [
            v for v in ieee["verdicts"] if v["status"] in ("hazard", "benign")
        ]
        assert triggered, "SCAN's alpha=1 channel should trigger under ieee"
