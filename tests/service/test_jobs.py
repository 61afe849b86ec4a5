"""Job descriptors: spec validation, lowering, content-key identity.

The load-bearing property is **key identity**: the cells a job lowers to
must carry exactly the content keys the campaign paths file results
under, or the service would stop being a cache over the store.
"""

from __future__ import annotations

import pytest

from repro.numerics.campaign import NumericsConfig, cell_content_key
from repro.functionals import get_functional
from repro.service.jobs import CellTask, Job, JobState, spec_from_payload
from repro.verifier.campaign import pair_content_key, run_campaign
from repro.verifier.verifier import VerifierConfig

TINY = {"per_call_budget": 100, "global_step_budget": 400}


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            spec_from_payload({"kind": "frobnicate"})

    def test_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            spec_from_payload(["kind", "verify"])

    def test_verify_needs_pair(self):
        with pytest.raises(ValueError, match="'functional' and 'condition'"):
            spec_from_payload({"kind": "verify", "functional": "PBE"})

    def test_unknown_functional(self):
        with pytest.raises(ValueError, match="unknown functional"):
            spec_from_payload(
                {"kind": "verify", "functional": "NOPE", "condition": "EC1"}
            )

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="unknown condition"):
            spec_from_payload(
                {"kind": "verify", "functional": "PBE", "condition": "EC99"}
            )

    def test_inapplicable_pair(self):
        # EC4 requires exchange; LYP is correlation-only
        with pytest.raises(ValueError, match="does not apply"):
            spec_from_payload(
                {"kind": "verify", "functional": "LYP", "condition": "EC4"}
            )

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown verifier config keys"):
            spec_from_payload(
                {"kind": "verify", "functional": "PBE", "condition": "EC1",
                 "config": {"warp_factor": 9}}
            )

    @pytest.mark.parametrize(
        "kind, key",
        [("verify", "solver_backend"), ("verify", "vector_min"),
         ("verify", "specialize_boxes"), ("verify", "per_call_seconds"),
         ("numerics", "solver_backend")],
    )
    def test_removed_solver_knobs_are_unknown_keys(self, kind, key):
        # the solver and the verifier have one execution path each;
        # configs still naming the old backend/crossover/per-box
        # specialisation/wall-clock budget knobs fail like any other
        # unknown key
        payload = {"kind": kind, "config": {key: "batch"}}
        if kind == "verify":
            payload.update(functional="PBE", condition="EC1")
            what = "verifier"
        else:
            payload["functionals"] = ["Wigner"]
            what = "numerics"
        with pytest.raises(ValueError, match=rf"unknown {what} config keys: \['{key}'\]"):
            spec_from_payload(payload)

    def test_unknown_numerics_config_key(self):
        with pytest.raises(ValueError, match="unknown numerics config keys"):
            spec_from_payload(
                {"kind": "numerics", "functionals": ["Wigner"],
                 "config": {"warp_factor": 9}}
            )

    def test_empty_table1_slice(self):
        with pytest.raises(ValueError, match="no applicable pairs"):
            spec_from_payload(
                {"kind": "table1", "functionals": ["LYP"], "conditions": ["EC4"]}
            )

    def test_empty_numerics_slice(self):
        with pytest.raises(ValueError, match="no applicable cells"):
            spec_from_payload(
                {"kind": "numerics", "functionals": ["LYP"],
                 "components": ["fx"]}  # correlation-only: fx never applies
            )

    def test_name_list_type_checked(self):
        with pytest.raises(ValueError, match="functionals must be a list"):
            spec_from_payload({"kind": "table1", "functionals": "LYP,Wigner"})

    def test_config_overrides_applied(self):
        spec = spec_from_payload(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1",
             "config": TINY}
        )
        assert spec.vconfig.per_call_budget == 100
        assert spec.vconfig.global_step_budget == 400
        assert spec.vconfig.split_threshold == VerifierConfig().split_threshold

    def test_table1_defaults_to_paper_pairs(self):
        spec = spec_from_payload({"kind": "table1"})
        assert len(spec.pairs) == 31  # the paper's applicable pairs

    def test_duplicate_names_dedupe_to_unique_cells(self):
        """Duplicate names in a slice must not produce two cells with one
        address -- Job.resolved counts unique addresses against
        len(cells), so a duplicate would leave the job running forever
        (the direct paths dedupe too: dedupe_pairs, the campaign's
        seen-set)."""
        spec = spec_from_payload(
            {"kind": "table1", "functionals": ["LYP", "LYP"],
             "conditions": ["EC1", "EC1"]}
        )
        assert spec.pairs == (("LYP", "EC1"),)
        spec = spec_from_payload(
            {"kind": "numerics", "functionals": ["Wigner", "Wigner"],
             "components": ["fc", "fc"], "checks": ["continuity"]}
        )
        assert spec.cells == (("Wigner", "fc", "continuity", "-"),)

    def test_numerics_hazards_expand_to_both_semantics(self):
        spec = spec_from_payload(
            {"kind": "numerics", "functionals": ["Wigner"], "checks": ["hazards"]}
        )
        assert spec.cells == (
            ("Wigner", "fc", "hazards", "branch"),
            ("Wigner", "fc", "hazards", "ieee"),
        )


class TestCellTasks:
    def test_verify_keys_match_pair_content_key(self):
        spec = spec_from_payload(
            {"kind": "table1", "functionals": ["Wigner"], "conditions": ["EC1"],
             "config": TINY}
        )
        (task,) = spec.cell_tasks()
        assert task.kind == "verify"
        assert task.address == ("Wigner", "EC1")
        assert task.content_key == pair_content_key("Wigner", "EC1", spec.vconfig)

    def test_verify_keys_match_campaign_store_keys(self):
        """The key a job coalesces on is the key run_campaign files under."""
        spec = spec_from_payload(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1",
             "config": TINY}
        )
        (task,) = spec.cell_tasks()
        result = run_campaign([("Wigner", "EC1")], spec.vconfig, max_workers=0,
                              store=None)
        # run_campaign only derives keys with a store attached; derive the
        # campaign side explicitly and require exact equality
        assert result.reports  # the campaign ran
        assert task.content_key == pair_content_key(
            "Wigner", "EC1", spec.vconfig, presplit_levels=0, steal_depth=0
        )

    def test_numerics_keys_match_cell_content_key(self):
        config = NumericsConfig(n_base_points=4, bisection_steps=8)
        spec = spec_from_payload(
            {"kind": "numerics", "functionals": ["Wigner"],
             "checks": ["continuity"],
             "config": {"n_base_points": 4, "bisection_steps": 8}}
        )
        (task,) = spec.cell_tasks()
        assert task.address == ("Wigner", "fc", "continuity", "-")
        assert task.content_key == cell_content_key(
            get_functional("Wigner"), "fc", "continuity", "-", config
        )

    def test_key_cache_amortises_and_agrees(self):
        spec = spec_from_payload(
            {"kind": "table1", "functionals": ["Wigner"], "conditions": ["EC1"],
             "config": TINY}
        )
        cache: dict = {}
        first = spec.cell_tasks(cache)
        assert len(cache) == 1
        # poison-proof: the cached value is what uncached derivation gives
        second = spec.cell_tasks(cache)
        assert [t.content_key for t in first] == [t.content_key for t in second]
        assert second[0].content_key == spec.cell_tasks()[0].content_key

    def test_semantic_config_changes_the_key(self):
        base = spec_from_payload(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1",
             "config": TINY}
        )
        changed = spec_from_payload(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1",
             "config": {**TINY, "global_step_budget": 500}}
        )
        perf_knob = spec_from_payload(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1",
             "config": {**TINY, "batch_size": 7}}
        )
        key = base.cell_tasks()[0].content_key
        assert changed.cell_tasks()[0].content_key != key
        # bit-identical perf knobs keep hitting, exactly like --resume
        assert perf_knob.cell_tasks()[0].content_key == key


def _task(name: str) -> CellTask:
    return CellTask("verify", (name, "EC1"), f"key-{name}", VerifierConfig())


class TestJobLifecycle:
    def test_all_complete_is_done(self):
        cells = [_task("A"), _task("B")]
        job = Job(id="j", spec=None, cells=cells)
        job.complete_cell(cells[0], {"x": 1}, "computed")
        assert job.state == JobState.RUNNING
        job.complete_cell(cells[1], {"x": 2}, "cache")
        assert job.state == JobState.DONE
        assert job.source_counts() == {"computed": 1, "cache": 1, "coalesced": 0}
        assert job.done

    def test_any_failure_is_failed_with_partials(self):
        cells = [_task("A"), _task("B")]
        job = Job(id="j", spec=None, cells=cells)
        job.complete_cell(cells[0], {"x": 1}, "computed")
        job.fail_cell(cells[1], "boom")
        assert job.state == JobState.FAILED
        assert job.payloads[("A", "EC1")] == {"x": 1}
        assert "boom" in job.errors[("B", "EC1")]

    def test_cancelled_cells_cancel_the_job(self):
        cells = [_task("A"), _task("B")]
        job = Job(id="j", spec=None, cells=cells)
        job.complete_cell(cells[0], {"x": 1}, "computed")
        job.cancel_cell(cells[1])
        assert job.state == JobState.CANCELLED

    def test_progress_snapshot_shape(self):
        cells = [_task("A")]
        job = Job(id="j7", spec=spec_from_payload(
            {"kind": "verify", "functional": "Wigner", "condition": "EC1"}
        ), cells=cells)
        snap = job.progress()
        assert snap["id"] == "j7"
        assert snap["kind"] == "verify"
        assert snap["cells"] == 1 and snap["resolved"] == 0
        job.complete_cell(cells[0], {}, "cache")
        assert job.progress()["resolved"] == 1
        assert job.progress()["version"] > snap["version"]
