"""End-to-end tracing through the campaign engines.

The load-bearing guarantees:

* **reassembly** -- pooled workers complete out of order, yet the span
  records (each naming its own parent) rebuild into exactly one tree
  that lints clean, with one cell span per computed cell;
* **non-perturbation** -- tracing must never change results: reports and
  rendered tables are identical with tracing on and off;
* **crash discipline** -- an interrupted campaign leaves a partial trace
  that still parses and seals on reopen.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import run_table_one
from repro.numerics import run_numerics_campaign
from repro.obs.export import lint_trace, load_trace
from repro.obs.trace import TraceSink, Tracer, activate_tracer
from repro.verifier.campaign import run_campaign
from repro.verifier.verifier import VerifierConfig

FAST = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000)
PAIRS = [("LYP", "EC1"), ("VWN RPA", "EC1"), ("Wigner", "EC1")]


def traced_campaign(tmp_path, pairs, config, **kwargs):
    sink = TraceSink(tmp_path / "trace.jsonl")
    tracer = Tracer(sink)
    try:
        result = run_campaign(pairs, config, tracer=tracer, **kwargs)
    finally:
        sink.close()
    return result, load_trace(sink.path)


def spans_by_cat(spans):
    out: dict[str, list] = {}
    for span in spans:
        out.setdefault(span["cat"], []).append(span)
    return out


class TestVerifierCampaignTrace:
    def test_in_process_trace_lints_clean(self, tmp_path):
        result, (header, spans) = traced_campaign(
            tmp_path, PAIRS, FAST, max_workers=1
        )
        assert lint_trace(header, spans) == []
        cats = spans_by_cat(spans)
        assert len(cats["cell"]) == len(result.computed) == 3
        assert len(cats["campaign"]) == 1

    def test_pooled_out_of_order_completion_reassembles(self, tmp_path):
        result, (header, spans) = traced_campaign(
            tmp_path, PAIRS, FAST, max_workers=2
        )
        assert lint_trace(header, spans) == []
        cats = spans_by_cat(spans)
        assert len(cats["cell"]) == 3
        # worker spans carry pool pids, parent spans the driver pid
        assert all(s["pid"] != header["pid"] for s in cats["chunk"])
        assert all(s["pid"] == header["pid"] for s in cats["cell"])
        # every chunk hangs under a dispatch span, every dispatch under a cell
        ids = {s["span"]: s for s in spans}
        for chunk in cats["chunk"]:
            dispatch = ids[chunk["parent"]]
            assert dispatch["cat"] == "dispatch"
            assert ids[dispatch["parent"]]["cat"] == "cell"

    def test_solver_spans_carry_compile_and_stats(self, tmp_path):
        from repro.verifier.campaign import _WORKER_CACHE

        _WORKER_CACHE.clear()
        _, (header, spans) = traced_campaign(
            tmp_path, [("LYP", "EC1")], FAST, max_workers=1
        )
        cats = spans_by_cat(spans)
        (compile_span,) = cats["compile"]
        assert compile_span["attrs"]["cache_hit"] is False
        assert compile_span["attrs"]["compile_seconds"] > 0
        (solve,) = cats["solve"]
        assert solve["attrs"]["functional"] == "LYP"
        assert solve["attrs"]["steps"] > 0
        assert solve["attrs"]["boxes_processed"] > 0

    def test_stitch_and_store_put_spans_under_each_cell(self, tmp_path):
        # a cell is one worker report, so nothing is stitched: each cell
        # span holds its one dispatch and then the store write
        store = tmp_path / "store.jsonl"
        result, (header, spans) = traced_campaign(
            tmp_path, PAIRS, FAST, max_workers=2, store=store
        )
        assert lint_trace(header, spans) == []
        cats = spans_by_cat(spans)
        assert "stitch" not in cats
        for cell in cats["cell"]:
            key = (cell["attrs"]["functional"], cell["attrs"]["condition"])
            kids = [s for s in spans if s["parent"] == cell["span"]]
            assert sorted(s["cat"] for s in kids) == ["dispatch", "store"]
            dispatch, put = sorted(kids, key=lambda s: s["ts"])
            assert cell["attrs"]["regions"] == len(result.reports[key].records)
            assert dispatch["ts"] + dispatch["dur"] <= put["ts"]
            assert put["ts"] + put["dur"] <= cell["ts"] + cell["dur"]
        # a fresh JSONL store holds exactly the bytes the spans report
        puts = [s for s in spans if s["name"] == "store_put"]
        assert len(puts) == 3
        assert sum(s["attrs"]["bytes"] for s in puts) == store.stat().st_size

    def test_store_hits_open_no_cell_spans(self, tmp_path):
        store = tmp_path / "store.sqlite"
        run_campaign(PAIRS, FAST, max_workers=1, store=store)
        result, (header, spans) = traced_campaign(
            tmp_path, PAIRS, FAST, max_workers=1, store=store
        )
        assert len(result.store_hits) == 3
        assert lint_trace(header, spans) == []
        cats = spans_by_cat(spans)
        assert "cell" not in cats  # nothing computed, nothing traced as such
        (campaign,) = cats["campaign"]
        assert campaign["attrs"]["store_hits"] == 3
        # the campaign opened the store itself, then looked each cell up
        by_name = {}
        for span in cats["store"]:
            by_name.setdefault(span["name"], []).append(span)
        assert sorted(by_name) == ["store_get", "store_open"]
        assert len(by_name["store_open"]) == 1
        assert [s["attrs"]["hit"] for s in by_name["store_get"]] == [True] * 3
        assert all(s["parent"] == campaign["span"] for s in cats["store"])

    def test_store_misses_trace_store_get(self, tmp_path):
        _, (header, spans) = traced_campaign(
            tmp_path, PAIRS, FAST, max_workers=1, store=tmp_path / "store.jsonl"
        )
        assert lint_trace(header, spans) == []
        (campaign,) = spans_by_cat(spans)["campaign"]
        gets = [s for s in spans if s["name"] == "store_get"]
        assert [s["attrs"]["hit"] for s in gets] == [False] * 3
        assert all(s["parent"] == campaign["span"] for s in gets)

    def test_no_store_open_span_for_a_callers_store(self, tmp_path):
        from repro.verifier.store import open_store

        with open_store(tmp_path / "store.jsonl") as store:
            _, (header, spans) = traced_campaign(
                tmp_path, PAIRS[:1], FAST, max_workers=1, store=store
            )
        names = [s["name"] for s in spans if s["cat"] == "store"]
        assert sorted(names) == ["store_get", "store_put"]


class TestTracingDoesNotPerturb:
    def test_reports_identical_on_vs_off(self, tmp_path):
        from tests.verifier.test_campaign import assert_reports_identical

        plain = run_campaign(PAIRS, FAST, max_workers=2)
        traced, (header, spans) = traced_campaign(
            tmp_path, PAIRS, FAST, max_workers=2
        )
        assert set(plain.reports) == set(traced.reports)
        for key in plain.reports:
            assert_reports_identical(plain.reports[key], traced.reports[key])

    def test_table_one_bytes_identical_on_vs_off(self, tmp_path):
        from repro.conditions import get_condition
        from repro.functionals import get_functional

        functionals = (get_functional("Wigner"), get_functional("VWN RPA"))
        conditions = (get_condition("EC1"), get_condition("EC2"))
        plain = run_table_one(FAST, functionals, conditions, max_workers=1).render()
        sink = TraceSink(tmp_path / "t.jsonl")
        with activate_tracer(Tracer(sink)):
            traced = run_table_one(
                FAST, functionals, conditions, max_workers=1
            ).render()
        sink.close()
        assert traced == plain
        header, spans = load_trace(sink.path)
        computed = [s for s in spans if s["cat"] == "cell"]
        applicable = [
            (f, c) for f in functionals for c in conditions if c.applies_to(f)
        ]
        assert len(computed) == len(applicable)


class TestNumericsCampaignTrace:
    def test_traced_numerics_lints_clean(self, tmp_path):
        sink = TraceSink(tmp_path / "n.jsonl")
        result = run_numerics_campaign(
            ["Wigner", "PZ81"], checks=("hazards",), tracer=Tracer(sink)
        )
        sink.close()
        header, spans = load_trace(sink.path)
        assert lint_trace(header, spans) == []
        cats = spans_by_cat(spans)
        assert len(cats["cell"]) == len(result.cells) == 4
        assert cats["campaign"][0]["attrs"]["kind"] == "numerics"

    def test_cells_identical_on_vs_off(self, tmp_path):
        import json

        plain = run_numerics_campaign(["Wigner"], checks=("hazards",))
        sink = TraceSink(tmp_path / "n.jsonl")
        traced = run_numerics_campaign(
            ["Wigner"], checks=("hazards",), tracer=Tracer(sink)
        )
        sink.close()
        assert set(plain.cells) == set(traced.cells)
        for key in plain.cells:
            assert json.dumps(plain.cells[key], sort_keys=True) == json.dumps(
                traced.cells[key], sort_keys=True
            )


class TestInterruptedTrace:
    def test_partial_trace_parses_and_seals(self, tmp_path):
        sink = TraceSink(tmp_path / "t.jsonl")
        tracer = Tracer(sink)
        seen = []

        def explode(key, report, from_store):
            seen.append(key)
            if len(seen) == 2:
                raise KeyboardInterrupt

        result = run_campaign(
            PAIRS, FAST, max_workers=1, tracer=tracer, on_cell=explode
        )
        sink.close()
        assert result.interrupted
        header, spans = load_trace(sink.path)  # parses despite the interrupt
        cats = spans_by_cat(spans)
        assert len(cats["cell"]) == 2  # the cells that finished
        campaign = cats["campaign"][0]
        assert campaign["attrs"]["interrupted"] is True
        assert campaign["attrs"]["computed"] == 2
        assert lint_trace(header, spans) == []
        # a second trace appends cleanly even if the tail was cut short
        with open(sink.path, "a") as handle:
            handle.write('{"kind": "span", "cut": ')
        followup = TraceSink(sink.path)
        Tracer(followup).finish(Tracer(followup).begin("resume", "cli"))
        followup.close()
        records = load_trace(sink.path)[1]
        assert any(s["name"] == "resume" for s in records)


class TestDisabledTracingIsInert:
    def test_untraced_campaign_writes_nothing(self, tmp_path):
        result = run_campaign([("Wigner", "EC1")], FAST, max_workers=1)
        assert list(tmp_path.iterdir()) == []
        assert result.computed == [("Wigner", "EC1")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_return_shape_untraced(self, workers):
        # the 2-tuple/3-tuple protocol: untraced campaigns must keep the
        # legacy shape end to end (a regression here breaks every caller)
        result = run_campaign([("Wigner", "EC1")], FAST, max_workers=workers)
        assert ("Wigner", "EC1") in result.reports
