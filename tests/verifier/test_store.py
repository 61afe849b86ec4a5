"""Tests for the persistent campaign result store."""

from __future__ import annotations

import gc
import json
import math

import pytest

from repro.conditions import EC1
from repro.functionals import get_functional
from repro.solver.box import Box
from repro.verifier.encoder import compile_problem, encode
from repro.verifier.regions import Outcome, RegionRecord, VerificationReport
from repro.verifier.store import (
    SCHEMA_VERSION,
    JsonlStore,
    PairTiming,
    SqliteStore,
    aggregate_timings,
    iter_reports,
    open_store,
    report_from_payload,
    report_to_payload,
)
from repro.verifier.verifier import Verifier, VerifierConfig

FAST = VerifierConfig(split_threshold=0.7, per_call_budget=250, global_step_budget=8000)


def _sample_report() -> VerificationReport:
    problem = encode(get_functional("LYP"), EC1)
    return Verifier(FAST).verify(
        problem, domain=Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 4.0)})
    )


def _tricky_report() -> VerificationReport:
    """Hand-built report exercising awkward floats and empty models."""
    box = Box.from_bounds({"x": (-0.1, 1e-17), "y": (2.0 / 3.0, math.pi)})
    records = [
        RegionRecord(0, 0, box, Outcome.COUNTEREXAMPLE,
                     model={"x": 5e-324, "y": 0.1 + 0.2}, children=[1], solver_steps=7),
        RegionRecord(1, 1, box, Outcome.TIMEOUT, model=None, children=[], solver_steps=0),
        RegionRecord(2, 1, box, Outcome.INCONCLUSIVE,
                     model={"x": -0.0, "y": 1e308}, children=[], solver_steps=3),
    ]
    return VerificationReport(
        functional_name="Toy", condition_id="T1", domain=box, records=records,
        total_solver_steps=10, elapsed_seconds=0.25, budget_exhausted=True,
    )


def assert_roundtrip_exact(report: VerificationReport, restored: VerificationReport):
    assert restored.functional_name == report.functional_name
    assert restored.condition_id == report.condition_id
    assert restored.domain == report.domain
    assert restored.total_solver_steps == report.total_solver_steps
    assert restored.elapsed_seconds == report.elapsed_seconds
    assert restored.budget_exhausted == report.budget_exhausted
    assert len(restored.records) == len(report.records)
    for a, b in zip(report.records, restored.records):
        assert a.index == b.index and a.depth == b.depth
        assert a.box == b.box
        assert a.outcome == b.outcome
        assert a.model == b.model
        assert a.children == b.children
        assert a.solver_steps == b.solver_steps


class TestPayloadRoundTrip:
    def test_real_report_roundtrips_exactly(self):
        report = _sample_report()
        payload = json.loads(json.dumps(report_to_payload(report)))
        assert_roundtrip_exact(report, report_from_payload(payload))

    def test_awkward_floats_roundtrip_exactly(self):
        report = _tricky_report()
        payload = json.loads(json.dumps(report_to_payload(report)))
        restored = report_from_payload(payload)
        assert_roundtrip_exact(report, restored)
        # -0.0 keeps its sign bit through the round trip
        assert math.copysign(1.0, restored.records[2].model["x"]) == -1.0

    def test_schema_version_mismatch_rejected(self):
        payload = report_to_payload(_tricky_report())
        payload["v"] = 999
        with pytest.raises(ValueError, match="schema"):
            report_from_payload(payload)

    def test_classification_survives(self):
        report = _sample_report()
        payload = report_to_payload(report)
        assert report_from_payload(payload).classification() == report.classification()
        assert report_from_payload(payload).area_fractions() == report.area_fractions()


@pytest.mark.parametrize("suffix", [".sqlite", ".jsonl"])
class TestStoreBackends:
    def test_put_get_roundtrip(self, tmp_path, suffix):
        report = _sample_report()
        with open_store(tmp_path / f"store{suffix}") as store:
            assert store.get("k1") is None
            store.put("k1", report)
            assert "k1" in store
            assert_roundtrip_exact(report, store.get("k1"))

    def test_persists_across_reopen(self, tmp_path, suffix):
        path = tmp_path / f"store{suffix}"
        report = _tricky_report()
        with open_store(path) as store:
            store.put("cell", report)
        with open_store(path) as store:
            assert store.keys() == ["cell"]
            assert store.created_at("cell") is not None
            assert_roundtrip_exact(report, store.get("cell"))

    def test_overwrite_latest_wins(self, tmp_path, suffix):
        path = tmp_path / f"store{suffix}"
        first = _tricky_report()
        second = _sample_report()
        with open_store(path) as store:
            store.put("cell", first)
            store.put("cell", second)
        with open_store(path) as store:
            assert len(store) == 1
            assert_roundtrip_exact(second, store.get("cell"))

    def test_contains_sees_payloads_of_every_kind(self, tmp_path, suffix):
        # a stored numerics cell is counted and listed, so it is in the store
        with open_store(tmp_path / f"store{suffix}") as store:
            store.put_payload("k", {"v": 1, "kind": "numerics/hazards"})
            assert len(store) == 1
            assert store.keys() == ["k"]
            assert "k" in store
            assert "missing" not in store

    def test_backend_selection(self, tmp_path, suffix):
        store = open_store(tmp_path / f"store{suffix}")
        expected = JsonlStore if suffix == ".jsonl" else SqliteStore
        assert isinstance(store, expected)
        store.close()

    def test_put_payload_keeps_no_reference_to_the_callers_dict(self, tmp_path, suffix):
        payload = {"v": SCHEMA_VERSION, "kind": "numerics/hazards", "cells": [1, 2]}
        with open_store(tmp_path / f"store{suffix}") as store:
            store.put_payload("k", payload)
            payload["cells"].append(3)
            payload["extra"] = True
            assert store.get_payload("k") == {
                "v": SCHEMA_VERSION, "kind": "numerics/hazards", "cells": [1, 2]
            }

    def test_iter_reports_walks_everything(self, tmp_path, suffix):
        reports = {"a": _tricky_report(), "b": _sample_report()}
        with open_store(tmp_path / f"store{suffix}") as store:
            for key, report in reports.items():
                store.put(key, report)
            walked = dict(iter_reports(store))
            assert sorted(walked) == ["a", "b"]
            for key, restored in walked.items():
                assert_roundtrip_exact(reports[key], restored)


def test_jsonl_line_is_the_sorted_dump_of_the_entry(tmp_path):
    # the line is assembled around the payload text, encoded once; it must
    # be byte-identical to dumping the whole entry
    path = tmp_path / "store.jsonl"
    with open_store(path) as store:
        written = store.put("cell", _tricky_report())
    (line,) = path.read_text().splitlines()
    assert json.dumps(json.loads(line), sort_keys=True) == line
    assert written == len(line) + 1
    entry = json.loads(line)
    assert entry["payload"] == report_to_payload(_tricky_report())
    assert (entry["key"], entry["functional"], entry["condition"]) == ("cell", "Toy", "T1")


def _reference_report_from_payload(payload: dict) -> VerificationReport:
    """The per-record decoder ``report_from_payload`` replaced (exception oracle)."""
    from repro.solver.interval import make

    def box(bounds):
        names = tuple(sorted(bounds))
        return Box._of(names, tuple(make(*bounds[name]) for name in names))

    if payload.get("v") != SCHEMA_VERSION:
        raise ValueError("schema")
    records = [
        RegionRecord(
            index=r["index"], depth=r["depth"], box=box(r["box"]),
            outcome=Outcome(r["outcome"]), model=r["model"],
            children=list(r["children"]), solver_steps=r["solver_steps"],
        )
        for r in payload["records"]
    ]
    return VerificationReport(
        functional_name=payload["functional"], condition_id=payload["condition"],
        domain=box(payload["domain"]), records=records,
        total_solver_steps=payload["total_solver_steps"],
        elapsed_seconds=payload["elapsed_seconds"],
        compile_seconds=payload.get("compile_seconds", 0.0),
        budget_exhausted=payload["budget_exhausted"],
    )


def _malformed(mutate):
    payload = json.loads(json.dumps(report_to_payload(_tricky_report())))
    mutate(payload)
    return payload


def _set_record(field, value):
    def mutate(payload):
        payload["records"][1][field] = value
    return mutate


MALFORMED = {
    "no_records": lambda p: p.pop("records"),
    "no_index": lambda p: p["records"][0].pop("index"),
    "no_box": lambda p: p["records"][2].pop("box"),
    "bad_outcome": _set_record("outcome", "bogus"),
    "unhashable_outcome": _set_record("outcome", ["timeout"]),
    "null_outcome": _set_record("outcome", None),
    "box_is_list": _set_record("box", [[0.0, 1.0]]),
    "box_is_null": _set_record("box", None),
    "interval_arity": _set_record("box", {"x": [0.0], "y": [0.0, 1.0]}),
    "interval_text": _set_record("box", {"x": ["a", "b"], "y": [0.0, 1.0]}),
    "null_children": _set_record("children", None),
    "no_domain": lambda p: p.pop("domain"),
}


class TestDecoder:
    def test_unsorted_box_keys(self):
        payload = _malformed(lambda p: None)
        for record in payload["records"]:
            record["box"] = dict(reversed(list(record["box"].items())))
        payload["domain"] = dict(reversed(list(payload["domain"].items())))
        restored = report_from_payload(payload)
        assert restored.identical_to(_tricky_report())
        assert all(r.box.names == ("x", "y") for r in restored.records)

    def test_box_keys_differ_between_records(self):
        payload = _malformed(lambda p: None)
        payload["records"][0]["box"] = {"s": [0.0, 1.0], "rs": [1.0, 3.0]}
        payload["records"][1]["box"] = {"y": [0.5, 1.0], "x": [0.0, 0.25], "a": [2.0, 2.0]}
        restored = report_from_payload(payload)
        assert restored.identical_to(_reference_report_from_payload(payload))
        assert restored.records[0].box == Box.from_bounds({"rs": (1.0, 3.0), "s": (0.0, 1.0)})
        assert restored.records[1].box.names == ("a", "x", "y")
        assert restored.records[2].box.names == ("x", "y")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payloads_raise_the_same_types(self, case):
        payload = _malformed(MALFORMED[case])
        with pytest.raises(Exception) as expected:
            _reference_report_from_payload(payload)
        with pytest.raises(expected.type):
            report_from_payload(payload)


class TestCollectorRestored:
    """The store pauses the cyclic collector; every call must give it back."""

    @pytest.mark.parametrize("suffix", [".sqlite", ".jsonl"])
    def test_after_a_put_that_raises(self, tmp_path, suffix):
        report = _tricky_report()
        report.records[0].model = {"x": object()}  # not JSON-serialisable
        with open_store(tmp_path / f"store{suffix}") as store:
            with pytest.raises(TypeError):
                store.put("k", report)
        assert gc.isenabled()

    @pytest.mark.parametrize("suffix", [".sqlite", ".jsonl"])
    def test_after_a_get_of_a_malformed_payload(self, tmp_path, suffix):
        with open_store(tmp_path / f"store{suffix}") as store:
            store.put_payload("k", _malformed(_set_record("outcome", "bogus")))
            with pytest.raises(ValueError):
                store.get("k")
        assert gc.isenabled()

    def test_after_a_schema_mismatch_on_open(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"key": "k", "created_at": 0.0, "payload": {"v": 999}}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            open_store(path)
        assert gc.isenabled()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_after_run_campaign_with_a_jsonl_store(self, tmp_path, workers):
        from repro.verifier.campaign import run_campaign

        pairs = [("Wigner", "EC1"), ("VWN RPA", "EC1")]
        path = tmp_path / "store.jsonl"
        run_campaign(pairs, FAST, max_workers=workers, store=path)
        assert gc.isenabled()
        again = run_campaign(pairs, FAST, max_workers=workers, store=path)
        assert sorted(again.store_hits) == sorted(pairs)
        assert gc.isenabled()


class TestJsonlCrashRobustness:
    def test_truncated_tail_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with open_store(path) as store:
            store.put("a", _tricky_report())
            store.put("b", _sample_report())
        # simulate a kill mid-write: append half a line
        with open(path, "a") as handle:
            handle.write('{"key": "c", "created_at": 1.0, "payl')
        with open_store(path) as store:
            assert sorted(store.keys()) == ["a", "b"]
            assert store.get("c") is None
            # and the store still accepts new cells afterwards
            store.put("c", _tricky_report())
        with open_store(path) as store:
            assert sorted(store.keys()) == ["a", "b", "c"]


class TestTimings:
    """``iter_timings`` rows and their per-pair aggregates (``repro stats``)."""

    def rows(self):
        return [
            {"functional": "LYP", "condition": "EC1", "elapsed_seconds": e,
             "compile_seconds": 0.1, "total_solver_steps": 10}
            for e in (0.4, 0.2, 0.6)
        ] + [
            {"functional": "Wigner", "condition": "EC1", "elapsed_seconds": 0.01,
             "compile_seconds": 0.0, "total_solver_steps": 2},
        ]

    def test_per_pair_stats(self):
        timings = aggregate_timings(self.rows())
        lyp = timings[("LYP", "EC1")]
        assert lyp.count == 3
        assert lyp.total_seconds == pytest.approx(1.2)
        assert lyp.mean_seconds == pytest.approx(0.4)
        assert lyp.p99_seconds == 0.6  # nearest-rank over [0.2, 0.4, 0.6]
        assert lyp.compile_seconds == pytest.approx(0.3)
        assert lyp.total_solver_steps == 30
        assert lyp.compile_share == pytest.approx(0.3 / 1.2)
        assert timings[("Wigner", "EC1")].count == 1

    def test_compile_share_clamped_and_empty_safe(self):
        zero = PairTiming(
            count=1, total_seconds=0.0, mean_seconds=0.0,
            p99_seconds=0.0, compile_seconds=0.0, total_solver_steps=0,
        )
        assert zero.compile_share == 0.0
        assert aggregate_timings([]) == {}

    def test_numerics_cells_do_not_enter_the_timings(self, tmp_path):
        from repro.numerics.campaign import run_numerics_campaign
        from repro.verifier.campaign import run_campaign

        path = tmp_path / "mixed.jsonl"
        run_campaign([("Wigner", "EC1")], FAST, max_workers=0, store=path)
        run_numerics_campaign(
            ["Wigner"], components=("fc",), checks=("continuity",),
            max_workers=0, store=path,
        )
        with open_store(path) as store:
            rows = list(store.iter_timings())
        assert [(r["functional"], r["condition"]) for r in rows] == [("Wigner", "EC1")]
        assert rows[0]["elapsed_seconds"] >= 0.0
        assert rows[0]["region_count"] >= 1

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_stores_with_sched_plan_records_still_resume(self, tmp_path, suffix):
        # older adaptive runs pinned their split plans in the store as
        # "sched-plan" records; such stores must keep serving every cell
        # and keep their timings readable
        from repro.verifier.campaign import run_campaign

        pairs = [("Wigner", "EC1"), ("VWN RPA", "EC1")]
        path = tmp_path / f"legacy{suffix}"
        first = run_campaign(pairs, FAST, max_workers=0, store=path)
        with open_store(path) as store:
            for key in first.cell_keys.values():
                store.put_payload(
                    "sched-plan:" + key,
                    {"v": SCHEMA_VERSION, "kind": "sched-plan",
                     "presplit_levels": 0, "steal_depth": 0},
                )
        again = run_campaign(pairs, FAST, max_workers=0, store=path)
        assert sorted(again.store_hits) == sorted(pairs)
        assert again.computed == []
        for key in pairs:
            assert again.reports[key].identical_to(first.reports[key])
        with open_store(path) as store:
            timings = aggregate_timings(store.iter_timings())
            assert len(dict(iter_reports(store))) == 2
        assert sorted(timings) == sorted(pairs)


class TestContentKeys:
    def test_key_stability_and_sensitivity(self):
        config = VerifierConfig()
        problem = compile_problem(encode(get_functional("PBE"), EC1))
        again = compile_problem(encode(get_functional("PBE"), EC1))
        assert problem.content_hash(extra=config.semantic_key()) == again.content_hash(
            extra=config.semantic_key()
        )
        # outcome-relevant config changes the key
        changed = VerifierConfig(global_step_budget=123)
        assert problem.content_hash(extra=changed.semantic_key()) != problem.content_hash(
            extra=config.semantic_key()
        )

    def test_domain_in_key(self):
        config = VerifierConfig()
        problem = compile_problem(encode(get_functional("PBE"), EC1))
        sub = Box.from_bounds({"rs": (1.0, 2.0), "s": (0.0, 1.0)})
        assert problem.content_hash(domain=sub, extra=config.semantic_key()) != \
            problem.content_hash(extra=config.semantic_key())

    def test_different_pairs_different_keys(self):
        config = VerifierConfig()
        keys = {
            name: compile_problem(encode(get_functional(name), EC1)).content_hash(
                extra=config.semantic_key()
            )
            for name in ("PBE", "LYP", "VWN RPA")
        }
        assert len(set(keys.values())) == 3

    @pytest.mark.parametrize(
        "config, expected",
        [
            (
                VerifierConfig(),
                "5e0cf2dbb42aafc306f83df7b69461736c5c4c6f49ff7489309f8243d3a26e18",
            ),
            (
                VerifierConfig(split_threshold=0.7),
                "dad4e8d1b4a121f6794bad32a46f9a1704aac946446488a65de5aa658f319844",
            ),
        ],
        ids=["default", "coarse"],
    )
    def test_golden_pair_content_keys(self, config, expected):
        # literal digests: any change to the tapes, the semantic config
        # tuple or the key layout re-keys every stored cell, so it must
        # show up here rather than as a silent store-wide cache miss
        from repro.verifier.campaign import pair_content_key

        assert pair_content_key("Wigner", "EC1", config) == expected


class TestOpenStoreSuffixes:
    def test_known_suffixes_select_backends(self, tmp_path):
        from repro.verifier.store import STORE_SUFFIXES

        for suffix, backend in STORE_SUFFIXES.items():
            store = open_store(tmp_path / f"s{suffix}")
            assert isinstance(store, backend), suffix
            store.close()

    @pytest.mark.parametrize("name", ["store.db.tmp", "store", "store.json",
                                      "store.sqlite.bak"])
    def test_unknown_suffix_raises_naming_supported(self, tmp_path, name):
        with pytest.raises(ValueError) as exc:
            open_store(tmp_path / name)
        message = str(exc.value)
        assert "unknown store suffix" in message
        for suffix in (".jsonl", ".sqlite", ".sqlite3", ".db"):
            assert suffix in message
        # nothing was created on disk for the rejected path
        assert not (tmp_path / name).exists()


class TestConcurrentAccess:
    """Satellite: WAL + busy timeout keep readers alive during commits.

    Before the hardening a second connection reading while a writer
    committed could fail with "database is locked"; WAL gives readers the
    last committed snapshot and the busy timeout absorbs checkpoints.
    """

    def test_sqlite_reader_during_writer_commits(self, tmp_path):
        import threading

        path = tmp_path / "store.sqlite"
        report = _tricky_report()
        writer = open_store(path)
        writer.put("seed", report)
        reader = open_store(path)  # separate connection, same file

        stop = threading.Event()
        errors: list[BaseException] = []

        def write_loop():
            try:
                for i in range(60):
                    writer.put(f"cell-{i}", report)
            except BaseException as exc:
                errors.append(exc)
            finally:
                stop.set()

        def read_loop():
            try:
                while not stop.is_set():
                    for _key, restored in iter_reports(reader):
                        assert restored.condition_id == report.condition_id
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write_loop),
                   threading.Thread(target=read_loop)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, f"concurrent access failed: {errors!r}"
        writer.close()
        # after the dust settles the reader sees every committed cell
        assert len(reader.keys()) == 61
        reader.close()

    @pytest.mark.parametrize("suffix", [".sqlite", ".jsonl"])
    def test_one_store_shared_across_threads(self, tmp_path, suffix):
        """The service's job threads all write through one store object."""
        import threading

        report = _tricky_report()
        with open_store(tmp_path / f"store{suffix}") as store:
            errors: list[BaseException] = []

            def hammer(worker: int):
                try:
                    for i in range(20):
                        store.put(f"w{worker}-c{i}", report)
                        assert store.get(f"w{worker}-c{i}") is not None
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, f"shared-store access failed: {errors!r}"
            assert len(store.keys()) == 80

    def test_wal_mode_enabled(self, tmp_path):
        store = open_store(tmp_path / "store.sqlite")
        try:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode.lower() == "wal"
            (busy,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
            assert busy >= 1000
        finally:
            store.close()
