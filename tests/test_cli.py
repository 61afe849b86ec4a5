"""Tests for the command-line interface (python -m repro ...).

All commands are exercised through :func:`repro.cli.main` with stdout
captured by pytest -- no subprocesses, so coverage and failures stay
visible.  Budgets are kept tiny: these tests check wiring and output
format, not verification quality (the benches do that).
"""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_verify_requires_pair(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "-f", "PBE"])


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("PBE", "LYP", "SCAN", "BLYP", "PZ81", "r++SCAN"):
            assert name in out
        assert "EC1" in out and "EC7" in out

    def test_paper_only(self, capsys):
        assert main(["list", "--paper-only"]) == 0
        out = capsys.readouterr().out
        assert "PBE" in out
        assert "BLYP" not in out


class TestVerify:
    def test_quick_verify(self, capsys):
        rc = main(
            ["verify", "-f", "Wigner", "-c", "EC1", "--global-budget", "500"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Wigner/EC1" in out
        assert "OK" in out  # Wigner's eps_c < 0 everywhere: verified fast

    def test_verify_with_map(self, capsys):
        rc = main(
            [
                "verify", "-f", "LYP", "-c", "EC1",
                "--global-budget", "2000", "--budget", "150", "--map", "16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_unknown_functional(self, capsys):
        assert main(["verify", "-f", "NOPE", "-c", "EC1"]) == 1
        assert "unknown functional" in capsys.readouterr().err

    def test_unknown_condition(self, capsys):
        assert main(["verify", "-f", "PBE", "-c", "EC9"]) == 1
        assert "unknown condition" in capsys.readouterr().err

    def test_inapplicable_pair(self, capsys):
        # LYP has no exchange: the Lieb-Oxford pair does not apply
        assert main(["verify", "-f", "LYP", "-c", "EC5"]) == 1
        assert "does not apply" in capsys.readouterr().err


class TestPB:
    def test_pb_satisfied(self, capsys):
        rc = main(["pb", "-f", "PBE", "-c", "EC1", "--points", "81"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "satisfied" in out

    def test_pb_violated_with_bounds(self, capsys):
        rc = main(["pb", "-f", "LYP", "-c", "EC1", "--points", "81"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "violated" in out
        assert "violations within" in out

    def test_pb_map(self, capsys):
        rc = main(["pb", "-f", "LYP", "-c", "EC1", "--points", "81", "--map", "16"])
        assert rc == 0
        assert capsys.readouterr().out.count("\n") > 16


class TestCompare:
    def test_consistent_pair(self, capsys):
        rc = main(
            [
                "compare", "-f", "LYP", "-c", "EC1",
                "--points", "81", "--budget", "200", "--global-budget", "8000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "consistency:" in out


class TestTables:
    def test_table1_quick(self, capsys):
        rc = main(["table1", "--budget", "40", "--global-budget", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "VWN RPA" in out

    def test_table2_quick(self, capsys):
        rc = main(
            [
                "table2", "--budget", "40", "--global-budget", "200",
                "--points", "61",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_table1_slice_filters(self, capsys):
        rc = main(
            [
                "table1", "--functionals", "LYP,VWN RPA", "--conditions", "EC1",
                "--budget", "100", "--global-budget", "1500",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "LYP" in out and "VWN RPA" in out
        assert "campaign: 2 cells computed" in out

    def test_table1_unknown_slice_rejected(self, capsys):
        assert main(["table1", "--functionals", "NOPE"]) == 1
        assert "unknown functional" in capsys.readouterr().err

    def test_table1_store_resume_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "t1.jsonl")
        args = [
            "table1", "--functionals", "LYP,Wigner", "--conditions", "EC1,EC2",
            "--budget", "100", "--global-budget", "1500", "--store", store,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 cells computed, 0 from store" in first
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 cells computed, 4 from store" in second
        # the rendered matrices agree cell for cell
        assert first.split("Table I")[1].split("campaign:")[0] == \
            second.split("Table I")[1].split("campaign:")[0]

    def test_resume_requires_store(self, capsys):
        assert main(["table1", "--resume"]) == 1
        assert "--resume requires --store" in capsys.readouterr().err


class TestCampaignCommand:
    def test_campaign_runs_slice(self, capsys):
        rc = main(
            [
                "campaign", "--functionals", "LYP,VWN RPA", "--conditions", "EC1",
                "--budget", "100", "--global-budget", "1500",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "LYP/EC1" in out and "VWN RPA/EC1" in out
        assert "campaign: 2 cells computed" in out

    def test_campaign_store_resume(self, capsys, tmp_path):
        store = str(tmp_path / "c.jsonl")
        args = [
            "campaign", "--functionals", "Wigner", "--conditions", "EC1,EC2",
            "--budget", "100", "--global-budget", "1000", "--store", store,
        ]
        assert main(args) == 0
        assert "2 cells computed, 0 from store" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 cells computed, 2 from store" in out
        assert "[store]" in out

    def test_campaign_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        rc = main(
            [
                "campaign", "--functionals", "Wigner", "--conditions", "EC1",
                "--budget", "100", "--global-budget", "500",
                "--json", str(path),
            ]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert "Wigner/EC1" in doc

    def test_campaign_empty_slice_rejected(self, capsys):
        # LYP has no exchange: EC5 applies to no functional in the slice
        assert main(["campaign", "--functionals", "LYP", "--conditions", "EC5"]) == 1
        assert "no applicable" in capsys.readouterr().err


class TestNumerics:
    def test_continuity_on_pz81(self, capsys):
        rc = main(["numerics", "-f", "PZ81", "--check", "continuity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "continuity:" in out
        assert "worst jump" in out  # PZ81's matching point discontinuity

    def test_hazards_on_pbe(self, capsys):
        rc = main(["numerics", "-f", "PBE", "--check", "hazards"])
        assert rc == 0
        assert "hazards:" in capsys.readouterr().out

    def test_ieee_mode(self, capsys):
        rc = main(["numerics", "-f", "rSCAN", "--check", "hazards", "--ieee"])
        assert rc == 0
        assert "np.where" in capsys.readouterr().out

    def test_sensitivity(self, capsys):
        rc = main(
            ["numerics", "-f", "LYP", "--check", "sensitivity", "--component", "fc"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kappa_rs" in out and "peaks at" in out

    def test_unknown_check_rejected(self, capsys):
        assert main(["numerics", "-f", "PBE", "--check", "vibes"]) == 1
        assert "unknown checks" in capsys.readouterr().err

    def test_unknown_functional(self, capsys):
        assert main(["numerics", "-f", "NOPE"]) == 1


class TestNumericsCampaign:
    SLICE = ["numerics", "--all", "--functionals", "LYP,Wigner"]

    def test_campaign_renders_table_three(self, capsys):
        rc = main(self.SLICE + ["--check", "hazards,continuity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "LYP/fc" in out and "Wigner/fc" in out
        assert "6 cells computed" in out  # 2 x (continuity + hazards x 2)

    def test_functionals_flag_implies_campaign(self, capsys):
        rc = main(["numerics", "--functionals", "Wigner", "--check", "hazards"])
        assert rc == 0
        assert "Table III" in capsys.readouterr().out

    def test_store_resume_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "cells.jsonl")
        json_a = str(tmp_path / "a.json")
        json_b = str(tmp_path / "b.json")
        args = self.SLICE + ["--check", "hazards", "--store", store]
        assert main(args + ["--json", json_a]) == 0
        capsys.readouterr()
        assert main(args + ["--resume", "--json", json_b]) == 0
        out = capsys.readouterr().out
        assert "0 cells computed, 4 from store" in out
        with open(json_a) as a, open(json_b) as b:
            assert a.read() == b.read()

    def test_single_pair_and_campaign_flags_conflict(self, capsys):
        assert main(["numerics", "-f", "PBE", "--all"]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_component_flag_rejected_in_campaign_mode(self, capsys):
        assert main(self.SLICE + ["--component", "fx"]) == 1
        assert "--components" in capsys.readouterr().err

    def test_campaign_flags_rejected_in_single_pair_mode(self, tmp_path, capsys):
        """Silently ignoring --json/--store/--resume/--workers would drop
        the artifacts a scripted caller depends on."""
        for extra in (
            ["--json", str(tmp_path / "t.json")],
            ["--store", str(tmp_path / "s.jsonl")],
            ["--store", str(tmp_path / "s.jsonl"), "--resume"],
            ["--workers", "2"],
            ["--components", "fc,fx"],
        ):
            assert main(["numerics", "-f", "Wigner"] + extra) == 1, extra
            assert "campaign mode" in capsys.readouterr().err

    def test_functional_or_campaign_required(self, capsys):
        assert main(["numerics"]) == 1
        assert "required" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        assert main(self.SLICE + ["--resume"]) == 1
        assert "--resume requires --store" in capsys.readouterr().err

    def test_unknown_component_rejected(self, capsys):
        assert main(self.SLICE + ["--components", "zz"]) == 1
        assert "unknown components" in capsys.readouterr().err


class TestExitCodes:
    """Process-level contract: clean one-line errors, never tracebacks.

    Scripted callers (CI, the service smoke) branch on these exit codes:
    2 = argparse usage error, 1 = runtime usage/connection error,
    0 = success.
    """

    @staticmethod
    def _run_module(args):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_no_subcommand_exits_2_with_usage(self):
        proc = self._run_module([])
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_no_subcommand_in_process(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_submit_against_dead_server_exits_1(self):
        # grab a port nothing listens on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        proc = self._run_module([
            "submit", "--url", f"http://127.0.0.1:{port}",
            "verify", "-f", "Wigner", "-c", "EC1",
        ])
        assert proc.returncode == 1
        assert "error: cannot reach service" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_submit_against_dead_server_in_process(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = main([
            "submit", "--url", f"http://127.0.0.1:{port}",
            "table1", "--functionals", "Wigner", "--conditions", "EC1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot reach service" in err

    def test_submit_requires_job_kind(self):
        with pytest.raises(SystemExit) as exc:
            main(["submit"])
        assert exc.value.code == 2

    def test_unknown_store_suffix_is_usage_error(self, tmp_path, capsys):
        for args in (
            ["table1", "--store", str(tmp_path / "s.tmp")],
            ["campaign", "--store", str(tmp_path / "s")],
            ["numerics", "--all", "--store", str(tmp_path / "s.db.tmp")],
        ):
            assert main(args) == 1, args
            err = capsys.readouterr().err
            assert "unknown store suffix" in err
            assert "expected .jsonl" in err

    def test_old_sqlite_store_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # refused before any compute, never opened as JSONL and appended to
        import repro.analysis

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the store path was checked")

        monkeypatch.setattr(repro.analysis, "run_table_campaign", no_compute)
        sqlite3 = pytest.importorskip("sqlite3")
        path = tmp_path / "x.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE results (key TEXT PRIMARY KEY, payload TEXT)")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert main(["table1", "--store", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown store suffix" in captured.err and ".jsonl" in captured.err
        assert path.read_bytes() == before

    def test_serve_unknown_store_suffix_is_usage_error(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "s.tmp"),
                     "--port", "0"]) == 1
        assert "unknown store suffix" in capsys.readouterr().err

    def test_numerics_ieee_rejected_in_campaign_mode(self, capsys):
        assert main(["numerics", "--all", "--ieee"]) == 1
        assert "single-pair only" in capsys.readouterr().err


class TestStats:
    CAMPAIGN = [
        "campaign", "--functionals", "Wigner", "--conditions", "EC1,EC2",
        "--budget", "100", "--global-budget", "1000",
    ]

    def test_stats_after_campaign(self, capsys, tmp_path):
        store = str(tmp_path / "timed.jsonl")
        assert main(self.CAMPAIGN + ["--store", store]) == 0
        capsys.readouterr()
        assert main(["stats", store]) == 0
        out = capsys.readouterr().out
        assert "functional" in out and "compile%" in out
        assert "Wigner" in out and "EC1" in out and "EC2" in out
        assert "2 pairs, 2 cells" in out

    def test_stats_output_pinned_with_sched_plan_records(self, capsys, tmp_path):
        # the exact bytes `repro stats` prints, from a store that also holds
        # a "sched-plan" record (older adaptive runs wrote them; stats skips
        # every kind-tagged record)
        from repro.verifier.store import SCHEMA_VERSION, open_store

        path = str(tmp_path / "pinned.jsonl")
        cells = [
            ("LYP", "EC1", 0.5, 0.1, 40),
            ("LYP", "EC1", 0.25, 0.0, 40),
            ("Wigner", "EC2", 0.125, 0.0625, 3),
            ("VWN RPA", "EC1", 0.5, 0.0, 7),
            ("PBE", "EC2", 0.5, 0.5, 9),
        ]
        with open_store(path) as store:
            for i, (f, c, elapsed, compile_s, steps) in enumerate(cells):
                store.put_payload(f"cell-{i}", {
                    "v": SCHEMA_VERSION, "functional": f, "condition": c,
                    "elapsed_seconds": elapsed, "compile_seconds": compile_s,
                    "total_solver_steps": steps, "records": [],
                })
            store.put_payload("sched-plan:cell-0", {
                "v": SCHEMA_VERSION, "kind": "sched-plan",
                "presplit_levels": 1, "steal_depth": 2,
            })
        assert main(["stats", path]) == 0
        assert capsys.readouterr().out == (
            "functional   condition cells   total_s    mean_s     p99_s compile%\n"
            "-------------------------------------------------------------------\n"
            "LYP          EC1           2     0.750    0.3750    0.5000    13.3%\n"
            "PBE          EC2           1     0.500    0.5000    0.5000   100.0%\n"
            "VWN RPA      EC1           1     0.500    0.5000    0.5000     0.0%\n"
            "Wigner       EC2           1     0.125    0.1250    0.1250    50.0%\n"
            "4 pairs, 5 cells, 1.875s total elapsed\n"
        )

    def test_stats_missing_store(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["stats", missing]) == 1
        err = capsys.readouterr().err
        assert "store not found" in err
        # the query must not have created the file as a side effect
        import os

        assert not os.path.exists(missing)

    def test_stats_empty_store(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1
        assert "no verify-cell timings" in capsys.readouterr().err

    def test_stats_unknown_suffix(self, capsys, tmp_path):
        bad = tmp_path / "store.xml"
        bad.write_text("")
        assert main(["stats", str(bad)]) == 1
        assert "unknown store suffix" in capsys.readouterr().err


class TestKnobValidation:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["campaign", "--functionals", "Wigner", "--conditions", "EC1",
              "--workers", "-4"], "--workers"),
            (["numerics", "--functionals", "Wigner", "--check", "hazards",
              "--workers", "-1"], "--workers"),
        ],
        ids=["argv2---workers", "argv4---workers"],
    )
    def test_negative_knobs_rejected_loudly(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be >= 0" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_zero_values_accepted(self, capsys):
        rc = main(
            ["campaign", "--functionals", "Wigner", "--conditions", "EC1",
             "--budget", "100", "--global-budget", "500", "--workers", "0"]
        )
        assert rc == 0
        assert "1 cells computed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--levels", "1"],
            ["campaign", "--steal-depth", "1"],
            ["campaign", "--adaptive"],
            ["table1", "--adaptive"],
            ["table2", "--adaptive"],
            ["numerics", "--all", "--adaptive"],
            ["verify", "-f", "PBE", "-c", "EC1", "--newton"],
            ["check", "--derivatives"],
            ["campaign", "--order", "dfs"],
            ["verify", "-f", "PBE", "-c", "EC1", "--batch-size", "256"],
            ["serve", "--store", "s.jsonl", "--qos-lanes"],
            ["serve", "--store", "s.jsonl", "--no-qos-lanes"],
            ["serve", "--store", "s.jsonl", "--interactive-max-cells", "2"],
        ],
        ids=["campaign-levels", "campaign-steal-depth", "campaign-adaptive",
             "table1-adaptive", "table2-adaptive", "numerics-adaptive",
             "verify-newton", "check-derivatives", "campaign-order",
             "verify-batch-size", "serve-qos-lanes", "serve-no-qos-lanes",
             "serve-interactive-max-cells"],
    )
    def test_removed_scheduling_flags_exit_2(self, capsys, argv):
        # scripts still passing the deleted scheduling, solver or service flags
        # must fail loudly rather than have them silently ignored
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTraceFlag:
    ARGS = [
        "table1", "--functionals", "Wigner,VWN RPA", "--conditions", "EC1",
        "--budget", "100", "--global-budget", "500",
    ]

    def test_trace_flag_records_a_loadable_trace(self, capsys, tmp_path):
        from repro.obs.export import lint_trace, load_trace

        trace = str(tmp_path / "t.jsonl")
        assert main(self.ARGS + ["--trace", trace]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert f"wrote trace {trace}" in captured.err
        header, spans = load_trace(trace)
        assert lint_trace(header, spans) == []
        # one root: the CLI command span; one cell span per computed cell
        roots = [s for s in spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["cli:table1"]
        assert len([s for s in spans if s["cat"] == "cell"]) == 2

    def test_repro_trace_env_var(self, capsys, tmp_path, monkeypatch):
        from repro.obs.export import load_trace

        trace = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_TRACE", trace)
        assert main(["verify", "-f", "Wigner", "-c", "EC1",
                     "--global-budget", "500"]) == 0
        _, spans = load_trace(trace)
        assert any(s["name"] == "cli:verify" for s in spans)
        assert any(s["cat"] == "solve" for s in spans)

    def test_table_output_identical_with_and_without_trace(self, capsys, tmp_path):
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        assert main(self.ARGS + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        assert capsys.readouterr().out == plain


class TestTraceSubcommand:
    def record(self, capsys, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        assert main(
            ["table1", "--functionals", "Wigner", "--conditions", "EC1",
             "--budget", "100", "--global-budget", "500", "--trace", trace]
        ) == 0
        capsys.readouterr()
        return trace

    def test_summary_prints_the_screenful(self, capsys, tmp_path):
        trace = self.record(capsys, tmp_path)
        assert main(["trace", "summary", trace]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "self-time" in out

    def test_export_chrome_file(self, capsys, tmp_path):
        import json

        trace = self.record(capsys, tmp_path)
        out_path = str(tmp_path / "chrome.json")
        assert main(["trace", "export", trace, "--chrome", out_path]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out_path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]
        assert all("ph" in event for event in doc["traceEvents"])

    def test_export_chrome_stdout(self, capsys, tmp_path):
        import json

        trace = self.record(capsys, tmp_path)
        assert main(["trace", "export", trace, "--chrome", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["trace_id"]

    def test_lint_clean_trace_exits_0(self, capsys, tmp_path):
        trace = self.record(capsys, tmp_path)
        assert main(["trace", "lint", trace]) == 0
        assert "0 problems" in capsys.readouterr().out

    def test_lint_broken_trace_exits_1(self, capsys, tmp_path):
        import json

        trace = tmp_path / "bad.jsonl"
        header = {"kind": "header", "v": 1, "trace_id": "x", "run_id": "r",
                  "wall_start": 0.0, "mono_start": 0.0, "pid": 1}
        orphan = {"kind": "span", "span": "1.1", "parent": "gone",
                  "name": "s", "cat": "x", "ts": 0.0, "dur": 1.0, "pid": 1,
                  "run_id": "r"}
        trace.write_text(json.dumps(header) + "\n" + json.dumps(orphan) + "\n")
        assert main(["trace", "lint", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "trace-lint:" in out

    def test_missing_trace_file_is_usage_error(self, capsys, tmp_path):
        assert main(["trace", "summary", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_trace_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"kind": "other"}\n')
        assert main(["trace", "summary", str(path)]) == 1
        assert "no header" in capsys.readouterr().err


class TestLogJson:
    def test_log_json_emits_structured_stderr(self, capsys, tmp_path):
        import json

        trace = str(tmp_path / "t.jsonl")
        rc = main(
            ["--log-json", "table1", "--functionals", "Wigner",
             "--conditions", "EC1", "--budget", "100",
             "--global-budget", "500", "--trace", trace]
        )
        assert rc == 0
        err_lines = [line for line in capsys.readouterr().err.splitlines() if line]
        records = [json.loads(line) for line in err_lines]
        written = [r for r in records if r["event"] == "trace.written"]
        assert written and written[0]["path"] == trace
        assert all(
            set(("ts", "level", "run_id", "event", "text")) <= set(r)
            for r in records
        )

    def test_log_json_usage_errors_are_records(self, capsys):
        import json

        assert main(["--log-json", "verify", "-f", "NOPE", "-c", "EC1"]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["event"] == "cli.usage-error"
        assert record["level"] == "error"
        assert "unknown functional" in record["text"]

    def test_text_mode_unchanged_by_default(self, capsys):
        assert main(["verify", "-f", "NOPE", "-c", "EC1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")  # plain prose, not JSON
