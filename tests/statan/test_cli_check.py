"""CLI wiring for ``repro check``: exit codes, diagnostics, --json.

Exit-code contract (the one CI gates on): 0 clean, 1 findings, 2 for
any usage error -- bad --rule id (argparse), missing path, unknown
corpus slice, negative --deep.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main


def _seed_violation(tmp_path):
    path = tmp_path / "cfg.py"
    path.write_text(textwrap.dedent("""\
        from dataclasses import dataclass

        @dataclass
        class BrokenConfig:
            depth: int = 3
    """))
    return path


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["check", "--rule", "REP105", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro check: clean" in out

    def test_findings_exit_one_with_one_line_diagnostics(self, tmp_path, capsys):
        _seed_violation(tmp_path)
        assert main(["check", "--rule", "REP105", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("REP105")]
        assert len(lines) == 1
        assert "BrokenConfig" in lines[0]
        assert "repro check: 1 finding" in out

    def test_bad_rule_id_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--rule", "REP999"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("rule", ["TAPE109", "TAPE110"])
    def test_deleted_tape_rule_exits_two(self, rule):
        # the fusion and MultiTape audits went with the code they audited
        with pytest.raises(SystemExit) as exc:
            main(["check", "--rule", rule])
        assert exc.value.code == 2

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.py"
        assert main(["check", "--rule", "REP105", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_functional_exits_two(self, capsys):
        rc = main(["check", "--rule", "TAPE101", "--functionals", "NOPE"])
        assert rc == 2
        assert "unknown functional" in capsys.readouterr().err

    def test_negative_deep_exits_two(self, capsys):
        assert main(["check", "--deep", "-1"]) == 2
        assert "--deep" in capsys.readouterr().err

    def test_empty_slice_exits_two(self, capsys):
        rc = main(["check", "--rule", "TAPE101", "--functionals", " , "])
        assert rc == 2


class TestOutput:
    def test_json_report_written(self, tmp_path, capsys):
        _seed_violation(tmp_path)
        out_path = tmp_path / "report.json"
        rc = main([
            "check", "--rule", "REP105", "--json", str(out_path),
            str(tmp_path),
        ])
        assert rc == 1
        payload = json.loads(out_path.read_text())
        assert payload["clean"] is False
        assert payload["rules_run"] == ["REP105"]
        assert [f["rule"] for f in payload["findings"]] == ["REP105"]

    def test_json_dash_prints_to_stdout(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = main(["check", "--rule", "REP105", "--json", "-", str(tmp_path)])
        assert rc == 0
        payload = json.loads(
            capsys.readouterr().out.rsplit("repro check:", 1)[0]
        )
        assert payload["clean"] is True

    def test_tape_slice_runs_corpus(self, capsys):
        rc = main([
            "check", "--rule", "TAPE101", "--rule", "TAPE107",
            "--functionals", "pbe", "--conditions", "EC1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 pairs" in out
