"""statan tier 2: the REP1xx lint rules and the allowlist machinery.

Every rule family gets a seeded-violation fixture (written to tmp_path
with the directory layout the path-scoped rules expect) plus a clean
counterpart, so both the detection and the non-detection direction are
pinned.  The allowlist tests cover suppression, malformed entries, and
staleness.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.statan.allowlist import load_allowlist
from repro.statan.astcheck import collect_modules
from repro.statan.report import Finding
from repro.statan.rules import run_rules
from repro.statan.runner import all_rule_ids, run_check


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _run(tmp_path, rule):
    modules = collect_modules([tmp_path])
    return run_rules(modules, {rule})


class TestRep101Rounding:
    def test_bare_endpoint_arithmetic_detected(self, tmp_path):
        _write(tmp_path, "solver/kernels.py", """\
            def bad_add_rows(a_los, a_his, out_los):
                for i in range(len(out_los)):
                    out_los[i] = a_los[i] + a_his[i]
        """)
        findings = _run(tmp_path, "REP101")
        assert [f.rule for f in findings] == ["REP101"]
        assert findings[0].symbol == "bad_add_rows"

    def test_rounded_helper_is_clean(self, tmp_path):
        _write(tmp_path, "solver/kernels.py", """\
            def good_add_rows(a_los, a_his, out_los):
                for i in range(len(out_los)):
                    out_los[i] = _down_arr(a_los[i] + a_his[i])
        """)
        assert _run(tmp_path, "REP101") == []

    def test_only_solver_files_in_scope(self, tmp_path):
        _write(tmp_path, "analysis/render.py", """\
            def fine(lo, hi):
                return lo + hi
        """)
        assert _run(tmp_path, "REP101") == []


class TestRep102ContentKeys:
    def test_time_reachable_from_root_detected(self, tmp_path):
        _write(tmp_path, "verifier/store.py", """\
            import time

            def _salt():
                return time.time()

            def content_hash(state):
                return hash((state, _salt()))
        """)
        findings = _run(tmp_path, "REP102")
        assert [f.rule for f in findings] == ["REP102"]
        assert findings[0].symbol == "_salt"

    def test_unsorted_iteration_in_root_detected(self, tmp_path):
        _write(tmp_path, "verifier/store.py", """\
            def content_hash(mapping):
                return hash(tuple(mapping.items()))
        """)
        findings = _run(tmp_path, "REP102")
        assert [f.rule for f in findings] == ["REP102"]
        assert "sorted" in findings[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        _write(tmp_path, "verifier/store.py", """\
            def content_hash(mapping):
                return hash(tuple(sorted(mapping.items())))
        """)
        assert _run(tmp_path, "REP102") == []


class TestRep103AsyncioHygiene:
    def test_blocking_call_in_async_def_detected(self, tmp_path):
        _write(tmp_path, "service/server.py", """\
            import time

            async def handler(request):
                time.sleep(1.0)
                return request
        """)
        findings = _run(tmp_path, "REP103")
        assert [f.rule for f in findings] == ["REP103"]
        assert findings[0].symbol == "handler"

    def test_sync_def_out_of_scope(self, tmp_path):
        _write(tmp_path, "service/server.py", """\
            import time

            def worker_main():
                time.sleep(1.0)
        """)
        assert _run(tmp_path, "REP103") == []


class TestRep104ForkSafety:
    def test_pool_construction_detected(self, tmp_path):
        _write(tmp_path, "verifier/par.py", """\
            from concurrent.futures import ProcessPoolExecutor

            def launch(n):
                return ProcessPoolExecutor(max_workers=n)
        """)
        findings = _run(tmp_path, "REP104")
        assert [f.rule for f in findings] == ["REP104"]
        assert findings[0].symbol == "launch"

    def test_multiprocessing_pool_detected(self, tmp_path):
        _write(tmp_path, "verifier/par.py", """\
            import multiprocessing

            def launch(n):
                return multiprocessing.Pool(n)
        """)
        assert [f.rule for f in _run(tmp_path, "REP104")] == ["REP104"]


class TestRep105LoudValidation:
    def test_config_without_post_init_detected(self, tmp_path):
        _write(tmp_path, "verifier/cfg.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepConfig:
                depth: int = 3
        """)
        findings = _run(tmp_path, "REP105")
        assert [f.rule for f in findings] == ["REP105"]
        assert findings[0].symbol == "SweepConfig"

    def test_config_with_post_init_is_clean(self, tmp_path):
        _write(tmp_path, "verifier/cfg.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepConfig:
                depth: int = 3

                def __post_init__(self):
                    if self.depth < 1:
                        raise ValueError("depth must be >= 1")
        """)
        assert _run(tmp_path, "REP105") == []

    def test_private_and_non_config_classes_out_of_scope(self, tmp_path):
        _write(tmp_path, "verifier/cfg.py", """\
            from dataclasses import dataclass

            @dataclass
            class _HiddenConfig:
                depth: int = 3

            @dataclass
            class Result:
                value: float = 0.0
        """)
        assert _run(tmp_path, "REP105") == []


class TestRep106ClockDiscipline:
    def test_raw_clock_in_traced_module_detected(self, tmp_path):
        _write(tmp_path, "service/handlers.py", """\
            import time

            def stamp():
                return time.perf_counter()
        """)
        findings = _run(tmp_path, "REP106")
        assert [f.rule for f in findings] == ["REP106"]
        assert findings[0].symbol == "stamp"
        assert "obs.clock" in findings[0].message

    def test_one_finding_per_function(self, tmp_path):
        _write(tmp_path, "solver/icp.py", """\
            import time

            def measure():
                t0 = time.monotonic()
                return time.monotonic() - t0
        """)
        assert len(_run(tmp_path, "REP106")) == 1

    def test_clock_module_is_the_sanctioned_home(self, tmp_path):
        _write(tmp_path, "obs/clock.py", """\
            import time

            def mono_now():
                return time.monotonic()
        """)
        assert _run(tmp_path, "REP106") == []

    def test_untraced_modules_out_of_scope(self, tmp_path):
        _write(tmp_path, "analysis/tables.py", """\
            import time

            def stamp():
                return time.time()
        """)
        assert _run(tmp_path, "REP106") == []

    def test_clock_helpers_are_clean(self, tmp_path):
        _write(tmp_path, "verifier/campaign.py", """\
            from ..obs.clock import mono_now

            def measure():
                t0 = mono_now()
                return mono_now() - t0
        """)
        assert _run(tmp_path, "REP106") == []


class TestAllowlist:
    def test_entry_suppresses_matching_finding(self, tmp_path):
        mod = _write(tmp_path, "verifier/cfg.py", """\
            from dataclasses import dataclass

            @dataclass
            class SweepConfig:
                depth: int = 3
        """)
        allow = _write(tmp_path, "allowlist.txt",
                       "REP105 *verifier/cfg.py SweepConfig -- "
                       "validated by its builder, construction is internal\n")
        report = run_check(
            paths=[mod], rules=["REP105"], allowlist_path=allow
        )
        assert report.clean

    def test_non_matching_entry_does_not_suppress(self, tmp_path):
        mod = _write(tmp_path, "verifier/cfg.py", """\
            from dataclasses import dataclass

            @dataclass
            class SweepConfig:
                depth: int = 3
        """)
        allow = _write(tmp_path, "allowlist.txt",
                       "REP105 *other/cfg.py SweepConfig -- wrong file\n")
        report = run_check(
            paths=[mod], rules=["REP105"], allowlist_path=allow
        )
        assert [f.rule for f in report.findings] == ["REP105"]

    @pytest.mark.parametrize("line,fragment", [
        ("REP105 *cfg.py SweepConfig", "justification"),       # no --
        ("REP105 *cfg.py -- too few fields", "malformed"),
        ("REP999 *cfg.py SweepConfig -- no such rule", "unknown rule"),
    ])
    def test_bad_entries_are_rep100(self, tmp_path, line, fragment):
        allow = _write(tmp_path, "allowlist.txt", line + "\n")
        loaded = load_allowlist(allow, known_rules=all_rule_ids())
        assert [f.rule for f in loaded.findings] == ["REP100"]
        assert fragment in loaded.findings[0].message

    def test_unused_entries_reported_stale(self, tmp_path):
        allow = _write(tmp_path, "allowlist.txt",
                       "REP105 *nowhere.py Nothing -- suppresses nothing\n")
        loaded = load_allowlist(allow, known_rules=all_rule_ids())
        assert loaded.findings == []
        assert len(loaded.unused_entries()) == 1
        loaded.suppresses(
            Finding("REP105", "x/nowhere.py:1", "Nothing", "msg")
        )
        assert loaded.unused_entries() == []


class TestRunner:
    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="REP9"):
            run_check(paths=[], rules=["REP999"])

    def test_shipped_tree_lint_tier_is_clean(self):
        # the repo invariant the CI check job gates on (the tape tier has
        # its own corpus test; slicing to REP rules keeps this fast)
        report = run_check(rules=[r for r in all_rule_ids() if r.startswith("REP")])
        assert report.summary().startswith("repro check: clean")
        assert report.files_checked > 50
