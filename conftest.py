"""Repo-level collection rules.

The slow ablation benchmark files are excluded from the tier-1 run
(`python -m pytest -x -q`); the scheduled nightly workflow opts back in by
setting ``REPRO_RUN_ABLATIONS``.

Tests marked ``perf`` assert wall-clock ratios, which a loaded or small
machine cannot hold deterministically.  They are deselected unless the
``-m`` expression mentions ``perf`` (CI's perf-smoke job runs ``-m perf``);
their correctness halves live in unmarked tests that tier-1 always runs.
"""

import os

collect_ignore_glob = []
if not os.environ.get("REPRO_RUN_ABLATIONS"):
    collect_ignore_glob.append("benchmarks/test_ablation_*.py")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "perf: wall-clock ratio gate; deselected unless -m mentions perf"
    )


def pytest_collection_modifyitems(config, items):
    if "perf" in (config.getoption("markexpr") or ""):
        return  # a -m expression about perf decides
    perf = [item for item in items if item.get_closest_marker("perf") is not None]
    if perf:
        config.hook.pytest_deselected(items=perf)
        items[:] = [item for item in items if item.get_closest_marker("perf") is None]
