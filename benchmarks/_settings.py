"""Benchmark-harness budgets and the perf-artifact writer (shared by
conftest and the benchmarks)."""

import json
import os
import platform

import numpy as np

from repro.pb.grid import GridSpec
from repro.verifier.verifier import VerifierConfig

#: verification budget used by the benchmark harness (coarse but faithful)
BENCH_CONFIG = VerifierConfig(
    split_threshold=0.7,
    per_call_budget=250,
    global_step_budget=10_000,
)

#: PB grid used by the benchmark harness
BENCH_SPEC = GridSpec(n_rs=161, n_s=161, n_alpha=9)


def record_bench(env_var: str, section: str, **values) -> None:
    """Merge one benchmark section into the JSON perf artifact.

    ``env_var`` names the environment variable holding the artifact's
    path (``BENCH_SOLVER_JSON``, ``BENCH_SERVICE_JSON``); unset means
    recording is off.
    """
    path = os.environ.get(env_var)
    if not path:
        return
    doc: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.setdefault("meta", {}).update(
        {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": os.environ.get("GITHUB_SHA", ""),
            "cpus": os.cpu_count(),
        }
    )
    doc.setdefault(section, {}).update(values)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
