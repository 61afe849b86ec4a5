"""Repo benchmark: Table I campaigns end to end, and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-coarse --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``table1-coarse``,
``scan-exhausted`` and ``scan-resume``.  Every campaign runs in a fresh
interpreter (``perfbench/iteration.py``) on a 2-worker pool the benchmark
owns.  A batch job with one campaign per iteration: iterations start back
to back until ``--seconds`` have passed, and at least ``MIN_ITERATIONS`` run.

``--trace 0`` prints the end-to-end metrics, medians over the iterations:
``wall_s`` (campaign call to rendered table), ``cpu_s`` (parent plus pool
workers), ``peak_rss_mb`` (largest of parent and workers), ``store_mb`` (the
run's store file when the campaign ends: written by ``table1-coarse`` and
``scan-exhausted``, read by ``scan-resume``), ``setup_s`` (interpreter start,
imports, registry load and pool start; median over the iterations and
``SETUP_PROBES`` set-up-only interpreters) and ``cells_ok_ratio`` (cells that
match the reference over cells attempted; a ratio that is 1 on correct code,
so that a bound can apply to it).

``--trace 1`` runs one untraced and one traced campaign, each in a fresh
interpreter, prints the per-layer table and reports the per-layer metrics.
It also checks that the traced campaign and the in-process solver replay
produce the same region trees and the same rendered table as the untraced
campaign, so that the per-layer numbers describe the same program.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("table1-coarse", "scan-exhausted", "scan-resume")
MIN_ITERATIONS = 2
SETUP_PROBES = 7
#: a run still going this long after it started is killed and fails
RUN_LIMIT_S = 170.0
STARTED = time.monotonic()

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "store_mb": "MiB",
    "setup_s": "s",
    "cells_ok_ratio": "ratio",
}


class IterationError(RuntimeError):
    pass


def child(mode: str, args, work: Path, iteration: int = 0, *extra: str) -> dict:
    """Run one fresh-interpreter iteration and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    name = "resume.jsonl" if args.workload == "scan-resume" else f"store-{iteration}.jsonl"
    store = work / name
    cmd = [
        sys.executable,
        str(HERE / "iteration.py"),
        "--mode",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--iteration",
        str(iteration),
        "--store",
        str(store),
        "--trace-file",
        str(work / f"trace-{iteration}.jsonl"),
        *extra,
        "--spawned",
        repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=STARTED + RUN_LIMIT_S - time.monotonic())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise IterationError(f"{mode} iteration ran past the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        if proc.poll() is None:  # interrupted: take the pool workers down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise IterationError(f"{mode} iteration exited with code {proc.returncode}")
    if mode != "prepare" and args.workload != "scan-resume":
        store.unlink(missing_ok=True)  # ~15 MB per scan-exhausted iteration
    return json.loads(stdout.strip().splitlines()[-1])


def prepare(args, work: Path) -> None:
    """``scan-resume`` reads a store the code under test wrote.

    Its cells are not checked here: the resume iterations check the same
    cells, and a cell the store lacks shows there as recomputed.
    """
    if args.workload == "scan-resume":
        child("prepare", args, work)


def measured_run(args, work: Path) -> dict:
    prepare(args, work)
    setup = [child("setup", args, work)["setup_s"] for _ in range(SETUP_PROBES)]
    deadline = time.monotonic() + args.seconds
    runs: list[dict] = []
    while len(runs) < MIN_ITERATIONS or time.monotonic() < deadline:
        out = child("run", args, work, len(runs))
        line = " ".join(f"{k}={out[k]:.4f}" for k in END_TO_END if k in out)
        print(f"iteration {len(runs)}: {line}", flush=True)
        for problem in out["problems"]:
            print(f"  FAILED {problem}", flush=True)
        runs.append(out)
    setup += [out["setup_s"] for out in runs]
    attempted = sum(out["attempted"] for out in runs)
    failed = sum(len(out["problems"]) for out in runs)
    values = {k: statistics.median(out[k] for out in runs) for k in END_TO_END if k in runs[0]}
    values["setup_s"] = statistics.median(setup)
    values["cells_ok_ratio"] = 1.0 - failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()},
    }


TABLE_MISMATCH = "traced campaign rendered a different table"


def traced_run(args, work: Path) -> dict:
    from layers import LAYER_METRICS, render_layer_table

    prepare(args, work)
    plain = child("run", args, work, 0, "--digest")
    traced = child("traced", args, work, 0)
    problems = list(traced["problems"])
    # bit-identity guard: the per-layer numbers must describe the same program
    for name, digest in sorted(plain["digests"].items()):
        if traced["digests"].get(name) != digest:
            problems.append(f"{name}: traced campaign differs from the untraced one")
        elif traced["replay_digests"] and traced["replay_digests"].get(name) != digest:
            problems.append(f"{name}: in-process replay differs from the untraced campaign")
    if traced["table"] != plain["table"]:
        problems.append(TABLE_MISMATCH)
    layers = dict(traced["layers"])
    layers["trace_overhead_ratio"] = traced["traced_wall_s"] / plain["wall_s"]
    print(render_layer_table(args.workload, layers))
    for problem in problems:
        print(f"FAILED {problem}")
    attempted = traced["attempted"]
    failed_cells = {p.split(":")[0] for p in problems if p != TABLE_MISMATCH}
    failed = len(failed_cells) or (attempted if problems else 0)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": layers[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Table I campaign benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the per-layer table imports repro
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = traced_run(args, work) if args.trace else measured_run(args, work)
    except IterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
