"""One benchmark iteration: a fresh interpreter that runs one campaign.

``perfbench/run.py`` starts this script once per iteration, because users
of ``repro table1`` pay the module-level caches on every invocation.
Modes:

* ``setup`` -- imports, registry load and pool start, then exit;
* ``run`` -- set up, run the workload's campaign untraced, check the cells;
* ``traced`` -- set up, run the same campaign traced (per-layer spans), then
  replay the computed cells in-process through a timed solver;
* ``prepare`` -- write the store ``scan-resume`` reads (a ``scan-exhausted``
  campaign with the code under test).

Prints one JSON object on its last stdout line.  Run it through ``run.py``,
which sets ``PYTHONPATH=src`` and passes ``--spawned``, the monotonic time at
which it started the interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from layers import (
    TimedSolver,
    TracedStore,
    replay_metrics,
    trace_metrics,
    traced_calls,
)
from repro.analysis.tables import table_one_from_reports
from repro.obs.export import load_trace
from repro.obs.trace import Tracer, TraceSink
from repro.verifier.campaign import run_campaign
from repro.verifier.encoder import compile_problem, encode
from repro.verifier.store import open_store, report_to_payload
from repro.verifier.verifier import Verifier
from workloads import WORKERS, WORKLOADS, cell_outcome, check_cells, load_reference, make_inputs


def start_pool() -> ProcessPoolExecutor:
    """Start the campaign pool and wait until every worker runs.

    ``fork``, as in the pool ``run_campaign`` creates for itself; nothing in
    this process has started a thread yet.  The benchmark owns the pool and
    joins it, so the workers' CPU time and peak RSS reach ``RUSAGE_CHILDREN``.
    """
    pool = ProcessPoolExecutor(max_workers=WORKERS, mp_context=multiprocessing.get_context("fork"))
    for future in [pool.submit(os.getpid) for _ in range(WORKERS)]:
        future.result()
    return pool


def cell_digests(reports) -> dict[str, str]:
    """Per-cell digest of the region tree, timing fields excluded."""
    out = {}
    for key, report in reports.items():
        payload = report_to_payload(report)
        del payload["elapsed_seconds"], payload["compile_seconds"]
        blob = json.dumps(payload, sort_keys=True).encode()
        out["/".join(key)] = hashlib.sha256(blob).hexdigest()
    return out


def run_campaign_once(inputs, pool, store_path, tracer=None):
    """Open the store, run the campaign, classify every cell, render the table.

    This is the region ``wall_s`` times.  With a ``tracer`` the same calls
    are made, each wrapped in its span.
    """
    if tracer is None:
        store = open_store(store_path)
    else:
        with tracer.span("store.open", "store", bytes=_size(store_path)):
            store = TracedStore(open_store(store_path), tracer)
    try:
        result = run_campaign(
            inputs.pairs,
            inputs.config,
            executor=pool,
            store=store,
            resume=inputs.resume,
            tracer=tracer,
        )
    finally:
        store.close()
    table = table_one_from_reports(result.reports, inputs.functionals, inputs.conditions)
    if tracer is None:
        outcomes = {key: cell_outcome(r) for key, r in result.reports.items()}
        text = table.render()
    else:
        with tracer.span("classification", "regions"):
            outcomes = {key: cell_outcome(r) for key, r in result.reports.items()}
        with tracer.span("render", "analysis"):
            text = table.render()
    return result, outcomes, text


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def measure(args, inputs, reference, pool, setup_s) -> dict:
    """The ``run`` / ``prepare`` modes: one untraced campaign."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result = None
    outcomes: dict = {}
    text = ""
    try:
        result, outcomes, text = run_campaign_once(inputs, pool, args.store)
    except Exception:  # a campaign that raises counts every cell as failed
        traceback.print_exc()
    wall_s = time.perf_counter() - start
    parent_cpu = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(usage)
    pool.shutdown(wait=True)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children.ru_maxrss)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": parent_cpu + _cpu(children),
        "peak_rss_mb": peak_kib / 1024,
        "store_mb": _size(args.store) / 2**20,
        "attempted": len(inputs.pairs),
        "problems": check_cells(inputs, result, outcomes, reference),
    }
    if args.digest:
        out["digests"] = cell_digests(result.reports) if result is not None else {}
        out["table"] = text
    return out


def traced(args, inputs, reference, pool, setup_s) -> dict:
    """The ``traced`` mode: the campaign under spans, then the solver replay."""
    tracer = Tracer(TraceSink(args.trace_file))
    bench = tracer.begin("bench", "bench")
    tracer.root = bench
    try:
        with traced_calls(tracer):
            result, outcomes, text = run_campaign_once(inputs, pool, args.store, tracer)
    finally:
        tracer.finish(bench)
        tracer.sink.close()
        pool.shutdown(wait=True)
    header, spans = load_trace(args.trace_file)
    layers = trace_metrics(header, spans, WORKERS)

    # split solver from verifier bookkeeping: replay the computed cells
    # in-process, each on a fresh solver as in a pool worker (a resumed
    # campaign computes nothing, so there is nothing to replay)
    solvers = []
    verify_seconds = 0.0
    replayed = {}
    if not inputs.resume:
        for functional, condition in inputs.pairs:
            problem = compile_problem(encode(functional, condition))
            solvers.append(TimedSolver(inputs.config.make_solver()))
            verifier = Verifier(inputs.config, solver=solvers[-1])
            start = time.perf_counter()
            replayed[(functional.name, condition.cid)] = verifier.verify(problem)
            verify_seconds += time.perf_counter() - start
    layers.update(replay_metrics(solvers, verify_seconds, replayed.values()))
    return {
        "setup_s": setup_s,
        "traced_wall_s": next(s["dur"] for s in spans if s["name"] == "bench"),
        "attempted": len(inputs.pairs),
        "problems": check_cells(inputs, result, outcomes, reference),
        "layers": layers,
        "digests": cell_digests(result.reports),
        "replay_digests": cell_digests(replayed),
        "table": text,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one fresh-interpreter benchmark iteration")
    parser.add_argument("--mode", choices=("setup", "run", "traced", "prepare"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--store", help="JSONL store path")
    parser.add_argument("--trace-file", help="trace path (traced mode)")
    parser.add_argument("--digest", action="store_true", help="add per-cell digests")
    parser.add_argument("--spawned", type=float, required=True, help="monotonic start time")
    args = parser.parse_args(argv)

    workload = "scan-exhausted" if args.mode == "prepare" else args.workload
    inputs = make_inputs(workload, args.seed, args.iteration)
    reference = load_reference()
    pool = start_pool()
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        pool.shutdown(wait=True)
        out = {"setup_s": setup_s}
    elif args.mode == "traced":
        out = traced(args, inputs, reference, pool, setup_s)
    else:
        out = measure(args, inputs, reference, pool, setup_s)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
