"""Per-layer measurement from outside the program.

The traced run records the campaign's own spans (campaign, cell, dispatch,
worker chunk/compile/solve) through ``run_campaign(..., tracer=...)`` and
adds spans around the public calls the campaign makes into the layers
below it: ``encode``, ``compile_problem`` and ``pair_content_key``
(:func:`traced_calls`), the store's open/get/put (:class:`TracedStore`),
classification and render.  Nothing inside ``src/`` is changed.  The solver
is split from verifier bookkeeping by replaying each computed cell
in-process through ``Verifier(config, solver=TimedSolver(...))``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import repro.verifier.campaign as campaign_module

#: per-layer metric -> (unit, better, the end-to-end metric it should move
#: and on which workload).  The order is the order of the printed table.
LAYER_METRICS = {
    "encoder.encode_s": ("s", "lower", "wall_s on scan-resume; no change elsewhere"),
    "encoder.compile_s": ("s", "lower", "wall_s on scan-resume; no change elsewhere"),
    "encoder.key_s": ("s", "lower", "wall_s on scan-resume; no change elsewhere"),
    "solver.s": ("s", "lower", "wall_s, cpu_s on table1-coarse; no change on scan-*"),
    "solver.calls": ("count", "lower", "wall_s, cpu_s on table1-coarse; no change on scan-*"),
    "solver.steps": ("count", "lower", "wall_s, cpu_s on table1-coarse; no change on scan-*"),
    "solver.steps_per_s": ("1/s", "higher", "wall_s, cpu_s on table1-coarse"),
    "solver.pruned_ratio": ("ratio", "higher", "wall_s, cpu_s on table1-coarse"),
    "verifier.self_s": ("s", "lower", "wall_s, peak_rss_mb, store_mb on scan-exhausted"),
    "verifier.records": ("count", "lower", "wall_s, peak_rss_mb, store_mb on scan-exhausted"),
    "verifier.solved_ratio": ("ratio", "higher", "wall_s, peak_rss_mb, store_mb on scan-exhausted"),
    "campaign.chunks": ("count", "lower", "wall_s on table1-coarse and scan-exhausted"),
    "campaign.dispatch_wait_s": ("s", "lower", "wall_s on table1-coarse and scan-exhausted"),
    "campaign.pool_busy_frac": ("ratio", "higher", "wall_s on table1-coarse and scan-exhausted"),
    "store.put_s": ("s", "lower", "wall_s, store_mb on scan-exhausted"),
    "store.put_bytes": ("bytes", "lower", "wall_s, store_mb on scan-exhausted"),
    "store.get_s": ("s", "lower", "wall_s on scan-resume"),
    "store.get_bytes": ("bytes", "lower", "wall_s on scan-resume"),
    "regions.classify_s": ("s", "lower", "wall_s on scan-resume"),
    "analysis.render_s": ("s", "lower", "wall_s on scan-resume"),
    "untraced_s": ("s", "lower", "wall_s wherever it is large (stitch, absorb, gaps)"),
    "trace_overhead_ratio": ("ratio", "lower", "none: traced wall over untraced wall"),
}

#: parent-side spans whose union is the traced time; the rest is untraced_s
_COVERING = {
    "encode",
    "compile_problem",
    "pair_content_key",
    "store.open",
    "store.get",
    "store.put",
    "classification",
    "render",
}


class TimedSolver:
    """Wraps an ``ICPSolver``: times every ``solve`` and sums its stats."""

    def __init__(self, solver):
        self.solver = solver
        self.seconds = 0.0
        self.calls = 0
        self.steps = 0
        self.pruned = 0

    def solve(self, formula, box, budget):
        start = time.perf_counter()
        result = self.solver.solve(formula, box, budget)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.steps += result.stats.boxes_processed
        self.pruned += result.stats.boxes_pruned
        return result


class TracedStore:
    """Wraps an open store: a span around every report ``get`` and ``put``.

    ``run_campaign`` calls nothing else on a store it does not own.
    """

    def __init__(self, store, tracer):
        self.store = store
        self.tracer = tracer

    def get(self, key):
        with self.tracer.span("store.get", "store"):
            return self.store.get(key)

    def put(self, key, report):
        before = os.path.getsize(self.store.path)
        span = self.tracer.begin("store.put", "store")
        self.store.put(key, report)
        self.tracer.finish(span, bytes=os.path.getsize(self.store.path) - before)

    def close(self):
        self.store.close()


@contextmanager
def traced_calls(tracer):
    """Record a span around each encode, compile and key call the campaign makes."""
    names = ("encode", "compile_problem", "pair_content_key")
    originals = {name: getattr(campaign_module, name) for name in names}

    def wrap(name, call):
        def traced(*args, **kwargs):
            with tracer.span(name, "encoder"):
                return call(*args, **kwargs)

        return traced

    for name, call in originals.items():
        setattr(campaign_module, name, wrap(name, call))
    try:
        yield
    finally:
        for name, call in originals.items():
            setattr(campaign_module, name, call)


def _union_seconds(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def trace_metrics(header: dict, spans: list[dict], workers: int) -> dict:
    """The per-layer metrics one trace yields (replay and overhead come separately)."""
    parent = [s for s in spans if s["pid"] == header["pid"]]

    def total(name):
        return sum(s["dur"] for s in parent if s["name"] == name)

    bench = next(s for s in parent if s["name"] == "bench")
    campaign = next(s for s in parent if s["name"] == "campaign")
    chunks = [s for s in spans if s["cat"] == "chunk"]
    chunk_seconds: dict[str, float] = {}
    for chunk in chunks:
        chunk_seconds[chunk["parent"]] = chunk_seconds.get(chunk["parent"], 0.0) + chunk["dur"]
    dispatches = [s for s in parent if s["cat"] == "dispatch"]
    dispatch_wait = sum(s["dur"] - chunk_seconds.get(s["span"], 0.0) for s in dispatches)
    covered = [
        (s["ts"], s["ts"] + s["dur"])
        for s in parent
        if s["name"] in _COVERING or s["cat"] == "dispatch"
    ]
    return {
        "encoder.encode_s": total("encode"),
        "encoder.compile_s": total("compile_problem"),
        "encoder.key_s": total("pair_content_key"),
        "campaign.chunks": len(chunks),
        "campaign.dispatch_wait_s": dispatch_wait,
        "campaign.pool_busy_frac": sum(s["dur"] for s in chunks) / (workers * campaign["dur"]),
        "store.put_s": total("store.put"),
        "store.put_bytes": sum(s["attrs"]["bytes"] for s in parent if s["name"] == "store.put"),
        "store.get_s": total("store.open") + total("store.get"),
        "store.get_bytes": sum(s["attrs"]["bytes"] for s in parent if s["name"] == "store.open"),
        "regions.classify_s": total("classification"),
        "analysis.render_s": total("render"),
        "untraced_s": bench["dur"] - _union_seconds(covered),
    }


def replay_metrics(solvers: list[TimedSolver], verify_seconds: float, reports) -> dict:
    """Solver and verifier metrics of the in-process replay (zeros without one)."""
    records = [r for report in reports for r in report.records]
    solver_s = sum(s.seconds for s in solvers)
    steps = sum(s.steps for s in solvers)
    solved = sum(1 for r in records if r.solver_steps > 0)
    return {
        "solver.s": solver_s,
        "solver.calls": sum(s.calls for s in solvers),
        "solver.steps": steps,
        "solver.steps_per_s": steps / solver_s if solver_s > 0 else 0.0,
        "solver.pruned_ratio": sum(s.pruned for s in solvers) / steps if steps else 0.0,
        "verifier.self_s": verify_seconds - solver_s,
        "verifier.records": len(records),
        "verifier.solved_ratio": solved / len(records) if records else 0.0,
    }


def render_layer_table(workload: str, layers: dict) -> str:
    """The per-layer table a traced run prints.

    Every time in it is a self time: the encoder, store, classification and
    render spans have no child spans, ``verifier.self_s`` excludes the solver,
    ``campaign.dispatch_wait_s`` excludes the worker's chunk span and
    ``untraced_s`` is the wall time no span covers.
    """
    lines = [f"per-layer table, workload {workload}"]
    lines.append(f"{'metric':26s} {'value':>14s} {'unit':6s}  should move")
    for name, (unit, _, moves) in LAYER_METRICS.items():
        lines.append(f"{name:26s} {layers[name]:14.6g} {unit:6s}  {moves}")
    return "\n".join(lines)
