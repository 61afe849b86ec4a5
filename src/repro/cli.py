"""Command-line interface: ``python -m repro <subcommand>``.

The CLI covers the library's main entry points so every experiment of the
paper -- and the numerical-issues extensions -- can be driven without
writing Python:

======================  =====================================================
``list``                registered functionals and exact conditions
``verify``              Algorithm 1 on one DFA-condition pair (+ region map)
``pb``                  the Pederson-Burke grid check on one pair
``compare``             PB vs XCVerifier consistency for one pair (Table II cell)
``table1`` / ``table2`` the paper's full tables (quick budgets by default)
``campaign``            arbitrary pair sets on the shared-pool campaign engine
``numerics``            Section VI-C analyses: continuity, hazards, sensitivity
``serve``               the resident verification service (HTTP job server)
``submit``              submit a job to a running service and await it
``stats``               per-(functional, condition) timing summary of a store
``check``               static analysis: tape-IR verifier + REP lint rules
``trace``               inspect a recorded trace: summary, lint, Chrome export
======================  =====================================================

Observability: campaign commands accept ``--trace PATH`` (or the
``REPRO_TRACE`` env var) to record a span trace of the whole run --
CLI command, campaign drive loop, per-chunk dispatch, worker-side
compile/solve -- as append-only JSONL, safe to interrupt.  ``repro
trace summary|lint|export --chrome`` consume it.  ``repro --log-json``
(or ``REPRO_LOG=json``) switches every stderr diagnostic to one JSON
record per line; the process ``run_id`` joins log records, trace spans
and service audit entries.  All of it is purely observational: tables,
reports and store contents are byte-identical with tracing on or off.

Campaign cells run one per pool task: each is one run of Algorithm 1
over the pair's whole domain, so ``--workers`` changes only how many
cells run at once, never what a cell contains.  ``repro stats STORE``
prints the per-pair timing aggregates of a store.

``table1``, ``table2`` and ``campaign`` accept ``--store PATH`` (persist
every completed cell immediately to an append-only ``.jsonl`` checkpoint
file; other suffixes are rejected) and ``--resume`` (serve
unchanged cells from the store).  An interrupt (SIGINT / Ctrl-C) exits
with status 130 after printing the partial table; everything completed
is already in the store, so re-running with ``--resume`` continues where
the interrupted run stopped.

Exit status: 0 on success, 1 for usage errors (unknown functional or
condition, inapplicable pair), 2 for argparse-level errors, 130 when
interrupted.  ``check`` is the exception: it exits 1 when findings
exist (each printed as a one-line diagnostic) and 2 for *any* usage
error -- a bad ``--rule`` id, a missing path, an unknown corpus slice.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager as _contextmanager
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XCVerifier reproduction: verify DFT exact conditions "
        "for density functional approximations.",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit stderr diagnostics as one JSON record per line "
        "(ts/level/run_id/event; same as REPRO_LOG=json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list functionals and conditions")
    p_list.add_argument(
        "--paper-only",
        action="store_true",
        help="restrict to the five DFAs of the paper's evaluation",
    )

    p_verify = sub.add_parser("verify", help="run Algorithm 1 on one pair")
    _add_pair_args(p_verify)
    p_verify.add_argument("--budget", type=int, default=400, help="ICP steps per solver call")
    p_verify.add_argument(
        "--global-budget", type=int, default=50_000, help="total ICP steps for the run"
    )
    p_verify.add_argument(
        "--threshold", type=float, default=0.05, help="split threshold t of Algorithm 1"
    )
    p_verify.add_argument("--delta", type=float, default=1e-5, help="solver delta-weakening")
    p_verify.add_argument(
        "--map", dest="map_resolution", type=int, default=0,
        help="print an ASCII region map at the given resolution",
    )
    p_verify.add_argument(
        "--json", dest="json_path", default=None,
        help="write the full report (regions included) as JSON",
    )
    p_verify.add_argument(
        "--csv", dest="csv_path", default=None,
        help="write the region list as CSV",
    )
    _add_trace_arg(p_verify)

    p_pb = sub.add_parser("pb", help="run the Pederson-Burke grid check on one pair")
    _add_pair_args(p_pb)
    p_pb.add_argument("--points", type=int, default=201, help="grid points per axis")
    p_pb.add_argument(
        "--map", dest="map_resolution", type=int, default=0,
        help="print an ASCII violation map at the given resolution",
    )

    p_cmp = sub.add_parser("compare", help="PB vs XCVerifier consistency (one Table II cell)")
    _add_pair_args(p_cmp)
    p_cmp.add_argument("--budget", type=int, default=400)
    p_cmp.add_argument("--global-budget", type=int, default=50_000)
    p_cmp.add_argument("--points", type=int, default=201)

    p_t1 = sub.add_parser("table1", help="reproduce Table I (all pairs)")
    p_t1.add_argument("--budget", type=int, default=250, help="ICP steps per solver call")
    p_t1.add_argument(
        "--global-budget", type=int, default=10_000,
        help="total ICP steps per pair (quick default; the bench uses more)",
    )
    p_t1.add_argument(
        "--json", dest="json_path", default=None,
        help="write the matrix as JSON (CI-diffable)",
    )
    p_t1.add_argument(
        "--markdown", dest="markdown_path", default=None,
        help="write the matrix as GitHub Markdown",
    )
    _add_campaign_args(p_t1)

    p_t2 = sub.add_parser("table2", help="reproduce Table II (PB consistency)")
    p_t2.add_argument("--budget", type=int, default=250)
    p_t2.add_argument("--global-budget", type=int, default=10_000)
    p_t2.add_argument("--points", type=int, default=201)
    _add_campaign_args(p_t2)

    p_camp = sub.add_parser(
        "campaign",
        help="run an arbitrary pair set on the shared-pool campaign engine",
    )
    p_camp.add_argument("--budget", type=int, default=250, help="ICP steps per solver call")
    p_camp.add_argument(
        "--global-budget", type=int, default=10_000, help="total ICP steps per pair"
    )
    p_camp.add_argument(
        "--threshold", type=float, default=0.05, help="split threshold t of Algorithm 1"
    )
    p_camp.add_argument(
        "--json", dest="json_path", default=None,
        help="write all reports as one campaign JSON document",
    )
    _add_campaign_args(p_camp)

    p_num = sub.add_parser(
        "numerics", help="Section VI-C numerical-issues analyses"
    )
    p_num.add_argument(
        "-f", "--functional", default=None,
        help="single-pair mode: analyse one DFA (incompatible with --all)",
    )
    p_num.add_argument(
        "--check",
        default=None,
        help="comma-separated subset of {continuity, hazards, sensitivity} "
        "(default: continuity,hazards for one pair; all three for a campaign)",
    )
    p_num.add_argument(
        "--component", default=None, choices=("fc", "fx", "fxc"),
        help="which enhancement factor to analyse (single-pair mode, "
        "default fc; campaigns take --components)",
    )
    p_num.add_argument(
        "--ieee", action="store_true",
        help="hazard reachability under np.where (both-branch) semantics "
        "(single-pair mode; campaigns always run both semantics)",
    )
    # campaign mode: sweep whole functional families on the shared
    # process pool, persisting cells to the content-hash store
    p_num.add_argument(
        "--all", action="store_true",
        help="campaign mode: sweep every registered functional "
        "(narrow with --functionals)",
    )
    p_num.add_argument(
        "--components", default=None,
        help='comma-separated components for campaign mode, e.g. "fc,fx" '
        "(default fc)",
    )
    p_num.add_argument(
        "--json", dest="json_path", default=None,
        help="write the Table III aggregation as JSON (campaign mode)",
    )
    p_num.add_argument(
        "--functionals", default=None,
        help='comma-separated DFA subset for campaign mode, e.g. "SCAN,rSCAN" '
        "(implies campaign mode; default with --all: every registered DFA)",
    )
    p_num.add_argument(
        "--workers", type=int, default=0,
        help="process-pool width (0 = in-process sequential)",
    )
    p_num.add_argument(
        "--store", dest="store_path", default=None,
        help="persist completed analysis cells here (an append-only *.jsonl "
        "checkpoint file); written incrementally, safe to interrupt",
    )
    p_num.add_argument(
        "--resume", action="store_true",
        help="serve cells already in --store (matched by content hash) "
        "instead of recomputing them",
    )
    _add_trace_arg(p_num)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident verification service (HTTP job server)",
    )
    p_serve.add_argument(
        "--store", dest="store_path", required=True,
        help="the service's result store (*.jsonl); every "
        "completed cell persists here and is served as a cache hit "
        "forever after -- across restarts and by --resume CLI campaigns",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = ephemeral; the bound port is printed on startup)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="shared process-pool width for cell solves "
        "(0 = compute inline in the server process)",
    )
    p_serve.add_argument(
        "--tokens-file", dest="tokens_file", default=None,
        help="bearer-token table, one 'client_id:token' per line "
        "('#' comments); default: the REPRO_SERVICE_TOKENS env var "
        "(comma-separated entries), else anonymous mode",
    )
    p_serve.add_argument(
        "--rate", type=float, default=0.0,
        help="per-client submission rate limit in jobs/second "
        "(token bucket; 0 = unlimited)",
    )
    p_serve.add_argument(
        "--burst", type=int, default=None,
        help="token-bucket burst size (default: one second's worth of --rate)",
    )
    p_serve.add_argument(
        "--high-water", dest="high_water", type=int, default=0,
        help="queued-cell admission threshold: at this queue depth new "
        "submissions answer 503 + Retry-After (0 = never shed)",
    )
    p_serve.add_argument(
        "--audit-log", dest="audit_path", default=None,
        help="append-only JSONL audit log of submissions and auth "
        "failures (default: no audit log)",
    )

    p_sub = sub.add_parser(
        "submit",
        help="submit a job to a running service and stream its progress",
    )
    p_sub.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (repro serve prints it on startup)",
    )
    p_sub.add_argument(
        "--token", default=None,
        help="bearer token for authed servers "
        "(default: the REPRO_SERVICE_TOKEN env var)",
    )
    p_sub.add_argument(
        "--retries", type=int, default=5,
        help="extra submission attempts on 429/503, honouring Retry-After "
        "with bounded exponential backoff (0 = fail immediately)",
    )
    p_sub.add_argument(
        "--json", dest="json_path", default=None,
        help="write the rendered table/report JSON (identical format to "
        "the direct table1/numerics commands)",
    )
    p_sub.add_argument(
        "--raw-json", dest="raw_json_path", default=None,
        help="write the raw service result payload (cells + provenance)",
    )
    p_sub.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    job_sub = p_sub.add_subparsers(dest="job_kind", required=True)

    ps_verify = job_sub.add_parser("verify", help="one (functional, condition) pair")
    _add_pair_args(ps_verify)
    ps_verify.add_argument("--budget", type=int, default=400)
    ps_verify.add_argument("--global-budget", type=int, default=50_000)
    ps_verify.add_argument("--threshold", type=float, default=0.05)
    ps_verify.add_argument("--delta", type=float, default=1e-5)

    ps_t1 = job_sub.add_parser("table1", help="a Table I verification slice")
    ps_t1.add_argument("--functionals", default=None,
                       help='comma-separated DFA subset (default: paper DFAs)')
    ps_t1.add_argument("--conditions", default=None,
                       help='comma-separated condition subset (default: all)')
    ps_t1.add_argument("--budget", type=int, default=250)
    ps_t1.add_argument("--global-budget", type=int, default=10_000)

    ps_num = job_sub.add_parser("numerics", help="a numerics analysis slice")
    ps_num.add_argument("--functionals", default=None,
                        help="comma-separated DFA subset (default: all registered)")
    ps_num.add_argument("--components", default="fc",
                        help='comma-separated components, e.g. "fc,fx"')
    ps_num.add_argument("--check", default=None,
                        help="comma-separated subset of "
                        "{continuity, hazards, sensitivity} (default: all)")

    p_stats = sub.add_parser(
        "stats",
        help="per-(functional, condition) timing summary of a campaign store",
    )
    p_stats.add_argument(
        "store_path",
        help="an existing campaign store (*.jsonl)",
    )

    from .statan import all_rule_ids

    p_check = sub.add_parser(
        "check",
        help="static analysis: tape-IR verifier + repo-invariant lint rules",
    )
    p_check.add_argument(
        "paths", nargs="*",
        help="source files/dirs for the lint tier "
        "(default: the whole src/repro tree)",
    )
    p_check.add_argument(
        "--rule", dest="rules", action="append", choices=all_rule_ids(),
        metavar="ID",
        help="run only this rule id, repeatable (TAPE101-108, REP100-106); "
        "unknown ids are rejected at parse time",
    )
    p_check.add_argument(
        "--deep", type=int, default=0,
        help="TAPE108 abstract-interpretation refinement depth: number of "
        "per-axis domain halvings before a maybe-NaN site is reported "
        "(default 0; nightly CI uses 2)",
    )
    p_check.add_argument(
        "--functionals", default=None,
        help='comma-separated DFA slice of the tape corpus, e.g. "PBE,LYP" '
        "(default: the full registry)",
    )
    p_check.add_argument(
        "--conditions", default=None,
        help='comma-separated condition slice of the tape corpus, e.g. '
        '"EC1,EC6" (default: the full catalog)',
    )
    p_check.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the machine-readable report here ('-' = stdout)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="inspect a recorded span trace (see --trace on campaign commands)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    pt_summary = trace_sub.add_parser(
        "summary",
        help="critical path, top spans by self-time, pool utilization, "
        "per-pair compile/solve breakdown",
    )
    pt_summary.add_argument("trace_file", help="a trace recorded with --trace")
    pt_summary.add_argument(
        "--top", type=int, default=10, help="spans in the self-time ranking"
    )
    pt_export = trace_sub.add_parser(
        "export",
        help="convert to Chrome trace-event JSON (load in ui.perfetto.dev "
        "or chrome://tracing)",
    )
    pt_export.add_argument("trace_file", help="a trace recorded with --trace")
    pt_export.add_argument(
        "--chrome", dest="chrome_path", required=True, metavar="PATH",
        help="write the Chrome trace-event JSON here ('-' = stdout)",
    )
    pt_lint = trace_sub.add_parser(
        "lint",
        help="check structural invariants (span parentage, cell counts); "
        "exit 1 on problems",
    )
    pt_lint.add_argument("trace_file", help="a trace recorded with --trace")
    return parser


def _add_pair_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-f", "--functional", required=True, help='e.g. "PBE"')
    parser.add_argument("-c", "--condition", required=True, help='e.g. "EC1"')


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", dest="trace_path", default=None, metavar="PATH",
        help="record a span trace of this run as append-only JSONL "
        "(default: the REPRO_TRACE env var; inspect with 'repro trace')",
    )


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    _add_trace_arg(parser)
    parser.add_argument(
        "--functionals", default=None,
        help='comma-separated DFA subset, e.g. "PBE,LYP" (default: all paper DFAs)',
    )
    parser.add_argument(
        "--conditions", default=None,
        help='comma-separated condition subset, e.g. "EC1,EC6" (default: all)',
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="process-pool width (0 = in-process sequential)",
    )
    parser.add_argument(
        "--store", dest="store_path", default=None,
        help="persist completed cells here (an append-only *.jsonl checkpoint "
        "file); written incrementally, safe to interrupt",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="serve cells already in --store (matched by content hash) "
        "instead of recomputing them",
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs.logging import configure_logging, log_event

    configure_logging(json_logs=True if args.log_json else None)
    try:
        with _maybe_trace(args):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        log_event("cli.usage-error", f"error: {exc}", level="error")
        return 1
    except KeyboardInterrupt:
        # campaign commands normally absorb SIGINT themselves (completed
        # cells are already persisted); this catches an interrupt that
        # lands outside the engine, e.g. during rendering
        log_event("cli.interrupted", "interrupted", level="warning")
        return 130


class _UsageError(Exception):
    pass


@_contextmanager
def _maybe_trace(args):
    """Activate a trace sink around a command that asked for one.

    ``--trace PATH`` wins; commands carrying the flag also honour the
    ``REPRO_TRACE`` env var.  The command span becomes the tracer's
    default parent, so campaign spans opened deep inside library code
    attach under the command that ran them.  The sink closes in a
    ``finally``: an interrupt mid-run still leaves a parseable trace.
    """
    import os

    path = getattr(args, "trace_path", None)
    if path is None and hasattr(args, "trace_path"):
        path = os.environ.get("REPRO_TRACE") or None
    if not path:
        yield
        return
    from .obs.logging import log_event
    from .obs.trace import TraceSink, Tracer, activate_tracer

    sink = TraceSink(path)
    tracer = Tracer(sink)
    try:
        with activate_tracer(tracer):
            command_span = tracer.begin(f"cli:{args.command}", "cli")
            tracer.root = command_span
            try:
                yield
            finally:
                tracer.root = None
                tracer.finish(command_span)
    finally:
        sink.close()
        log_event("trace.written", f"wrote trace {path}", path=path)


def _resolve_pair(args):
    from .conditions import get_condition
    from .functionals import get_functional

    try:
        functional = get_functional(args.functional)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    try:
        condition = get_condition(args.condition)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    if not condition.applies_to(functional):
        raise _UsageError(
            f"{condition.cid} does not apply to {functional.name} "
            f"(requires {'exchange+correlation' if condition.requires_exchange else 'correlation'})"
        )
    return functional, condition


def _cmd_list(args) -> int:
    from .conditions.catalog import PAPER_CONDITIONS
    from .functionals import all_functionals, paper_functionals

    functionals = paper_functionals() if args.paper_only else all_functionals()
    print("functionals:")
    for f in functionals:
        counts = f.complexity()
        parts = [f"{k[0].upper()}:{v} ops" for k, v in counts.items()]
        print(
            f"  {f.name:10s} {f.family:5s} {f.category:15s} {', '.join(parts)}"
        )
    print("\nconditions:")
    for c in PAPER_CONDITIONS:
        print(f"  {c.cid}  {c.name} ({c.equation})")
    return 0


def _cmd_verify(args) -> int:
    from .verifier import VerifierConfig, Verifier, ascii_map, encode

    functional, condition = _resolve_pair(args)
    config = VerifierConfig(
        split_threshold=args.threshold,
        per_call_budget=args.budget,
        global_step_budget=args.global_budget,
        delta=args.delta,
    )
    from .obs.trace import current_tracer

    with current_tracer().span(
        f"solve:{functional.name}/{condition.cid}", "solve",
        functional=functional.name, condition=condition.cid,
    ):
        report = Verifier(config).verify(encode(functional, condition))
    print(report.summary())
    bbox = report.counterexample_bbox()
    if bbox is not None:
        print(f"counterexample region: {bbox}")
    if args.map_resolution > 0 and len(functional.variables) >= 2:
        print(ascii_map(report, resolution=args.map_resolution))
    if args.json_path:
        from .analysis.export import report_to_json, write_json

        write_json(args.json_path, report_to_json(report))
        print(f"wrote {args.json_path}")
    if args.csv_path:
        from .analysis.export import report_to_csv, write_csv

        write_csv(args.csv_path, report_to_csv(report))
        print(f"wrote {args.csv_path}")
    return 0


def _cmd_pb(args) -> int:
    from .pb import GridSpec, PBChecker
    from .pb.render import ascii_pb_map

    functional, condition = _resolve_pair(args)
    spec = GridSpec(n_rs=args.points, n_s=args.points)
    result = PBChecker(spec=spec).check(functional, condition)
    print(result.summary())
    bounds = result.violation_bounds()
    if bounds is not None:
        pretty = ", ".join(f"{k} in [{lo:.4g}, {hi:.4g}]" for k, (lo, hi) in bounds.items())
        print(f"violations within: {pretty}")
    if args.map_resolution > 0 and len(functional.variables) >= 2:
        print(ascii_pb_map(result, resolution=args.map_resolution))
    return 0


def _cmd_compare(args) -> int:
    from .analysis.compare import classify_consistency
    from .pb import GridSpec, PBChecker
    from .verifier import Verifier, VerifierConfig, encode

    functional, condition = _resolve_pair(args)
    config = VerifierConfig(
        per_call_budget=args.budget, global_step_budget=args.global_budget
    )
    report = Verifier(config).verify(encode(functional, condition))
    pb_result = PBChecker(spec=GridSpec(n_rs=args.points, n_s=args.points)).check(
        functional, condition
    )
    cell = classify_consistency(pb_result, report, 2.0 * config.split_threshold)
    print(report.summary())
    print(pb_result.summary())
    print(f"consistency: {cell}  (J = consistent, J* = not inconsistent, ? = timeout)")
    return 0


def _check_nonnegative(*flags: tuple[str, int | None]) -> None:
    """One-line usage errors for negative tuning knobs.

    The engine's :class:`~repro.verifier.campaign.CampaignConfig` raises
    the same constraint as a ``ValueError``; catching it here keeps the
    CLI contract (``error: ...`` + exit 1) instead of a traceback.
    """
    for flag, value in flags:
        if value is not None and value < 0:
            raise _UsageError(f"{flag} must be >= 0, got {value}")


def _check_store_path(path) -> None:
    """Reject unknown store suffixes up front with a usage error, before
    any compute happens (open_store itself raises only when the store is
    first opened, which for campaigns is after encoding starts)."""
    if path is None:
        return
    from .verifier.store import check_store_path

    try:
        check_store_path(path)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_campaign_slice(args):
    """Resolve the --functionals/--conditions subsets and --store/--resume."""
    from .conditions import get_condition
    from .conditions.catalog import PAPER_CONDITIONS
    from .functionals import get_functional, paper_functionals

    if args.resume and not args.store_path:
        raise _UsageError("--resume requires --store")
    _check_store_path(args.store_path)
    _check_nonnegative(("--workers", args.workers))
    try:
        if args.functionals:
            functionals = tuple(
                get_functional(name.strip())
                for name in args.functionals.split(",")
                if name.strip()
            )
        else:
            functionals = paper_functionals()
        if args.conditions:
            conditions = tuple(
                get_condition(cid.strip())
                for cid in args.conditions.split(",")
                if cid.strip()
            )
        else:
            conditions = PAPER_CONDITIONS
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    if not functionals or not conditions:
        raise _UsageError("empty --functionals/--conditions slice")
    return functionals, conditions


def _print_campaign_counts(result) -> None:
    from .obs.logging import log_event

    print(
        f"campaign: {len(result.computed)} cells computed, "
        f"{len(result.store_hits)} from store"
        + (" [interrupted]" if result.interrupted else "")
    )
    if result.interrupted:
        log_event(
            "campaign.interrupted",
            "warning: interrupted before completion -- unfinished cells "
            "render as '-' above; re-run with --store/--resume to continue",
            level="warning",
            computed=len(result.computed),
            store_hits=len(result.store_hits),
        )


def _cmd_table1(args) -> int:
    from .analysis import run_table_campaign, table_one_from_reports
    from .verifier import VerifierConfig

    functionals, conditions = _resolve_campaign_slice(args)
    config = VerifierConfig(
        per_call_budget=args.budget, global_step_budget=args.global_budget
    )
    result = run_table_campaign(
        config,
        functionals,
        conditions,
        verbose=True,
        max_workers=args.workers,
        store=args.store_path,
        resume=args.resume,
    )
    table = table_one_from_reports(result.reports, functionals, conditions)
    print(table.render())
    _print_campaign_counts(result)
    if args.json_path:
        from .analysis.export import table_to_json, write_json

        write_json(args.json_path, table_to_json(table))
        print(f"wrote {args.json_path}")
    if args.markdown_path:
        from .analysis.export import table_to_markdown, write_json

        write_json(args.markdown_path, table_to_markdown(table))
        print(f"wrote {args.markdown_path}")
    return 130 if result.interrupted else 0


def _cmd_table2(args) -> int:
    from .analysis import run_table_campaign, run_table_two
    from .pb import GridSpec, PBChecker
    from .verifier import VerifierConfig

    functionals, conditions = _resolve_campaign_slice(args)
    config = VerifierConfig(
        per_call_budget=args.budget, global_step_budget=args.global_budget
    )
    result = run_table_campaign(
        config,
        functionals,
        conditions,
        max_workers=args.workers,
        store=args.store_path,
        resume=args.resume,
    )
    checker = PBChecker(spec=GridSpec(n_rs=args.points, n_s=args.points))
    table = run_table_two(
        config, checker, functionals, conditions,
        reports=result.reports, interrupted=result.interrupted,
    )
    print(table.render())
    _print_campaign_counts(result)
    return 130 if result.interrupted else 0


def _cmd_campaign(args) -> int:
    from .analysis.tables import print_cell
    from .conditions import applicable_pairs
    from .verifier import VerifierConfig
    from .verifier.campaign import run_campaign

    functionals, conditions = _resolve_campaign_slice(args)
    config = VerifierConfig(
        split_threshold=args.threshold,
        per_call_budget=args.budget,
        global_step_budget=args.global_budget,
    )
    pairs = applicable_pairs(functionals, conditions)
    if not pairs:
        raise _UsageError("no applicable (functional, condition) pairs in the slice")

    result = run_campaign(
        pairs,
        config,
        max_workers=args.workers,
        store=args.store_path,
        resume=args.resume,
        on_cell=print_cell,
    )
    _print_campaign_counts(result)
    if args.json_path:
        from .analysis.export import campaign_to_json, write_json

        write_json(args.json_path, campaign_to_json(result.reports))
        print(f"wrote {args.json_path}")
    return 130 if result.interrupted else 0


def _cmd_numerics(args) -> int:
    if args.all or args.functionals:
        if args.functional:
            raise _UsageError("-f/--functional is incompatible with --all/--functionals")
        if args.component:
            raise _UsageError(
                "--component is single-pair only; campaigns take --components "
                '(e.g. --components fc,fx)'
            )
        if args.ieee:
            raise _UsageError(
                "--ieee is single-pair only; campaigns always run hazard "
                "cells under both reachability semantics"
            )
        return _cmd_numerics_campaign(args)
    if not args.functional:
        raise _UsageError("either -f/--functional or --all/--functionals is required")
    # campaign-only flags error loudly instead of being silently ignored,
    # symmetric with --component being rejected in campaign mode
    campaign_only = [
        ("--json", args.json_path),
        ("--store", args.store_path),
        ("--resume", args.resume or None),
        ("--workers", args.workers or None),
        ("--components", args.components),
    ]
    offending = [flag for flag, value in campaign_only if value is not None]
    if offending:
        raise _UsageError(
            f"{', '.join(offending)}: campaign mode only "
            "(add --all or --functionals)"
        )

    from .functionals import get_functional
    from .numerics import check_continuity, check_hazards, sensitivity_map

    try:
        functional = get_functional(args.functional)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    checks = {
        part.strip()
        for part in (args.check or "continuity,hazards").split(",")
        if part.strip()
    }
    unknown = checks - {"continuity", "hazards", "sensitivity"}
    if unknown:
        raise _UsageError(f"unknown checks: {sorted(unknown)}")

    component = args.component or "fc"
    expr = getattr(functional, component)()
    domain = functional.domain()
    print(f"{functional.name}.{component} over {domain}")

    if "continuity" in checks:
        report = check_continuity(expr, domain, n_base_points=16)
        print(f"continuity: {report.summary()}")
        worst = report.worst()
        if worst is not None and worst.value_jump > 0:
            print(f"  worst jump: {worst!r}")
        for finding in report.singular_findings()[:1]:
            print(f"  singular boundary: {finding!r}")

    if "hazards" in checks:
        report = check_hazards(expr, domain, branch_aware=not args.ieee)
        print(f"hazards: {report.summary()}")
        for verdict in report.triggered():
            loc = ", ".join(
                f"{k}={v:.5g}" for k, v in sorted((verdict.witness or {}).items())
            )
            print(f"  {verdict.hazard.kind} [{verdict.status}] at {loc}")

    if "sensitivity" in checks:
        per_dim = 33 if functional.family == "MGGA" else 65
        smap = sensitivity_map(functional, component, per_dim=per_dim)
        print(f"sensitivity: {smap.summary()}")
        for var in sorted(smap.kappa):
            peak = smap.argmax(var)
            loc = ", ".join(f"{k}={v:.4g}" for k, v in sorted(peak.items()))
            print(f"  kappa_{var} peaks at {loc}")

    return 0


def _cmd_numerics_campaign(args) -> int:
    from .analysis import table_three_from_cells, table_three_to_json
    from .analysis.export import write_json
    from .functionals import all_functionals, get_functional
    from .numerics import run_numerics_campaign
    from .numerics.campaign import CHECKS, COMPONENTS, payload_summary

    if args.resume and not args.store_path:
        raise _UsageError("--resume requires --store")
    _check_store_path(args.store_path)
    _check_nonnegative(("--workers", args.workers))
    try:
        if args.functionals:
            functionals = [
                get_functional(name.strip())
                for name in args.functionals.split(",")
                if name.strip()
            ]
        else:
            functionals = list(all_functionals())
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    checks = tuple(
        part.strip()
        for part in (args.check or ",".join(CHECKS)).split(",")
        if part.strip()
    )
    components = tuple(
        part.strip()
        for part in (args.components or "fc").split(",")
        if part.strip()
    )
    if not functionals or not checks or not components:
        raise _UsageError("empty --functionals/--check/--components slice")
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise _UsageError(f"unknown checks: {sorted(unknown)}")
    unknown = set(components) - set(COMPONENTS)
    if unknown:
        raise _UsageError(f"unknown components: {sorted(unknown)}")

    def on_cell(key, payload, from_store):
        origin = " [store]" if from_store else ""
        print(f"{payload_summary(key, payload)}{origin}")

    result = run_numerics_campaign(
        functionals,
        components=components,
        checks=checks,
        max_workers=args.workers,
        store=args.store_path,
        resume=args.resume,
        on_cell=on_cell,
    )
    table = table_three_from_cells(result.cells)
    print(table.render())
    print(
        f"numerics campaign: {len(result.computed)} cells computed, "
        f"{len(result.store_hits)} from store"
        + (" [interrupted]" if result.interrupted else "")
    )
    if result.interrupted:
        from .obs.logging import log_event

        log_event(
            "campaign.interrupted",
            "warning: interrupted before completion -- missing cells are "
            "absent above; re-run with --store/--resume to continue",
            level="warning",
            computed=len(result.computed),
            store_hits=len(result.store_hits),
        )
    if args.json_path:
        write_json(args.json_path, table_three_to_json(table))
        print(f"wrote {args.json_path}")
    return 130 if result.interrupted else 0


def _cmd_stats(args) -> int:
    """Print the per-pair timing aggregates of a store's verify cells.

    Rows are sorted by total elapsed descending, so the costliest pair
    comes first; ties keep (functional, condition) order.
    """
    import os

    from .verifier.store import aggregate_timings, open_store

    _check_store_path(args.store_path)
    # open_store creates missing files; a stats query must not
    if not os.path.exists(args.store_path):
        raise _UsageError(f"store not found: {args.store_path}")
    store = open_store(args.store_path)
    try:
        timings = aggregate_timings(store.iter_timings())
    finally:
        store.close()
    if not timings:
        raise _UsageError(
            f"no verify-cell timings in {args.store_path} "
            "(run a campaign with --store first)"
        )
    header = (
        f"{'functional':12s} {'condition':9s} {'cells':>5s} "
        f"{'total_s':>9s} {'mean_s':>9s} {'p99_s':>9s} {'compile%':>8s}"
    )
    print(header)
    print("-" * len(header))
    ordered = sorted(
        timings.items(), key=lambda item: (-item[1].total_seconds, item[0])
    )
    for (functional, condition), t in ordered:
        print(
            f"{functional:12s} {condition:9s} {t.count:5d} "
            f"{t.total_seconds:9.3f} {t.mean_seconds:9.4f} "
            f"{t.p99_seconds:9.4f} {100.0 * t.compile_share:7.1f}%"
        )
    print(
        f"{len(timings)} pairs, "
        f"{sum(t.count for t in timings.values())} cells, "
        f"{sum(t.total_seconds for t in timings.values()):.3f}s total elapsed"
    )
    return 0


def _cmd_check(args) -> int:
    """Run both statan tiers; exit 0 clean, 1 on findings, 2 on usage."""
    from .statan import run_check

    # check reports usage errors as exit 2 (not the _UsageError exit 1
    # of the verification commands): CI gates on "1 means findings",
    # so a typo'd invocation must be distinguishable from a dirty tree
    if args.deep < 0:
        print("error: --deep must be >= 0", file=sys.stderr)
        return 2
    try:
        functionals = _split_names(args.functionals)
        conditions = _split_names(args.conditions)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_check(
            paths=args.paths or None,
            rules=args.rules,
            deep=args.deep,
            functionals=functionals,
            conditions=conditions,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # unknown functional / condition name
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    if args.json_path:
        import json

        payload = json.dumps(report.as_json(), indent=2, sort_keys=True)
        if args.json_path == "-":
            print(payload)
        else:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    for finding in report.sorted_findings():
        print(finding.line())
    print(report.summary())
    return 0 if report.clean else 1


def _cmd_trace(args) -> int:
    """Inspect a recorded trace: summary / lint / Chrome export."""
    import json
    import os

    from .obs.export import (
        chrome_trace,
        lint_trace,
        load_trace,
        summarize_trace,
        write_chrome_trace,
    )

    if not os.path.exists(args.trace_file):
        raise _UsageError(f"trace not found: {args.trace_file}")
    try:
        header, spans = load_trace(args.trace_file)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    if args.trace_command == "summary":
        if args.top < 1:
            raise _UsageError(f"--top must be >= 1, got {args.top}")
        print(summarize_trace(header, spans, top=args.top))
        return 0
    if args.trace_command == "export":
        if args.chrome_path == "-":
            print(json.dumps(chrome_trace(header, spans)))
        else:
            write_chrome_trace(header, spans, args.chrome_path)
            print(f"wrote {args.chrome_path} ({len(spans)} spans)")
        return 0
    # lint: CI gates on this -- 0 clean, 1 problems, one line each
    problems = lint_trace(header, spans)
    for problem in problems:
        print(f"trace-lint: {problem}")
    print(
        f"{args.trace_file}: {len(spans)} spans, "
        f"{len(problems)} problem{'s' if len(problems) != 1 else ''}"
    )
    return 1 if problems else 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service.server import serve

    _check_nonnegative(("--workers", args.workers))
    try:
        return asyncio.run(
            serve(
                args.store_path,
                host=args.host,
                port=args.port,
                max_workers=args.workers,
                tokens_file=args.tokens_file,
                rate=args.rate,
                burst=args.burst,
                high_water=args.high_water,
                audit_path=args.audit_path,
            )
        )
    except ValueError as exc:  # e.g. unknown store suffix, bad tokens file
        raise _UsageError(str(exc)) from None
    except FileNotFoundError as exc:  # missing tokens file
        raise _UsageError(str(exc)) from None
    except OSError as exc:  # port in use, bind refused
        raise _UsageError(f"cannot bind {args.host}:{args.port}: {exc}") from None


def _split_names(text: str | None) -> list[str] | None:
    if text is None:
        return None
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise _UsageError("empty name list")
    return names


def _submit_spec(args) -> dict:
    """The job payload for the service, mirroring the direct commands'
    defaults so service-rendered artifacts diff clean against them."""
    if args.job_kind == "verify":
        return {
            "kind": "verify",
            "functional": args.functional,
            "condition": args.condition,
            "config": {
                "per_call_budget": args.budget,
                "global_step_budget": args.global_budget,
                "split_threshold": args.threshold,
                "delta": args.delta,
            },
        }
    if args.job_kind == "table1":
        spec: dict = {
            "kind": "table1",
            "config": {
                "per_call_budget": args.budget,
                "global_step_budget": args.global_budget,
            },
        }
        if args.functionals:
            spec["functionals"] = _split_names(args.functionals)
        if args.conditions:
            spec["conditions"] = _split_names(args.conditions)
        return spec
    spec = {"kind": "numerics"}
    if args.functionals:
        spec["functionals"] = _split_names(args.functionals)
    if args.components:
        spec["components"] = _split_names(args.components)
    if args.check:
        spec["checks"] = _split_names(args.check)
    return spec


def _render_submit_result(args, result: dict) -> None:
    """Rebuild the direct command's artifact from service cell payloads."""
    from .analysis.export import write_json

    cells = result["cells"]
    if args.job_kind == "verify":
        from .verifier.store import report_from_payload

        for entry in cells.values():
            if "payload" in entry:
                print(report_from_payload(entry["payload"]).summary())
        return
    if args.job_kind == "table1":
        from .analysis import table_one_from_reports
        from .analysis.export import table_to_json
        from .conditions import get_condition
        from .conditions.catalog import PAPER_CONDITIONS
        from .functionals import get_functional, paper_functionals
        from .verifier.store import report_from_payload

        functionals = (
            tuple(get_functional(n) for n in _split_names(args.functionals))
            if args.functionals
            else paper_functionals()
        )
        conditions = (
            tuple(get_condition(c) for c in _split_names(args.conditions))
            if args.conditions
            else PAPER_CONDITIONS
        )
        reports = {}
        for entry in cells.values():
            if "payload" in entry:
                report = report_from_payload(entry["payload"])
                reports[(report.functional_name, report.condition_id)] = report
        table = table_one_from_reports(reports, functionals, conditions)
        print(table.render())
        if args.json_path:
            write_json(args.json_path, table_to_json(table))
            print(f"wrote {args.json_path}")
        return
    # numerics
    from .analysis import table_three_from_cells, table_three_to_json

    payloads = {
        tuple(address.split("/")): entry["payload"]
        for address, entry in cells.items()
        if "payload" in entry
    }
    table = table_three_from_cells(payloads)
    print(table.render())
    if args.json_path:
        write_json(args.json_path, table_three_to_json(table))
        print(f"wrote {args.json_path}")


def _cmd_submit(args) -> int:
    from .service.client import ServiceClient, ServiceError

    if args.json_path and args.job_kind == "verify":
        raise _UsageError("--json renders tables; verify jobs print summaries")

    last_line = [None]

    def on_progress(event: dict) -> None:
        if args.quiet:
            return
        sources = event["sources"]
        line = (
            f"progress: {event['resolved']}/{event['cells']} cells "
            f"(computed {sources['computed']}, cache {sources['cache']}, "
            f"coalesced {sources['coalesced']})"
        )
        if line != last_line[0]:
            print(line, flush=True)
            last_line[0] = line

    import os

    token = args.token or os.environ.get("REPRO_SERVICE_TOKEN")
    try:
        client = ServiceClient(args.url, token=token)
        result = client.run(
            _submit_spec(args),
            on_progress=on_progress,
            submit_retries=max(0, args.retries),
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sources = result["sources"]
    print(
        f"service job {result['id']} {result['state']}: "
        f"{sources['computed']} computed, {sources['cache']} from cache, "
        f"{sources['coalesced']} coalesced"
    )
    if args.raw_json_path:
        from .analysis.export import job_result_to_json, write_json

        write_json(args.raw_json_path, job_result_to_json(result))
        print(f"wrote {args.raw_json_path}")
    if result["state"] == "failed":
        for address, entry in result["cells"].items():
            if "error" in entry:
                print(f"error: cell {address}: {entry['error']}", file=sys.stderr)
        return 1
    _render_submit_result(args, result)
    if result["state"] == "cancelled":
        print(
            "warning: server drained before completion -- completed cells "
            "are durable in its store; resubmit to continue",
            file=sys.stderr,
        )
        return 130
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "pb": _cmd_pb,
    "compare": _cmd_compare,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "campaign": _cmd_campaign,
    "numerics": _cmd_numerics,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "stats": _cmd_stats,
    "check": _cmd_check,
    "trace": _cmd_trace,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
