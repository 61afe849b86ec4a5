"""Campaign-scale Section VI-C numerics sweep.

The continuity, hazard and sensitivity analyses of this package started as
one-shot CLI calls on a single (functional, component) pair.  The paper's
Section VI-C, however, attributes *systemic* DFT failures to these exact
evaluation hazards, and the ROADMAP's north star asks the analysis layer
to sweep "as many scenarios as you can imagine" -- every registered
functional, every component, both reachability semantics, under finite
budgets, without losing work to a crash.

This module promotes the analyses to a first-class campaign workload on
the exact machinery PR 3 built for the verifier:

* one **analysis cell** = (functional x component x check x semantics) --
  ``continuity``, ``hazards`` under both ``branch_aware`` semantics
  (scalar-evaluator reachability vs the compiled kernel's ``np.where``
  both-branches semantics), and ``sensitivity`` condition-number maps;
* each cell is one chunk on the **same shared work-pulling pool**
  (:func:`repro.verifier.campaign.drive_chunks`) the verification
  campaign uses -- an ``executor`` can literally be shared between a
  Table I run and a numerics sweep -- and hazard-formula solves inside
  each cell run through the batched frontier solver;
* completed cells persist immediately to the **same content-hash-keyed
  store** (:mod:`repro.verifier.store`, generalised from verify-cells to
  arbitrary payload kinds), keyed by the compiled expression tape
  bit-for-bit + domain + the check's semantic parameters, so ``--resume``
  is sound: any change to a functional's model code, the lifter, the
  expression builder or an analysis parameter misses cleanly;
* results are JSON-safe payload dicts built by pure functions of the
  underlying reports, so the campaign output is **bit-identical to the
  sequential per-pair path** regardless of worker count or completion
  order (pinned by the differential corpus in
  ``tests/numerics/test_campaign.py``), and a SIGINT returns a partial
  result whose completed cells are already durable.

``repro numerics --all`` drives this end to end and renders the
aggregation as Table III (:func:`repro.analysis.tables.table_three_from_cells`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..expr.codegen import CODEGEN_SEMANTICS_VERSION
from ..functionals.base import Functional
from ..functionals.registry import all_functionals, get_functional
from ..obs.metrics import REGISTRY
from ..obs.trace import SpanRecorder, current_tracer
from ..solver.icp import Budget, ICPSolver
from ..solver.interval import KERNEL_SEMANTICS_VERSION
from ..solver.tape import stable_digest, tape_for
from ..verifier.campaign import CampaignConfig, drive_chunks, effective_workers
from ..verifier.store import SCHEMA_VERSION, CampaignStore, open_store
from .continuity import ContinuityReport, check_continuity
from .hazards import HazardReport, check_hazards
from .sensitivity import SensitivityMap, sensitivity_map

__all__ = [
    "CHECKS",
    "COMPONENTS",
    "NumericsCampaignResult",
    "NumericsConfig",
    "cell_condition_id",
    "cell_content_key",
    "component_applies",
    "continuity_payload",
    "hazards_payload",
    "numerics_cells",
    "run_numerics_campaign",
    "run_numerics_cell",
    "sensitivity_payload",
]

#: the analysis kinds of Section VI-C, in canonical order
CHECKS = ("continuity", "hazards", "sensitivity")

#: analysable enhancement factors
COMPONENTS = ("fc", "fx", "fxc")

#: semantics tags: hazards run under both; the other checks are
#: semantics-free and carry the placeholder tag
SEM_BRANCH = "branch"
SEM_IEEE = "ieee"
SEM_NONE = "-"

#: a cell address: (functional_name, component, check, semantics)
CellKey = tuple[str, str, str, str]


@dataclass(frozen=True)
class NumericsConfig:
    """Semantic knobs of a numerics campaign.

    The fields feed the content-hash key of every cell (scoped per check:
    changing the continuity seed must not invalidate stored hazard
    cells).
    """

    # continuity
    n_base_points: int = 16
    bisection_steps: int = 80
    seed: int = 0
    # hazards
    delta: float = 1e-9
    hazard_budget: int = 5_000
    # sensitivity (grid resolution per input axis, by family arity)
    per_dim: int = 65
    per_dim_mgga: int = 33

    def __post_init__(self):
        # reject nonsense at construction (the CampaignConfig pattern)
        if self.n_base_points < 2:
            raise ValueError(
                f"n_base_points must be >= 2, got {self.n_base_points}"
            )
        if self.bisection_steps < 1:
            raise ValueError(
                f"bisection_steps must be >= 1, got {self.bisection_steps}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.hazard_budget < 1:
            raise ValueError(
                f"hazard_budget must be >= 1, got {self.hazard_budget}"
            )
        if self.per_dim < 2 or self.per_dim_mgga < 2:
            raise ValueError(
                f"per_dim/per_dim_mgga must be >= 2, got "
                f"{self.per_dim}/{self.per_dim_mgga}"
            )

    def semantic_key(self, check: str) -> tuple:
        if check == "continuity":
            return (self.n_base_points, self.bisection_steps, self.seed)
        if check == "hazards":
            return (self.delta, self.hazard_budget)
        if check == "sensitivity":
            return (self.per_dim, self.per_dim_mgga)
        raise ValueError(f"unknown check {check!r}")

    def make_hazard_solver(self) -> ICPSolver:
        return ICPSolver(delta=self.delta, precision=min(1e-4, self.delta * 100))


def component_applies(functional: Functional, component: str) -> bool:
    """Whether ``functional`` has the pieces ``component`` is built from."""
    if component == "fc":
        return functional.has_correlation
    if component == "fx":
        return functional.has_exchange
    if component == "fxc":
        return functional.has_exchange and functional.has_correlation
    raise ValueError(f"unknown component {component!r}")


def numerics_cells(
    functionals: Iterable[Functional],
    components: Iterable[str] = ("fc",),
    checks: Iterable[str] = CHECKS,
) -> list[CellKey]:
    """Enumerate the campaign's cells, in deterministic order.

    ``hazards`` expands to two cells, one per reachability semantics;
    components a functional lacks (e.g. ``fx`` of the correlation-only
    LYP) are skipped.
    """
    checks = tuple(checks)
    components = tuple(components)
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    unknown = set(components) - set(COMPONENTS)
    if unknown:
        raise ValueError(f"unknown components: {sorted(unknown)}")
    cells: list[CellKey] = []
    for functional in functionals:
        for component in components:
            if not component_applies(functional, component):
                continue
            for check in CHECKS:  # canonical order, not caller order
                if check not in checks:
                    continue
                if check == "hazards":
                    cells.append((functional.name, component, check, SEM_BRANCH))
                    cells.append((functional.name, component, check, SEM_IEEE))
                else:
                    cells.append((functional.name, component, check, SEM_NONE))
    return cells


def cell_content_key(
    functional: Functional,
    component: str,
    check: str,
    semantics: str,
    config: NumericsConfig,
) -> str:
    """Content-hash key of one analysis cell.

    Covers the compiled expression tape bit-for-bit (so any change to the
    functional's model code, the lifter, the expression builder or the
    tape compiler misses cleanly), the input domain, the cell address and the
    check's semantic parameters.  Like the verifier store keys, a hit
    therefore always implies a bit-identical payload -- and even a hit
    pays the lift + tape-compile that soundness of the content addressing
    is bought with.
    """
    expr = getattr(functional, component)()
    bounds = [(name, iv.lo, iv.hi) for name, iv in functional.domain().items()]
    return stable_digest(
        (
            "numerics-cell",
            # interval-kernel semantics version: sound rounding changes
            # (e.g. pow mult-chains) miss cleanly instead of serving
            # payloads computed under the old endpoint arithmetic
            KERNEL_SEMANTICS_VERSION,
            # and the NumPy kernels' (e.g. correctly rounded n-ary sums)
            CODEGEN_SEMANTICS_VERSION,
            tape_for(expr).fingerprint(),
            bounds,
            functional.name,
            component,
            check,
            semantics,
            list(config.semantic_key(check)),
        )
    )


# ---------------------------------------------------------------------------
# payload builders: pure, deterministic report -> JSON-safe dict
# ---------------------------------------------------------------------------

def _kind(check: str) -> str:
    return f"numerics/{check}"


def continuity_payload(report: ContinuityReport) -> dict:
    """Serialise a continuity report (order and floats preserved exactly)."""
    return {
        "v": SCHEMA_VERSION,
        "kind": _kind("continuity"),
        "boundaries": [b.describe() for b in report.boundaries],
        "findings": [
            {
                "guard": f.boundary.describe(),
                "point": {k: f.point[k] for k in sorted(f.point)},
                "value_jump": f.value_jump,
                "slope_jump": f.slope_jump,
                "bisected_var": f.bisected_var,
                "singular": f.singular,
            }
            for f in report.findings
        ],
        "max_value_jump": report.max_value_jump(),
        "max_slope_jump": report.max_slope_jump(),
        "singular_count": len(report.singular_findings()),
        "continuous": report.is_continuous(),
    }


def hazards_payload(report: HazardReport) -> dict:
    """Serialise a hazard report (verdict order is collection order)."""
    counts = report.counts()
    return {
        "v": SCHEMA_VERSION,
        "kind": _kind("hazards"),
        "branch_aware": report.branch_aware,
        "verdicts": [
            {
                "hazard": v.hazard.kind,
                "requirement": v.hazard.requirement(),
                "status": v.status,
                "witness": (
                    None
                    if v.witness is None
                    else {k: v.witness[k] for k in sorted(v.witness)}
                ),
                "solver_steps": v.solver_steps,
            }
            for v in report.verdicts
        ],
        "counts": {k: counts[k] for k in sorted(counts)},
        "is_total": report.is_total,
    }


def sensitivity_payload(smap: SensitivityMap) -> dict:
    """Serialise a sensitivity map's summary statistics.

    The full kappa grids stay out of the store (tens of thousands of
    floats per cell); the retained quantiles/argmax are what Table III
    and the paper's discussion need, and they are pure deterministic
    functions of the grid.
    """
    return {
        "v": SCHEMA_VERSION,
        "kind": _kind("sensitivity"),
        "kappa": {
            var: {
                **smap.stats(var),
                "argmax": {
                    k: v for k, v in sorted(smap.argmax(var).items())
                },
            }
            for var in sorted(smap.kappa)
        },
        "grid_shape": [len(smap.axes[name]) for name in sorted(smap.axes)],
    }


def payload_summary(key: CellKey, payload: dict) -> str:
    """One-line human summary of a cell payload (campaign progress lines)."""
    functional_name, component, check, semantics = key
    label = f"{functional_name}.{component} {check}"
    if semantics != SEM_NONE:
        label += f"[{semantics}]"
    if check == "continuity":
        n = len(payload["boundaries"])
        if n == 0:
            return f"{label}: analytic (no branch boundaries)"
        tail = f", {payload['singular_count']} singular" if payload["singular_count"] else ""
        return (
            f"{label}: {n} boundaries, max jump "
            f"{payload['max_value_jump']:.3g}{tail}"
        )
    if check == "hazards":
        counts = ", ".join(f"{k}={v}" for k, v in sorted(payload["counts"].items()))
        return f"{label}: {len(payload['verdicts'])} sites ({counts or 'none'})"
    kappas = [stats["max"] for stats in payload["kappa"].values()]
    peak = max(kappas) if kappas else float("nan")
    return f"{label}: max kappa {peak:.3g}"


def run_numerics_cell(
    functional: Functional, component: str, check: str, semantics: str,
    config: NumericsConfig,
) -> dict:
    """Run one analysis cell and return its payload.

    This *is* the sequential per-pair path: the campaign worker calls
    exactly this function, so a campaign's cells are bit-identical to
    driving the analyses by hand in a loop.
    """
    expr = getattr(functional, component)()
    domain = functional.domain()
    if check == "continuity":
        report = check_continuity(
            expr,
            domain,
            n_base_points=config.n_base_points,
            bisection_steps=config.bisection_steps,
            seed=config.seed,
        )
        payload = continuity_payload(report)
    elif check == "hazards":
        report = check_hazards(
            expr,
            domain,
            branch_aware=semantics == SEM_BRANCH,
            delta=config.delta,
            budget=Budget(max_steps=config.hazard_budget),
            solver=config.make_hazard_solver(),
        )
        payload = hazards_payload(report)
    elif check == "sensitivity":
        per_dim = (
            config.per_dim_mgga if functional.family == "MGGA" else config.per_dim
        )
        payload = sensitivity_payload(
            sensitivity_map(functional, component, per_dim=per_dim)
        )
    else:
        raise ValueError(f"unknown check {check!r}")
    payload["functional"] = functional.name
    payload["component"] = component
    payload["semantics"] = semantics
    return payload


def cell_condition_id(key: CellKey) -> str:
    """The store's ``condition_id`` metadata column for one analysis cell.

    Both the campaign's absorb loop and the verification service file
    cells under this same ``component:check:semantics`` label, so a store
    written by either is browsable by the other.
    """
    return f"{key[1]}:{key[2]}:{key[3]}"


def _numerics_worker(args):
    """Run one analysis cell in a worker process.

    ``args`` is ``(config, key)``; returns the cell's payload.  With a
    third dispatch-args element (a pickled
    :class:`~repro.obs.trace.SpanContext`) the worker additionally
    records a pid-stamped ``cell`` span under a ``chunk`` span and
    returns ``(payload, records)`` for the parent to reattach to the
    trace.
    """
    config, key = args[0], args[1]
    functional = get_functional(key[0])
    if len(args) == 2:
        return run_numerics_cell(functional, *key[1:], config)
    recorder = SpanRecorder(args[2])
    chunk_span = recorder.begin("chunk", "chunk")
    with recorder.span(
        f"cell:{key[0]}/{cell_condition_id(key)}", "cell", parent=chunk_span,
        functional=key[0], component=key[1], check=key[2], semantics=key[3],
    ):
        payload = run_numerics_cell(functional, *key[1:], config)
    recorder.finish(chunk_span)
    return payload, recorder.records


# ---------------------------------------------------------------------------
# result + driver
# ---------------------------------------------------------------------------

#: numerics-engine counters in the process-wide registry (the campaign
#: engine's chunk counter is shared with the verifier campaign)
_CELLS_COUNTER = REGISTRY.counter(
    "repro_numerics_cells_resolved_total",
    "Numerics analysis cells resolved, by how they resolved.",
)
_CHUNKS_COUNTER = REGISTRY.counter(
    "repro_campaign_chunks_total",
    "Work chunks dispatched by the campaign engine.",
)


@dataclass
class NumericsCampaignResult:
    """Everything a numerics campaign produced.

    ``cells`` maps the cell address to its payload dict.  ``store_hits``
    / ``computed`` record provenance; ``interrupted`` is True when the
    run was cut short (SIGINT) -- completed cells are still present and,
    with a store attached, already durable.
    """

    cells: dict[CellKey, dict] = field(default_factory=dict)
    store_hits: list[CellKey] = field(default_factory=list)
    computed: list[CellKey] = field(default_factory=list)
    cell_keys: dict[CellKey, str] = field(default_factory=dict)
    interrupted: bool = False

    def __getitem__(self, key: CellKey) -> dict:
        return self.cells[key]

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, key) -> bool:
        return key in self.cells

    def items(self):
        return self.cells.items()


def run_numerics_campaign(
    functionals: Iterable | None = None,
    *,
    components: Iterable[str] = ("fc",),
    checks: Iterable[str] = CHECKS,
    config: NumericsConfig | None = None,
    max_workers: int | None = 0,
    store: CampaignStore | str | os.PathLike | None = None,
    resume: bool = False,
    executor=None,
    on_cell: Callable[[CellKey, dict, bool], None] | None = None,
    tracer=None,
) -> NumericsCampaignResult:
    """Sweep the Section VI-C analyses over whole functional families.

    Parameters mirror :func:`repro.verifier.campaign.run_campaign`:
    ``functionals`` accepts objects or registry names (default: every
    registered functional); ``max_workers`` <= 1 runs in-process and
    deterministically ordered; ``store``/``resume`` persist and serve
    cells by content hash; ``executor`` shares an existing process pool
    (e.g. with a verification campaign -- the caller keeps ownership).
    Each cell is one chunk.  ``tracer`` (default: the ambient
    :func:`~repro.obs.trace.current_tracer`) emits the same span shape
    as the verification campaign -- a ``campaign`` span, per-chunk
    ``dispatch`` spans and worker-side ``chunk``/``cell`` spans -- and
    is purely observational: payloads and store contents are
    byte-identical with tracing on or off.  KeyboardInterrupt yields a
    partial result with ``interrupted`` set and everything completed
    already persisted.
    """
    config = config or NumericsConfig()
    CampaignConfig(max_workers=max_workers)  # loud one-line validation
    if functionals is None:
        resolved = list(all_functionals())
    else:
        resolved = [
            get_functional(f) if isinstance(f, str) else f for f in functionals
        ]
    seen: set[str] = set()
    uniq: list[Functional] = []
    for f in resolved:
        if f.name in seen:
            continue
        # workers re-resolve cells from the registry by name, so a
        # non-registry object would either crash there or -- worse -- have
        # the registry version's analysis persisted under the passed
        # object's content key, poisoning every later --resume hit
        try:
            registered = get_functional(f.name)
        except KeyError:
            registered = None
        if registered is not f:
            raise ValueError(
                f"functional {f.name!r} is not the registered instance; "
                "numerics campaigns analyse registry functionals "
                "(register() it first)"
            )
        seen.add(f.name)
        uniq.append(f)

    owns_store = isinstance(store, (str, os.PathLike))
    if owns_store:
        store = open_store(store)

    by_name = {f.name: f for f in uniq}
    result = NumericsCampaignResult()
    tracer = tracer if tracer is not None else current_tracer()
    campaign_span = None
    if tracer.enabled:
        campaign_span = tracer.begin(
            "campaign", "campaign", kind="numerics",
            workers=effective_workers(max_workers, executor),
        )
    try:
        work: list[CellKey] = []
        for key in numerics_cells(uniq, components, checks):
            functional_name, component, check, semantics = key
            if store is not None:
                content_key = cell_content_key(
                    by_name[functional_name], component, check, semantics, config
                )
                result.cell_keys[key] = content_key
                if resume:
                    payload = store.get_payload(content_key)
                    if payload is not None and payload.get("kind") == _kind(check):
                        result.cells[key] = payload
                        result.store_hits.append(key)
                        _CELLS_COUNTER.inc(result="store_hit")
                        if on_cell is not None:
                            on_cell(key, payload, True)
                        continue
            work.append(key)

        def absorb(key, payload):
            if isinstance(payload, tuple):
                payload, span_records = payload
                tracer.emit_records(span_records)
            result.cells[key] = payload
            result.computed.append(key)
            _CELLS_COUNTER.inc(result="computed")
            content_key = result.cell_keys.get(key)
            if store is not None and content_key is not None:
                store.put_payload(
                    content_key,
                    payload,
                    functional=key[0],
                    condition_id=cell_condition_id(key),
                )
            if on_cell is not None:
                on_cell(key, payload, False)

        _CHUNKS_COUNTER.inc(len(work))
        drive_chunks(
            [(key, (config, key)) for key in work],
            _numerics_worker,
            absorb,
            max_workers=max_workers,
            executor=executor,
            tracer=tracer,
            chunk_trace=lambda key: (
                campaign_span, f"{key[0]}/{cell_condition_id(key)}"
            ),
        )
    except KeyboardInterrupt:
        result.interrupted = True
    finally:
        if campaign_span is not None:
            tracer.finish(
                campaign_span,
                computed=len(result.computed),
                store_hits=len(result.store_hits),
                interrupted=result.interrupted,
            )
        if owns_store:
            store.close()
    return result
