"""Table harnesses: verification outcomes and the numerics sweep.

Table I runs the campaign engine over the 31 applicable pairs and renders
the paper's matrix (rows = local conditions, columns = DFAs, cells in
{OK, OK*, CEX, ?, -}).  Table III -- this reproduction's extension --
aggregates the Section VI-C numerics campaign: per (functional,
component) hazard/benign/safe counts under both reachability semantics,
branch-boundary continuity, and peak input sensitivity.  Both campaigns
persist every completed cell to the result store as it finishes, so an
interrupted run resumes where it stopped and re-runs are cache hits for
every unchanged cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..conditions.base import Condition
from ..conditions.catalog import PAPER_CONDITIONS, applicable_pairs
from ..functionals.base import Functional
from ..functionals.registry import paper_functionals
from ..verifier.campaign import CampaignResult, run_campaign
from ..verifier.regions import SYMBOL_NOT_APPLICABLE, VerificationReport
from ..verifier.verifier import VerifierConfig

__all__ = [
    "PAPER_TABLE_ONE",
    "TableOne",
    "TableThree",
    "applicable_pairs",  # re-exported: the canonical list lives in the catalog
    "print_cell",
    "run_table_campaign",
    "run_table_one",
    "table_one_from_reports",
    "table_three_from_cells",
]


@dataclass
class TableOne:
    """Rendered verification matrix plus the underlying reports."""

    functionals: tuple[Functional, ...]
    conditions: tuple[Condition, ...]
    reports: dict[tuple[str, str], VerificationReport] = field(default_factory=dict)

    def symbol(self, functional: Functional, condition: Condition) -> str:
        report = self.reports.get((functional.name, condition.cid))
        if report is None:
            return SYMBOL_NOT_APPLICABLE
        return report.classification()

    def row(self, condition: Condition) -> list[str]:
        return [self.symbol(f, condition) for f in self.functionals]

    def as_dict(self) -> dict[str, dict[str, str]]:
        return {
            c.cid: {f.name: self.symbol(f, c) for f in self.functionals}
            for c in self.conditions
        }

    def render(self) -> str:
        """Plain-text rendering in the paper's layout."""
        name_width = max(len(c.name) + len(c.equation) + 3 for c in self.conditions)
        col_width = max(max(len(f.name) for f in self.functionals) + 2, 9)
        lines = []
        header = " " * name_width + "".join(
            f.name.rjust(col_width) for f in self.functionals
        )
        lines.append("Table I: verifying local conditions for DFT exact conditions")
        lines.append(header)
        lines.append("-" * len(header))
        for condition in self.conditions:
            label = f"{condition.name} ({condition.equation})".ljust(name_width)
            cells = "".join(s.rjust(col_width) for s in self.row(condition))
            lines.append(label + cells)
        lines.append("-" * len(header))
        lines.append(
            "OK = verified on the whole domain; OK* = partially verified "
            "(rest timeout/inconclusive); CEX = counterexample found; "
            "? = timeout/inconclusive everywhere; - = not applicable"
        )
        return "\n".join(lines)


def print_cell(key: tuple[str, str], report, from_store: bool) -> None:
    """Default per-cell progress printer (the ``on_cell`` of verbose runs)."""
    origin = " [store]" if from_store else ""
    print(f"{report.summary()}{origin}")


def run_table_one(
    config: VerifierConfig | None = None,
    functionals: tuple[Functional, ...] | None = None,
    conditions: tuple[Condition, ...] | None = None,
    verbose: bool = False,
    *,
    max_workers: int = 0,
    store=None,
    resume: bool = False,
    on_cell=None,
) -> TableOne:
    """Run the verification campaign and assemble Table I.

    ``max_workers=0`` (default) runs in-process and sequentially --
    bit-identical to driving :class:`Verifier` by hand per pair.  With a
    ``store`` (path or :class:`~repro.verifier.store.CampaignStore`),
    completed cells persist immediately; ``resume=True`` serves unchanged
    cells from the store instead of recomputing them.  An interrupt
    (SIGINT) yields a *partial* table -- cells finished before the
    interrupt are present and already stored; use
    :func:`run_table_campaign` when the caller needs the interrupted
    flag.
    """
    functionals = tuple(functionals or paper_functionals())
    conditions = tuple(conditions or PAPER_CONDITIONS)
    table = TableOne(functionals=functionals, conditions=conditions)
    result = run_table_campaign(
        config,
        functionals,
        conditions,
        verbose=verbose,
        max_workers=max_workers,
        store=store,
        resume=resume,
        on_cell=on_cell,
    )
    table.reports.update(result.reports)
    return table


def run_table_campaign(
    config: VerifierConfig | None = None,
    functionals: tuple[Functional, ...] | None = None,
    conditions: tuple[Condition, ...] | None = None,
    verbose: bool = False,
    *,
    max_workers: int = 0,
    store=None,
    resume: bool = False,
    on_cell=None,
) -> CampaignResult:
    """The raw campaign behind Table I/II: reports for every applicable pair."""
    if verbose and on_cell is None:
        on_cell = print_cell

    return run_campaign(
        applicable_pairs(functionals, conditions),
        config,
        max_workers=max_workers,
        store=store,
        resume=resume,
        on_cell=on_cell,
    )


def table_one_from_reports(
    reports: dict[tuple[str, str], VerificationReport],
    functionals: tuple[Functional, ...] | None = None,
    conditions: tuple[Condition, ...] | None = None,
) -> TableOne:
    """Assemble Table I from already-computed (e.g. stored) reports."""
    table = TableOne(
        functionals=tuple(functionals or paper_functionals()),
        conditions=tuple(conditions or PAPER_CONDITIONS),
    )
    table.reports.update(reports)
    return table


@dataclass
class TableThree:
    """Aggregated Section VI-C numerics campaign: one row per analysed
    (functional, component) pair.

    Built from the cell payloads of
    :func:`repro.numerics.campaign.run_numerics_campaign` by
    :func:`table_three_from_cells`.  ``as_dict`` is the canonical
    (CI-diffable) form: rows are sorted, so the table is deterministic
    regardless of the campaign's completion order, and two campaigns
    whose cells are bit-identical render bit-identical tables.
    """

    cells: dict[tuple[str, str, str, str], dict] = field(default_factory=dict)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted({(k[0], k[1]) for k in self.cells})

    def _cell(self, functional: str, component: str, check: str, semantics: str):
        return self.cells.get((functional, component, check, semantics))

    def as_dict(self) -> dict:
        out: dict = {}
        for functional, component in self.pairs():
            row: dict = {}
            hazards = {}
            for semantics in ("branch", "ieee"):
                payload = self._cell(functional, component, "hazards", semantics)
                if payload is not None:
                    hazards[semantics] = {
                        "counts": dict(payload["counts"]),
                        "sites": len(payload["verdicts"]),
                        "total": payload["is_total"],
                    }
            if hazards:
                row["hazards"] = hazards
            payload = self._cell(functional, component, "continuity", "-")
            if payload is not None:
                row["continuity"] = {
                    "boundaries": len(payload["boundaries"]),
                    "max_value_jump": payload["max_value_jump"],
                    "max_slope_jump": payload["max_slope_jump"],
                    "singular": payload["singular_count"],
                    "continuous": payload["continuous"],
                }
            payload = self._cell(functional, component, "sensitivity", "-")
            if payload is not None:
                row["sensitivity"] = {
                    "max_kappa": {
                        var: stats["max"] for var, stats in payload["kappa"].items()
                    }
                }
            out[f"{functional}/{component}"] = row
        return out

    @staticmethod
    def _counts_text(entry) -> str:
        if entry is None:
            return "-"
        counts = entry["counts"]
        order = ("safe", "benign", "hazard", "inconclusive", "timeout")
        short = {"safe": "s", "benign": "b", "hazard": "H", "inconclusive": "?",
                 "timeout": "t"}
        parts = [f"{short[k]}{counts[k]}" for k in order if counts.get(k)]
        return " ".join(parts) if parts else "none"

    def render(self) -> str:
        """Plain-text rendering alongside Table I/II."""
        lines = [
            "Table III: Section VI-C numerics sweep "
            "(s=safe b=benign H=hazard ?=inconclusive t=timeout)",
        ]
        header = (
            f"{'pair':22s} {'hazards[branch]':>16s} {'hazards[ieee]':>16s} "
            f"{'continuity':>22s} {'max kappa':>12s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        rows = self.as_dict()
        for functional, component in self.pairs():
            row = rows[f"{functional}/{component}"]
            hazards = row.get("hazards", {})
            branch = self._counts_text(hazards.get("branch"))
            ieee = self._counts_text(hazards.get("ieee"))
            continuity = row.get("continuity")
            if continuity is None:
                cont_text = "-"
            elif continuity["boundaries"] == 0:
                cont_text = "analytic"
            elif continuity["singular"]:
                cont_text = f"SINGULAR x{continuity['singular']}"
            elif continuity["continuous"]:
                cont_text = f"C0 ({continuity['boundaries']} bnd)"
            else:
                cont_text = f"jump {continuity['max_value_jump']:.3g}"
            sens = row.get("sensitivity")
            if sens is None or not sens["max_kappa"]:
                kappa_text = "-"
            else:
                kappa_text = f"{max(sens['max_kappa'].values()):.3g}"
            lines.append(
                f"{functional + '/' + component:22s} {branch:>16s} {ieee:>16s} "
                f"{cont_text:>22s} {kappa_text:>12s}"
            )
        return "\n".join(lines)


def table_three_from_cells(
    cells: dict[tuple[str, str, str, str], dict]
) -> TableThree:
    """Assemble Table III from numerics campaign cells (or a store dump)."""
    return TableThree(cells=dict(cells))


#: the paper's published Table I, used by tests/benches as the reference shape
PAPER_TABLE_ONE: dict[str, dict[str, str]] = {
    "EC1": {"PBE": "OK*", "LYP": "CEX", "AM05": "OK", "SCAN": "?", "VWN RPA": "OK"},
    "EC2": {"PBE": "OK*", "LYP": "CEX", "AM05": "OK*", "SCAN": "?", "VWN RPA": "OK"},
    "EC3": {"PBE": "?", "LYP": "CEX", "AM05": "?", "SCAN": "?", "VWN RPA": "OK"},
    "EC6": {"PBE": "OK*", "LYP": "CEX", "AM05": "OK", "SCAN": "?", "VWN RPA": "OK"},
    "EC7": {"PBE": "CEX", "LYP": "CEX", "AM05": "OK*", "SCAN": "?", "VWN RPA": "OK*"},
    "EC4": {"PBE": "OK*", "LYP": "-", "AM05": "?", "SCAN": "?", "VWN RPA": "-"},
    "EC5": {"PBE": "OK", "LYP": "-", "AM05": "?", "SCAN": "?", "VWN RPA": "-"},
}
