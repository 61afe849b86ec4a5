"""Finding records and report rendering shared by both statan tiers.

A :class:`Finding` is one violated invariant: the rule id names the
invariant (``TAPE1xx`` for the tape-IR verifier, ``REP1xx`` for the AST
lint rules), ``where`` locates it (``path:line`` for source findings,
``tape:<label>`` for tape findings), ``symbol`` narrows it to the
enclosing function / instruction, and ``message`` is the one-line
diagnostic ``repro check`` prints.  The :class:`Report` aggregates the
findings of a run together with coverage counters, so "zero findings"
is distinguishable from "checked nothing".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One violated invariant, renderable as a one-line diagnostic."""

    rule: str
    where: str
    symbol: str
    message: str

    def line(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.rule} {self.where}{sym}: {self.message}"

    def as_json(self) -> dict:
        return {
            "rule": self.rule,
            "where": self.where,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class Report:
    """Findings plus coverage counters for one ``repro check`` run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    tapes_checked: int = 0
    pairs_checked: int = 0
    rules_run: tuple[str, ...] = ()
    #: abstract-interpretation coverage: partial-function call sites whose
    #: inputs provably stay in-domain vs sites that may go out of domain
    #: but are guarded by the executors' domain checks (an *unguarded*
    #: maybe-site is a TAPE108 finding, so it never lands in a counter)
    nan_sites_safe: int = 0
    nan_sites_guarded: int = 0

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def sorted_findings(self) -> list[Finding]:
        return sorted(
            self.findings, key=lambda f: (f.rule, f.where, f.symbol, f.message)
        )

    def summary(self) -> str:
        scope = (
            f"{self.files_checked} files, {self.pairs_checked} pairs, "
            f"{self.tapes_checked} tapes, {len(self.rules_run)} rules"
        )
        if self.clean:
            return f"repro check: clean ({scope})"
        n = len(self.findings)
        return f"repro check: {n} finding{'s' if n != 1 else ''} ({scope})"

    def as_json(self) -> dict:
        return {
            "clean": self.clean,
            "findings": [f.as_json() for f in self.sorted_findings()],
            "files_checked": self.files_checked,
            "tapes_checked": self.tapes_checked,
            "pairs_checked": self.pairs_checked,
            "rules_run": list(self.rules_run),
            "nan_sites_safe": self.nan_sites_safe,
            "nan_sites_guarded": self.nan_sites_guarded,
        }
