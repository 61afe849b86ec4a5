"""Orchestration for ``repro check``: both tiers, allowlist, report.

Tier 2 (the REP AST rules) runs over the requested source paths
(default: the whole ``src/repro`` tree).  Tier 1 (the TAPE corpus
verifier) runs whenever any TAPE rule is selected, over the
functional x condition corpus -- optionally sliced for fast targeted
runs.  Findings suppressed by the allowlist never reach the report;
stale allowlist entries surface as REP100 findings on full runs.
"""

from __future__ import annotations

from pathlib import Path

from .allowlist import default_allowlist_path, load_allowlist
from .astcheck import collect_modules, repo_root
from .report import Report
from .rules import REP_RULES, run_rules
from .tapecheck import TAPE_CHECKS, check_corpus

__all__ = ["all_rule_ids", "run_check"]


def all_rule_ids() -> tuple[str, ...]:
    """Every known rule id, TAPE tier first, in registry order."""
    return (*TAPE_CHECKS, *REP_RULES)


def run_check(
    paths=None,
    rules=None,
    deep: int = 0,
    functionals=None,
    conditions=None,
    allowlist_path=None,
    guards=None,
) -> Report:
    """Run ``repro check`` and return the populated :class:`Report`.

    ``paths``: source files/dirs for the AST tier (None = ``src/repro``;
    a full default run also audits allowlist staleness).
    ``rules``: iterable of rule ids to run (None = all; unknown ids
    raise ``ValueError``).
    ``deep``: TAPE108 domain-refinement depth (axis halvings).
    ``functionals``/``conditions``: slice the tape corpus by name.
    """
    known = all_rule_ids()
    if rules is not None:
        rules = tuple(rules)
        unknown = sorted(set(rules) - set(known))
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; known rules: {', '.join(known)}"
            )
        selected = frozenset(rules)
    else:
        selected = frozenset(known)

    full_tree = paths is None
    if full_tree:
        paths = [repo_root() / "src" / "repro"]
    paths = [Path(p) for p in paths]

    report = Report(rules_run=tuple(r for r in known if r in selected))
    allow = load_allowlist(allowlist_path, known_rules=known)
    if "REP100" in selected:
        report.extend(allow.findings)

    # --- tier 2: AST rules over the tree --------------------------------
    rep_selected = {r for r in selected if r.startswith("REP")} - {"REP100"}
    modules = collect_modules(paths)
    report.files_checked = len(modules)
    if rep_selected:
        for finding in run_rules(modules, rep_selected):
            if not allow.suppresses(finding):
                report.findings.append(finding)

    # --- tier 1: tape corpus --------------------------------------------
    tape_selected = {r for r in selected if r.startswith("TAPE")}
    if tape_selected:
        for finding in check_corpus(
            functionals=functionals,
            conditions=conditions,
            deep=deep,
            guards=guards,
            rules=tape_selected,
            report=report,
        ):
            if not allow.suppresses(finding):
                report.findings.append(finding)

    # stale-entry audit only when the run covered everything an entry
    # could match: the default tree, every rule, the default allowlist
    if (
        full_tree
        and rules is None
        and allowlist_path is None
        and "REP100" in selected
    ):
        for entry in allow.unused_entries():
            report.findings.append(
                _stale_entry_finding(entry, default_allowlist_path())
            )
    return report


def _stale_entry_finding(entry, path):
    from .report import Finding

    return Finding(
        "REP100",
        f"{path.name}:{entry.lineno}",
        "allowlist",
        f"stale entry ({entry.rule} {entry.path_glob} {entry.symbol_glob}) "
        "suppresses nothing -- remove it or fix the glob",
    )
