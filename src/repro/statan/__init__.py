"""Static analysis for the reproduction: ``repro check``.

Two tiers, one report:

* **tapecheck** -- a verifier for the compiled tape IR
  (:mod:`repro.solver.tape`): structural well-formedness (SSA, bounds,
  aux consistency), fingerprint/runtime agreement, and a silent-NaN
  reachability analysis by abstract interpretation over the interval
  domain.  Runs over the full functional x condition corpus.
* **rules** -- project-specific AST lint rules (``REP1xx``) with a
  per-file allowlist: rounding discipline, content-key purity, asyncio
  hygiene, fork-safety, loud validation.

See :func:`repro.statan.runner.run_check` for the entry point and the
README's rules reference for the invariant behind each id.
"""

from .report import Finding, Report
from .runner import all_rule_ids, run_check

__all__ = ["Finding", "Report", "all_rule_ids", "run_check"]
