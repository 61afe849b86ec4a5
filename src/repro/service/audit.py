"""Append-only JSONL audit log of service submissions and auth denials.

Mirrors tritium-sc's ``audit_middleware`` shape with the same durability
contract as the campaign store -- the shared skip-truncated-tail /
seal-on-reopen discipline now lives in :mod:`repro.obs.jsonl`, and this
log is one thin layer over it: one JSON object per line, flushed per
write, a line cut short by SIGTERM/kill mid-write is skipped by the
reader and sealed on reopen.

What gets logged (one entry per *decision*, never per poll):

* every ``POST /v1/jobs`` outcome: client id, job kind, the job id and
  truncated content-key digests when accepted, the machine-readable
  rejection code when not;
* every authentication failure, on any route.

Entries carry wall-clock ``ts`` and the process ``run_id`` (the join
key against the structured log and trace streams, see
:mod:`repro.obs.logging`) and are JSON-safe; nothing secret is written
(tokens never appear, only client ids).
"""

from __future__ import annotations

from ..obs.clock import wall_now
from ..obs.jsonl import JsonlWriter, read_jsonl
from ..obs.logging import run_id

__all__ = ["AuditLog", "read_audit_log"]

#: content keys are sha256 hex; this prefix is plenty to join against
#: the store while keeping accepted-job entries one line
DIGEST_CHARS = 12
#: cap per-entry digests so a huge numerics job cannot bloat the log
MAX_KEYS_LOGGED = 32


def read_audit_log(path) -> list[dict]:
    """Parse an audit log, skipping a tail truncated by a kill mid-write."""
    return read_jsonl(path)


class AuditLog:
    """One append-only JSONL file; writes are locked and flushed."""

    def __init__(self, path):
        self.path = str(path)
        self._writer = JsonlWriter(self.path)

    def _write(self, entry: dict) -> None:
        entry["run_id"] = run_id()
        self._writer.write(entry)

    # -- the two event shapes ---------------------------------------------
    def submission(
        self,
        client: str,
        kind: str,
        decision: str,
        *,
        job_id: str | None = None,
        cells: int | None = None,
        content_keys=(),
    ) -> None:
        """One ``POST /jobs`` decision: ``accepted`` or ``rejected:<code>``."""
        entry: dict = {
            "ts": wall_now(),
            "event": "submit",
            "client": client,
            "kind": kind,
            "decision": decision,
        }
        if job_id is not None:
            entry["job_id"] = job_id
        if cells is not None:
            entry["cells"] = cells
        if content_keys:
            digests = [key[:DIGEST_CHARS] for key in content_keys]
            entry["keys"] = digests[:MAX_KEYS_LOGGED]
            if len(digests) > MAX_KEYS_LOGGED:
                entry["keys_truncated"] = len(digests) - MAX_KEYS_LOGGED
        self._write(entry)

    def auth_failure(self, code: str, path: str) -> None:
        self._write(
            {
                "ts": wall_now(),
                "event": "auth",
                "client": "-",
                "decision": f"rejected:{code}",
                "path": path,
            }
        )

    def close(self) -> None:
        self._writer.close()
