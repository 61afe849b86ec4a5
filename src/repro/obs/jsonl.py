"""The append-only JSONL durability discipline, in one place.

Three subsystems persist line-oriented JSON with the same crash
contract -- the campaign store, the service audit log and the trace
sink: one JSON object per line, flushed per write, and a line cut short
by SIGTERM/kill mid-write is tolerated.  Tolerated means two things:

* **readers skip the truncated tail** -- a line that fails to parse is
  dropped, never propagated as corruption;
* **reopening seals it** -- before appending, a file whose last byte is
  not a newline gets one, so the next record starts clean instead of
  merging into the corrupt tail.

This module is the single implementation both halves share; the store,
the audit log and the trace sink are thin layers over it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Iterator

__all__ = ["JsonlWriter", "iter_jsonl", "open_append_sealed", "read_jsonl"]


def iter_jsonl(path) -> Iterator[dict]:
    """Yield each parsed JSON line of ``path``, skipping a truncated tail.

    Blank lines (including the seal newline a reopen writes) are skipped;
    a line that fails to parse -- the classic kill-mid-write artifact --
    is skipped rather than raised, so an interrupted run's file is always
    loadable.  A missing file yields nothing.
    """
    if not os.path.exists(path):
        return
    with open(path) as handle:
        for line in handle.read().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated tail from an interrupted write


def read_jsonl(path) -> list[dict]:
    """:func:`iter_jsonl`, materialised."""
    return list(iter_jsonl(path))


def open_append_sealed(path) -> IO[str]:
    """Open ``path`` for appending, sealing a truncated last line first.

    If the file exists and its final byte is not a newline (a previous
    writer was killed mid-line), a single ``"\\n"`` is written before the
    handle is returned, so the caller's first record cannot merge into
    the corrupt tail.
    """
    needs_newline = False
    if os.path.exists(path):
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                needs_newline = handle.read(1) != b"\n"
    handle = open(path, "a")
    if needs_newline:
        handle.write("\n")
        handle.flush()
    return handle


class JsonlWriter:
    """Locked, flushed-per-line JSONL appender.

    ``fsync=True`` additionally syncs every line to disk -- the campaign
    store's durability level (a completed cell must survive power loss);
    the audit log and trace sink settle for flush (survive the *process*
    dying, which is the failure mode their tests exercise).
    """

    def __init__(self, path, *, fsync: bool = False):
        self.path = str(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._handle = open_append_sealed(self.path)

    def write(self, record: dict) -> int:
        """Append ``record`` as one line; returns the bytes written."""
        return self.write_line(json.dumps(record, sort_keys=True))

    def write_line(self, line: str) -> int:
        """Append one already-encoded JSON line; returns the bytes written.

        ``line`` must be ASCII (``json.dumps`` output is), so its length
        in characters is its length in bytes.
        """
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
        return len(line) + 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()
