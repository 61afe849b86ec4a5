"""Persistent, resumable campaign result store.

Verification campaigns are expensive (the paper's Table I is 31 jobs with
a two-hour budget per cell) and historically fire-and-forget: a crash lost
everything and a re-run recomputed everything.  This module gives the
campaign engine durable cells:

* every completed (functional, condition, subdomain) cell is written
  **immediately**, so an interrupted campaign (SIGINT, OOM, pre-empted CI
  runner) keeps everything it finished;
* cells are keyed by a **content hash** of the compiled problem tapes,
  the domain bounds and the semantically relevant verifier config
  (:meth:`repro.verifier.encoder.CompiledProblem.content_hash` +
  :meth:`repro.verifier.verifier.VerifierConfig.semantic_key`), so
  ``--resume`` is sound: a changed functional, condition, expression
  builder, tape compiler or budget changes the key and misses cleanly;
* reports round-trip **exactly** -- boxes, outcomes, models, child links
  and step counts are restored bit-for-bit (floats survive the JSON
  round-trip because Python serialises them via shortest-repr).

Two interchangeable backends behind one interface, chosen by file suffix
in :func:`open_store`:

* SQLite (``*.sqlite`` / ``*.sqlite3`` / ``*.db``) -- one ``results``
  table, one committed transaction per cell; WAL mode plus a busy
  timeout keep concurrent readers working while a campaign writes;
* JSONL (``*.jsonl``) -- an append-only checkpoint file, one JSON object
  per line, flushed per cell.  Human-greppable, trivially diffable, and
  crash-robust: a write cut short by a kill leaves a truncated last line,
  which the loader skips.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Iterator

from ..obs.jsonl import JsonlWriter, iter_jsonl
from ..solver.box import Box
from ..solver.interval import make
from .regions import Outcome, RegionRecord, VerificationReport, gc_paused

__all__ = [
    "CampaignStore",
    "JsonlStore",
    "PairTiming",
    "STORE_SUFFIXES",
    "SqliteStore",
    "aggregate_timings",
    "iter_reports",
    "open_store",
    "report_to_payload",
    "report_from_payload",
]

#: bump when the payload layout changes; mismatched stores refuse to load
#: rather than silently misread old campaigns
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# exact report (de)serialisation
# ---------------------------------------------------------------------------

def _box_payload(box: Box) -> dict[str, list[float]]:
    return {name: [iv.lo, iv.hi] for name, iv in box.items()}


def _box_from_payload(payload: dict[str, list[float]]) -> Box:
    names = tuple(sorted(payload))
    return Box._of(names, tuple(make(*payload[name]) for name in names))


_OUTCOMES = {outcome.value: outcome for outcome in Outcome}


def report_to_payload(report: VerificationReport) -> dict:
    """Serialise a report to a JSON-safe dict, losslessly.

    Floats go through Python's shortest-repr JSON encoding, which
    round-trips every finite double exactly; ``json`` also round-trips
    the infinities.  This is the storage format -- the human-facing
    summaries live in :mod:`repro.analysis.export`.
    """
    return {
        "v": SCHEMA_VERSION,
        "functional": report.functional_name,
        "condition": report.condition_id,
        "domain": _box_payload(report.domain),
        "total_solver_steps": report.total_solver_steps,
        "elapsed_seconds": report.elapsed_seconds,
        "compile_seconds": report.compile_seconds,
        "budget_exhausted": report.budget_exhausted,
        "records": [
            {
                "index": r.index,
                "depth": r.depth,
                "box": _box_payload(r.box),
                "outcome": r.outcome.value,
                "model": r.model,
                "children": r.children,
                "solver_steps": r.solver_steps,
            }
            for r in report.records
        ],
    }


def report_from_payload(payload: dict) -> VerificationReport:
    """Rebuild a report from :func:`report_to_payload` output, exactly."""
    version = payload.get("v")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"store payload schema v{version} does not match v{SCHEMA_VERSION}"
        )
    # a cell's records share a handful of key orders: sort each once
    sorted_names: dict[tuple, tuple[str, ...]] = {}
    records = []
    for r in payload["records"]:
        box = r["box"]
        order = tuple(box)
        names = sorted_names.get(order)
        if names is None:
            names = sorted_names[order] = tuple(sorted(box))
        value = r["outcome"]
        try:
            outcome = _OUTCOMES[value]
        except (KeyError, TypeError):
            outcome = Outcome(value)  # raises the ValueError a bad value gets
        records.append(RegionRecord(
            r["index"],
            r["depth"],
            Box._of(names, tuple(make(*box[name]) for name in names)),
            outcome,
            r["model"],
            list(r["children"]),
            r["solver_steps"],
        ))
    return VerificationReport(
        functional_name=payload["functional"],
        condition_id=payload["condition"],
        domain=_box_from_payload(payload["domain"]),
        records=records,
        total_solver_steps=payload["total_solver_steps"],
        elapsed_seconds=payload["elapsed_seconds"],
        # absent in pre-compile-cache payloads: a timing, not an outcome,
        # so old stores stay readable without a schema bump
        compile_seconds=payload.get("compile_seconds", 0.0),
        budget_exhausted=payload["budget_exhausted"],
    )


# ---------------------------------------------------------------------------
# store backends
# ---------------------------------------------------------------------------

class CampaignStore:
    """Interface shared by the SQLite and JSONL backends.

    A store maps content-hash keys to JSON-safe *cell payloads*.  The
    original (and still primary) cell kind is the verification report,
    accessed through :meth:`get`/:meth:`put`; analysis campaigns (the
    Section VI-C numerics sweep) persist their own payload kinds through
    the generic :meth:`get_payload`/:meth:`put_payload`, distinguished by
    a ``"kind"`` entry -- report payloads carry none, so old stores read
    back unchanged and mixed stores are fine.  ``put``/``put_payload``
    are durable on return (committed / flushed), which is the property
    the resume machinery rests on.
    """

    path: str

    def get_payload(self, key: str) -> dict | None:
        raise NotImplementedError

    def put_payload(
        self, key: str, payload: dict, *, functional: str = "", condition_id: str = ""
    ) -> int:
        """Persist ``payload`` under ``key``; returns the payload bytes written."""
        raise NotImplementedError

    def get(self, key: str) -> VerificationReport | None:
        """The verification report stored under ``key``, if any.

        Payloads of other kinds (numerics cells) return None: a key can
        only ever hold the cell kind it was content-hashed for, so this
        is a kind filter, not a collision risk.
        """
        with gc_paused():
            payload = self.get_payload(key)
            if payload is None or "kind" in payload:
                return None
            return report_from_payload(payload)

    def put(self, key: str, report: VerificationReport) -> int:
        with gc_paused():
            return self.put_payload(
                key,
                report_to_payload(report),
                functional=report.functional_name,
                condition_id=report.condition_id,
            )

    def keys(self) -> list[str]:
        raise NotImplementedError

    def created_at(self, key: str) -> float | None:
        raise NotImplementedError

    def iter_timings(self) -> Iterator[dict]:
        """Yield one timing row per stored *verify* cell, in store order.

        This is the query ``repro stats`` reads (through
        :func:`aggregate_timings`): every verification report carries
        ``elapsed_seconds`` and ``compile_seconds``, and the row exposes
        them alongside the pair identity without materialising full
        :class:`VerificationReport` objects (a timing scan over a
        thousand-cell store must not rebuild a thousand region trees).
        Analysis-cell payloads and any other ``"kind"``-tagged record
        carry no timings -- analysis cells are compared bit-exactly
        against the sequential path -- and are skipped.
        """
        for key in self.keys():
            payload = self.get_payload(key)
            if payload is None or "kind" in payload:
                continue
            yield {
                "key": key,
                "functional": payload["functional"],
                "condition": payload["condition"],
                "elapsed_seconds": payload["elapsed_seconds"],
                "compile_seconds": payload.get("compile_seconds", 0.0),
                "total_solver_steps": payload["total_solver_steps"],
                "region_count": len(payload["records"]),
            }

    def close(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get_payload(key) is not None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class PairTiming:
    """Aggregate of one (functional, condition) pair's stored cells."""

    count: int
    total_seconds: float
    mean_seconds: float
    p99_seconds: float
    compile_seconds: float
    total_solver_steps: int

    @property
    def compile_share(self) -> float:
        """Fraction of wall time spent compiling (0 when nothing ran)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return min(1.0, self.compile_seconds / self.total_seconds)


def aggregate_timings(rows) -> dict[tuple[str, str], PairTiming]:
    """Fold :meth:`CampaignStore.iter_timings` rows into per-pair stats.

    Sums run in store order and the p99 (nearest rank) over a sorted
    copy, so the result is a pure function of the store contents -- two
    processes reading the same file produce bit-identical aggregates.
    """
    elapsed: dict[tuple[str, str], list[float]] = {}
    compile_s: dict[tuple[str, str], float] = {}
    steps: dict[tuple[str, str], int] = {}
    for row in rows:
        key = (row["functional"], row["condition"])
        elapsed.setdefault(key, []).append(row["elapsed_seconds"])
        compile_s[key] = compile_s.get(key, 0.0) + row["compile_seconds"]
        steps[key] = steps.get(key, 0) + row["total_solver_steps"]
    out: dict[tuple[str, str], PairTiming] = {}
    for key, values in elapsed.items():
        ascending = sorted(values)
        out[key] = PairTiming(
            count=len(values),
            total_seconds=math.fsum(values),
            mean_seconds=math.fsum(values) / len(values),
            p99_seconds=ascending[max(1, math.ceil(0.99 * len(values))) - 1],
            compile_seconds=compile_s[key],
            total_solver_steps=steps[key],
        )
    return out


class SqliteStore(CampaignStore):
    """SQLite-backed store: one committed transaction per completed cell.

    Opened in WAL mode with a busy timeout, so a reader iterating reports
    while a campaign (or the verification service) commits cells blocks
    briefly instead of failing with "database is locked", and concurrent
    readers proceed against the last committed snapshot.  One store
    object may be shared across threads (the service's job threads all
    write through one store): the connection is opened with
    ``check_same_thread=False`` and every statement runs under an
    internal lock.
    """

    #: how long a writer waits on a locked database before giving up
    BUSY_TIMEOUT_SECONDS = 30.0

    def __init__(self, path: str):
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path,
            timeout=self.BUSY_TIMEOUT_SECONDS,
            check_same_thread=False,
        )
        # WAL lets readers run against the last committed snapshot while
        # a writer commits; the busy timeout covers the residual
        # checkpoint/exclusive windows.  On filesystems that refuse WAL
        # the pragma is a no-op and the busy timeout alone still protects
        # readers.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(
            f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_SECONDS * 1000)}"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " functional TEXT NOT NULL,"
            " condition_id TEXT NOT NULL,"
            " created_at REAL NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT NOT NULL)"
        )
        row = self._conn.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (k, v) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            self._conn.commit()
        elif int(row[0]) != SCHEMA_VERSION:
            self._conn.close()
            raise ValueError(
                f"store {self.path} has schema v{row[0]}, expected v{SCHEMA_VERSION}"
            )

    def get_payload(self, key: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def put_payload(
        self, key: str, payload: dict, *, functional: str = "", condition_id: str = ""
    ) -> int:
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (key, functional, condition_id, created_at, payload)"
                " VALUES (?, ?, ?, ?, ?)",
                (key, functional, condition_id, time.time(), text),
            )
            self._conn.commit()
        return len(text)

    def keys(self) -> list[str]:
        with self._lock:
            return [
                row[0]
                for row in self._conn.execute(
                    "SELECT key FROM results ORDER BY created_at, key"
                )
            ]

    def created_at(self, key: str) -> float | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT created_at FROM results WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else row[0]

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class JsonlStore(CampaignStore):
    """Append-only JSONL checkpoint file: one cell per line, flushed per put.

    Re-put keys append a new line; the latest line wins on load.  A line
    cut short by a kill mid-write fails to parse and is skipped, so an
    interrupted campaign's store is always loadable.

    Payloads loaded from the file are kept parsed.  A payload put through
    this object is kept as the JSON text its line was written with, and
    parsed on its first :meth:`get_payload`: the store never holds the
    caller's dict, so a caller's later mutation never changes what a get
    returns, and a cell that is written and never read again (a
    campaign's fresh cells) costs its bytes, not a second tree of dicts.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._entries: dict[str, dict | str] = {}
        self._created: dict[str, float] = {}
        # skip-truncated-tail on read; the writer seals the tail on open
        # (the shared JSONL discipline, see repro.obs.jsonl)
        with gc_paused():
            for entry in iter_jsonl(self.path):
                payload = entry["payload"]
                if payload.get("v") != SCHEMA_VERSION:
                    raise ValueError(
                        f"store {self.path} contains schema "
                        f"v{payload.get('v')}, expected v{SCHEMA_VERSION}"
                    )
                self._entries[entry["key"]] = payload
                self._created[entry["key"]] = entry["created_at"]
        # fsync per cell: a completed cell must survive power loss, not
        # just the process dying
        self._writer = JsonlWriter(self.path, fsync=True)

    def get_payload(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if isinstance(entry, str):
            # parsed once: the service serves every cache hit from here
            entry = self._entries[key] = json.loads(entry)
        return entry

    def put_payload(
        self, key: str, payload: dict, *, functional: str = "", condition_id: str = ""
    ) -> int:
        created = time.time()
        text = json.dumps(payload, sort_keys=True)
        head = json.dumps(
            {
                "condition": condition_id,
                "created_at": created,
                "functional": functional,
                "key": key,
            },
            sort_keys=True,
        )
        # "payload" sorts last: the line json.dumps(entry, sort_keys=True)
        # would write, with the payload encoded once
        written = self._writer.write_line(f'{head[:-1]}, "payload": {text}}}')
        self._entries[key] = text
        self._created[key] = created
        return written

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> list[str]:
        return list(self._entries)

    def created_at(self, key: str) -> float | None:
        return self._created.get(key)

    def close(self) -> None:
        self._writer.close()


#: recognised store file suffixes and the backends they select
STORE_SUFFIXES: dict[str, type] = {
    ".jsonl": JsonlStore,
    ".sqlite": SqliteStore,
    ".sqlite3": SqliteStore,
    ".db": SqliteStore,
}


def open_store(path: str) -> CampaignStore:
    """Open (creating if needed) the store at ``path``.

    The backend is selected by file suffix: ``.jsonl`` is the append-only
    JSONL checkpoint format; ``.sqlite`` / ``.sqlite3`` / ``.db`` select
    SQLite.  Any other suffix (``.db.tmp``, an extensionless path, a
    typo) raises :class:`ValueError` naming the supported suffixes --
    silently defaulting a backend for e.g. a temp-file rename pattern
    would create a store the next run cannot identify.
    """
    text = str(path)
    for suffix, backend in STORE_SUFFIXES.items():
        if text.endswith(suffix):
            return backend(path)
    supported = ", ".join(sorted(STORE_SUFFIXES))
    raise ValueError(
        f"unknown store suffix for {text!r}: expected one of {supported}"
    )


def iter_reports(store: CampaignStore) -> Iterator[tuple[str, VerificationReport]]:
    """Yield every (key, report) in the store, in insertion order."""
    for key in store.keys():
        report = store.get(key)
        if report is not None:
            yield key, report
