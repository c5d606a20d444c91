"""Durable run ledger: a WAL-mode sqlite database.

Every task execution -- fresh, cached, failed, or timed out -- appends
one *finish* record, giving a durable, queryable account of where suite
time goes.  Appends are transactional, so torn writes are structurally
impossible (a record is committed or it never happened); concurrent
writers serialize through sqlite's locking, with contended inserts
retried under a bounded backoff (``runtime.ledger.write_retries``).  A
database file damaged beyond repair is moved aside to
``<path>.corrupt.N`` and recreated (``runtime.ledger.db_recovered``)
rather than wedging the run.  ``--ledger-query`` prints records as JSON
lines, the export format for other tooling.

Besides finish records the ledger stores *start* and *heartbeat*
events.  The pool stamps a start event when a task is dispatched and
heartbeats in-flight tasks while they run; a task whose last start was
never followed by a finish -- the parent was SIGKILLed, the host lost
power -- is an *orphan*, surfaced by :meth:`RunLedger.orphans`,
counted in ``--ledger-summary``, and simply re-run by ``--resume``.

:func:`summarize_ledger` condenses a ledger into outcome counts, retry
and orphan tallies, the slowest tasks, and per-target failures;
:func:`format_ledger_summary` renders that for the CLI.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.tasks import Task, TaskResult

#: Ledger filename used by default inside the cache directory.
DEFAULT_LEDGER_NAME = "ledger.sqlite"

#: Fields of a finish record, in canonical column order.
_FIELDS = ("ts", "event", "target", "label", "key", "seed", "params",
           "outcome", "wall_s", "queue_s", "attempts", "worker",
           "error", "pid")

#: Bounded backoff schedule (seconds) for contended appends.
_RETRY_DELAYS = (0.01, 0.05, 0.2, 0.5, 1.0)

#: Range of sqlite's 64-bit INTEGER storage class.
_SQL_INT_MIN, _SQL_INT_MAX = -2 ** 63, 2 ** 63 - 1


def _to_sql(value: Any) -> Any:
    """Column value for ``value``: ints beyond 64 bits become blobs.

    sqlite cannot store such ints, and their decimal text would be
    coerced to a lossy REAL by the INTEGER column, so they are kept as
    a blob of their decimal digits (which sorts after every number).
    """
    if isinstance(value, int) and not (_SQL_INT_MIN <= value
                                       <= _SQL_INT_MAX):
        return str(value).encode("ascii")
    return value


def _from_sql(value: Any) -> Any:
    """Inverse of :func:`_to_sql`."""
    return int(value) if isinstance(value, bytes) else value


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 0:
        raise ConfigurationError(
            f"ledger query limit must be >= 0, got {limit}")


def _order_field(order: str) -> tuple[str, bool]:
    """Split ``"-wall_s"`` style order specs into (field, descending)."""
    descending = order.startswith("-")
    name = order[1:] if descending else order
    if name not in _FIELDS:
        raise ConfigurationError(
            f"unknown ledger order field {name!r}; "
            f"expected one of {_FIELDS}")
    return name, descending


class RunLedger:
    """Appender/reader for one WAL-mode sqlite run-ledger database."""

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS task_runs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            ts REAL, event TEXT, target TEXT, label TEXT, key TEXT,
            seed INTEGER, params TEXT, outcome TEXT, wall_s REAL,
            queue_s REAL, attempts INTEGER, worker TEXT, error TEXT,
            pid INTEGER);
        CREATE INDEX IF NOT EXISTS task_runs_key ON task_runs (key);
        CREATE INDEX IF NOT EXISTS task_runs_outcome
            ON task_runs (outcome);
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self._connection: Optional[sqlite3.Connection] = None

    def _connect(self) -> sqlite3.Connection:
        if self._connection is not None:
            return self._connection
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            connection = self._open()
        except sqlite3.DatabaseError:
            self._recover_damaged_db()
            connection = self._open()
        self._connection = connection
        return connection

    def _open(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=5.0)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA busy_timeout=5000")
        connection.executescript(self._SCHEMA)
        connection.commit()
        return connection

    def _recover_damaged_db(self) -> None:
        """Move an unreadable database aside so a fresh one can start.

        Mirrors the cache's quarantine discipline: the damaged bytes
        stay inspectable at ``<path>.corrupt.N`` and the run continues
        against an empty ledger instead of crashing.
        """
        self.close()
        destination = self.path.with_name(self.path.name + ".corrupt")
        counter = 0
        while destination.exists():
            counter += 1
            destination = self.path.with_name(
                f"{self.path.name}.corrupt.{counter}")
        try:
            os.replace(self.path, destination)
        except OSError:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        # Stale WAL/SHM sidecars would re-corrupt the fresh database.
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(str(self.path) + suffix)
            except OSError:
                pass
        obs.counter("runtime.ledger.db_recovered").inc()

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None

    # -- writes -------------------------------------------------------------

    def _append(self, entry: dict, torn: bool = False) -> None:
        """Insert one record transactionally, retrying contention.

        ``torn=True`` (chaos injection) fails the first try with a
        simulated lock error; WAL transactions make an actually-torn
        record impossible, so contention is the fault class to prove
        out here.
        """
        values = [_to_sql(entry.get(name)) for name in _FIELDS]
        values[_FIELDS.index("params")] = (
            json.dumps(entry["params"]) if "params" in entry else None)
        placeholders = ", ".join("?" for _ in _FIELDS)
        statement = (f"INSERT INTO task_runs ({', '.join(_FIELDS)}) "
                     f"VALUES ({placeholders})")
        inject_failure = torn
        for delay in _RETRY_DELAYS + (None,):
            try:
                if inject_failure:
                    inject_failure = False
                    raise sqlite3.OperationalError(
                        "chaos: injected contended write")
                connection = self._connect()
                with connection:
                    connection.execute(statement, values)
                return
            except sqlite3.OperationalError as exc:
                if delay is None:
                    raise OSError(
                        f"ledger append failed after "
                        f"{len(_RETRY_DELAYS) + 1} tries: {exc}"
                    ) from exc
                obs.counter("runtime.ledger.write_retries").inc()
                time.sleep(delay)
            except sqlite3.DatabaseError:
                self._recover_damaged_db()

    def record(self, result: TaskResult, *, chaos=None) -> None:
        """Append one finish record (optionally under chaos injection)."""
        entry = {
            "ts": time.time(),
            "target": result.task.target,
            "label": result.task.label,
            "key": result.key,
            "seed": result.task.seed,
            "params": result.task.spec()["params"],
            "outcome": result.outcome,
            "wall_s": round(result.wall_s, 6),
            "queue_s": round(result.queue_s, 6),
            "attempts": result.attempts,
            "worker": result.worker,
        }
        if result.error:
            entry["error"] = result.error
        torn = False
        if chaos is not None and chaos.ledger_torn(result.key,
                                                   result.attempts):
            torn = True
            obs.counter("runtime.chaos.torn_ledger_writes").inc()
        self._append(entry, torn=torn)

    def start(self, task: Task, key: str, worker: str = "") -> None:
        """Append a start event: ``task`` was dispatched under ``key``."""
        self._append({
            "ts": time.time(), "event": "start",
            "target": task.target, "label": task.label, "key": key,
            "seed": task.seed, "worker": worker, "pid": os.getpid()})

    def heartbeat(self, keys: Iterable[str]) -> None:
        """Stamp in-flight ``keys`` as alive right now."""
        now = time.time()
        for key in keys:
            self._append({"ts": now, "event": "heartbeat", "key": key})

    # -- reads --------------------------------------------------------------

    @staticmethod
    def _to_record(values: Sequence) -> dict:
        record = {name: _from_sql(value)
                  for name, value in zip(_FIELDS, values)
                  if value is not None}
        if "params" in record:
            record["params"] = json.loads(record["params"])
        return record

    def events(self) -> list[dict]:
        """Every record -- finishes, starts, heartbeats -- in order."""
        return self.query()

    def entries(self) -> list[dict]:
        """Finish records only (the historical ledger view)."""
        return [record for record in self.events()
                if record.get("event") in (None, "finish")]

    def completed_keys(self) -> set[str]:
        """Content keys of every task that ever finished successfully."""
        return {e["key"] for e in self.entries()
                if e.get("outcome") in ("ok", "cached") and e.get("key")}

    def orphans(self, stale_s: Optional[float] = None,
                now: Optional[float] = None) -> list[dict]:
        """Tasks whose last start was never followed by a finish.

        An orphan means the *runner* died -- crash, SIGKILL, power loss
        -- between dispatch and outcome.  With ``stale_s``, tasks whose
        last heartbeat is newer than ``stale_s`` seconds are presumed
        still alive in another process and excluded.  Each orphan dict
        carries the start record plus ``age_s`` since its last sign of
        life.
        """
        orphans = _orphans_from(self.events(), stale_s, now)
        if orphans:
            obs.counter("runtime.ledger.orphans_detected").inc(
                len(orphans))
        return orphans

    def query(self, where: Optional[Mapping[str, Any]] = None,
              order: Optional[str] = None,
              limit: Optional[int] = None) -> list[dict]:
        """Filtered run history: equality ``where``, ``order``, ``limit``.

        ``order`` is a field name, ``-`` prefixed for descending
        (``"-wall_s"`` = slowest first); records missing the field
        sort as smallest.  ``limit`` must be non-negative.
        """
        _check_limit(limit)
        clauses, values = [], []
        for name, value in (where or {}).items():
            if name not in _FIELDS:
                raise ConfigurationError(
                    f"unknown ledger field {name!r}; "
                    f"expected one of {_FIELDS}")
            clauses.append(f"{name} = ?")
            values.append(_to_sql(value))
        statement = f"SELECT {', '.join(_FIELDS)} FROM task_runs"
        if clauses:
            statement += " WHERE " + " AND ".join(clauses)
        if order is not None:
            name, descending = _order_field(order)
            statement += f" ORDER BY {name} {'DESC' if descending else 'ASC'}"
        else:
            statement += " ORDER BY id"
        if limit is not None:
            statement += " LIMIT ?"
            values.append(int(limit))
        if self._connection is None and not self.path.exists():
            return []  # reading must not create the database
        try:
            raw = self._connect().execute(statement, values).fetchall()
        except sqlite3.DatabaseError:
            self._recover_damaged_db()
            return []
        return [self._to_record(row) for row in raw]


def _orphans_from(records: Iterable[dict], stale_s: Optional[float],
                  now: Optional[float]) -> list[dict]:
    """Orphan computation over already-read records (no metrics)."""
    last_start: dict[str, dict] = {}
    last_alive: dict[str, float] = {}
    for record in records:
        key = record.get("key")
        if not key:
            continue
        event = record.get("event")
        if event == "start":
            last_start[key] = record
            last_alive[key] = float(record.get("ts", 0.0))
        elif event == "heartbeat":
            if key in last_start:
                last_alive[key] = float(record.get("ts", 0.0))
        elif event in (None, "finish"):
            last_start.pop(key, None)
            last_alive.pop(key, None)
    now = time.time() if now is None else now
    orphans = []
    for key, record in last_start.items():
        age = now - last_alive.get(key, 0.0)
        if stale_s is not None and age < stale_s:
            continue
        orphans.append({**record, "age_s": age})
    return orphans


def parse_query(text: str) -> tuple[dict, Optional[str], Optional[int]]:
    """Parse a ``--ledger-query`` expression.

    Comma-separated ``field=value`` equality terms, plus the special
    keys ``order=[-]field`` and ``limit=N`` (``N >= 0``)::

        outcome=failed,order=-wall_s,limit=5

    Values parse as JSON when possible (so ``attempts=2`` matches the
    integer), falling back to the raw string.
    """
    where: dict[str, Any] = {}
    order: Optional[str] = None
    limit: Optional[int] = None
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        name, separator, raw = term.partition("=")
        if not separator or not name:
            raise ConfigurationError(
                f"ledger query term {term!r} is not field=value")
        if name == "order":
            order = raw
        elif name == "limit":
            try:
                limit = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"ledger query limit must be an integer, "
                    f"got {raw!r}") from None
            _check_limit(limit)
        else:
            try:
                where[name] = json.loads(raw)
            except json.JSONDecodeError:
                where[name] = raw
    return where, order, limit


@dataclass
class LedgerSummary:
    """Aggregate view over a ledger's entries."""

    total: int = 0
    by_outcome: collections.Counter = field(
        default_factory=collections.Counter)
    total_wall_s: float = 0.0
    slowest: list[tuple[str, float]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Finish records that needed more than one attempt.
    retried: int = 0
    #: Tasks started (per the ledger) but never finished.
    orphaned: int = 0
    #: Damaged cache entries sitting in the quarantine directory
    #: (``None`` when no cache directory was given to inspect).
    quarantined: Optional[int] = None


def summarize_ledger(path: str | os.PathLike, top: int = 10, *,
                     quarantine_dir: Optional[str | os.PathLike] = None
                     ) -> LedgerSummary:
    """Read ``path`` and aggregate outcomes, wall time, and failures."""
    summary = LedgerSummary()
    ledger = RunLedger(path)
    records = ledger.events()
    summary.orphaned = len(_orphans_from(records, None, None))
    entries = [record for record in records
               if record.get("event") in (None, "finish")]
    for entry in entries:
        summary.total += 1
        outcome = entry.get("outcome", "?")
        summary.by_outcome[outcome] += 1
        wall = float(entry.get("wall_s", 0.0))
        summary.total_wall_s += wall
        summary.slowest.append((entry.get("label", "?"), wall))
        if int(entry.get("attempts", 1) or 1) > 1:
            summary.retried += 1
        if outcome in ("failed", "timeout"):
            summary.failures.append((entry.get("label", "?"),
                                     entry.get("error", outcome)))
    summary.slowest.sort(key=lambda pair: pair[1], reverse=True)
    del summary.slowest[top:]
    if quarantine_dir is not None:
        directory = pathlib.Path(quarantine_dir)
        summary.quarantined = (
            sum(1 for item in directory.iterdir() if item.is_file())
            if directory.is_dir() else 0)
    ledger.close()
    return summary


def format_ledger_summary(summary: LedgerSummary) -> str:
    lines = [f"tasks: {summary.total}  "
             + "  ".join(f"{k}={v}"
                         for k, v in sorted(summary.by_outcome.items())),
             f"total wall time: {summary.total_wall_s:.1f}s"]
    if summary.retried:
        lines.append(f"retried: {summary.retried} task(s) needed more "
                     "than one attempt")
    if summary.quarantined:
        lines.append(f"quarantined: {summary.quarantined} damaged cache "
                     "entr(ies) set aside")
    if summary.orphaned:
        lines.append(f"warning: {summary.orphaned} orphaned task(s) "
                     "started but never finished (interrupted run?)")
    if summary.slowest:
        lines.append("slowest tasks:")
        lines.extend(f"  {wall:8.2f}s  {label}"
                     for label, wall in summary.slowest)
    if summary.failures:
        lines.append(f"failures ({len(summary.failures)}):")
        lines.extend(f"  {label}: {error}"
                     for label, error in summary.failures)
    return "\n".join(lines)
