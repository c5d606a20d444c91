"""The sqlite-WAL run ledger: records, queries, and hardening.

Entries, completed keys, and query results are checked against literal
expectations; the hardening -- contended-append retries, damaged-database
quarantine, and ints beyond sqlite's 64-bit range -- is exercised
directly.
"""

import sqlite3

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.chaos import ChaosPolicy
from repro.runtime.ledger import RunLedger, parse_query, summarize_ledger
from repro.runtime.pool import run_tasks
from repro.runtime.tasks import TaskResult, make_task, task_key


def result_for(x, outcome="ok", attempts=1, wall_s=0.5, error=None):
    task = make_task("repro.runtime.chaos:chaos_probe", {"x": x})
    return TaskResult(task=task, key=task_key(task), outcome=outcome,
                      value={"x": x}, wall_s=wall_s, attempts=attempts,
                      worker="serial", error=error)


def fill(ledger):
    ledger.record(result_for(0, wall_s=0.1))
    ledger.record(result_for(1, outcome="failed", attempts=3,
                             wall_s=2.0, error="RuntimeError: kaboom"))
    ledger.record(result_for(2, outcome="cached", wall_s=0.0))
    ledger.record(result_for(3, attempts=2, wall_s=5.0))


def test_entries_keys_and_queries(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    fill(ledger)
    keys = [task_key(result_for(x).task) for x in range(4)]

    def summary(rows):
        return [(row["key"], row["outcome"], row["attempts"],
                 row["wall_s"], row.get("error")) for row in rows]

    assert summary(ledger.entries()) == [
        (keys[0], "ok", 1, 0.1, None),
        (keys[1], "failed", 3, 2.0, "RuntimeError: kaboom"),
        (keys[2], "cached", 1, 0.0, None),
        (keys[3], "ok", 2, 5.0, None)]
    first = ledger.entries()[0]
    assert first["target"] == "repro.runtime.chaos:chaos_probe"
    assert first["params"] == {"x": 0}
    assert first["worker"] == "serial"
    assert "event" not in first and "seed" not in first  # NULLs dropped
    assert ledger.completed_keys() == {keys[0], keys[2], keys[3]}

    def xs(query, order=None, limit=None):
        return [keys.index(row["key"])
                for row in ledger.query(query, order=order, limit=limit)]

    assert xs({}) == [0, 1, 2, 3]
    assert xs({}, "-wall_s", 2) == [3, 1]
    assert xs({}, "attempts") == [0, 2, 3, 1]
    # Records without an error sort as smallest, in insertion order.
    assert xs({}, "-error", 3) == [1, 0, 2]
    assert xs({}, "error") == [0, 2, 3, 1]
    assert xs({}, limit=0) == []
    assert xs({"outcome": "failed"}) == [1]
    assert xs({"outcome": "ok"}, "-wall_s") == [3, 0]
    assert xs({"attempts": 2}) == [3]
    assert xs({"attempts": 2}, "-error", 3) == [3]
    ledger.close()


def test_seeds_beyond_64_bits_round_trip(tmp_path):
    seeds = [2**63, 2**64 - 1, 2**63 - 1, 0, 7]
    tasks = [make_task("tests.runtime_helpers:seed_echo", seed=seed)
             for seed in seeds]
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    out = run_tasks(tasks, jobs=1, ledger=ledger)
    assert [r.outcome for r in out] == ["ok"] * len(seeds)
    assert [e["seed"] for e in ledger.entries()] == seeds
    starts = [e for e in ledger.events() if e.get("event") == "start"]
    assert [e["seed"] for e in starts] == seeds
    assert [e["seed"] for e in ledger.query({"seed": 2**64 - 1})] == \
        [2**64 - 1, 2**64 - 1]  # its start and its finish
    ledger.close()
    reopened = RunLedger(tmp_path / "ledger.sqlite")
    assert [e["seed"] for e in reopened.entries()] == seeds
    reopened.close()


def test_reads_ledger_written_with_integer_seed_column(tmp_path):
    # A ledger written before big seeds were supported: same schema,
    # plain INTEGER seeds.  It must stay readable and appendable.
    path = tmp_path / "ledger.sqlite"
    connection = sqlite3.connect(path)
    connection.executescript(RunLedger._SCHEMA)
    with connection:
        connection.execute(
            "INSERT INTO task_runs (ts, target, key, seed, params, "
            "outcome, attempts) VALUES (1.0, 'E9', 'k-old', 5, '{}', "
            "'ok', 1)")
    connection.close()
    ledger = RunLedger(path)
    ledger.record(TaskResult(
        task=make_task("E9", seed=2**64 - 1), key="k-new", outcome="ok"))
    assert [(e["key"], e["seed"]) for e in ledger.entries()] == [
        ("k-old", 5), ("k-new", 2**64 - 1)]
    assert ledger.completed_keys() == {"k-old", "k-new"}
    ledger.close()


def test_missing_database_reads_empty_without_creating_it(tmp_path):
    path = tmp_path / "cache" / "ledger.sqlite"
    ledger = RunLedger(path)
    assert ledger.events() == []
    assert ledger.query({"outcome": "ok"}) == []
    assert not path.parent.exists()
    assert summarize_ledger(path).total == 0


def test_sqlite_persists_across_reopen(tmp_path):
    path = tmp_path / "ledger.sqlite"
    ledger = RunLedger(path)
    fill(ledger)
    ledger.close()
    reopened = RunLedger(path)
    assert len(reopened.entries()) == 4
    assert len(reopened.completed_keys()) == 3
    reopened.close()


def test_sqlite_torn_append_retries_and_lands(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    chaos = ChaosPolicy(seed=0, torn_ledger_rate=1.0)
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        ledger.record(result_for(0), chaos=chaos)
        counters = registry.snapshot()["counters"]
    assert counters["runtime.ledger.write_retries"] == 1
    assert counters["runtime.chaos.torn_ledger_writes"] == 1
    assert len(ledger.entries()) == 1  # exactly once, not zero or twice
    ledger.close()


def test_damaged_database_is_quarantined_not_fatal(tmp_path):
    path = tmp_path / "ledger.sqlite"
    path.write_bytes(b"this is not a sqlite database at all.........")
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        ledger = RunLedger(path)
        ledger.record(result_for(0))
        counters = registry.snapshot()["counters"]
    assert counters["runtime.ledger.db_recovered"] == 1
    assert len(ledger.entries()) == 1
    corpses = list(tmp_path.glob("ledger.sqlite.corrupt*"))
    assert len(corpses) == 1
    assert corpses[0].read_bytes().startswith(b"this is not")
    ledger.close()
    # The recreated file is a real database now.
    connection = sqlite3.connect(path)
    count = connection.execute(
        "SELECT COUNT(*) FROM task_runs").fetchone()[0]
    connection.close()
    assert count == 1


def test_orphans_and_heartbeats(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    alive_task = make_task("repro.runtime.chaos:chaos_probe", {"x": 1})
    dead_task = make_task("repro.runtime.chaos:chaos_probe", {"x": 2})
    done_task = make_task("repro.runtime.chaos:chaos_probe", {"x": 3})
    ledger.start(alive_task, "key-alive")
    ledger.start(dead_task, "key-dead")
    ledger.start(done_task, "key-done")
    ledger.heartbeat(["key-alive"])
    ledger.record(TaskResult(task=done_task, key="key-done",
                             outcome="ok", value=1))
    orphans = ledger.orphans()
    assert sorted(o["key"] for o in orphans) == ["key-alive", "key-dead"]
    # With a staleness window, the heartbeat keeps key-alive off the list.
    fresh = ledger.orphans(stale_s=3600.0)
    assert [o["key"] for o in fresh] == ["key-dead"] or fresh == []
    ledger.close()


def test_summary_counts_retries_orphans_and_quarantine(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    fill(ledger)
    ledger.start(make_task("repro.runtime.chaos:chaos_probe", {"x": 9}),
                 "key-orphan")
    ledger.close()
    quarantine = tmp_path / "quarantine"
    quarantine.mkdir()
    (quarantine / "deadbeef.json").write_text("torn")
    summary = summarize_ledger(tmp_path / "ledger.sqlite",
                               quarantine_dir=quarantine)
    assert summary.total == 4
    assert summary.retried == 2
    assert summary.orphaned == 1
    assert summary.quarantined == 1
    assert summary.by_outcome["ok"] == 2


def test_parse_query():
    where, order, limit = parse_query(
        "outcome=failed,attempts=2,order=-wall_s,limit=5")
    assert where == {"outcome": "failed", "attempts": 2}
    assert order == "-wall_s"
    assert limit == 5
    assert parse_query("") == ({}, None, None)
    with pytest.raises(ConfigurationError):
        parse_query("just-a-word")
    with pytest.raises(ConfigurationError):
        parse_query("limit=soon")
    with pytest.raises(ConfigurationError):
        parse_query("limit=-1")
    assert parse_query("limit=0") == ({}, None, 0)


def test_query_rejects_unknown_fields(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    fill(ledger)
    with pytest.raises(ConfigurationError):
        ledger.query({"nonsense": 1})
    with pytest.raises(ConfigurationError):
        ledger.query({}, order="nonsense")
    with pytest.raises(ConfigurationError):
        ledger.query({}, limit=-1)
    ledger.close()
