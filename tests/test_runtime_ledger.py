"""Run ledger: append, read back, summarize."""

from repro.runtime.ledger import (
    RunLedger,
    format_ledger_summary,
    summarize_ledger,
)
from repro.runtime.tasks import TaskResult, make_task


def _result(target="E9", outcome="ok", wall_s=1.0, error=None, seed=None):
    task = make_task(target, seed=seed)
    return TaskResult(task=task, key=f"k-{target}-{outcome}",
                      outcome=outcome, wall_s=wall_s, error=error,
                      attempts=1, worker="serial")


def test_round_trip(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    ledger.record(_result("E9", wall_s=0.5, seed=3))
    ledger.record(_result("E4", outcome="failed", error="RuntimeError: x"))
    entries = ledger.entries()
    assert len(entries) == 2
    assert entries[0]["target"] == "E9"
    assert entries[0]["seed"] == 3
    assert entries[0]["outcome"] == "ok"
    assert entries[0]["wall_s"] == 0.5
    assert entries[1]["error"] == "RuntimeError: x"
    assert all("ts" in e and "key" in e and "attempts" in e
               for e in entries)


def test_missing_file_reads_empty(tmp_path):
    assert RunLedger(tmp_path / "nope.sqlite").entries() == []


def test_completed_keys_only_successes(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    ledger.record(_result("E9", outcome="ok"))
    ledger.record(_result("E4", outcome="failed"))
    ledger.record(_result("E2", outcome="cached"))
    keys = ledger.completed_keys()
    assert keys == {"k-E9-ok", "k-E2-cached"}


def test_summary_counts_slowest_and_failures(tmp_path):
    path = tmp_path / "ledger.sqlite"
    ledger = RunLedger(path)
    for wall in (0.1, 3.0, 1.0):
        ledger.record(_result("E9", wall_s=wall))
    ledger.record(_result("E4", outcome="failed", wall_s=0.2,
                          error="RuntimeError: x"))
    ledger.record(_result("E2", outcome="timeout", wall_s=9.0,
                          error="timed out after 9s"))

    summary = summarize_ledger(path, top=2)
    assert summary.total == 5
    assert summary.by_outcome["ok"] == 3
    assert summary.by_outcome["failed"] == 1
    assert summary.by_outcome["timeout"] == 1
    assert summary.total_wall_s == sum((0.1, 3.0, 1.0, 0.2, 9.0))
    assert [wall for _, wall in summary.slowest] == [9.0, 3.0]
    assert len(summary.failures) == 2

    text = format_ledger_summary(summary)
    assert "tasks: 5" in text
    assert "slowest" in text
    assert "RuntimeError: x" in text
