"""Command-line experiment runner."""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.runtime.ledger import RunLedger


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Keep .repro_cache/ (default cache dir) inside the test sandbox."""
    monkeypatch.chdir(tmp_path)


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E14" in out


def test_list_annotates_cache_status(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "[uncached]" in out and "[cached" not in out
    assert main(["E9"]) == 0
    capsys.readouterr()
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    e9 = next(l for l in lines if l.lstrip().startswith("E9"))
    assert "[cached" in e9
    e1 = next(l for l in lines if l.lstrip().startswith("E1 "))
    assert "[uncached]" in e1


def test_list_no_cache_drops_annotations(capsys):
    assert main(["--list", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cached" not in out


def test_list_respects_cache_dir(tmp_path, capsys):
    assert main(["E9", "--cache-dir", str(tmp_path / "alt")]) == 0
    capsys.readouterr()
    assert main(["--list", "--cache-dir", str(tmp_path / "alt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    e9 = next(l for l in lines if l.lstrip().startswith("E9"))
    assert "[cached" in e9


def test_runs_cheap_experiment(capsys):
    assert main(["E9"]) == 0
    out = capsys.readouterr().out
    assert "[E9]" in out
    assert "slot_us" in out


def test_case_insensitive(capsys):
    assert main(["e9"]) == 0
    assert "[E9]" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["E99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_no_args_is_usage_error(capsys):
    assert main([]) == 2


def test_negative_jobs_rejected(capsys):
    assert main(["E9", "--jobs", "-2"]) == 2


def test_cache_dir_colliding_with_file_rejected(tmp_path, capsys):
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    assert main(["E9", "--cache-dir", str(blocker)]) == 2
    assert "cannot use --cache-dir" in capsys.readouterr().err


def test_report_written(tmp_path, capsys):
    path = tmp_path / "report.md"
    assert main(["E9", "--report", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# Experiment report")
    assert "## E9" in text
    assert "slot_us" in text


def test_repeated_ids_run_once(capsys):
    """`python -m repro E9 E9` must not run the experiment twice."""
    assert main(["E9", "e9", "E9"]) == 0
    out = capsys.readouterr().out
    assert out.count("[E9]") == 1


def test_jobs_flag_matches_serial_output(capsys):
    assert main(["E9", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(["E9", "--no-cache", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    strip = lambda text: [line for line in text.splitlines()
                          if not line.startswith("(")]
    assert strip(serial) == strip(parallel)


def test_second_run_hits_cache(capsys):
    assert main(["E9"]) == 0
    capsys.readouterr()
    assert main(["E9"]) == 0
    assert "cached" in capsys.readouterr().out


def test_no_cache_flag_skips_cache(capsys):
    assert main(["E9"]) == 0
    capsys.readouterr()
    assert main(["E9", "--no-cache"]) == 0
    assert "cached" not in capsys.readouterr().out


def test_failing_experiment_exits_nonzero_with_summary(
        tmp_path, capsys, monkeypatch):
    def explode(**kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(ALL_EXPERIMENTS, "E9", explode)
    report = tmp_path / "report.md"
    assert main(["E9", "E3", "--no-cache", "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert "1 experiment(s) failed" in captured.err
    assert "synthetic failure" in captured.err
    # The healthy experiment still ran and printed its table...
    assert "[E3]" in captured.out
    # ...and its section survived into the report alongside the failure.
    text = report.read_text()
    assert "## E3" in text
    assert "frame_ms" in text
    assert "## E9" in text
    assert "FAILED" in text


def test_ledger_summary_flag(capsys):
    assert main(["E9"]) == 0
    capsys.readouterr()
    assert main(["--ledger-summary"]) == 0
    out = capsys.readouterr().out
    assert "tasks:" in out
    assert "slowest" in out


def test_ledger_records_every_shard(tmp_path, capsys):
    assert main(["E9", "--cache-dir", str(tmp_path / "cache")]) == 0
    ledger = RunLedger(tmp_path / "cache" / "ledger.sqlite")
    entries = ledger.entries()
    starts = [r for r in ledger.events() if r.get("event") == "start"]
    assert len(entries) == 6
    assert len(starts) == 6  # one dispatch event per shard
    assert {e["outcome"] for e in entries} == {"ok"}
    assert all(e["target"] == "E9" and e["wall_s"] >= 0 for e in entries)


def test_resume_skips_completed_work(capsys):
    assert main(["E9"]) == 0
    capsys.readouterr()
    # Cache intact: --resume serves the cached table like a normal run.
    assert main(["E9", "--resume"]) == 0
    assert "cached" in capsys.readouterr().out


def test_default_ledger_is_sqlite(capsys):
    # The default ledger is the sqlite database in the cache directory.
    assert main(["E9"]) == 0
    capsys.readouterr()
    cache_dir = pathlib.Path(".repro_cache")
    assert (cache_dir / "ledger.sqlite").is_file()
    assert not list(cache_dir.glob("*.jsonl"))
    assert main(["--ledger-summary"]) == 0
    out = capsys.readouterr().out
    assert "ok=6" in out  # E9 shards into six tasks


def test_ledger_query_flag(capsys):
    assert main(["E9"]) == 0
    capsys.readouterr()
    assert main(["--ledger-query", "outcome=ok,limit=1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["outcome"] == "ok"
    assert record["target"] == "E9"


def test_ledger_query_rejects_nonsense(capsys):
    assert main(["--ledger-query", "no-equals-sign"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["--ledger-query", "limit=-1"]) == 2
    assert "limit must be >= 0" in capsys.readouterr().err


def test_chaos_flag_produces_identical_tables(capsys):
    assert main(["E9", "--no-cache"]) == 0
    clean = capsys.readouterr().out
    assert main(["E9", "--no-cache", "--chaos", "0.8",
                 "--chaos-seed", "3"]) == 0
    chaotic = capsys.readouterr().out
    assert clean == chaotic


def test_chaos_rejects_bad_intensity(capsys):
    assert main(["E9", "--chaos", "1.5"]) == 2
    assert "error" in capsys.readouterr().err
