"""Command-line experiment runner."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.analysis.experiments import ALL_EXPERIMENTS


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Keep .repro_cache/ (default cache dir) inside the test sandbox."""
    monkeypatch.chdir(tmp_path)


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E14" in out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                       "buffered"])
def test_list_into_a_closed_pipe_exits_quietly(tmp_path, unbuffered):
    """``--list | head`` : the reader closes the pipe before the listing
    is written (at each ``print`` when unbuffered, at the final flush
    otherwise); the CLI stops with status 0 and no traceback."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "--list", "--no-cache"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=300) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


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

    monkeypatch.setitem(ALL_EXPERIMENTS, "E9",
                        replace(ALL_EXPERIMENTS["E9"], run=explode))
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


def test_param_unknown_key_rejected(capsys):
    assert main(["E9", "--param", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: E9 takes no parameter 'bogus'")
    assert len(err.splitlines()) == 1
    assert not list(pathlib.Path(".repro_cache").glob("results/*"))


def test_param_non_list_sweep_axis_rejected(capsys):
    assert main(["E21", "--param", "sizes=5"]) == 2
    err = capsys.readouterr().err
    assert "'sizes' is its sweep axis and needs a list" in err
    assert len(err.splitlines()) == 1
