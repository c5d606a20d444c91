"""Shared helpers for the experiment benchmarks.

Each benchmark runs one experiment from
:mod:`repro.analysis.experiments` exactly once under pytest-benchmark
timing, prints the reconstructed table, and saves it under
``benchmarks/results/`` so EXPERIMENTS.md can be regenerated from a run.

Every run is also appended to the runtime's sqlite run ledger
(``benchmarks/results/ledger.sqlite``), so
``python -m repro --cache-dir benchmarks/results --ledger-summary``
shows where benchmark time goes across sessions.
"""

from __future__ import annotations

import pathlib
import time

from repro.runtime.ledger import DEFAULT_LEDGER_NAME, RunLedger
from repro.runtime.tasks import TaskResult, make_task, task_key

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
LEDGER_PATH = RESULTS_DIR / DEFAULT_LEDGER_NAME


def run_experiment(benchmark, experiment_fn, **kwargs):
    """Time one experiment run, print, persist, and ledger its table."""
    started = time.perf_counter()
    result = benchmark.pedantic(lambda: experiment_fn(**kwargs),
                                rounds=1, iterations=1)
    wall_s = time.perf_counter() - started
    RESULTS_DIR.mkdir(exist_ok=True)
    table = result.table()
    (RESULTS_DIR / f"{result.experiment}.txt").write_text(table + "\n")
    task = make_task(experiment_fn, params=kwargs)
    RunLedger(LEDGER_PATH).record(TaskResult(
        task=task, key=task_key(task), outcome="ok", wall_s=wall_s,
        attempts=1, worker="benchmark"))
    print()
    print(table)
    return result
