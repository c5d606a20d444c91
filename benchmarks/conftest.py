"""Shared helpers for the experiment benchmarks.

Each benchmark runs one experiment from
:mod:`repro.analysis.experiments` exactly once under pytest-benchmark
timing, prints the reconstructed table, and saves it under
``benchmarks/results/`` so EXPERIMENTS.md can be regenerated from a run.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_experiment(benchmark, experiment_fn, **kwargs):
    """Time one experiment run, print and persist its table."""
    result = benchmark.pedantic(lambda: experiment_fn(**kwargs),
                                rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    table = result.table()
    (RESULTS_DIR / f"{result.experiment}.txt").write_text(table + "\n")
    print()
    print(table)
    return result
