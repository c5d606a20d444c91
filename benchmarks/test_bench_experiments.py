"""Every experiment at its benchmark parameters, checked against its shape.

Each case runs one declaration from
:data:`repro.analysis.experiments.ALL_EXPERIMENTS` exactly once under
pytest-benchmark timing, with its benchmark parameters, prints the
reconstructed table, saves it under ``benchmarks/results/<id>.txt`` so
EXPERIMENTS.md can be regenerated from a run, and runs the declaration's
shape check on it.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.experiments import ALL_EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("experiment_id", list(ALL_EXPERIMENTS))
def test_bench_experiment(benchmark, experiment_id):
    declared = ALL_EXPERIMENTS[experiment_id]
    result = benchmark.pedantic(lambda: declared.run(**declared.bench),
                                rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    table = result.table()
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(table + "\n")
    print()
    print(table)
    declared.check(result)
