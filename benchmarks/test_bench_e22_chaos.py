"""E22: runtime fault injection vs result fidelity.

Expected shape: as chaos intensity rises the fault counters climb
(crashes, transient failures, torn writes), but because the policy
stops injecting within the retry budget, every row stays bitwise
identical to the chaos-free baseline.  Damage shows up only where it
belongs: retried tasks and quarantined cache entries.
"""

from conftest import run_experiment

from repro.analysis.experiments import e22_chaos_sweep

IDENTICAL = 10


def test_bench_e22_chaos(benchmark):
    result = run_experiment(benchmark, e22_chaos_sweep,
                            intensities=(0.0, 0.4, 0.8), num_tasks=8)
    assert len(result.rows) == 3
    quiet, mid, loud = result.rows
    assert all(row[IDENTICAL] for row in result.rows), \
        "chaos within the retry budget must never change results"
    faults = [sum(row[2:8]) for row in result.rows]
    assert faults[0] == 0, "zero intensity must inject nothing"
    assert faults[2] > faults[0], \
        "rising intensity must actually inject faults"
    assert loud[8] >= mid[8] >= quiet[8] == 0, \
        "retried-task counts should track intensity"
