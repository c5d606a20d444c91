"""E21: minimum-slot searches on city-scale meshes vs the raw greedy arm.

Expected shape: every mesh closes at the greedy-clique floor with a
packing certificate and no ILP (``bounds-closed``, so ``slots`` is the
proven optimum), the raw greedy arm never beats it, and every emitted
schedule is S8 conflict-free and meets the S30 guarantees.
"""

from conftest import run_experiment

from repro.analysis.experiments import e21_zoned_scaling


def test_bench_e21_zoned_scaling(benchmark):
    result = run_experiment(benchmark, e21_zoned_scaling,
                            sizes=((24, 16), (80, 60), (240, 180)))
    column = {name: i for i, name in enumerate(result.headers)}
    for row in result.rows:
        assert row[column["status"]] == "bounds-closed", \
            "every mesh must close at its floor with no ILP"
        assert row[column["slots"]] == row[column["floor"]]
        greedy = row[column["greedy_slots"]]
        assert greedy is not None, "the greedy arm must produce a schedule"
        assert greedy >= row[column["slots"]], "greedy never beats K"
        assert row[column["s8_ok"]] is True, \
            "every schedule must be S8 conflict-free"
        assert row[column["s30_ok"]] is True, \
            "every schedule must meet S30 guarantees"
