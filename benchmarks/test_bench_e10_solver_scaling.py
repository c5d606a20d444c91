"""E10: scheduler cost vs mesh size.

Expected shape: ILP size and time grow quickly with demanded links;
Bellman-Ford recovery from a fixed order stays in the sub-millisecond
range -- the argument for order-then-recover.
"""

from conftest import run_experiment

from repro.analysis.experiments import e10_solver_scaling


def test_bench_e10_solver_scaling(benchmark):
    result = run_experiment(benchmark, e10_solver_scaling,
                            grid_sizes=((2, 2), (2, 3), (3, 3), (3, 4)))
    column = {name: index for index, name in enumerate(result.headers)}
    variables = [row[column["ilp_vars"]] for row in result.rows]
    assert variables == sorted(variables)
    for row in result.rows:
        assert row[column["bf_seconds"]] < 0.05, \
            "BF recovery must stay ~instant"
        assert row[column["min_slots"]] is not None, \
            "all instances schedulable"
        # every search here closes between the greedy-clique floor and
        # the first-fit certificate, so no search pays an ILP probe
        assert row[column["cold_ilp_solves"]] == 0, \
            "every E10 search closes between the bounds"
