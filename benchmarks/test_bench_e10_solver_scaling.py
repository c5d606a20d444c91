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
    variables = [row[2] for row in result.rows]
    assert variables == sorted(variables)
    for row in result.rows:
        assert row[4] < 0.05, "BF recovery must stay ~instant"
        assert row[5] is not None, "all instances schedulable"
        # warm-vs-cold arm: the warm engine must reproduce the cold
        # searches bitwise; every search here closes between the
        # greedy-clique floor and the first-fit certificate, so neither
        # arm pays an ILP probe (the BF-shortcut saving on a gap search
        # is asserted by tests/test_core_engine.py)
        ____, warm_ilp, ____, identical = row[8:12]
        assert identical, "warm results must be bitwise-identical to cold"
        assert warm_ilp == 0, "every E10 search closes between the bounds"
