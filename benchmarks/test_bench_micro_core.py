"""Microbenchmarks of the scheduling primitives (multi-round timing).

Unlike the experiment benches (one-shot table generation), these use
pytest-benchmark's statistical timing to track the cost of the hot
primitives a deployment would re-run online: conflict-graph and
conflict-index construction, Bellman-Ford schedule recovery, greedy
packing, feasibility ILPs, the ILP front end's conflict-clique
refutation and the delay computation.
"""

from repro.core.conflict import _greedy_clique_demand, conflict_graph
from repro.core.delay import path_delay_slots
from repro.core.engine import SolverEngine
from repro.core.greedy import greedy_schedule
from repro.core.ilp import SchedulingProblem, solve_schedule_ilp
from repro.core.ordering import schedule_from_order
from repro.core.tree_order import min_delay_tree_order
from repro.net.routing import gateway_tree
from repro.net.topology import grid_topology, random_disk_topology
from repro.phy.interference import interference_graph

TOPOLOGY = grid_topology(4, 4)
DEMANDS = {link: 1 for link in TOPOLOGY.links}
CONFLICTS = conflict_graph(TOPOLOGY, hops=2)
TREE = gateway_tree(TOPOLOGY, 0)
ORDER = min_delay_tree_order(TREE, 0)
TREE_DEMANDS = {link: 1 for link in ORDER.links()}
FRAME = 2 * len(TREE_DEMANDS)
SCHEDULE = schedule_from_order(CONFLICTS, TREE_DEMANDS, FRAME, ORDER)
ROUTE = tuple((i, i + 1) for i in (0, 1, 2))  # 0-1-2-3 along the top row
#: The 36-node, 220 m range, 900 m field random-disk mesh that E20 and the
#: mesh-churn workload move around: conflict builds at the size churn pays.
CHURN_MESH = random_disk_topology(36, radio_range=220.0, area=900.0, seed=1)
#: The voip-admission workload's 2x4 grid.
ADMISSION_GRID = grid_topology(2, 4)


def test_bench_micro_conflict_graph(benchmark):
    graph = benchmark(conflict_graph, TOPOLOGY, 2)
    assert graph.number_of_nodes() == TOPOLOGY.num_links()


def test_bench_micro_conflict_graph_churn_mesh(benchmark):
    graph = benchmark(conflict_graph, CHURN_MESH, 2)
    assert graph.number_of_nodes() == CHURN_MESH.num_links()


def test_bench_micro_conflict_index_churn_mesh(benchmark):
    # a cold engine build: builder rows straight to CSR, no graph
    index = benchmark(SolverEngine(max_indexes=0).conflict_index, CHURN_MESH)
    assert index.num_links == CHURN_MESH.num_links()


def test_bench_micro_interference_graph(benchmark):
    # Incidence-map construction: work scales with actual interference
    # edges, not with all O(L^2) link pairs (see repro.core.conflict).
    graph = benchmark(interference_graph, TOPOLOGY)
    assert graph.number_of_nodes() == TOPOLOGY.num_links()
    assert graph.number_of_edges() > 0


def test_bench_micro_interference_graph_churn_mesh(benchmark):
    graph = benchmark(interference_graph, CHURN_MESH)
    assert graph.number_of_nodes() == CHURN_MESH.num_links()
    assert graph.number_of_edges() > 0


def test_bench_micro_clique_refutation_admission_grid(benchmark):
    conflicts = conflict_graph(ADMISSION_GRID, hops=2)
    demands = {link: 1 for link in ADMISSION_GRID.links}
    weight = benchmark(_greedy_clique_demand, conflicts, demands, 16)
    assert 1 < weight <= 16


def test_bench_micro_clique_refutation_churn_mesh(benchmark):
    # Every link demanded and a region no clique can exceed: nothing is
    # refuted, so every start grows its clique to maximality -- the dense
    # worst case of the helper ILP probes pay for.
    conflicts = conflict_graph(CHURN_MESH, hops=2)
    demands = {link: 1 for link in CHURN_MESH.links}
    weight = benchmark(_greedy_clique_demand, conflicts, demands,
                       len(demands))
    assert 1 < weight <= len(demands)


def test_bench_micro_bellman_ford_recovery(benchmark):
    schedule = benchmark(schedule_from_order, CONFLICTS, TREE_DEMANDS,
                         FRAME, ORDER)
    assert len(schedule) == len(TREE_DEMANDS)


def test_bench_micro_greedy_packing(benchmark):
    schedule = benchmark(greedy_schedule, CONFLICTS, DEMANDS)
    assert schedule.demands_met(DEMANDS)


def test_bench_micro_feasibility_ilp(benchmark):
    problem = SchedulingProblem(CONFLICTS, TREE_DEMANDS, FRAME)

    result = benchmark(solve_schedule_ilp, problem)
    assert result.feasible


def test_bench_micro_path_delay(benchmark):
    route = [(0, 1), (1, 2), (2, 3)]
    delay = benchmark(path_delay_slots, SCHEDULE, route)
    assert delay > 0


def test_bench_micro_tree_order(benchmark):
    order = benchmark(min_delay_tree_order, TREE, 0)
    assert len(order.links()) == 2 * TREE.number_of_edges()
