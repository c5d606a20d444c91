"""Microbenchmarks of the scheduling primitives (multi-round timing).

Unlike the experiment benches (one-shot table generation), these use
pytest-benchmark's statistical timing to track the cost of the hot
primitives a deployment would re-run online: conflict-graph and
conflict-index construction (whole mesh and a repair tick's demanded
links), Bellman-Ford schedule recovery, greedy packing, feasibility
ILPs, the ILP front end's conflict-clique refutation, the delay
computation, the S8 check, the packing certificate that closes an
admission decision and the whole decision, a mobility stream's
snapshots and its lowering onto the fault machinery, and the mesh work
of one mobility repair tick, cold and on a warm repair engine.
"""

import itertools

import networkx as nx

import repro.core.admission as admission
from repro.core.admission import AdmissionController
from repro.core.conflict import (
    _Demanded,
    _greedy_clique_demand,
    conflict_graph,
)
from repro.core.delay import path_delay_slots
from repro.core.engine import BOUNDS_CLOSED, SolverEngine, _packing_certificate
from repro.core.greedy import greedy_schedule
from repro.core.ilp import (
    SchedulingProblem,
    delay_constraints_for,
    solve_schedule_ilp,
)
from repro.core.minslots import demand_lower_bound
from repro.core.ordering import schedule_from_order
from repro.core.repair import RepairEngine
from repro.core.tree_order import min_delay_tree_order
from repro.mesh16.frame import default_frame_config
from repro.mobility import RadioRangeModel, RandomWaypointModel, TopologyStream
from repro.net.flows import Flow, FlowSet
from repro.net.routing import gateway_tree, route_all, shortest_path_route
from repro.net.topology import (
    _nearest_sources,
    _survivor_of,
    _update_live_rows,
    grid_topology,
    random_disk_topology,
)
from repro.phy.interference import interference_graph
from repro.traffic.voip import G729
from tests.stream_oracle import (
    assert_same_snapshots,
    assert_union_base_matches_from_edges,
)

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
    assert graph.num_links == TOPOLOGY.num_links()


def test_bench_micro_conflict_graph_churn_mesh(benchmark):
    graph = benchmark(conflict_graph, CHURN_MESH, 2)
    assert graph.num_links == CHURN_MESH.num_links()


def test_bench_micro_conflict_graph_churn_demand(benchmark):
    # The cold build a mesh-churn repair tick pays: the 2-hop relation
    # over the demanded links only -- the routes of the mesh-churn
    # workload's four gateway flows (from the farthest nodes but one, the
    # farthest being the second gateway), 10 links.
    far = sorted((n for n in CHURN_MESH.nodes if n != 0),
                 key=lambda n: (CHURN_MESH.hop_distance(0, n), n))
    links = sorted({link for src in far[-5:-1]
                    for link in shortest_path_route(CHURN_MESH, src, 0)})
    index = benchmark(conflict_graph, CHURN_MESH, 2, links)
    assert index.links == tuple(links) and 8 <= len(links) <= 12
    # pairwise reference: links conflict iff some endpoints are at most
    # one hop apart
    near = dict(nx.all_pairs_shortest_path_length(CHURN_MESH.graph,
                                                  cutoff=1))
    assert [list(index.neighbors(a)) for a in links] == [
        [b for b in links if b != a and any(y in near[x] for x in a
                                            for y in b)]
        for a in links]


def test_bench_micro_conflict_index_churn_mesh(benchmark):
    # a cold engine build: builder rows straight to CSR, no graph
    index = benchmark(SolverEngine(max_indexes=0).conflict_index, CHURN_MESH)
    assert index.num_links == CHURN_MESH.num_links()


def test_bench_micro_interference_graph(benchmark):
    # Incidence-map construction: work scales with actual interference
    # edges, not with all O(L^2) link pairs (see repro.core.conflict).
    graph = benchmark(interference_graph, TOPOLOGY)
    assert graph.num_links == TOPOLOGY.num_links()
    assert graph.num_conflicts > 0


def test_bench_micro_interference_graph_churn_mesh(benchmark):
    graph = benchmark(interference_graph, CHURN_MESH)
    assert graph.num_links == CHURN_MESH.num_links()
    assert graph.num_conflicts > 0


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
    assert len(order.links()) == 2 * len(TREE)


def test_bench_micro_packing_certificate_admission_grid(benchmark):
    # Six G.729 gateway calls with 50 ms budgets, as voip-admission
    # offers them: first fit closes the search at the greedy-clique floor.
    frame = default_frame_config()
    flows = route_all(ADMISSION_GRID, FlowSet(
        Flow(f"call{i}", src, dst, rate_bps=G729.wire_rate_bps,
             delay_budget_s=0.05)
        for i, (src, dst) in enumerate(
            [(1, 0), (0, 2), (3, 0), (0, 5), (6, 0), (0, 7)])))
    demands = flows.link_demands(frame.frame_duration_s,
                                 frame.data_slot_capacity_bits)
    constraints = delay_constraints_for(
        flows, frame.frame_duration_s / frame.data_slots)
    conflicts = conflict_graph(ADMISSION_GRID, hops=2)
    view = _Demanded(conflicts, demands)
    floor = max(demand_lower_bound(demands),
                _greedy_clique_demand(conflicts, demands, frame.data_slots))
    result = benchmark(_packing_certificate, conflicts, demands, view,
                       frame.data_slots, floor, constraints)
    assert result.solver_status == BOUNDS_CLOSED
    assert result.schedule.violations(conflicts) == []
    assert result.schedule.makespan() <= floor
    assert result.max_delay_slots <= min(c.budget_slots
                                         for c in constraints)


def test_bench_micro_admission_decision(benchmark, monkeypatch):
    # One voip-admission decision: a sixth G.729 gateway call offered to
    # try_admit with five admitted.  It closes on the bounds, and nothing
    # reads the schedule inside the timed call.
    frame = default_frame_config()
    calls = [Flow(f"call{i}", src, dst, rate_bps=G729.wire_rate_bps,
                  delay_budget_s=0.05)
             for i, (src, dst) in enumerate(
                 [(1, 0), (0, 2), (3, 0), (0, 5), (6, 0), (0, 7)])]
    searches = []
    search = admission.minimum_slots

    def recording(*args, **kwargs):
        searches.append(search(*args, **kwargs))
        return searches[-1]

    def admitted_five():
        controller = AdmissionController(
            ADMISSION_GRID, frame_slots=frame.data_slots,
            frame_duration_s=frame.frame_duration_s,
            slot_capacity_bits=frame.data_slot_capacity_bits)
        for flow in calls[:-1]:
            assert controller.try_admit(flow).admitted
        return (controller, calls[-1]), {}

    monkeypatch.setattr(admission, "minimum_slots", recording)
    controllers = []

    def decide(controller, flow):
        controllers.append(controller)
        return controller.try_admit(flow)

    decision = benchmark.pedantic(decide, setup=admitted_five, rounds=50)
    assert decision.admitted
    assert searches[-1].ilp.solver_status == BOUNDS_CLOSED
    controller = controllers[-1]
    schedule = decision.schedule
    assert schedule is controller.schedule
    assert schedule.violations(controller.conflicts) == []
    budget = int(0.05 / controller.slot_duration_s)
    assert all(path_delay_slots(schedule, flow.route) <= budget
               for flow in controller.admitted)


def test_bench_micro_violations_churn_mesh(benchmark):
    # The S8 check of a first-fit packing of every churn-mesh link.
    conflicts = conflict_graph(CHURN_MESH, hops=2)
    schedule = greedy_schedule(conflicts,
                               {link: 1 for link in CHURN_MESH.links})
    assert benchmark(schedule.violations, conflicts) == []


def test_bench_micro_stream_snapshots(benchmark):
    # A fresh mesh-churn stream's connectivity snapshots: 36 nodes over
    # 10 s at 0.25 s ticks (41 samples), the cost every new stream pays
    # once, on its first fault_plan.
    motion = RandomWaypointModel(36, 900.0, 10.0, 10.0, seed=5)
    radio = RadioRangeModel(220.0, hysteresis=0.15)

    def fresh():
        stream = TopologyStream(motion, radio, dt=0.25)
        stream.snapshots()
        return stream

    stream = benchmark(fresh)
    assert_same_snapshots(stream)


def test_bench_micro_stream_lowering(benchmark):
    # A fresh mesh-churn stream's lowering onto the fault machinery, its
    # snapshots already computed: the union base, the t=0 dead sets and
    # the fault plan, built once per stream and gateway.
    motion = RandomWaypointModel(36, 900.0, 10.0, 10.0, seed=5)
    radio = RadioRangeModel(220.0, hysteresis=0.15)

    def fresh():
        stream = TopologyStream(motion, radio, dt=0.25)
        stream.snapshots()
        return (stream,), {}

    def lower(stream):
        return stream, stream.fault_plan(0)

    stream, world = benchmark.pedantic(lower, setup=fresh, rounds=50)
    assert stream.fault_plan(0) is world
    assert_union_base_matches_from_edges(stream, 0, world.topology,
                                         world.dropped_nodes)
    t0_nodes, t0_edges = stream.snapshots()[0][1:]
    assert world.dead_nodes == frozenset(world.topology.rows) - t0_nodes
    assert world.dead_edges == frozenset(world.topology.edges) - t0_edges


def _churn_world():
    # a mesh-churn world (motion seed 5): union base and t=0 fault state
    motion = RandomWaypointModel(36, 900.0, 10.0, 10.0, seed=5)
    stream = TopologyStream(motion, RadioRangeModel(220.0, hysteresis=0.15),
                            dt=0.25)
    return stream.fault_plan(0)


def _check_tick(union, dead_nodes, dead_edges, gateways, survivor, nearest,
                index):
    # networkx oracles for one tick: the anchor's component, every node's
    # nearest gateway over the live union mesh, and the 2-hop relation
    live = nx.Graph(union.graph)
    live.remove_edges_from(dead_edges)
    live.remove_nodes_from(dead_nodes)
    component = live.subgraph(nx.node_connected_component(live, 0))
    assert survivor.rows == {n: tuple(sorted(component.adj[n]))
                             for n in sorted(component)}
    hops = {g: nx.single_source_shortest_path_length(live, g)
            for g in gateways if g in live}
    assert nearest == {
        n: min((hops[g][n], g) for g in hops if n in hops[g])[1]
        for n in live if any(n in reach for reach in hops.values())}
    # the 2-hop protocol model: links conflict iff some endpoints are
    # at most one hop apart
    distance = dict(nx.all_pairs_shortest_path_length(component, cutoff=1))
    assert index.pairs() == [
        (a, b) for a, b in itertools.combinations(index.links, 2)
        if any(y in distance[x] for x in a for y in b)]


def test_bench_micro_mobility_tick(benchmark):
    # One cold repair tick's mesh work on a mesh-churn world at t=0: the
    # live rows, the anchor's surviving component, every node's nearest
    # of two gateways over the live rows, and the cold conflict index of
    # four routed gateway flows.
    world = _churn_world()
    union, dead_nodes, dead_edges = (world.topology, world.dead_nodes,
                                     world.dead_edges)
    gateways = (0, 35)
    sources = (7, 12, 21, 30)

    def tick():
        live = _update_live_rows({}, union.rows, union.rows, dead_nodes,
                                 dead_edges)
        survivor, _ = _survivor_of(union, live, 0)
        nearest = _nearest_sources(live, gateways)
        links = sorted({link for src in sources
                        for link in shortest_path_route(survivor, src, 0)})
        index = SolverEngine(max_indexes=0).conflict_index(survivor,
                                                           links=links)
        return survivor, nearest, index

    survivor, nearest, index = benchmark(tick)
    _check_tick(union, dead_nodes, dead_edges, gateways, survivor, nearest,
                index)


def test_bench_micro_mobility_warm_tick(benchmark):
    # One batch (the plan's first sample tick) applied to a warm repair
    # engine carrying four gateway flows from the t=0 world: the
    # incremental live rows and survivor, the repair and its conflict
    # index, and the nearest of two gateways over the new live rows.
    world = _churn_world()
    union = world.topology
    gateways = (0, 35)
    flows = [Flow(f"mob{i}", src, 0, rate_bps=80_000, delay_budget_s=0.3)
             for i, src in enumerate((7, 12, 21, 30))]
    first = next(iter(world.plan)).at_s
    dead_nodes, dead_edges = set(world.dead_nodes), set(world.dead_edges)
    for event in world.plan:
        if event.at_s != first:
            break
        if event.node is not None:
            (dead_nodes.add if event.kind == "node_down"
             else dead_nodes.discard)(event.node)
        else:
            (dead_edges.add if event.kind == "link_down"
             else dead_edges.discard)(event.link)
    dead_nodes, dead_edges = frozenset(dead_nodes), frozenset(dead_edges)

    def warm():
        repair = RepairEngine(union, default_frame_config(),
                              dead_nodes=world.dead_nodes,
                              dead_edges=world.dead_edges)
        repair.install(flows)
        return (repair,), {}

    def tick(repair):
        repair.retarget(dead_nodes, dead_edges)
        nearest = _nearest_sources(repair.live_rows, gateways)
        return repair, nearest

    repair, nearest = benchmark.pedantic(tick, setup=warm, rounds=20)
    assert repair.history[-1].changed
    index = repair.engine.conflict_index(repair.alive,
                                         links=repair.schedule.links())
    assert repair.schedule.violations(index) == []
    _check_tick(union, dead_nodes, dead_edges, gateways, repair.alive,
                nearest, index)
