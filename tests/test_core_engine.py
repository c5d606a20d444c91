"""Unit tests for repro.core.engine: indexes, caches, counters."""

import networkx as nx
import pytest

from repro import obs
from repro.core.conflict import conflict_graph
from repro.core.engine import (
    BOUNDS_CLOSED,
    ConflictIndex,
    SolverEngine,
    default_engine,
)
from repro.core.ilp import DelayConstraint
from repro.core.minslots import minimum_slots
from repro.core.repair import RepairEngine
from repro.errors import ConfigurationError
from repro.mesh16.distributed import DistributedScheduler
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import chain_topology, grid_topology
from repro.phy.interference import interference_graph
from repro.phy.models import ProtocolModel, SinrModel


@pytest.fixture
def registry():
    reg = obs.MetricsRegistry()
    previous = obs.set_registry(reg)
    yield reg
    obs.set_registry(previous)


def _demands(topology, n=4):
    return {link: 1 for link in sorted(topology.links)[:n]}


# -- index keys ------------------------------------------------------------


def test_topology_fingerprint_ignores_name_and_positions():
    # indexes are keyed by the rows alone: a topology that differs only
    # in name or positions reads the same cached protocol and exact
    # interference indexes
    engine = SolverEngine()
    a = chain_topology(5)
    b = chain_topology(5)
    b.name = "other"
    b.positions = {node: (10.0 * x, 3.0 * y)
                   for node, (x, y) in b.positions.items()}
    assert engine.conflict_index(b) is engine.conflict_index(a)
    assert engine.interference_index(b) is engine.interference_index(a)
    assert engine.conflict_index(chain_topology(6)) is not \
        engine.conflict_index(a)
    assert engine.stats["index_builds"] == 3


# -- ConflictIndex ---------------------------------------------------------


def test_conflict_index_matches_conflict_graph():
    topo = grid_topology(3, 3)
    demands = _demands(topo, n=6)
    index = SolverEngine().conflict_index(topo, links=demands.keys())
    reference = conflict_graph(topo, hops=2, links=demands.keys()).graph
    assert set(index.graph.nodes) == set(reference.nodes)
    assert ({tuple(sorted(e)) for e in index.graph.edges}
            == {tuple(sorted(e)) for e in reference.edges})
    assert index.num_links == reference.number_of_nodes()
    assert index.num_conflicts == reference.number_of_edges()


def test_conflict_index_csr_adjacency():
    topo = chain_topology(5)
    index = SolverEngine().conflict_index(
        topo, interference=ProtocolModel(1))
    for link in index.links:
        assert index.links[index.position(link)] == link
        assert set(index.neighbors(link)) == set(index.graph.neighbors(link))
        assert index.degree(link) == index.graph.degree(link)
    with pytest.raises(ConfigurationError):
        index.position((99, 100))


def test_interference_index_is_exact_relation():
    topo = grid_topology(2, 3)
    index = SolverEngine().interference_index(topo)
    reference = interference_graph(topo)
    assert ({tuple(sorted(e)) for e in index.graph.edges}
            == {tuple(sorted(e)) for e in reference.graph.edges})


# -- cache behaviour -------------------------------------------------------


def test_index_cache_hits_and_lru_eviction(registry):
    engine = SolverEngine(max_indexes=2)
    topos = [chain_topology(n) for n in (3, 4, 5)]
    first = engine.conflict_index(topos[0])
    assert engine.conflict_index(topos[0]) is first
    assert engine.stats == {**engine.stats, "index_builds": 1,
                            "index_hits": 1}
    engine.conflict_index(topos[1])
    engine.conflict_index(topos[2])  # evicts topos[0]
    assert engine.conflict_index(topos[0]) is not first
    snap = registry.snapshot()
    assert snap["counters"]["core.engine.index_builds"] == 4
    assert snap["counters"]["core.engine.index_hits"] == 1


def test_topologies_with_equal_rows_share_one_protocol_index(registry):
    # the protocol index is keyed by row content, not by object
    engine = SolverEngine()
    one, two = grid_topology(3, 3), grid_topology(3, 3)
    assert one is not two and one.rows == two.rows
    first = engine.conflict_index(one, links=[(0, 1), (4, 5)])
    assert engine.conflict_index(two, links=[(4, 5), (0, 1)]) is first
    assert engine.stats["index_builds"] == 1
    assert engine.stats["index_hits"] == 1
    snap = registry.snapshot()
    assert snap["counters"]["core.engine.index_builds"] == 1
    assert snap["counters"]["core.engine.index_hits"] == 1


@pytest.mark.parametrize("field", ["max_indexes"])
@pytest.mark.parametrize("size", [-1, float("nan"), 2.5, True, "3", None])
def test_cache_sizes_must_be_non_bool_non_negative_ints(field, size):
    with pytest.raises(ConfigurationError, match=field):
        SolverEngine(**{field: size})


def test_default_engine_is_stateless():
    engine = default_engine()
    assert engine.max_indexes == 0
    topo = chain_topology(4)
    hits = engine.stats["index_hits"]
    assert engine.conflict_index(topo) is not engine.conflict_index(topo)
    assert engine.stats["index_hits"] == hits  # nothing retained


# -- gap searches --------------------------------------------------------


def _upstream_gap_instance():
    """Chain-6 all-links demand plus a one-frame budget on the 5 -> 0 path.

    First-fit-decreasing packs links in canonical order, so the upstream
    route runs backwards through the frame -- one wrap per hop -- and the
    certificate misses the budget: the search has a gap, and the probe
    loop runs.
    """
    topo = chain_topology(6)
    demands = {link: 1 for link in topo.links}
    conflicts = conflict_graph(topo, hops=2, links=demands.keys())
    upstream = DelayConstraint(
        "up", tuple((node, node - 1) for node in range(5, 0, -1)), 16)
    return conflicts, demands, [upstream]


def test_every_gap_probe_is_an_ilp_and_caching_changes_no_answer():
    conflicts, demands, constraints = _upstream_gap_instance()
    stateless = SolverEngine(max_indexes=0)
    reference = minimum_slots(conflicts, demands, 16, constraints,
                              engine=stateless)
    assert reference.ilp.solver_status != BOUNDS_CLOSED
    assert stateless.stats["ilp_probes"] == len(reference.probes)
    cached = SolverEngine()
    for ____ in range(2):
        result = minimum_slots(conflicts, demands, 16, constraints,
                               engine=cached)
        assert result.slots == reference.slots
        assert result.probes == reference.probes
        assert result.schedule.to_dict() == reference.schedule.to_dict()
    # no solved problem is kept: the repeat search solves every probe again
    assert cached.stats["ilp_solves"] == 2 * stateless.stats["ilp_solves"]


def test_descent_closes_a_churn_install_first_fit_misses(registry,
                                                        monkeypatch):
    """A mesh-churn install: first-fit misses the budgets at floor = K = 12.

    36 nodes on random waypoints over a 900 m field, 220 m range, four
    gateway-bound 80 kb/s flows with 300 ms budgets from the farthest
    union nodes (the farthest is a second gateway).  The packing descent
    finds a packing inside the floor, so the search closes there with
    no ILP.
    """
    import repro.core.repair as repair
    from repro.core.delay import path_delay_slots
    from repro.core.greedy import greedy_schedule
    from repro.core.schedule import Schedule
    from repro.errors import InfeasibleScheduleError
    from repro.mobility.models import RandomWaypointModel
    from repro.mobility.stream import RadioRangeModel, TopologyStream

    motion = RandomWaypointModel(36, 900.0, 10.0, 10.0, seed=15)
    stream = TopologyStream(motion, RadioRangeModel(220.0, hysteresis=0.15),
                            dt=0.25)
    world = stream.fault_plan(0)
    topology = world.topology
    far = sorted((n for n in topology.nodes if n != 0),
                 key=lambda n: (topology.hop_distance(0, n), n))
    sources = [n for n in far if n != far[-1]][-4:]
    flows = [Flow(f"mob{i}", src, 0, rate_bps=80_000, delay_budget_s=0.3)
             for i, src in enumerate(sources)]
    calls = []
    real_minimum_slots = repair.minimum_slots

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real_minimum_slots(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(repair, "minimum_slots", spy)
    engine = RepairEngine(topology, default_frame_config(), gateway=0,
                          engine=SolverEngine(),
                          dead_nodes=world.dead_nodes,
                          dead_edges=world.dead_edges)
    outcome = engine.install(flows)

    ((conflicts, demands, frame_slots), kwargs, search), = calls
    constraints = kwargs["delay_constraints"]
    try:
        packed = greedy_schedule(conflicts, demands, frame_slots=12)
    except InfeasibleScheduleError:
        first_fit_fits = False
    else:
        # budgets at the full frame length, where a wrap costs the frame
        first_fit = Schedule(frame_slots, dict(packed.items()))
        first_fit_fits = all(
            path_delay_slots(first_fit, c.route) <= c.budget_slots
            for c in constraints)
    assert not first_fit_fits
    assert search.slots == 12 and search.probes == [(12, True)]
    assert search.ilp.solver_status == BOUNDS_CLOSED
    assert outcome.feasible and outcome.ilp_probes == 1
    counters = registry.snapshot()["counters"]
    assert counters["core.minslots.bounds_closed"] == 1
    assert counters["core.minslots.packing_nodes"] > 0
    assert "core.minslots.packing_capped" not in counters
    assert "core.ilp.solves" not in counters
    schedule = engine.schedule
    assert schedule.violations(conflicts) == []
    assert max(block.end for _, block in schedule.items()) == 12


def test_closed_search_publishes_the_first_fit_certificate(registry):
    topo = chain_topology(6)
    demands = {link: 1 for link in topo.links}
    conflicts = conflict_graph(topo, hops=2, links=demands.keys())
    search = minimum_slots(conflicts, demands, 16, engine=SolverEngine())
    assert search.probes == [(search.slots, True)]
    assert search.ilp.solver_status == BOUNDS_CLOSED
    assert search.ilp.num_variables == 0
    assert search.schedule.frame_slots == 16
    assert search.schedule.violations(conflicts) == []
    counters = registry.snapshot()["counters"]
    assert counters["core.minslots.bounds_closed"] == 1
    assert "core.ilp.solves" not in counters


# -- cross-layer consumers -------------------------------------------------


def test_repair_engine_reuses_one_conflict_index(registry):
    topo = grid_topology(3, 3)
    frame = default_frame_config()
    flows = route_all(topo, FlowSet([
        Flow("f0", src=8, dst=0, rate_bps=64_000, delay_budget_s=0.1),
        Flow("f1", src=6, dst=0, rate_bps=64_000, delay_budget_s=0.1)]))
    repair = RepairEngine(topo, frame)
    repair.install(list(flows))
    repair.retarget(frozenset(), frozenset({(0, 1)}))
    stats = repair.engine.stats
    # every conflict graph the repair path consumed went through the
    # engine; re-running an identical retarget only adds cache hits
    builds_before = stats["index_builds"]
    repair.peek_resolve()
    assert repair.engine.stats["index_builds"] == builds_before
    snap = registry.snapshot()
    assert snap["counters"]["core.engine.index_builds"] == builds_before
    assert snap["counters"].get("core.engine.index_hits", 0) >= 1


def test_distributed_scheduler_validates_against_shared_index(registry):
    topo = grid_topology(2, 3)
    demands = {link: 1 for link in sorted(topo.links)[::2]}
    engine = SolverEngine()
    dsch = DistributedScheduler(topo, 2 * len(demands), engine=engine)
    first = dsch.run(demands)
    second = dsch.run(demands)
    assert not first.unserved and not second.unserved
    assert engine.stats["index_builds"] == 1  # one build, second run hits
    assert engine.stats["index_hits"] == 1
    snap = registry.snapshot()
    assert snap["counters"]["mesh16.dsch.validated"] == 2


def test_scenario_shares_engine_across_properties():
    from repro.api import Scenario

    topo = grid_topology(3, 3)
    flows = [Flow("f", src=8, dst=0, rate_bps=64_000, delay_budget_s=0.1)]
    scenario = Scenario(topo, flows).route()
    scenario.conflicts
    scenario.conflicts
    search = scenario.schedule()
    assert search.feasible
    assert scenario.engine.stats["index_builds"] == 1
    assert scenario.engine.stats["index_hits"] >= 2


# -- in-place mutation -----------------------------------------------------


#: (engine read, cold build) of the exact interference relation and of a
#: SINR relation
RELATIONS = [
    (lambda engine, topology: engine.interference_index(topology),
     interference_graph),
    (lambda engine, topology: engine.conflict_index(
        topology, interference=SinrModel()),
     SinrModel().conflict_graph),
]


def _assert_cold(index, build, topology):
    cold = build(topology)
    assert index.links == cold.links
    assert index.pairs() == cold.pairs()


def test_fingerprint_invalidated_by_in_place_mutation():
    for read, build in RELATIONS:
        engine = SolverEngine()
        topology = grid_topology(3, 3)
        before = read(engine, topology)
        topology.apply_edge_changes(remove=[(0, 1)])
        after = read(engine, topology)
        assert after is not before and (0, 1) not in after
        _assert_cold(after, build, topology)
        topology.apply_edge_changes(add=[(0, 1)])
        assert read(engine, topology) is before


def test_fingerprint_survives_equal_count_edge_swap():
    # remove one edge and add another in a single call: node and edge
    # counts are unchanged, yet the engine must not serve the old index
    for read, build in RELATIONS:
        engine = SolverEngine()
        topology = grid_topology(3, 3)
        before = read(engine, topology)
        topology.apply_edge_changes(add=[(0, 4)], remove=[(0, 1)])
        after = read(engine, topology)
        assert after is not before
        assert (0, 4) in after and (0, 1) not in after
        _assert_cold(after, build, topology)


def test_engine_never_serves_a_stale_index_after_mutation(registry):
    engine = SolverEngine()
    topology = grid_topology(3, 3)
    stale = engine.conflict_index(topology)
    topology.apply_edge_changes(remove=[(0, 1)])
    fresh = engine.conflict_index(topology)
    assert fresh is not stale
    expected = conflict_graph(topology, hops=2)
    assert set(map(frozenset, fresh.graph.edges)) == \
        set(map(frozenset, expected.graph.edges))


def test_lazy_edges_are_rebuilt_after_edge_changes():
    topology = grid_topology(2, 2)
    assert topology._edges is None  # nothing read yet
    assert topology.edges == [(0, 1), (0, 2), (1, 3), (2, 3)]
    topology.apply_edge_changes(add=[(3, 0)], remove=[(1, 0)])
    assert topology._edges is None
    assert topology.edges == [(0, 2), (0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("topology, hops, links", [
    (chain_topology(5), 4, None),
    (chain_topology(4), 3, None),
    (grid_topology(2, 3), 3, [(0, 1), (1, 0), (4, 5)]),
])
def test_engine_raises_the_conflict_graph_degenerate_hops_error(
        topology, hops, links):
    with pytest.raises(ConfigurationError) as from_graph:
        conflict_graph(topology, hops=hops, links=links)
    with pytest.raises(ConfigurationError) as from_engine:
        SolverEngine(max_indexes=0).conflict_index(
            topology, links=links, interference=ProtocolModel(hops))
    assert "degenerates" in str(from_graph.value)
    assert str(from_engine.value) == str(from_graph.value)


def test_protocol_index_materialises_its_graph_once_on_demand(monkeypatch):
    from repro.core.conflict import ConflictIndex

    calls = []
    real = ConflictIndex.pairs
    monkeypatch.setattr(ConflictIndex, "pairs",
                        lambda self: calls.append(self) or real(self))
    index = SolverEngine().conflict_index(grid_topology(3, 3))
    index.neighbors(index.links[0])
    assert calls == []
    graph = index.graph
    assert index.graph is graph and len(calls) == 1
    assert graph.number_of_edges() == index.num_conflicts
