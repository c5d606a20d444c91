"""Tests for the zoned/greedy large-topology arms and the policy seam.

Covers :mod:`repro.core.policy` (validation, coercion, auto resolution),
:mod:`repro.core.zones` (partitioning, boundary reservation, the stitched
zoned solve, the greedy portfolio) and the engine-level plumbing (the
dedicated zone-index LRU and its ``zone_index_hits`` counter).  The
statistical contracts -- S8 conflict-freeness, S30 guarantees, exact-arm
bitwise identity -- are property-tested in ``test_property_zones.py``.
"""

import pytest

from repro import obs
from repro.core.conflict import _greedy_clique_demand
from repro.core.engine import SolverEngine
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import demand_lower_bound, minimum_slots
from repro.core.policy import DEFAULT_AUTO_THRESHOLD, SolverPolicy
from repro.core.zones import (
    ZonePartition,
    boundary_reservation,
    greedy_minimum_slots,
    partition_zones,
    zoned_minimum_slots,
)
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import grid_topology, random_disk_topology

FRAME = default_frame_config()


def _instance(num_nodes=20, num_flows=6, seed=7, budget_s=0.1):
    """A routed disk-mesh instance: (engine, index, demands, constraints)."""
    topology = random_disk_topology(num_nodes, radio_range=120.0,
                                   area=400.0, seed=seed)
    nodes = sorted(topology.nodes)
    flows = route_all(topology, FlowSet([
        Flow(f"f{i}", src=nodes[i % len(nodes)],
             dst=nodes[(i + 9) % len(nodes)], rate_bps=60_000,
             delay_budget_s=budget_s)
        for i in range(num_flows)]))
    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    engine = SolverEngine()
    index = engine.conflict_index(topology, links=sorted(demands))
    return engine, index, demands, delay_constraints_for(
        flows, FRAME.frame_duration_s / FRAME.data_slots)


# -- SolverPolicy ----------------------------------------------------------


def test_policy_defaults_are_auto_linear():
    policy = SolverPolicy()
    assert policy.mode == "auto"
    assert policy.search == "linear"
    assert policy.auto_threshold == DEFAULT_AUTO_THRESHOLD


@pytest.mark.parametrize("kwargs", [
    {"mode": "simulated-annealing"},
    {"search": "ternary"},
    {"max_zone_links": 1},
    {"gap_tolerance": -0.1},
    {"auto_threshold": 0},
    {"max_region": 0},
    {"node_limit_per_probe": 0},
    {"node_limit_per_probe": 2.5},
    {"node_limit_per_probe": True},
    {"node_limit_per_probe": "3"},
])
def test_policy_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigurationError):
        SolverPolicy(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"max_region": 2.5},
    {"max_region": True},
    {"max_zone_links": 2.5},
    {"max_zone_links": True},
    {"auto_threshold": 1.5},
    {"auto_threshold": True},
    {"gap_tolerance": float("nan")},
    {"gap_tolerance": float("inf")},
    {"gap_tolerance": "0.1"},
], ids=repr)
def test_policy_rejects_non_int_and_non_finite_knobs(kwargs):
    # every int field follows node_limit_per_probe's rule: an int, not a
    # bool; gap_tolerance must be a finite number
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        SolverPolicy(**kwargs)


def test_policy_coerce_accepts_none_string_and_policy():
    assert SolverPolicy.coerce(None) == SolverPolicy()
    assert SolverPolicy.coerce("greedy").mode == "greedy"
    policy = SolverPolicy(mode="zoned", max_zone_links=8)
    assert SolverPolicy.coerce(policy) is policy
    with pytest.raises(ConfigurationError, match="SolverPolicy"):
        SolverPolicy.coerce(42)


def test_policy_auto_resolves_on_the_threshold():
    policy = SolverPolicy(auto_threshold=10)
    assert policy.resolve_mode(10) == "exact"
    assert policy.resolve_mode(11) == "zoned"
    assert SolverPolicy(mode="greedy").resolve_mode(10_000) == "greedy"


# -- partitioning ----------------------------------------------------------


def test_partition_covers_each_demanded_link_exactly_once():
    ____, index, demands, ____ = _instance()
    partition = partition_zones(index, demands, max_zone_links=5)
    seen = [l for zone in partition.zones for l in zone]
    assert sorted(seen) == sorted(l for l in demands if demands[l] > 0)
    assert len(seen) == len(set(seen))
    assert partition.num_links == len(seen)


def test_partition_respects_the_zone_size_cap():
    ____, index, demands, ____ = _instance()
    partition = partition_zones(index, demands, max_zone_links=4)
    assert partition.sizes() and max(partition.sizes()) <= 4


def test_partition_is_deterministic():
    ____, index, demands, ____ = _instance()
    once = partition_zones(index, demands, max_zone_links=6)
    again = partition_zones(index, demands, max_zone_links=6)
    assert once == again == ZonePartition(once.zones)


def test_partition_ignores_zero_demand_links():
    ____, index, demands, ____ = _instance()
    silent = next(iter(demands))
    demands = dict(demands)
    demands[silent] = 0
    partition = partition_zones(index, demands, max_zone_links=6)
    assert silent not in partition.zone_of()


def test_partition_rejects_degenerate_cap():
    ____, index, demands, ____ = _instance()
    with pytest.raises(ConfigurationError, match="max_zone_links"):
        partition_zones(index, demands, max_zone_links=1)


def test_boundary_reservation_counts_out_of_zone_conflicts():
    ____, index, demands, ____ = _instance()
    all_links = [l for l in index.links if demands.get(l, 0) > 0]
    # The whole mesh as one zone has nothing outside it to reserve for.
    assert boundary_reservation(index, demands, all_links) == 0
    one = [all_links[0]]
    expected = sum(demands.get(nb, 0) for nb in index.neighbors(one[0]))
    assert boundary_reservation(index, demands, one) == expected


# -- the zone-index LRU ----------------------------------------------------


def test_zone_index_is_cached_and_counted():
    engine, index, demands, ____ = _instance()
    zone = tuple(sorted(l for l in demands if demands[l] > 0))[:4]
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    try:
        first = engine.zone_index(index, zone)
        assert engine.stats["zone_index_builds"] == 1
        again = engine.zone_index(index, zone)
        assert again is first
        assert engine.stats["zone_index_hits"] == 1
        assert registry.counter("core.engine.zone_index_hits").value == 1
    finally:
        obs.set_registry(previous)


def test_zone_index_subgraph_matches_induced_subgraph():
    engine, index, demands, ____ = _instance()
    zone = tuple(sorted(l for l in demands if demands[l] > 0))[:6]
    sub = engine.zone_index(index, zone)
    expected = index.graph.subgraph(zone)
    assert sorted(sub.graph.nodes) == sorted(expected.nodes)
    assert (sorted(tuple(sorted(e)) for e in sub.graph.edges)
            == sorted(tuple(sorted(e)) for e in expected.edges))


def test_zone_requests_do_not_evict_the_full_mesh_index():
    """The dedicated zone LRU keeps the main index cache untouched."""
    engine, index, demands, ____ = _instance()
    links = [l for l in demands if demands[l] > 0]
    for i in range(len(links) - 1):
        engine.zone_index(index, links[i:i + 2])
    hits_before = engine.stats["index_hits"]
    topology = random_disk_topology(20, radio_range=120.0, area=400.0,
                                   seed=7)
    # Same fingerprint, same links: must still be a cache hit.
    again = engine.conflict_index(topology, links=sorted(demands))
    assert engine.stats["index_hits"] == hits_before + 1
    assert again is index


def test_zone_index_rejects_foreign_links():
    engine, index, demands, ____ = _instance()
    with pytest.raises(ConfigurationError, match="not a vertex"):
        engine.zone_index(index, [(990, 991)])


# -- the zoned and greedy arms ---------------------------------------------


def test_zoned_schedule_is_conflict_free_and_meets_demands():
    engine, index, demands, constraints = _instance()
    result = zoned_minimum_slots(
        index, demands, FRAME.data_slots, constraints, engine=engine,
        policy=SolverPolicy(mode="zoned", max_zone_links=6))
    assert result.feasible
    assert result.schedule.violations(index) == []
    assert result.schedule.demands_met(demands)
    assert result.slots <= FRAME.data_slots
    assert result.meta["num_zones"] >= 2
    assert result.ilp.solver_status.startswith("zoned(")


def test_zoned_stays_sound_under_a_starved_node_budget():
    """A one-node probe budget can only cost optimality, never soundness:
    undecided probes count as infeasible and the greedy zone certificates
    keep the search feasible."""
    engine, index, demands, constraints = _instance()
    result = zoned_minimum_slots(
        index, demands, FRAME.data_slots, constraints, engine=engine,
        policy=SolverPolicy(mode="zoned", max_zone_links=6,
                            node_limit_per_probe=1))
    assert result.feasible
    assert result.schedule.violations(index) == []
    assert result.schedule.demands_met(demands)


def test_zoned_respects_every_delay_budget():
    from repro.core.delay import path_delay_slots

    engine, index, demands, constraints = _instance()
    result = zoned_minimum_slots(
        index, demands, FRAME.data_slots, constraints, engine=engine,
        policy=SolverPolicy(mode="zoned", max_zone_links=5))
    assert result.feasible
    for constraint in constraints:
        assert (path_delay_slots(result.schedule, constraint.route)
                <= constraint.budget_slots)


def test_zoned_rejects_unmeetable_delay_budgets():
    """A budget below any achievable path delay must yield infeasible,
    never a schedule that silently violates it."""
    from dataclasses import replace

    engine, index, demands, constraints = _instance()
    impossible = [replace(c, budget_slots=1) for c in constraints
                  if len(c.route) > 1]
    result = zoned_minimum_slots(
        index, demands, FRAME.data_slots, impossible, engine=engine,
        policy=SolverPolicy(mode="zoned", max_zone_links=5))
    assert not result.feasible
    assert result.schedule is None


def test_zoned_reports_infeasible_when_demand_exceeds_frame():
    engine, index, demands, ____ = _instance()
    result = zoned_minimum_slots(index, demands, 2, (), engine=engine,
                                 policy=SolverPolicy(mode="zoned"))
    assert not result.feasible
    assert result.lower_bound > 2


def test_zoned_accepts_a_bare_conflict_graph():
    """A hand-built relation (no engine key) gets a content-derived key."""
    from repro.core.conflict import ConflictIndex

    engine, index, demands, ____ = _instance()
    bare = ConflictIndex.from_graph(index.graph)
    assert bare.key == f"adhoc/{index.fingerprint}"
    result = zoned_minimum_slots(
        bare, demands, FRAME.data_slots, (), engine=engine,
        policy=SolverPolicy(mode="zoned", max_zone_links=6))
    assert result.feasible
    assert result.schedule.violations(index) == []


def test_greedy_schedule_is_conflict_free_and_meets_demands():
    engine, index, demands, constraints = _instance()
    result = greedy_minimum_slots(index, demands, FRAME.data_slots,
                                  constraints, engine=engine)
    assert result.feasible
    assert result.schedule.violations(index) == []
    assert result.schedule.demands_met(demands)
    assert result.meta["strategy"] in ("demand", "index")
    assert result.ilp.solver_status.startswith("greedy(")


def test_heuristic_arms_record_the_measured_gap():
    engine, index, demands, ____ = _instance()
    lower = demand_lower_bound(demands)
    result = greedy_minimum_slots(index, demands, FRAME.data_slots, (),
                                  engine=engine)
    expected = (result.slots - lower) / lower
    assert result.meta["gap_vs_lower_bound"] == pytest.approx(expected)


# -- minimum_slots dispatch ------------------------------------------------


def test_auto_dispatches_by_demanded_link_count():
    engine, index, demands, constraints = _instance()
    few = SolverPolicy(auto_threshold=10_000)
    exact = minimum_slots(index, demands, FRAME.data_slots,
                          constraints, engine=engine, policy=few)
    assert exact.meta is None  # the exact arm carries no heuristic meta
    many = SolverPolicy(auto_threshold=1, max_zone_links=6)
    zoned = minimum_slots(index, demands, FRAME.data_slots,
                          constraints, engine=engine, policy=many)
    assert zoned.meta["mode"] == "zoned"
    assert zoned.slots >= exact.slots  # heuristic never beats optimal


def test_policy_mode_string_dispatches_each_arm():
    engine, index, demands, constraints = _instance()
    for mode, expected in (("greedy", "greedy"), ("zoned", "zoned")):
        result = minimum_slots(index, demands, FRAME.data_slots,
                               constraints, engine=engine, policy=mode)
        assert result.meta["mode"] == expected


def test_call_policy_search_overrides_the_engine_policy():
    # 30 ms budgets that first-fit misses: the probe loop searches the gap
    engine, index, demands, constraints = _instance(budget_s=0.03)
    linear = minimum_slots(index, demands, FRAME.data_slots,
                           constraints, engine=SolverEngine(policy="exact"))
    binary = minimum_slots(index, demands, FRAME.data_slots,
                           constraints, engine=SolverEngine(policy="exact"),
                           policy=SolverPolicy(mode="exact", search="binary"))
    assert binary.slots == linear.slots
    assert binary.probes != linear.probes  # different search trajectory
    floor = max(linear.lower_bound,
                _greedy_clique_demand(index, demands, FRAME.data_slots))
    assert linear.lower_bound < floor
    assert linear.probes[0][0] == floor  # the floor, not the bound
    assert binary.probes[0][0] == FRAME.data_slots  # ceiling first


def test_engine_policy_governs_bare_engine_solves():
    engine = SolverEngine(policy="greedy")
    ____, index, demands, constraints = _instance()
    result = minimum_slots(index, demands, FRAME.data_slots,
                           constraints, engine=engine)
    assert result.meta["mode"] == "greedy"


def test_max_region_ceiling_check_survives_the_redesign():
    engine, index, demands, ____ = _instance()
    with pytest.raises(ConfigurationError,
                       match="max_region cannot exceed frame_slots"):
        minimum_slots(index, demands, FRAME.data_slots, engine=engine,
                      policy=SolverPolicy(max_region=FRAME.data_slots + 1))


def test_zoned_solves_a_multicomponent_mesh():
    """Two disjoint grids: zones never bridge components, and the stitch
    overlaps them in time (spatial reuse across zones)."""
    from repro.core.conflict import conflict_graph

    grid = grid_topology(3, 3)
    flows = route_all(grid, FlowSet(
        [Flow("a", src=0, dst=8, rate_bps=60_000)]))
    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    conflicts = conflict_graph(grid, hops=2, links=sorted(demands))
    import networkx as nx

    from repro.core.conflict import ConflictIndex

    shifted = nx.relabel_nodes(conflicts.graph,
                               {l: (l[0] + 100, l[1] + 100)
                                for l in conflicts.links})
    both = ConflictIndex.from_graph(nx.union(conflicts.graph, shifted))
    both_demands = dict(demands)
    both_demands.update({(a + 100, b + 100): d
                         for (a, b), d in demands.items()})
    result = zoned_minimum_slots(
        both, both_demands, FRAME.data_slots, (),
        policy=SolverPolicy(mode="zoned", max_zone_links=4))
    single = zoned_minimum_slots(
        conflicts, demands, FRAME.data_slots, (),
        policy=SolverPolicy(mode="zoned", max_zone_links=4))
    assert result.feasible
    assert result.slots == single.slots  # parallel components overlap
