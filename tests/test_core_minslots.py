"""Minimum-slots search: bounds, the linear probe loop, validation,
the solver-policy seam (validation, coercion, gap-arm dispatch) and the
greedy arm."""

from unittest import mock

import pytest

from repro import obs
from repro.core import policy as policy_module
from repro.core.conflict import _greedy_clique_demand, conflict_graph
from repro.core.engine import BOUNDS_CLOSED, SolverEngine
from repro.core.greedy import greedy_minimum_slots
from repro.core.ilp import DelayConstraint, delay_constraints_for
from repro.core.minslots import demand_lower_bound, minimum_slots
from repro.core.policy import AUTO_THRESHOLD, SolverPolicy
from repro.errors import ConfigurationError, SolverError
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import (
    chain_topology,
    random_disk_topology,
    star_topology,
)

FRAME = default_frame_config()


def chain_instance(hops=4):
    topology = chain_topology(hops + 1)
    route = tuple((i, i + 1) for i in range(hops))
    demands = {link: 1 for link in route}
    conflicts = conflict_graph(topology, hops=2, links=demands.keys())
    return conflicts, demands, route


class TestLowerBound:
    def test_single_link(self):
        assert demand_lower_bound({(0, 1): 3}) == 3

    def test_node_clique(self):
        demands = {(0, 1): 1, (0, 2): 1, (0, 3): 1}
        assert demand_lower_bound(demands) == 3

    def test_empty(self):
        assert demand_lower_bound({}) == 0


class TestLinearSearch:
    def test_chain_bandwidth_only(self):
        conflicts, demands, ____ = chain_instance(4)
        result = minimum_slots(conflicts, demands, frame_slots=16)
        # links (0,1),(1,2),(2,3) mutually conflict -> 3 slots; (3,4)
        # conflicts with (1,2),(2,3) but can reuse (0,1)'s slot
        assert result.slots == 3
        assert result.feasible
        result.schedule.validate(conflicts)

    def test_star_needs_total_demand(self):
        topo = star_topology(4)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, i): 2 for i in range(1, 5)}
        result = minimum_slots(conflicts, demands, frame_slots=16)
        assert result.slots == 8
        # lower bound is tight here, so the search probes exactly once
        assert result.iterations == 1

    def test_delay_constraint_grows_min_slots(self):
        conflicts, demands, route = chain_instance(4)
        unconstrained = minimum_slots(conflicts, demands, frame_slots=16)
        constrained = minimum_slots(
            conflicts, demands, frame_slots=16,
            delay_constraints=[DelayConstraint("f", route, 16)])
        # zero wraps requires a forward pipeline: 4 distinct slots
        assert constrained.slots == 4
        assert constrained.slots > unconstrained.slots

    def test_infeasible_when_ceiling_too_low(self):
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 4, (0, 2): 4, (0, 3): 4}
        result = minimum_slots(conflicts, demands, frame_slots=8)
        assert not result.feasible
        assert result.slots is None
        # lower bound 12 > frame: no probe needed
        assert result.iterations == 0

    def test_infeasible_after_probing(self):
        conflicts, demands, route = chain_instance(5)
        # 1-frame budget needs 5 forward slots; cap region at 4
        result = minimum_slots(
            conflicts, demands, frame_slots=16,
            delay_constraints=[DelayConstraint("f", route, 16)],
            policy=SolverPolicy(max_region=4))
        assert not result.feasible
        assert result.probes  # it did try

    def test_probes_recorded_in_order(self):
        conflicts, demands, ____ = chain_instance(4)
        result = minimum_slots(conflicts, demands, frame_slots=16)
        regions = [region for region, ____ in result.probes]
        assert regions == sorted(regions)
        assert result.probes[-1][1] is True
        assert all(not ok for ____, ok in result.probes[:-1])

    def test_empty_demands(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        result = minimum_slots(conflicts, {}, frame_slots=8)
        assert result.slots == 0


class TestValidation:
    def test_max_region_exceeding_frame(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError):
            minimum_slots(conflicts, {(0, 1): 1}, 8,
                          policy=SolverPolicy(max_region=9))

    @pytest.mark.parametrize("frame_slots", [0, -3, 2.5, True, "16"])
    def test_frame_slots_must_be_a_positive_int(self, chain5, frame_slots):
        # each once read as "infeasible": slots=None, an empty probe log
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError,
                           match="frame_slots must be an int"):
            minimum_slots(conflicts, {(0, 1): 1}, frame_slots)

    def test_demanded_link_missing_from_the_relation(self):
        # (2, 3) is demanded but absent from the relation: treating it as
        # conflict-free would share slot 0 with its neighbour (1, 2)
        conflicts = conflict_graph(chain_topology(4),
                                   links=[(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError, match=r"\(2, 3\)"):
            minimum_slots(conflicts, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, 10)


def _instance(num_nodes=20, num_flows=6, seed=7, budget_s=0.1):
    """A routed disk-mesh instance: (engine, index, demands, constraints).

    At the default 100 ms budgets the bounds close the search; at 30 ms
    they leave a gap, which the policy's gap arm searches.
    """
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
    # the exact arm has one probe loop, the paper's linear search, so the
    # policy holds no search setting
    policy = SolverPolicy()
    assert (policy.mode, policy.max_region,
            policy.node_limit_per_probe) == ("auto", None, None)
    assert list(SolverPolicy.__dataclass_fields__) == [
        "mode", "max_region", "node_limit_per_probe"]


@pytest.mark.parametrize("kwargs", [
    {"mode": "simulated-annealing"},
    {"mode": "binary"},
    {"max_region": -3},
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
], ids=repr)
def test_policy_rejects_non_int_knobs(kwargs):
    # every int field follows node_limit_per_probe's rule: an int, not a
    # bool
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        SolverPolicy(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"mode": "zoned"},
    {"max_zone_links": 6},
    {"max_zone_links": 1},
    {"max_zone_links": 2.5},
    {"max_zone_links": True},
    {"gap_tolerance": 0.1},
    {"gap_tolerance": -0.1},
    {"gap_tolerance": float("nan")},
    {"gap_tolerance": float("inf")},
    {"gap_tolerance": "0.1"},
], ids=repr)
def test_policy_rejects_the_removed_zoned_knobs(kwargs):
    # the zoned arm's mode and knobs are gone: every value, once valid or
    # not, is refused by name
    (knob, _), = kwargs.items()
    with pytest.raises(ConfigurationError,
                       match="zoned" if knob == "mode" else knob):
        SolverPolicy(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"search": "linear"},
    {"search": "binary"},
    {"search": "ternary"},
    {"auto_threshold": 10},
    {"auto_threshold": 1.5},
    {"auto_threshold": True},
], ids=repr)
def test_policy_rejects_the_removed_search_settings(kwargs):
    # one probe loop and a module-level threshold: the probe-search and
    # threshold settings are gone, and every value is refused by name
    (knob, _), = kwargs.items()
    with pytest.raises(ConfigurationError, match=knob):
        SolverPolicy(**kwargs)


def test_policy_coerce_accepts_none_string_and_policy():
    assert SolverPolicy.coerce(None) == SolverPolicy()
    assert SolverPolicy.coerce("greedy").mode == "greedy"
    policy = SolverPolicy(mode="greedy", max_region=8)
    assert SolverPolicy.coerce(policy) is policy
    with pytest.raises(ConfigurationError, match="SolverPolicy"):
        SolverPolicy.coerce(42)
    with pytest.raises(ConfigurationError, match="zoned"):
        SolverPolicy.coerce("zoned")


def test_policy_auto_resolves_on_the_threshold():
    policy = SolverPolicy()
    assert policy.resolve_mode(AUTO_THRESHOLD) == "exact"
    assert policy.resolve_mode(AUTO_THRESHOLD + 1) == "greedy"
    assert SolverPolicy(mode="greedy").resolve_mode(10_000) == "greedy"
    assert SolverPolicy(mode="exact").resolve_mode(10_000) == "exact"


# -- minimum_slots: bounds before dispatch ---------------------------------


def _same_result(result, reference):
    assert result.slots == reference.slots
    assert result.probes == reference.probes
    assert result.lower_bound == reference.lower_bound
    assert result.meta is None
    assert result.schedule.to_dict() == reference.schedule.to_dict()


def test_bounds_closed_search_is_the_same_in_every_mode():
    engine, index, demands, constraints = _instance()
    exact = minimum_slots(index, demands, FRAME.data_slots, constraints,
                          engine=engine, policy="exact")
    assert exact.ilp.solver_status == BOUNDS_CLOSED
    for policy in ("greedy", "auto"):
        _same_result(minimum_slots(index, demands, FRAME.data_slots,
                                   constraints, engine=engine,
                                   policy=policy), exact)
    with mock.patch.object(policy_module, "AUTO_THRESHOLD", 1):
        _same_result(minimum_slots(index, demands, FRAME.data_slots,
                                   constraints, engine=engine,
                                   policy="auto"), exact)


def test_empty_demand_is_decided_the_same_in_every_mode():
    ____, index, demands, ____ = _instance()
    nothing = {link: 0 for link in demands}
    results = [minimum_slots(index, nothing, FRAME.data_slots,
                             policy=mode)
               for mode in ("exact", "greedy", "auto")]
    for result in results:
        assert (result.slots, result.probes, result.meta) == (
            0, [(1, True)], None)
        assert result.schedule.to_dict() == results[0].schedule.to_dict()


def test_auto_dispatches_by_demanded_link_count():
    # 30 ms budgets: the bounds leave a gap for the arm to search
    engine, index, demands, constraints = _instance(budget_s=0.03)
    assert len(demands) <= AUTO_THRESHOLD
    exact = minimum_slots(index, demands, FRAME.data_slots,
                          constraints, engine=engine, policy="auto")
    assert exact.meta is None  # the exact arm carries no heuristic meta
    assert exact.ilp.solver_status != BOUNDS_CLOSED
    with mock.patch.object(policy_module, "AUTO_THRESHOLD", 1):
        greedy = minimum_slots(index, demands, FRAME.data_slots,
                               constraints, engine=engine, policy="auto")
    assert greedy.meta["mode"] == "greedy"
    # sound, not complete: never below the optimum, infeasible allowed
    assert greedy.slots is None or greedy.slots >= exact.slots


def test_policy_mode_string_dispatches_each_arm():
    engine, index, demands, constraints = _instance(budget_s=0.03)
    for mode in ("greedy", "auto", "exact"):
        result = minimum_slots(index, demands, FRAME.data_slots,
                               constraints, engine=engine, policy=mode)
        if mode == "greedy":
            assert result.meta["mode"] == "greedy"
        else:
            assert result.meta is None


def _floor(index, demands):
    return max(demand_lower_bound(demands),
               _greedy_clique_demand(index, demands, FRAME.data_slots))


def test_call_policy_search_overrides_the_engine_policy():
    # 30 ms budgets that first-fit misses: the probe loop searches the gap
    ____, index, demands, constraints = _instance(budget_s=0.03)
    result = minimum_slots(index, demands, FRAME.data_slots, constraints,
                           engine=SolverEngine(policy="greedy"),
                           policy="exact")
    assert result.meta is None  # the call's exact arm, not the engine's
    floor = _floor(index, demands)
    assert result.lower_bound < floor
    # linear from the floor, not the bound: consecutive regions, and
    # only the last one feasible
    assert result.probes == [(region, region == result.slots)
                             for region in range(floor, result.slots + 1)]
    assert result.ilp.solver_status != BOUNDS_CLOSED


def test_an_undecided_probe_counts_as_infeasible_and_the_search_goes_on(
        monkeypatch):
    # the floor's probe exhausts its node budget: it is logged as a miss
    # and the loop moves on to the next region
    ____, index, demands, constraints = _instance(budget_s=0.03)
    engine = SolverEngine(policy="exact")
    floor = _floor(index, demands)
    real_solve = engine.solve

    def solve(problem, **kwargs):
        if problem.region_slots == floor:
            raise SolverError("node budget exhausted")
        return real_solve(problem, **kwargs)

    monkeypatch.setattr(engine, "solve", solve)
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        result = minimum_slots(index, demands, FRAME.data_slots,
                               constraints, engine=engine)
    assert result.probes == [(floor, False), (floor + 1, True)]
    assert registry.counter("core.minslots.probe_timeouts").value == 1
    assert result.slots == floor + 1
    assert result.schedule.violations(index) == []


def test_engine_policy_governs_bare_engine_solves():
    engine = SolverEngine(policy="greedy")
    ____, index, demands, constraints = _instance(budget_s=0.03)
    result = minimum_slots(index, demands, FRAME.data_slots,
                           constraints, engine=engine)
    assert result.meta["mode"] == "greedy"


def test_max_region_ceiling_check_survives_the_redesign():
    engine, index, demands, ____ = _instance()
    with pytest.raises(ConfigurationError,
                       match="max_region cannot exceed frame_slots"):
        minimum_slots(index, demands, FRAME.data_slots, engine=engine,
                      policy=SolverPolicy(max_region=FRAME.data_slots + 1))


# -- the greedy arm --------------------------------------------------------


def test_greedy_schedule_is_conflict_free_and_meets_demands():
    engine, index, demands, constraints = _instance()
    result = greedy_minimum_slots(index, demands, FRAME.data_slots,
                                  constraints, engine=engine)
    assert result.feasible
    assert result.schedule.violations(index) == []
    assert result.schedule.demands_met(demands)
    assert result.meta["strategy"] in ("demand", "index")
    assert result.ilp.solver_status.startswith("greedy(")


def test_greedy_arm_records_the_measured_gap():
    engine, index, demands, ____ = _instance()
    lower = demand_lower_bound(demands)
    result = greedy_minimum_slots(index, demands, FRAME.data_slots, (),
                                  engine=engine)
    expected = (result.slots - lower) / lower
    assert result.meta["gap_vs_lower_bound"] == pytest.approx(expected)


def test_greedy_arm_rejects_a_missed_budget_instead_of_degrading_it():
    engine, index, demands, constraints = _instance(budget_s=0.03)
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        result = greedy_minimum_slots(index, demands, FRAME.data_slots,
                                      constraints, engine=engine)
    assert not result.feasible and result.schedule is None
    assert result.meta["delay_violations"]
    assert [feasible for ____, feasible in result.probes] == [False]
    assert registry.counter("core.zones.delay_rejects").value == 1
