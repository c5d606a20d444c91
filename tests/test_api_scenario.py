"""Tests for the repro.api.Scenario facade."""

import pytest

from repro import Scenario
from repro.core.conflict import conflict_graph
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import minimum_slots
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import chain_topology, grid_topology


def _flows():
    return [Flow("voip0", src=0, dst=5, rate_bps=80_000,
                 delay_budget_s=0.05)]


def test_scenario_is_reexported_from_repro():
    import repro

    assert repro.Scenario is Scenario
    assert "Scenario" in repro.__all__


def test_constructor_accepts_flowset_or_iterable():
    topo = chain_topology(3)
    flows = [Flow("f", src=0, dst=2, rate_bps=1000)]
    from_list = Scenario(topo, flows)
    from_set = Scenario(topo, FlowSet(flows))
    assert isinstance(from_list.flows, FlowSet)
    assert from_list.flows.names() == from_set.flows.names() == ["f"]


def test_default_frame_is_the_standard_one():
    scenario = Scenario(chain_topology(3),
                        [Flow("f", src=0, dst=2, rate_bps=1000)])
    default = default_frame_config()
    assert scenario.frame.data_slots == default.data_slots
    assert scenario.frame.frame_duration_s == default.frame_duration_s


def test_route_is_chainable_and_routes_flows():
    scenario = Scenario(chain_topology(6), _flows())
    assert scenario.route() is scenario
    assert all(f.is_routed for f in scenario.flows)


def test_schedule_requires_routed_flows():
    scenario = Scenario(chain_topology(6), _flows())
    with pytest.raises(ConfigurationError, match=r"call \.route\(\)"):
        scenario.schedule()


def test_facade_matches_the_longhand_chain():
    """Scenario must produce exactly what the 6-import chain produces."""
    topo = chain_topology(6)
    frame = default_frame_config()

    # long-hand
    flows = route_all(topo, FlowSet(_flows()))
    demands = flows.link_demands(frame.frame_duration_s,
                                 frame.data_slot_capacity_bits)
    conflicts = conflict_graph(topo, hops=2, links=demands.keys())
    longhand = minimum_slots(
        conflicts, demands, frame.data_slots,
        delay_constraints=delay_constraints_for(
            flows, frame.frame_duration_s / frame.data_slots))

    # facade
    facade = Scenario(topo, _flows()).route().schedule()

    assert facade.slots == longhand.slots
    assert facade.feasible == longhand.feasible
    assert facade.schedule.to_dict() == longhand.schedule.to_dict()


def test_intermediates_are_inspectable():
    scenario = Scenario(chain_topology(4), [
        Flow("f", src=0, dst=3, rate_bps=64_000, delay_budget_s=0.1)])
    scenario.route()
    demands = scenario.demands
    assert demands and all(isinstance(v, int) for v in demands.values())
    assert set(scenario.conflicts.links) == set(demands)
    constraints = scenario.delay_constraints
    assert len(constraints) == 1 and constraints[0].name == "f"


def test_schedule_result_is_kept_on_the_scenario():
    scenario = Scenario(chain_topology(4),
                        [Flow("f", src=0, dst=3, rate_bps=64_000)])
    result = scenario.route().schedule()
    assert scenario.minslots is result


def test_enforce_delay_off_drops_constraints():
    scenario = Scenario(chain_topology(6), _flows())
    scenario.route()
    relaxed = scenario.schedule(enforce_delay=False)
    assert relaxed.feasible


def test_simulate_requires_a_schedule_first():
    scenario = Scenario(chain_topology(4),
                        [Flow("f", src=0, dst=3, rate_bps=64_000)])
    scenario.route()
    with pytest.raises(ConfigurationError, match="schedule"):
        scenario.simulate(duration_s=1.0, seed=1)


def test_simulate_runs_the_emulation_end_to_end():
    scenario = Scenario(grid_topology(2, 2), [
        Flow("voip0", src=3, dst=0, rate_bps=80_000, delay_budget_s=0.1)])
    scenario.route().schedule()
    run = scenario.simulate(duration_s=1.5, seed=11)
    assert "voip0" in run.qos
    assert run.qos["voip0"].received > 0


def test_simulate_is_seed_reproducible():
    def qos():
        scenario = Scenario(grid_topology(2, 2), [
            Flow("voip0", src=3, dst=0, rate_bps=80_000,
                 delay_budget_s=0.1)])
        scenario.route().schedule()
        run = scenario.simulate(duration_s=1.0, seed=5)
        q = run.qos["voip0"]
        return (q.sent, q.received, q.p95_delay_s)

    assert qos() == qos()


def test_repr_mentions_topology_and_flows():
    scenario = Scenario(chain_topology(5), _flows())
    text = repr(scenario)
    assert "chain5" in text and "1 flows" in text


class TestServiceFlowScenario:
    def _service_flows(self):
        from repro.qos import ServiceClass, ServiceFlow, TrafficContract

        frame = default_frame_config()
        slot_rate = frame.data_slot_capacity_bits / frame.frame_duration_s
        return [
            ServiceFlow("voip0", 1, 0, ServiceClass.UGS, TrafficContract(
                min_reserved_rate_bps=2 * slot_rate,
                max_sustained_rate_bps=2 * slot_rate, max_latency_s=0.05)),
            ServiceFlow("bulk0", 2, 0, ServiceClass.BE, TrafficContract(
                max_sustained_rate_bps=4 * slot_rate)),
        ]

    def test_exactly_one_flow_argument(self):
        from repro.qos import ServiceFlowSet

        topo = chain_topology(3)
        with pytest.raises(ConfigurationError, match="exactly one"):
            Scenario(topo)
        with pytest.raises(ConfigurationError, match="exactly one"):
            Scenario(topo, flows=_flows(),
                     service_flows=ServiceFlowSet(self._service_flows()))

    def test_service_flows_project_to_plain_flows(self):
        from repro.qos import ServiceFlowSet

        scenario = Scenario(chain_topology(3),
                            service_flows=self._service_flows())
        assert isinstance(scenario.service_flows, ServiceFlowSet)
        assert scenario.flows.names() == ["voip0", "bulk0"]
        assert scenario.flows.get("voip0").delay_budget_s == 0.05

    def test_route_routes_service_flows(self):
        scenario = Scenario(chain_topology(3),
                            service_flows=self._service_flows()).route()
        assert scenario.service_flows.get("bulk0").route == ((2, 1), (1, 0))
        assert scenario.flows.get("bulk0").route == ((2, 1), (1, 0))

    def test_simulate_qos_needs_service_flows(self):
        scenario = Scenario(chain_topology(3), flows=_flows())
        with pytest.raises(ConfigurationError, match="service_flows"):
            scenario.simulate_qos()

    def test_simulate_qos_end_to_end(self):
        from repro.qos import QosRunResult, ServiceClass

        scenario = Scenario(chain_topology(3),
                            service_flows=self._service_flows())
        result = scenario.simulate_qos("drr", num_frames=50)
        assert isinstance(result, QosRunResult)
        assert result.discipline == "drr"
        assert result.stats_for(ServiceClass.UGS).latency_violations == 0
        assert scenario.service_flows.get("voip0").is_routed


class TestScenarioMobility:
    def _stream(self):
        from repro.mobility import TopologyStream
        from repro.mobility.models import ConstantVelocityModel

        positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (0.0, 80.0),
                     3: (80.0, 80.0), 4: (160.0, 40.0)}
        velocities = {n: (0.0, 0.0) for n in positions}
        velocities[4] = (-10.0, 0.0)
        model = ConstantVelocityModel(positions, velocities, 10.0)
        return TopologyStream(model, 100.0, dt=1.0)

    def test_mobility_derives_the_union_topology(self):
        scenario = Scenario(mobility=self._stream(),
                            flows=[Flow("f0", src=4, dst=0,
                                        rate_bps=64_000,
                                        delay_budget_s=0.5)])
        assert sorted(scenario.topology.graph.nodes) == [0, 1, 2, 3, 4]
        assert scenario.mobility is not None

    def test_mobility_and_topology_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            Scenario(chain_topology(3), flows=_flows(),
                     mobility=self._stream())
        with pytest.raises(ConfigurationError, match="topology= or"):
            Scenario(flows=_flows())

    def test_simulate_mobility_end_to_end(self):
        from repro.mobility.run import MobilityRunResult

        scenario = Scenario(mobility=self._stream(),
                            flows=[Flow("f0", src=3, dst=0,
                                        rate_bps=64_000,
                                        delay_budget_s=0.5)])
        result = scenario.simulate_mobility()
        assert isinstance(result, MobilityRunResult)
        assert result.conflict_ok and result.guarantee_ok
        assert scenario.engine.stats["index_builds"] > 0

    def test_simulate_mobility_needs_the_stream(self):
        scenario = Scenario(chain_topology(3), flows=_flows())
        with pytest.raises(ConfigurationError, match="mobility="):
            scenario.simulate_mobility()


class TestSolverPolicySeam:
    """Scenario(solver=): the policy decides how schedule() solves."""

    def _disk(self):
        from repro.net.topology import random_disk_topology

        topo = random_disk_topology(16, radio_range=120.0, area=350.0,
                                    seed=11)
        nodes = sorted(topo.nodes)
        return topo, [Flow(f"f{i}", src=nodes[i], dst=nodes[-1 - i],
                           rate_bps=60_000, delay_budget_s=0.1)
                      for i in range(4)]

    def _gap_disk(self):
        """30 ms budgets the bounds cannot certify: the arm runs."""
        from repro.net.topology import random_disk_topology

        topo = random_disk_topology(20, radio_range=120.0, area=400.0,
                                    seed=7)
        nodes = sorted(topo.nodes)
        return topo, [Flow(f"f{i}", src=nodes[i], dst=nodes[i + 9],
                           rate_bps=60_000, delay_budget_s=0.03)
                      for i in range(6)]

    def test_solver_accepts_policy_mode_string(self):
        topo, flows = self._gap_disk()
        scenario = Scenario(topo, flows, solver="greedy")
        result = scenario.route().schedule()
        assert result.meta["mode"] == "greedy"
        assert scenario.solver.mode == "greedy"

    def test_solver_accepts_full_policy(self):
        from repro import SolverPolicy
        from repro.core.engine import BOUNDS_CLOSED

        topo, flows = self._disk()
        policy = SolverPolicy(mode="greedy", max_region=12,
                              node_limit_per_probe=100)
        scenario = Scenario(topo, flows, solver=policy)
        result = scenario.route().schedule()
        assert scenario.solver is policy
        # the bounds close first, so every mode publishes the optimum
        assert result.ilp.solver_status == BOUNDS_CLOSED
        assert result.meta is None
        assert result.schedule.violations(scenario.conflicts) == []

    def test_default_solver_is_auto_and_exact_at_paper_scale(self):
        topo, flows = self._disk()
        default = Scenario(topo, list(flows)).route().schedule()
        exact = Scenario(topo, list(flows),
                         solver="exact").route().schedule()
        assert default.meta is None
        assert default.slots == exact.slots
        assert default.probes == exact.probes
        assert default.schedule.to_dict() == exact.schedule.to_dict()

    def test_shared_engine_policy_flows_into_the_scenario(self):
        from repro import SolverEngine

        topo, flows = self._gap_disk()
        engine = SolverEngine(policy="greedy")
        scenario = Scenario(topo, flows, engine=engine)
        assert scenario.solver is engine.policy
        assert scenario.route().schedule().meta["mode"] == "greedy"

    def test_explicit_solver_wins_over_the_engine_policy(self):
        from repro import SolverEngine

        topo, flows = self._gap_disk()
        engine = SolverEngine(policy="greedy")
        scenario = Scenario(topo, flows, engine=engine, solver="exact")
        assert scenario.route().schedule().meta is None

    def test_max_region_policy_caps_the_search(self):
        from repro import SolverPolicy

        topo, flows = self._disk()
        baseline = Scenario(topo, list(flows)).route().schedule()
        capped = Scenario(topo, list(flows),
                          solver=SolverPolicy(max_region=baseline.slots))
        assert capped.route().schedule().slots == baseline.slots
        below = Scenario(topo, list(flows),
                         solver=SolverPolicy(max_region=baseline.slots - 1))
        assert not below.route().schedule().feasible


class TestInterferenceSeam:
    """Scenario(interference=...) is the one interference selector."""

    def test_hops_and_interference_are_mutually_exclusive(self):
        # there is no second selector left to conflict with
        from repro.phy.models import ProtocolModel

        with pytest.raises(TypeError, match="hops"):
            Scenario(chain_topology(6), _flows(), hops=2,
                     interference=ProtocolModel(2))

    def test_default_is_the_two_hop_protocol_model(self):
        from repro.phy.models import ProtocolModel

        scenario = Scenario(chain_topology(6), _flows())
        assert isinstance(scenario.interference, ProtocolModel)
        assert scenario.interference.hops == 2
        assert not hasattr(scenario, "hops")

    def test_hops_spelling_still_works(self):
        # the one spelling of a hops value is ProtocolModel(hops=k)
        from repro.phy.models import ProtocolModel

        scenario = Scenario(chain_topology(6), _flows(),
                            interference=ProtocolModel(hops=1))
        assert scenario.interference.hops == 1
        with pytest.raises(TypeError, match="hops"):
            Scenario(chain_topology(6), _flows(), hops=1)

    def test_bare_int_interference_raises_pointing_at_hops(self):
        with pytest.raises(ConfigurationError,
                           match=r"ProtocolModel\(hops=k\)"):
            Scenario(chain_topology(6), _flows(), interference=1)

    def test_sinr_backend_flows_through_conflicts(self):
        from repro.phy.models import SinrModel

        topo = chain_topology(8, spacing=90.0)
        flows = [Flow("f", src=0, dst=7, rate_bps=80_000,
                      delay_budget_s=0.2)]
        proto = Scenario(topo, flows).route()
        sinr = Scenario(topo, flows, interference=SinrModel()).route()
        assert isinstance(sinr.interference, SinrModel)
        # physical interference hears further on this spaced chain
        assert sinr.conflicts.num_conflicts > proto.conflicts.num_conflicts

    def test_sinr_backend_schedules_end_to_end(self):
        from repro.phy.models import SinrModel

        topo = chain_topology(6, spacing=90.0)
        scenario = Scenario(topo, _flows(), interference=SinrModel())
        result = scenario.route().schedule()
        assert result.feasible
        assert result.schedule.violations(scenario.conflicts) == []

    def test_degenerate_hops_is_rejected_at_the_conflict_graph(self):
        from repro.phy.models import ProtocolModel

        scenario = Scenario(chain_topology(4),
                            [Flow("f", src=0, dst=3, rate_bps=1000)],
                            interference=ProtocolModel(3))
        scenario.route()
        with pytest.raises(ConfigurationError, match="degenerates"):
            scenario.conflicts

    def test_minimum_slots_builds_conflicts_through_the_seam(self):
        from repro import SolverEngine
        from repro.phy.models import SinrModel

        topo = chain_topology(6, spacing=90.0)
        frame = default_frame_config()
        flows = route_all(topo, FlowSet(_flows()))
        demands = flows.link_demands(frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
        engine = SolverEngine()
        via_seam = minimum_slots(
            engine.conflict_index(topo, links=sorted(demands)),
            demands, frame.data_slots, engine=engine)
        prebuilt = minimum_slots(conflict_graph(topo, hops=2,
                                                links=demands.keys()),
                                 demands, frame.data_slots)
        assert via_seam.slots == prebuilt.slots
        sinr_index = engine.conflict_index(
            topo, interference=SinrModel(), links=sorted(demands))
        sinr = minimum_slots(sinr_index, demands, frame.data_slots,
                             engine=engine)
        assert sinr.slots is not None
        assert sinr.schedule.violations(sinr_index) == []
