"""End-to-end integration: the scenario runners that the experiments use.

These run real (short) packet-level simulations of both stacks and assert
the behavioural claims the paper makes, not just plumbing.
"""

import math

import pytest

from repro.analysis.scenarios import (
    make_voip_flows,
    run_dcf_scenario,
    run_tdma_scenario,
    schedule_for_flows,
)
from repro.core.admission import AdmissionController
from repro.core.conflict import conflict_graph
from repro.core.delay import path_delay_slots
from repro.core.ilp import (
    SchedulingProblem,
    delay_constraints_for,
    solve_schedule_ilp,
)
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import chain_topology, grid_topology
from repro.overlay.sync import SyncConfig
from repro.sim.random import RngRegistry
from repro.traffic.voip import G729


@pytest.fixture(scope="module")
def small_scenario():
    topology = chain_topology(4)
    frame = default_frame_config()
    rngs = RngRegistry(seed=77)
    flows = route_all(topology, FlowSet([
        Flow("up", 3, 0, rate_bps=G729.wire_rate_bps, delay_budget_s=0.05),
        Flow("down", 0, 3, rate_bps=G729.wire_rate_bps, delay_budget_s=0.05),
    ]))
    schedule = schedule_for_flows(topology, flows, frame, method="ilp")
    return topology, frame, flows, schedule, rngs


class TestTdmaScenario:
    def test_zero_loss_and_bounded_delay(self, small_scenario):
        topology, frame, flows, schedule, rngs = small_scenario
        result = run_tdma_scenario(topology, flows, frame, schedule,
                                   duration_s=2.0, rngs=rngs.spawn("a"),
                                   codec=G729)
        for qos in result.qos.values():
            assert qos.loss_fraction == 0.0
            # hard bound: worst case is one frame queueing + budgeted
            # relaying delay
            assert qos.max_delay_s <= 0.05 + frame.frame_duration_s

    def test_no_slot_collisions_with_default_sync(self, small_scenario):
        topology, frame, flows, schedule, rngs = small_scenario
        result = run_tdma_scenario(topology, flows, frame, schedule,
                                   duration_s=2.0, rngs=rngs.spawn("b"),
                                   codec=G729, drift_ppm=20.0)
        assert result.extras["slot_collisions"] == 0
        assert result.extras["max_sync_error_s"] < frame.guard_s

    def test_sync_off_error_grows_linearly(self, small_scenario):
        topology, frame, flows, schedule, rngs = small_scenario
        result = run_tdma_scenario(
            topology, flows, frame, schedule, duration_s=2.0,
            rngs=rngs.spawn("c"), codec=G729, drift_ppm=20.0,
            sync_config=SyncConfig(enabled=False))
        # at least one node drifts towards 20 ppm * 2 s = 40 us
        assert result.extras["max_sync_error_s"] > 5e-6

    def test_deterministic_given_seed(self, small_scenario):
        topology, frame, flows, schedule, ____ = small_scenario

        def run(seed):
            result = run_tdma_scenario(topology, flows, frame, schedule,
                                       duration_s=1.0,
                                       rngs=RngRegistry(seed=seed),
                                       codec=G729)
            return {name: (q.sent, q.received, q.mean_delay_s)
                    for name, q in result.qos.items()}

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_schedule_frame_mismatch_rejected(self, small_scenario):
        topology, frame, flows, ____, rngs = small_scenario
        from repro.core.schedule import Schedule
        bad = Schedule(8)
        with pytest.raises(ConfigurationError):
            run_tdma_scenario(topology, flows, frame, bad, 1.0,
                              rngs.spawn("x"))


class TestDcfScenario:
    def test_light_load_clean(self, small_scenario):
        topology, ____, flows, ____, rngs = small_scenario
        result = run_dcf_scenario(topology, flows, duration_s=2.0,
                                  rngs=rngs.spawn("d"), codec=G729)
        for qos in result.qos.values():
            assert qos.loss_fraction < 0.01
            assert qos.mean_delay_s < 0.05

    @pytest.mark.parametrize("hops", [1, 2])
    def test_protocol_model_leaves_the_channel_alone(self, small_scenario,
                                                     hops):
        # only an SINR model widens the channel; a protocol model must
        # replay the native collision rule byte for byte
        from repro.phy.models import ProtocolModel

        topology, ____, flows, ____, ____ = small_scenario

        def run(interference):
            result = run_dcf_scenario(topology, flows, duration_s=1.0,
                                      seed=5, codec=G729,
                                      interference=interference)
            # frame ids come from a process-wide counter: leave them out
            return (repr(sorted(result.qos.items())), repr(result.extras),
                    [(r.time, r.category,
                      {k: v for k, v in r.fields.items() if k != "frame"})
                     for r in result.trace.records()])

        assert run(ProtocolModel(hops)) == run(None)

    def test_overload_degrades_dcf_but_not_tdma(self):
        topology = grid_topology(3, 3)
        frame = default_frame_config()
        rngs = RngRegistry(seed=42)
        flows = make_voip_flows(topology, 10, rngs, codec=G729, gateway=0,
                                delay_budget_s=0.05)
        controller = AdmissionController(topology, frame.data_slots,
                                         frame.frame_duration_s,
                                         frame.data_slot_capacity_bits)
        for flow in flows:
            controller.try_admit(flow)
        admitted, schedule = controller.admitted, controller.schedule
        assert 0 < len(admitted) < 10

        tdma = run_tdma_scenario(topology, admitted, frame, schedule,
                                 duration_s=2.0, rngs=rngs.spawn("t"),
                                 codec=G729)
        dcf = run_dcf_scenario(topology, flows, duration_s=2.0,
                               rngs=rngs.spawn("d"), codec=G729)
        assert tdma.total_loss_fraction() == 0.0
        assert dcf.total_loss_fraction() > 0.05
        worst_tdma = max(q.p95_delay_s for q in tdma.qos.values())
        assert worst_tdma <= 0.05 + frame.frame_duration_s


class TestRunnerArguments:
    """Both runners reject bad arguments at the entry point."""

    NAN, INF = float("nan"), float("inf")
    SHARED = [("duration_s", -1.0), ("duration_s", 0.0),
              ("duration_s", NAN), ("duration_s", INF),
              ("warmup_s", NAN), ("warmup_s", INF), ("warmup_s", -0.5),
              ("channel_error_rate", NAN), ("channel_error_rate", -0.1),
              ("channel_error_rate", 1.0)]

    @staticmethod
    def _tdma(scenario, **overrides):
        topology, frame, flows, schedule, ____ = scenario
        kwargs = {"duration_s": 0.2, "seed": 1, "codec": G729, **overrides}
        return run_tdma_scenario(topology, flows, frame, schedule, **kwargs)

    @staticmethod
    def _dcf(scenario, **overrides):
        topology, ____, flows, ____, ____ = scenario
        kwargs = {"duration_s": 0.2, "seed": 1, "codec": G729, **overrides}
        return run_dcf_scenario(topology, flows, **kwargs)

    @pytest.mark.parametrize("name,value", SHARED + [
        ("drift_ppm", NAN), ("drift_ppm", INF), ("drift_ppm", -5.0),
        ("initial_offset_bound_s", NAN), ("initial_offset_bound_s", -1e-3)])
    def test_tdma_rejects(self, small_scenario, name, value):
        with pytest.raises(ConfigurationError, match=name):
            self._tdma(small_scenario, start_synced=False, **{name: value})

    @pytest.mark.parametrize("name,value", SHARED)
    def test_dcf_rejects(self, small_scenario, name, value):
        with pytest.raises(ConfigurationError, match=name):
            self._dcf(small_scenario, **{name: value})

    def test_edges_of_the_ranges_run(self, small_scenario):
        tdma = self._tdma(small_scenario, warmup_s=0.0, drift_ppm=0.0,
                          channel_error_rate=0.0)
        dcf = self._dcf(small_scenario, warmup_s=0.0,
                        channel_error_rate=0.0)
        for result in (tdma, dcf):
            assert all(q.has_samples for q in result.qos.values())


class TestHelpers:
    def test_make_voip_flows_respects_gateway(self, rngs):
        topology = grid_topology(3, 3)
        flows = make_voip_flows(topology, 6, rngs, gateway=4)
        for flow in flows:
            assert 4 in (flow.src, flow.dst)
            assert flow.is_routed

    def test_make_voip_flows_min_hops(self, rngs):
        topology = grid_topology(3, 3)
        flows = make_voip_flows(topology, 5, rngs, min_hops=2)
        assert all(f.hops >= 2 for f in flows)

    def test_schedule_for_flows_methods_agree_on_feasibility(self, rngs):
        topology = chain_topology(5)
        frame = default_frame_config()
        flows = route_all(topology, FlowSet([
            Flow("f", 4, 0, rate_bps=G729.wire_rate_bps,
                 delay_budget_s=0.1)]))
        conflicts = conflict_graph(topology, hops=2)
        for method in ("ilp", "greedy", "tree"):
            schedule = schedule_for_flows(topology, flows, frame,
                                          method=method)
            schedule.validate(conflicts)

    def test_schedule_for_flows_unknown_method(self, rngs):
        topology = chain_topology(3)
        frame = default_frame_config()
        flows = route_all(topology, FlowSet([
            Flow("f", 0, 2, rate_bps=1000, delay_budget_s=0.1)]))
        with pytest.raises(ConfigurationError):
            schedule_for_flows(topology, flows, frame, method="magic")

    def test_delay_constraints_budgets_in_slots(self):
        frame = default_frame_config()
        flows = FlowSet([Flow("f", 0, 1, rate_bps=1000,
                              delay_budget_s=0.01).with_route([(0, 1)])])
        constraints = delay_constraints_for(
            flows, frame.frame_duration_s / frame.data_slots)
        assert constraints[0].budget_slots == 16  # 10 ms = one frame

    #: (seed, offered calls, delay budget): E5's five loads, E12's two
    #: and the overload test's sequence above
    ADMISSION_SEQUENCES = ([(11, n, 0.05) for n in (2, 4, 6, 8, 10)]
                           + [(29, n, 0.1) for n in (4, 8)]
                           + [(42, 10, 0.05)])

    @staticmethod
    def _reference_admitted(topology, flows, frame, conflicts) -> list[str]:
        """Keep each call iff one exact ILP over the whole frame schedules
        it beside the calls kept so far.  An undecided solve raises."""
        slot_s = frame.frame_duration_s / frame.data_slots
        admitted = FlowSet()
        for flow in flows:
            candidate = FlowSet(list(admitted) + [flow])
            problem = SchedulingProblem(
                conflicts=conflicts,
                demands=candidate.link_demands(
                    frame.frame_duration_s, frame.data_slot_capacity_bits),
                frame_slots=frame.data_slots,
                delay_constraints=delay_constraints_for(candidate, slot_s))
            if solve_schedule_ilp(problem).feasible:
                admitted = candidate
        return admitted.names()

    def test_admission_matches_exact_ilp_reference(self):
        topology = grid_topology(3, 3)
        frame = default_frame_config()
        conflicts = conflict_graph(topology, hops=2)
        slot_s = frame.frame_duration_s / frame.data_slots
        for seed, offered, budget_s in self.ADMISSION_SEQUENCES:
            flows = make_voip_flows(topology, offered, RngRegistry(seed=seed),
                                    codec=G729, gateway=0,
                                    delay_budget_s=budget_s)
            controller = AdmissionController(topology, frame.data_slots,
                                             frame.frame_duration_s,
                                             frame.data_slot_capacity_bits)
            for flow in flows:
                decision = controller.try_admit(flow)
                if not decision.admitted:
                    continue
                decision.schedule.validate(conflicts)
                for constraint in delay_constraints_for(controller.admitted,
                                                        slot_s):
                    assert (path_delay_slots(decision.schedule,
                                             constraint.route)
                            <= constraint.budget_slots), (seed, offered,
                                                          constraint)
            reference = self._reference_admitted(topology, flows, frame,
                                                 conflicts)
            assert controller.admitted.names() == reference, (seed, offered)
