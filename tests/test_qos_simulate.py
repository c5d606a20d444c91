"""Grant-level service-flow simulator."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.topology import chain_topology
from repro.qos import (
    ServiceClass,
    ServiceFlow,
    ServiceFlowSet,
    TrafficContract,
    grant_schedule_for,
    route_service_flows,
    schedule_service_classes,
    simulate_service_flows,
)

FRAME = default_frame_config()
CAP = FRAME.data_slot_capacity_bits
SLOT_RATE = CAP / FRAME.frame_duration_s


def sf(name, src, cls, min_slots=0.0, sustained_slots=None, latency=None,
       jitter=None, pkt=None):
    contract = TrafficContract(
        min_reserved_rate_bps=min_slots * SLOT_RATE,
        max_sustained_rate_bps=(None if sustained_slots is None
                                else sustained_slots * SLOT_RATE),
        max_latency_s=latency, tolerated_jitter_s=jitter)
    return ServiceFlow(name, src, 0, cls, contract,
                       packet_bits=pkt if pkt else CAP)


def saturating_set():
    return ServiceFlowSet([
        sf("voip0", 1, ServiceClass.UGS, 2, 2, latency=0.05, pkt=CAP // 2),
        sf("video0", 2, ServiceClass.RTPS, 2, 4, latency=0.1),
        sf("stream0", 1, ServiceClass.NRTPS, 1, 2),
        sf("bulk0", 2, ServiceClass.BE, 0, 4, pkt=CAP // 2),
        sf("bulk1", 1, ServiceClass.BE, 0, 4),
    ])


def run(discipline, num_frames=120, flows=None):
    flows = flows if flows is not None else saturating_set()
    schedule, routed = grant_schedule_for(chain_topology(3), flows, FRAME)
    return simulate_service_flows(routed, schedule, FRAME, discipline,
                                  num_frames=num_frames)


class TestServiceClassPlanner:
    def test_region_search_is_linear_from_the_lower_bound(self):
        from repro.core.engine import SolverEngine

        routed = route_service_flows(chain_topology(3), saturating_set())
        links = set()
        for flow in routed:
            links.update(flow.route)
        conflicts = SolverEngine().conflict_index(chain_topology(3),
                                                  links=links)
        two = schedule_service_classes(conflicts, routed, FRAME)
        search = two.search
        regions = [region for region, ____ in search.probes]
        assert search.lower_bound < FRAME.data_slots
        assert regions == list(range(search.lower_bound,
                                     search.lower_bound + len(regions)))
        assert regions[-1] == two.guaranteed_region


class TestValidation:
    def test_unrouted_rejected(self):
        flows = saturating_set()
        schedule, routed = grant_schedule_for(chain_topology(3), flows,
                                              FRAME)
        with pytest.raises(ConfigurationError, match="unrouted"):
            simulate_service_flows(flows, schedule, FRAME, "strict")

    def test_oversized_packet_rejected(self):
        flows = ServiceFlowSet([ServiceFlow(
            "big", 1, 0, ServiceClass.BE,
            TrafficContract(max_sustained_rate_bps=1e6),
            packet_bits=CAP + 1)])
        schedule, routed = grant_schedule_for(chain_topology(3), flows,
                                              FRAME)
        with pytest.raises(ConfigurationError, match="never fit"):
            simulate_service_flows(routed, schedule, FRAME, "strict")

    def test_bad_frame_count(self):
        with pytest.raises(ConfigurationError, match="num_frames"):
            run("strict", num_frames=0)


class TestDeterminism:
    def test_identical_reruns(self):
        first = run("drr")
        second = run("drr")
        assert first.per_flow == second.per_flow
        assert first.per_class == second.per_class
        assert first.flow_jain_index == second.flow_jain_index
        assert first.grants_idle == second.grants_idle


class TestServiceSemantics:
    def test_ugs_contract_met_under_all_disciplines(self):
        for discipline in ("strict", "wrr", "drr", "edf"):
            res = run(discipline)
            ugs = res.stats_for(ServiceClass.UGS)
            assert ugs.latency_violations == 0
            assert ugs.min_rate_met

    def test_strict_starves_multihop_be(self):
        res = run("strict")
        assert res.per_flow["bulk0"].received == 0
        assert not res.per_flow["bulk0"].has_samples

    def test_drr_serves_every_backlogged_flow(self):
        res = run("drr")
        for name, qos in res.per_flow.items():
            assert qos.received > 0, name

    def test_rtps_latency_trade(self):
        strict = run("strict").stats_for(ServiceClass.RTPS)
        drr = run("drr").stats_for(ServiceClass.RTPS)
        assert strict.latency_violations == 0
        assert drr.latency_violations > 0

    def test_work_conserving_at_saturation(self):
        res = run("strict")
        # the only idle grants are pipeline fill in the first frames
        assert res.grants_idle <= 2 * FRAME.data_slots
        assert res.grants_total == sum(
            1 for _ in range(res.num_frames)) * 16

    def test_offered_volume_accounted(self):
        res = run("wrr")
        for name, qos in res.per_flow.items():
            assert 0 <= qos.received <= qos.sent


class TestObservability:
    def test_metrics_published_deterministically(self):
        with obs.use_registry(obs.MetricsRegistry()) as first:
            run("drr")
        with obs.use_registry(obs.MetricsRegistry()) as second:
            run("drr")
        assert first.snapshot() == second.snapshot()
        counters = first.snapshot()["counters"]
        gauges = first.snapshot()["gauges"]
        assert counters["qos.grants.total"] == 120 * 16
        assert "qos.fairness.jain_index" in gauges
        assert "qos.starvation.max_queue_age_s.BE" in gauges
        assert counters["qos.contract.latency_violations.rtPS"] > 0
