"""Class-aware admission control and repair-engine shed ordering."""

import pytest

from repro import obs
from repro.core.repair import RepairEngine
from repro.errors import ConfigurationError
from repro.faults import FaultEvent
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow
from repro.net.topology import chain_topology
from repro.qos import (
    QosAdmissionController,
    ServiceClass,
    ServiceFlow,
    ServiceFlowSet,
    TrafficContract,
    class_shed_key,
)

FRAME = default_frame_config()
SLOT_RATE = FRAME.data_slot_capacity_bits / FRAME.frame_duration_s


def ugs(name, src, slots=2):
    rate = slots * SLOT_RATE
    return ServiceFlow(name, src, 0, ServiceClass.UGS, TrafficContract(
        min_reserved_rate_bps=rate, max_sustained_rate_bps=rate,
        max_latency_s=0.05))


def rtps(name, src, slots=2):
    return ServiceFlow(name, src, 0, ServiceClass.RTPS, TrafficContract(
        min_reserved_rate_bps=slots * SLOT_RATE, max_latency_s=0.1))


def bulk(name, src, slots=2):
    return ServiceFlow(name, src, 0, ServiceClass.BE, TrafficContract(
        max_sustained_rate_bps=slots * SLOT_RATE))


def controller(region=4):
    # chain of 3: a flow from node 2 crosses two mutually-conflicting
    # links, so a 2-slot reservation consumes 4 guaranteed slots
    return QosAdmissionController(chain_topology(3), FRAME,
                                  guaranteed_region_slots=region)


class TestBestEffort:
    def test_always_admitted_never_guaranteed(self):
        ctl = controller(region=1)  # no guaranteed headroom at all
        decision = ctl.request(bulk("b0", 2, slots=8))
        assert decision.admitted
        assert not decision.guaranteed
        assert "not guaranteed" in decision.reason
        assert ctl.slots_used == 0  # BE reserves nothing
        assert ctl.admitted_count(ServiceClass.BE) == 1

    def test_be_admission_counted(self):
        with obs.use_registry(obs.MetricsRegistry()) as reg:
            controller().request(bulk("b0", 1))
        assert reg.snapshot()["counters"]["qos.admission.admitted.BE"] == 1


class TestGuaranteed:
    def test_admit_within_region(self):
        ctl = controller(region=4)
        decision = ctl.request(ugs("u0", 2))
        assert decision.admitted and decision.guaranteed
        assert decision.slots_used == 4
        assert decision.flow.is_routed
        assert decision.schedule is not None

    def test_reject_beyond_region(self):
        ctl = controller(region=4)
        assert ctl.request(ugs("u0", 2)).admitted
        with obs.use_registry(obs.MetricsRegistry()) as reg:
            decision = ctl.request(ugs("u1", 2))
        assert not decision.admitted
        assert "guaranteed slots" in decision.reason
        assert ctl.admitted_count() == 1
        assert reg.snapshot()["counters"]["qos.admission.rejected.UGS"] == 1

    def test_release_then_readmit(self):
        # acceptance criterion: a UGS flow the min-slots search cannot
        # carry is provably rejected, then admitted after a release
        ctl = controller(region=4)
        assert ctl.request(ugs("u0", 2)).admitted
        assert not ctl.request(ugs("u1", 2)).admitted
        ctl.release("u0")
        assert ctl.slots_used == 0
        again = ctl.request(ugs("u1", 2))
        assert again.admitted
        assert again.slots_used == 4

    def test_rtps_checked_against_min_slots(self):
        ctl = controller(region=4)
        assert ctl.request(rtps("v0", 2)).admitted
        assert not ctl.request(rtps("v1", 2)).admitted

    def test_duplicate_request_rejected(self):
        ctl = controller()
        ctl.request(ugs("u0", 1))
        with pytest.raises(ConfigurationError, match="already admitted"):
            ctl.request(ugs("u0", 1))


class TestParking:
    def test_park_on_reject_and_readmit(self):
        ctl = controller(region=4)
        ctl.request(ugs("u0", 2))
        decision = ctl.request(ugs("u1", 2), park_on_reject=True)
        assert not decision.admitted
        assert "u1" in ctl.parked
        ctl.release("u0")
        outcomes = ctl.readmit_parked()
        assert [d.flow.name for d in outcomes] == ["u1"]
        assert outcomes[0].admitted
        assert "u1" not in ctl.parked
        assert "u1" in ctl.service_flows

    def test_readmit_keeps_infeasible_flows_parked(self):
        ctl = controller(region=4)
        ctl.request(ugs("u0", 2))
        ctl.request(ugs("u1", 2), park_on_reject=True)
        outcomes = ctl.readmit_parked()  # u0 still holds the region
        assert not outcomes[0].admitted
        assert "u1" in ctl.parked

    def test_release_with_park_retains_definition(self):
        ctl = controller()
        ctl.request(ugs("u0", 1))
        ctl.release("u0", park=True)
        assert "u0" in ctl.parked
        assert ctl.readmit_parked()[0].admitted


class TestReleaseUnknown:
    def test_release_unknown_raises_and_counts(self):
        ctl = controller()
        with obs.use_registry(obs.MetricsRegistry()) as reg:
            with pytest.raises(ConfigurationError,
                               match="no such service flow"):
                ctl.release("ghost")
        counters = reg.snapshot()["counters"]
        assert counters["qos.admission.release_unknown"] == 1


class TestShedOrder:
    def test_key_ranks_be_above_guaranteed(self):
        flows = ServiceFlowSet([ugs("u0", 1), bulk("b0", 1), rtps("v0", 1)])
        key = class_shed_key(flows, {"u0": 0, "b0": 1, "v0": 2})
        ordered = sorted(["b0", "v0", "u0"], key=key)
        assert ordered == ["u0", "v0", "b0"]  # pop() sheds b0 first
        # unknown names shed like best effort
        assert key("mystery")[0] == key("b0")[0]

    def test_repair_engine_sheds_best_effort_first(self, grid33):
        # both flows fit via the short route 2-1-0; killing link (1, 0)
        # forces the long detour, where only one of them fits -- the
        # class-aware key must sacrifice the (newer-installed) bulk flow's
        # older sibling: without the key, newest-first would shed "voip"
        service = ServiceFlowSet([bulk("bulk", 2, slots=4),
                                  ugs("voip", 2, slots=4)])
        engine = RepairEngine(
            grid33, FRAME,
            shed_key=class_shed_key(service, {"bulk": 0, "voip": 1}))
        engine.install([
            Flow("bulk", src=2, dst=0, rate_bps=4 * SLOT_RATE),
            Flow("voip", src=2, dst=0, rate_bps=4 * SLOT_RATE,
                 delay_budget_s=0.1),
        ])
        outcome = engine.apply(FaultEvent(1.0, "link_down", link=(0, 1)))
        assert outcome.strategy == "resolve"
        assert "bulk" in outcome.parked
        assert [f.name for f in engine.carried_flows] == ["voip"]

    def test_repair_engine_default_sheds_newest_first(self, grid33):
        engine = RepairEngine(grid33, FRAME)
        engine.install([
            Flow("bulk", src=2, dst=0, rate_bps=4 * SLOT_RATE),
            Flow("voip", src=2, dst=0, rate_bps=4 * SLOT_RATE,
                 delay_budget_s=0.1),
        ])
        outcome = engine.apply(FaultEvent(1.0, "link_down", link=(0, 1)))
        assert "voip" in outcome.parked
        assert [f.name for f in engine.carried_flows] == ["bulk"]

    def test_controller_exports_its_own_key(self):
        ctl = controller(region=8)
        ctl.request(bulk("b0", 1))
        ctl.request(ugs("u0", 1))
        key = ctl.shed_key()
        assert sorted(["b0", "u0"], key=key) == ["u0", "b0"]


def test_bench_e19_admission_gate():
    """Acceptance check riding the bake-off scenario: a UGS flow the
    min-slots search cannot carry is rejected, and admitted once the
    incumbent releases its reservation."""
    frame = default_frame_config()
    slot_rate = frame.data_slot_capacity_bits / frame.frame_duration_s

    def ugs(name):
        rate = 2 * slot_rate
        return ServiceFlow(name, 2, 0, ServiceClass.UGS, TrafficContract(
            min_reserved_rate_bps=rate, max_sustained_rate_bps=rate,
            max_latency_s=0.05))

    ctl = QosAdmissionController(chain_topology(3), frame,
                                 guaranteed_region_slots=4)
    assert ctl.request(ugs("voip0")).admitted
    rejected = ctl.request(ugs("voip1"), park_on_reject=True)
    assert not rejected.admitted
    ctl.release("voip0")
    outcomes = ctl.readmit_parked()
    assert [d.flow.name for d in outcomes] == ["voip1"]
    assert outcomes[0].admitted
