"""Raw broadcast MAC (the TDMA substrate)."""

import pytest

from repro.dot11.broadcast import RawBroadcastMac
from repro.errors import SimulationError
from repro.phy.channel import BroadcastChannel
from repro.phy.frames import FrameKind
from repro.phy.radio import PhyParams
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.net.topology import chain_topology
from repro.units import US

TEST_PHY = PhyParams("test", 1e6, 1e6, plcp_overhead_s=0.0,
                     propagation_delay_s=1 * US)


def build(topology):
    sim = Simulator()
    trace = Trace()
    channel = BroadcastChannel(sim, topology, TEST_PHY, trace)
    received = []

    def deliver(node, frame, success):
        received.append((node, frame.payload, success))

    macs = {node: RawBroadcastMac(sim, channel, node, deliver, trace)
            for node in topology.nodes}
    return sim, macs, received, trace


def test_immediate_transmission_no_backoff():
    topo = chain_topology(3)
    sim, macs, received, trace = build(topo)
    assert macs[1].broadcast("hello", 1000)
    # transmission started at t=0 exactly (no DIFS, no backoff)
    assert trace.times("phy.tx") == [0.0]
    sim.run()
    assert sorted(n for n, ____, ____ in received) == [0, 2]


def test_no_carrier_sense_deference():
    # even with a neighbour mid-transmission, the raw MAC fires on request
    topo = chain_topology(3)
    sim, macs, received, ____ = build(topo)
    macs[0].broadcast("first", 2000)
    sim.run(until=0.5e-3)
    macs[2].broadcast("second", 2000)  # collides at node 1
    sim.run()
    at_node1 = [(p, ok) for n, p, ok in received if n == 1]
    assert all(not ok for ____, ok in at_node1)


def test_corrupted_receptions_are_reported():
    topo = chain_topology(3)
    sim, macs, received, ____ = build(topo)
    macs[0].broadcast("a", 1000)
    macs[2].broadcast("b", 1000)
    sim.run()
    flags = [ok for n, ____, ok in received if n == 1]
    assert flags == [False, False]


def test_tx_overrun_returns_false():
    topo = chain_topology(2)
    sim, macs, ____, trace = build(topo)
    assert macs[0].broadcast("a", 5000)
    assert not macs[0].broadcast("b", 5000)  # still on air
    assert trace.count("raw.tx_overrun") == 1


@pytest.mark.parametrize("duration", [0.0, -1e-4, float("nan"),
                                      float("inf")])
def test_bad_airtime_is_an_error_not_an_overrun(duration):
    topo = chain_topology(2)
    sim, macs, ____, trace = build(topo)
    with pytest.raises(SimulationError, match="airtime"):
        macs[0].broadcast("a", 1000, duration=duration)
    assert trace.count("raw.tx_overrun") == 0
    assert trace.count("phy.tx") == 0
    assert macs[0].broadcast("b", 1000)  # the radio is still usable


def test_raw_mac_does_not_sense():
    # no on_medium_change override: its medium edges are never scheduled
    topo = chain_topology(3)
    sim, macs, received, ____ = build(topo)
    macs[1].broadcast("hello", 1000)
    assert sim.pending == 1  # the arrival-end edge that delivers
    sim.run()
    assert sorted(n for n, ____, ____ in received) == [0, 2]


def test_explicit_duration_and_kind():
    topo = chain_topology(2)
    sim, macs, received, trace = build(topo)
    macs[0].broadcast("beacon", 184, kind=FrameKind.BEACON,
                      duration=300e-6)
    sim.run()
    assert received[0][1] == "beacon"
    record = trace.last("phy.tx")
    assert record["kind"] == "beacon"
    assert record["duration"] == pytest.approx(300e-6)
