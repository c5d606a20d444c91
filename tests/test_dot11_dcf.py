"""802.11 DCF MAC behaviour."""

import pytest

from repro.dot11.dcf import DcfMac
from repro.dot11.params import DOT11B_PARAMS, RTS_BITS
from repro.errors import SimulationError
from repro.phy.channel import BroadcastChannel
from repro.phy.frames import FrameKind, PhyFrame
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.sim.trace import Trace
from repro.net.topology import chain_topology, from_edges


def build_dcf(topology, seed=5):
    sim = Simulator()
    trace = Trace()
    channel = BroadcastChannel(sim, topology, DOT11B_PARAMS.phy, trace)
    rngs = RngRegistry(seed=seed)
    delivered = []

    def deliver(node, payload):
        delivered.append((sim.now, node, payload))

    macs = {node: DcfMac(sim, channel, node, DOT11B_PARAMS,
                         rngs.stream(f"dcf/{node}"), deliver, trace)
            for node in topology.nodes}
    return sim, macs, delivered, trace


class TestUnicast:
    def test_single_frame_delivered_and_acked(self):
        topo = chain_topology(2)
        sim, macs, delivered, trace = build_dcf(topo)
        assert macs[0].send(1, "hello", 800)
        sim.run(until=0.1)
        assert [(n, p) for ____, n, p in delivered] == [(1, "hello")]
        # data + ack on air
        assert trace.count("phy.tx") == 2
        assert macs[0].queue_length == 0

    def test_many_frames_fifo(self):
        topo = chain_topology(2)
        sim, macs, delivered, ____ = build_dcf(topo)
        for i in range(10):
            macs[0].send(1, f"p{i}", 800)
        sim.run(until=1.0)
        assert [p for ____, ____, p in delivered] == [f"p{i}"
                                                      for i in range(10)]

    def test_two_contenders_both_deliver(self):
        # 0 and 2 both neighbours of 1, hidden from each other -- retries
        # must eventually push everything through at this light load
        topo = chain_topology(3)
        sim, macs, delivered, ____ = build_dcf(topo)
        macs[0].send(1, "from0", 800)
        macs[2].send(1, "from2", 800)
        sim.run(until=1.0)
        payloads = {p for ____, ____, p in delivered}
        assert payloads == {"from0", "from2"}

    def test_queue_capacity_enforced(self):
        topo = chain_topology(2)
        sim, macs, ____, trace = build_dcf(topo)
        capacity = DOT11B_PARAMS.queue_capacity
        results = [macs[0].send(1, i, 800) for i in range(capacity + 5)]
        assert results.count(False) == 5
        assert trace.count("mac.queue_drop") == 5

    def test_no_duplicate_delivery_when_ack_lost(self):
        # force an ACK collision: 2 sends to 1 while 1's ACK to 0 is on
        # air; node 0 retries, node 1 must dedup the retransmission
        topo = chain_topology(3)
        sim, macs, delivered, trace = build_dcf(topo)
        macs[0].send(1, "x", 8000)
        sim.run(until=5.0)
        deliveries = [p for ____, ____, p in delivered]
        assert deliveries.count("x") == 1


class TestResponseFrames:
    """An ACK or CTS is suppressed only when the responder's own radio is
    on air; any other channel error propagates."""

    @staticmethod
    def _respond(mac, kind):
        if kind == "ack":
            mac._send_ack(PhyFrame(FrameKind.DATA, 0, 1, 800))
        else:
            rts = PhyFrame(FrameKind.RTS, 0, 1, RTS_BITS, payload=(7, 1e-3))
            mac._send_cts(rts)

    @pytest.mark.parametrize("kind", ["ack", "cts"])
    def test_clash_with_own_transmission_is_suppressed(self, kind):
        sim, macs, ____, trace = build_dcf(chain_topology(2))
        macs[1].channel.transmit(1, PhyFrame(FrameKind.DATA, 1, None, 800))
        self._respond(macs[1], kind)
        assert trace.count(f"mac.{kind}_suppressed") == 1
        assert trace.count("phy.tx") == 1

    @pytest.mark.parametrize("kind", ["ack", "cts"])
    def test_other_channel_errors_propagate(self, kind, monkeypatch):
        sim, macs, ____, trace = build_dcf(chain_topology(2))

        def broken(node, frame, duration=None):
            raise SimulationError("broken radio")

        monkeypatch.setattr(macs[1].channel, "transmit", broken)
        with pytest.raises(SimulationError, match="broken radio"):
            self._respond(macs[1], kind)
        assert trace.count(f"mac.{kind}_suppressed") == 0


class TestBroadcast:
    def test_broadcast_reaches_all_neighbors(self):
        topo = from_edges([(0, 1), (0, 2), (0, 3)])
        sim, macs, delivered, trace = build_dcf(topo)
        macs[0].send(None, "bcast", 800)
        sim.run(until=0.1)
        receivers = {n for ____, n, ____ in delivered}
        assert receivers == {1, 2, 3}
        # no ACKs for broadcast
        assert trace.count("phy.tx") == 1

    def test_broadcast_not_retried(self):
        topo = chain_topology(2)
        sim, macs, ____, trace = build_dcf(topo)
        macs[0].send(None, "b", 800)
        sim.run(until=0.5)
        assert trace.count("mac.tx_data") == 1
        assert trace.count("mac.retry") == 0


class TestRetries:
    def test_unreachable_destination_dropped_after_retry_limit(self):
        # destination 5 is not a neighbour of 0: no ACK ever comes
        topo = chain_topology(2)
        sim, macs, ____, trace = build_dcf(topo)
        macs[0].send(5, "lost", 800)
        sim.run(until=5.0)
        assert trace.count("mac.retry") == DOT11B_PARAMS.retry_limit
        assert trace.count("mac.drop") == 1
        # MAC recovered: queue empty, can send again
        assert macs[0].queue_length == 0

    def test_drop_frees_queue_for_next_frame(self):
        topo = chain_topology(2)
        sim, macs, delivered, ____ = build_dcf(topo)
        macs[0].send(5, "doomed", 800)
        macs[0].send(1, "good", 800)
        sim.run(until=5.0)
        assert [p for ____, ____, p in delivered] == ["good"]


class TestCarrierSense:
    def test_defers_to_ongoing_transmission(self):
        topo = chain_topology(3)
        sim, macs, ____, trace = build_dcf(topo)
        macs[0].send(1, "first", 12000)   # long frame
        sim.run(until=0.0005)             # mid-flight
        macs[1].send(2, "second", 800)    # 1 hears 0's tx and must wait
        sim.run(until=0.2)
        tx_times = trace.times("phy.tx")
        # second data tx starts after the first ends (plus SIFS/ACK time)
        first_end = tx_times[0] + DOT11B_PARAMS.phy.airtime(12000 + 34 * 8)
        later = [t for t in tx_times[1:] if t >= first_end - 1e-9]
        assert later, "node 1 must defer until node 0 finishes"

    def test_backoff_spreads_simultaneous_contenders(self):
        # all three in radio range: no collisions expected thanks to CSMA
        topo = from_edges([(0, 1), (1, 2), (0, 2)])
        sim, macs, delivered, trace = build_dcf(topo)
        macs[0].send(2, "a", 800)
        macs[1].send(2, "b", 800)
        sim.run(until=1.0)
        assert {p for ____, ____, p in delivered} == {"a", "b"}
