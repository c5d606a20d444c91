"""Broadcast channel: delivery, collisions, carrier sense."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.topology import grid_topology
from repro.phy.channel import BroadcastChannel, ChannelClient
from repro.phy.frames import FrameKind, PhyFrame
from repro.phy.radio import PhyParams
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.units import US

#: convenient test PHY: 1 Mb/s, no preamble, 1 us propagation
TEST_PHY = PhyParams("test", data_rate_bps=1e6, basic_rate_bps=1e6,
                     plcp_overhead_s=0.0, propagation_delay_s=1 * US)


class Listener(ChannelClient):
    def __init__(self):
        self.received: list[tuple[PhyFrame, bool]] = []
        self.medium_changes = 0

    def on_receive(self, frame, success):
        self.received.append((frame, success))

    def on_medium_change(self):
        self.medium_changes += 1


class Deaf(ChannelClient):
    """A client that does not carrier-sense (like the TDMA overlay)."""

    def __init__(self):
        self.received: list[tuple[PhyFrame, bool]] = []

    def on_receive(self, frame, success):
        self.received.append((frame, success))


def setup_channel(topology, trace=None, sensing=None):
    """Attach a :class:`Listener` to every node in ``sensing`` (default:
    all) and a :class:`Deaf` client to the rest."""
    sim = Simulator()
    channel = BroadcastChannel(sim, topology, TEST_PHY, trace)
    listeners = {}
    for node in topology.nodes:
        senses = sensing is None or node in sensing
        listeners[node] = Listener() if senses else Deaf()
        channel.attach(node, listeners[node])
    return sim, channel, listeners


def frame_from(src, bits=1000, dst=None):
    return PhyFrame(FrameKind.DATA, src, dst, bits)


class TestDelivery:
    def test_neighbors_receive(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(1, frame_from(1))
        sim.run()
        assert len(listeners[0].received) == 1
        assert len(listeners[2].received) == 1
        assert listeners[0].received[0][1] is True

    def test_non_neighbors_hear_nothing(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0))
        sim.run()
        assert listeners[2].received == []
        assert listeners[4].received == []

    def test_delivery_time_is_airtime_plus_propagation(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))
        sim.run()
        # 1000 bits at 1 Mb/s = 1 ms, plus 1 us propagation
        assert sim.now == pytest.approx(1e-3 + 1e-6)

    def test_explicit_duration_respected(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        returned = channel.transmit(0, frame_from(0), duration=5e-4)
        assert returned == pytest.approx(5e-4)

    def test_src_mismatch_rejected(self, chain5):
        ____, channel, ____ = setup_channel(chain5)
        with pytest.raises(SimulationError):
            channel.transmit(0, frame_from(1))

    def test_non_positive_airtime_rejected(self, chain5):
        ____, channel, ____ = setup_channel(chain5)
        for duration in (0.0, -1e-4, float("nan")):
            with pytest.raises(SimulationError, match="positive"):
                channel.transmit(0, frame_from(0), duration=duration)

    @pytest.mark.parametrize("duration", [float("inf"), 0.0, float("nan")])
    def test_rejected_airtime_leaves_the_channel_untouched(self, chain5,
                                                            duration):
        sim, channel, listeners = setup_channel(chain5)
        with pytest.raises(SimulationError, match="positive and finite"):
            channel.transmit(0, frame_from(0), duration=duration)
        assert sim.pending == 0
        assert not channel.transmitting(0)
        assert not channel.medium_busy(0) and not channel.medium_busy(1)
        assert listeners[0].medium_changes == 0
        # the radio is still usable
        channel.transmit(0, frame_from(0))
        sim.run()
        assert len(listeners[1].received) == 1
        assert not channel.medium_busy(1)

    def test_double_transmit_rejected(self, chain5):
        ____, channel, ____ = setup_channel(chain5)
        channel.transmit(0, frame_from(0))
        with pytest.raises(SimulationError, match="already transmitting"):
            channel.transmit(0, frame_from(0))

    def test_unknown_node_rejected(self, chain5):
        ____, channel, ____ = setup_channel(chain5)
        with pytest.raises(ConfigurationError):
            channel.transmit(99, frame_from(99))

    def test_double_attach_rejected(self, chain5):
        sim = Simulator()
        channel = BroadcastChannel(sim, chain5, TEST_PHY)
        channel.attach(0, Listener())
        with pytest.raises(ConfigurationError):
            channel.attach(0, Listener())


class TestCollisions:
    def test_hidden_terminal_collision(self, chain5):
        # 0 and 2 both transmit to 1 simultaneously: 1 hears garbage
        trace = Trace()
        sim, channel, listeners = setup_channel(chain5, trace)
        channel.transmit(0, frame_from(0))
        channel.transmit(2, frame_from(2))
        sim.run()
        results = [ok for ____, ok in listeners[1].received]
        assert results == [False, False]
        assert trace.count("phy.rx_collision") >= 2

    def test_partial_overlap_still_collides(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))  # 1 ms
        sim.run(until=0.5e-3)
        channel.transmit(2, frame_from(2, bits=1000))
        sim.run()
        assert all(not ok for ____, ok in listeners[1].received)

    def test_back_to_back_no_collision(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))
        sim.run(until=1.1e-3)  # first fully delivered
        channel.transmit(2, frame_from(2, bits=1000))
        sim.run()
        assert [ok for ____, ok in listeners[1].received] == [True, True]

    def test_non_interfering_parallel_transmissions(self, chain8):
        # 0->1 and 5->6 are far apart: both succeed simultaneously
        sim, channel, listeners = setup_channel(chain8)
        channel.transmit(0, frame_from(0))
        channel.transmit(5, frame_from(5))
        sim.run()
        assert listeners[1].received[0][1] is True
        assert listeners[6].received[0][1] is True

    def test_rx_during_tx_lost(self, chain5):
        # 1 starts transmitting while 0's frame is arriving: 1 loses it
        trace = Trace()
        sim, channel, listeners = setup_channel(chain5, trace)
        channel.transmit(0, frame_from(0, bits=1000))
        sim.run(until=0.2e-3)
        channel.transmit(1, frame_from(1, bits=100))
        sim.run()
        zero_to_one = [ok for f, ok in listeners[1].received if f.src == 0]
        assert zero_to_one == [False]
        # symmetric: node 0 also loses node 1's frame while transmitting
        assert trace.count("phy.rx_rx_during_tx") == 2

    def test_transmission_starting_mid_reception_also_corrupts(self, chain5):
        # receiver starts its own tx after the reception began
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=2000))  # 2 ms
        sim.run(until=1.5e-3)
        channel.transmit(1, frame_from(1, bits=100))
        sim.run()
        zero_to_one = [ok for f, ok in listeners[1].received if f.src == 0]
        assert zero_to_one == [False]

    def test_half_duplex_check_looks_past_a_later_own_transmission(
            self, chain5):
        # 1 is on air when 0's frame starts arriving, then transmits
        # again exactly as the reception ends (just before delivery):
        # the later interval does not overlap, the earlier one does
        sim, channel, listeners = setup_channel(chain5)
        start, airtime = 0.5e-3, 1e-3
        arrival_end = start + airtime + TEST_PHY.propagation_delay_s
        sim.schedule_at(arrival_end, channel.transmit, 1,
                        frame_from(1, bits=100))
        channel.transmit(1, frame_from(1, bits=1000))  # [0, 1 ms)
        sim.run(until=start)
        channel.transmit(0, frame_from(0, bits=1000))
        sim.run()
        zero_to_one = [ok for f, ok in listeners[1].received if f.src == 0]
        assert zero_to_one == [False]


class TestEventBudget:
    """A transmission costs the kernel three events however many hear it:
    one arrival-start edge, one arrival-end edge and the transmitter's
    ``tx_end`` notification -- fewer when the clients do not sense."""

    @pytest.mark.parametrize("rows, cols, node, heard_by",
                             [(1, 5, 0, 1), (3, 3, 0, 2), (3, 3, 1, 3),
                              (3, 3, 4, 4)])
    def test_heard_transmission_leaves_three_events(self, rows, cols, node,
                                                    heard_by):
        topology = grid_topology(rows, cols)
        sim, channel, listeners = setup_channel(topology)
        assert len(topology.neighbors(node)) == heard_by
        channel.transmit(node, frame_from(node))
        assert sim.pending == 3
        sim.run()
        assert all(len(listeners[n].received) == 1
                   for n in topology.neighbors(node))

    def test_coupled_node_alone_leaves_three_events(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.set_physical_couplings(sense_pairs={(0, 2)})
        channel.set_node_down(1)
        channel.transmit(0, frame_from(0))
        assert sim.pending == 3
        sim.run()
        # watcher 2 sees the energy appear and clear; nobody receives
        assert listeners[2].medium_changes == 2
        assert all(not listener.received for listener in listeners.values())

    @pytest.mark.parametrize("tx_senses, rx_senses, events",
                             [(False, False, 1), (False, True, 2),
                              (True, False, 2), (True, True, 3)])
    def test_only_sensing_clients_cost_edges(self, tx_senses, rx_senses,
                                             events):
        # node 4 is the centre of the grid: four receivers
        topology = grid_topology(3, 3)
        sensing = ({4} if tx_senses else set()) | (
            set(topology.neighbors(4)) if rx_senses else set())
        sim, channel, listeners = setup_channel(topology, sensing=sensing)
        channel.transmit(4, frame_from(4))
        assert sim.pending == events
        sim.run()
        assert sim.events_executed == events
        for node in topology.neighbors(4):
            assert len(listeners[node].received) == 1
            if rx_senses:  # energy appears, reception delivered
                assert listeners[node].medium_changes == 2
        if tx_senses:  # own transmission starts and ends
            assert listeners[4].medium_changes == 2

    def test_non_sensing_coupled_node_costs_no_event(self, chain5):
        sim, channel, ____ = setup_channel(chain5, sensing=set())
        channel.set_physical_couplings(sense_pairs={(0, 2)})
        channel.set_node_down(1)
        channel.transmit(0, frame_from(0, bits=1000))
        assert sim.pending == 0
        # the watcher's medium still reads busy while the energy is on air
        sim.run(until=0.5e-3)
        assert channel.medium_busy(2)
        sim.run(until=2e-3)
        assert not channel.medium_busy(2)

    def test_unheard_transmission_leaves_one_event(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        channel.set_link_down((0, 1))
        channel.transmit(0, frame_from(0))
        assert sim.pending == 1  # the transmitter's own tx_end

    def test_suppressed_transmission_leaves_no_event(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        channel.set_node_down(0)
        channel.transmit(0, frame_from(0))
        assert sim.pending == 0


class TestCarrierSense:
    def test_transmitter_senses_own_tx(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        assert not channel.medium_busy(0)
        channel.transmit(0, frame_from(0, bits=1000))
        assert channel.transmitting(0)
        assert channel.medium_busy(0)
        sim.run()
        assert not channel.medium_busy(0)

    def test_neighbor_senses_after_propagation(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))
        assert not channel.medium_busy(1)  # propagation not elapsed
        sim.run(until=2e-6)
        assert channel.medium_busy(1)

    def test_two_hop_node_never_senses(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))
        sim.run(until=0.5e-3)
        assert not channel.medium_busy(2)

    def test_busy_until(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))
        assert channel.busy_until(0) == pytest.approx(1e-3)
        sim.run(until=2e-6)
        assert channel.busy_until(1) == pytest.approx(1e-3 + 1e-6)
        assert channel.busy_until(3) == pytest.approx(sim.now)

    def test_only_the_latest_own_transmission_is_on_air(self, chain5):
        sim, channel, ____ = setup_channel(chain5)
        for start in (0.0, 2e-3, 4e-3):
            sim.run(until=start)
            channel.transmit(0, frame_from(0, bits=1000))  # 1 ms each
            assert channel.transmitting(0)
            assert channel.busy_until(0) == pytest.approx(start + 1e-3)
        sim.run(until=4.5e-3)
        assert channel.transmitting(0)
        sim.run(until=5e-3)
        assert not channel.transmitting(0)
        assert channel.busy_until(0) == sim.now

    def test_medium_change_notifications(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0))
        sim.run()
        # neighbour 1: busy at arrival start + idle at arrival end (plus
        # the delivery notification)
        assert listeners[1].medium_changes >= 2
        # transmitter: start + end
        assert listeners[0].medium_changes >= 2


class TestFaultHooks:
    def test_down_node_radiates_nothing(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.set_node_down(1)
        airtime = channel.transmit(1, frame_from(1))
        sim.run()
        assert airtime > 0  # slot accounting unchanged
        assert listeners[0].received == []
        assert listeners[2].received == []

    def test_down_node_hears_nothing(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.set_node_down(2)
        channel.transmit(1, frame_from(1))
        sim.run()
        assert listeners[2].received == []
        assert len(listeners[0].received) == 1

    def test_crash_mid_flight_drops_frame(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.transmit(0, frame_from(0, bits=1000))
        sim.schedule_at(0.5e-3, channel.set_node_down, 1)
        sim.run()
        assert listeners[1].received == []

    def test_node_recovery(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.set_node_down(1)
        channel.set_node_down(1, down=False)
        assert not channel.node_is_down(1)
        channel.transmit(0, frame_from(0))
        sim.run()
        assert len(listeners[1].received) == 1

    def test_link_down_blocks_both_directions(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.set_link_down((1, 2))
        channel.transmit(1, frame_from(1))
        sim.run()
        assert listeners[2].received == []
        assert len(listeners[0].received) == 1  # other neighbour unaffected
        channel.transmit(2, frame_from(2))
        sim.run()
        assert len(listeners[1].received) == 0
        assert len(listeners[3].received) == 1

    def test_link_restore(self, chain5):
        sim, channel, listeners = setup_channel(chain5)
        channel.set_link_down((1, 2))
        channel.set_link_down((2, 1), down=False)  # undirected alias
        assert not channel.link_is_down((1, 2))
        channel.transmit(1, frame_from(1))
        sim.run()
        assert len(listeners[2].received) == 1

    def test_unknown_ids_rejected(self, chain5):
        ____, channel, ____ = setup_channel(chain5)
        with pytest.raises(ConfigurationError):
            channel.set_node_down(99)
        with pytest.raises(ConfigurationError):
            channel.set_link_down((0, 4))  # not adjacent in a chain

    def test_update_link_error_rates(self, chain5):
        import numpy as np
        sim, channel, listeners = setup_channel(chain5)
        channel.set_error_model(np.random.default_rng(0))
        channel.update_link_error_rates({(0, 1): 1.0 - 1e-12})
        channel.transmit(0, frame_from(0))
        sim.run()
        assert listeners[1].received[0][1] is False  # corrupted
        channel.update_link_error_rates({(0, 1): 0.0})
        channel.transmit(0, frame_from(0))
        sim.run()
        assert listeners[1].received[1][1] is True

    def test_update_rates_requires_error_model(self, chain5):
        ____, channel, ____ = setup_channel(chain5)
        with pytest.raises(ConfigurationError, match="set_error_model"):
            channel.update_link_error_rates({(0, 1): 0.5})

    def test_update_rates_validates(self, chain5):
        import numpy as np
        ____, channel, ____ = setup_channel(chain5)
        channel.set_error_model(np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            channel.update_link_error_rates({(0, 1): 1.5})
