"""Conflict-model vs channel-physics cross-validation."""

import numpy as np
import pytest

from repro.phy.interference import (
    interference_graph,
    overcautious_pairs,
    uncovered_interference,
)
from repro.net.topology import (
    binary_tree_topology,
    chain_topology,
    grid_topology,
    random_disk_topology,
    star_topology,
)
from repro.phy.models import ProtocolModel

TOPOLOGIES = [
    chain_topology(6),
    grid_topology(3, 3),
    star_topology(4),
    binary_tree_topology(3),
    random_disk_topology(10, 350.0, 800.0, np.random.default_rng(4)),
]


class TestInterferenceGraph:
    def test_shared_node_always_interferes(self, chain5):
        graph = interference_graph(chain5)
        assert graph.has_edge((0, 1), (1, 2))
        assert graph.has_edge((0, 1), (1, 0))

    def test_hidden_terminal_pair_interferes(self, chain5):
        # (0,1) and (2,1): tx 2 is a neighbour of rx 1
        graph = interference_graph(chain5)
        assert graph.has_edge((0, 1), (2, 1))

    def test_far_links_do_not_interfere(self, chain8):
        graph = interference_graph(chain8)
        assert not graph.has_edge((0, 1), (4, 5))

    def test_exposed_terminal_pair_interferes_via_receiver(self, chain5):
        # (1,0) and (2,3): tx 1 and tx 2 are neighbours but the receivers
        # (0 and 3) are out of each other's transmitter range -> the
        # channel model lets both succeed
        graph = interference_graph(chain5)
        assert not graph.has_edge((1, 0), (2, 3))


class TestCoverage:
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=[t.name for t in TOPOLOGIES])
    def test_two_hop_model_covers_all_interference(self, topology):
        """The safety theorem of the 2-hop model on this channel."""
        assert uncovered_interference(topology) == []

    def test_one_hop_model_misses_hidden_terminals(self, chain5):
        # (0,1) and (2,3) share no node, so the 1-hop model allows them
        # together -- but tx 2 is a neighbour of rx 1, so they interfere
        missing = uncovered_interference(chain5, model=ProtocolModel(1))
        assert ((0, 1), (2, 3)) in missing

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=[t.name for t in TOPOLOGIES])
    def test_two_hop_model_is_strictly_conservative(self, topology):
        """The 2-hop model over-separates somewhere on any multihop mesh
        (the spatial-reuse price E11 measures), except degenerate stars."""
        extra = overcautious_pairs(topology)
        if topology.num_nodes() > 3 and topology.name != "star4":
            assert extra


class TestEndToEnd:
    def test_schedule_valid_under_model_is_collision_free_on_channel(self):
        """Transmit on every slot of a conflict-free schedule; the channel
        must deliver every intended reception uncorrupted."""
        from repro.core.conflict import conflict_graph
        from repro.core.greedy import greedy_schedule
        from repro.phy.channel import BroadcastChannel, ChannelClient
        from repro.phy.frames import FrameKind, PhyFrame
        from repro.phy.radio import PhyParams
        from repro.sim.engine import Simulator

        topology = grid_topology(3, 3)
        conflicts = conflict_graph(topology, hops=2)
        demands = {link: 1 for link in topology.links}
        schedule = greedy_schedule(conflicts, demands)

        phy = PhyParams("t", 1e6, 1e6, plcp_overhead_s=0.0,
                        propagation_delay_s=1e-6)
        sim = Simulator()
        channel = BroadcastChannel(sim, topology, phy)
        received: list[tuple[int, PhyFrame, bool]] = []

        class Sink(ChannelClient):
            def __init__(self, node):
                self.node = node

            def on_receive(self, frame, success):
                received.append((self.node, frame, success))

            def on_medium_change(self):
                pass

        for node in topology.nodes:
            channel.attach(node, Sink(node))

        slot_duration = 1e-3
        for slot in range(schedule.frame_slots):
            for link in schedule.active_links(slot):
                frame = PhyFrame(FrameKind.DATA, link[0], None, 100,
                                 payload=link)
                sim.schedule_at(slot * slot_duration, channel.transmit,
                                link[0], frame, 500e-6)
        sim.run()

        for node, frame, success in received:
            if frame.payload[1] == node:  # the intended receiver
                assert success, (frame.payload, node)


class TestSinrTruth:
    """The containment validator with an SINR ground truth (E23, S39)."""

    def _spaced_chain(self):
        return chain_topology(8, spacing=90.0)

    def test_two_hop_model_leaves_sinr_pairs_uncovered(self):
        from repro.phy.models import SinrModel

        topology = self._spaced_chain()
        missing = uncovered_interference(topology, truth=SinrModel())
        assert missing
        for a, b in missing:
            assert not set(a) & set(b)  # only non-adjacent pairs escape

    def test_sinr_model_covers_itself(self):
        from repro.phy.models import SinrModel

        topology = self._spaced_chain()
        model = SinrModel()
        assert uncovered_interference(topology, model=model,
                                      truth=model) == []

    def test_wide_protocol_model_can_cover_the_sinr_truth(self):
        from repro.phy.models import SinrModel

        # at 90 m spacing SINR interference reaches 3 hops; hops=4
        # over-covers it (and the chain is long enough not to trip the
        # degenerate-hops guard)
        topology = self._spaced_chain()
        assert uncovered_interference(topology, model=ProtocolModel(4),
                                      truth=SinrModel()) == []

    def test_truth_accepts_a_prebuilt_graph(self):
        topology = self._spaced_chain()
        prebuilt = interference_graph(topology)
        assert (uncovered_interference(topology, truth=prebuilt)
                == uncovered_interference(topology))

    def test_overcautious_pairs_against_sinr(self):
        from repro.phy.models import SinrModel

        # the 4-hop model over-separates relative to the SINR truth
        topology = self._spaced_chain()
        assert overcautious_pairs(topology, model=ProtocolModel(4),
                                  truth=SinrModel())


class TestIncidenceRewrite:
    """The incidence-map interference_graph matches the pairwise scan."""

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=[t.name for t in TOPOLOGIES])
    def test_matches_naive_pairwise_scan(self, topology):
        import networkx as nx

        links = topology.links
        naive = nx.Graph()
        naive.add_nodes_from(links)
        for i, a in enumerate(links):
            for b in links[i + 1:]:
                ta, ra = a
                tb, rb = b
                if (set(a) & set(b) or tb in topology.graph[ra]
                        or ta in topology.graph[rb]):
                    naive.add_edge(a, b)
        fast = interference_graph(topology).graph
        assert list(fast.nodes) == list(naive.nodes)
        assert list(fast.edges) == list(naive.edges)
