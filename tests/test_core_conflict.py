"""Conflict-relation construction and the ConflictIndex type."""

import networkx as nx
import pytest

from repro.core.admission import AdmissionController
from repro.core.conflict import (
    ConflictIndex,
    conflict_graph,
    max_conflict_clique_demand,
)
from repro.core.engine import SolverEngine
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.topology import chain_topology, grid_topology, star_topology
from repro.phy.models import SinrModel
from repro.qos.admission import QosAdmissionController


class TestOneHopModel:
    def test_links_sharing_a_node_conflict(self, chain5):
        conflicts = conflict_graph(chain5, hops=1)
        assert conflicts.has_edge((0, 1), (1, 2))
        assert conflicts.has_edge((0, 1), (1, 0))  # reverse direction too

    def test_disjoint_links_do_not_conflict(self, chain5):
        conflicts = conflict_graph(chain5, hops=1)
        assert not conflicts.has_edge((0, 1), (2, 3))
        assert not conflicts.has_edge((0, 1), (3, 4))


class TestTwoHopModel:
    def test_adjacent_links_conflict(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        assert conflicts.has_edge((0, 1), (1, 2))

    def test_one_hop_separated_links_conflict(self, chain5):
        # (0,1) and (2,3): node 1 and node 2 are neighbours
        conflicts = conflict_graph(chain5, hops=2)
        assert conflicts.has_edge((0, 1), (2, 3))

    def test_two_hop_separated_links_do_not_conflict(self, chain5):
        # (0,1) and (3,4): closest endpoints 1 and 3 are 2 hops apart
        conflicts = conflict_graph(chain5, hops=2)
        assert not conflicts.has_edge((0, 1), (3, 4))

    def test_star_is_a_clique(self):
        topo = star_topology(4)
        conflicts = conflict_graph(topo, hops=2)
        n = conflicts.num_links
        assert conflicts.num_conflicts == n * (n - 1) // 2


class TestGeneral:
    def test_default_covers_all_links(self, chain5):
        conflicts = conflict_graph(chain5)
        assert set(conflicts.links) == set(chain5.links)

    def test_restricted_link_set(self, chain5):
        links = [(0, 1), (1, 2)]
        conflicts = conflict_graph(chain5, hops=2, links=links)
        assert list(conflicts.links) == links

    def test_unknown_restricted_link_rejected(self, chain5):
        with pytest.raises(ConfigurationError):
            conflict_graph(chain5, links=[(0, 4)])

    def test_invalid_hops_rejected(self, chain5):
        with pytest.raises(ConfigurationError):
            conflict_graph(chain5, hops=0)

    def test_larger_hops_only_adds_conflicts(self, grid33):
        one = conflict_graph(grid33, hops=1)
        two = conflict_graph(grid33, hops=2)
        three = conflict_graph(grid33, hops=3)
        assert set(one.pairs()) <= set(two.pairs()) <= set(three.pairs())

    def test_symmetric(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        for a, b in conflicts.pairs():
            assert conflicts.has_edge(a, b) and conflicts.has_edge(b, a)

    def test_no_self_conflicts(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        assert all(a != b for a, b in conflicts.pairs())
        assert not any(conflicts.has_edge(link, link)
                       for link in conflicts.links)


def test_conflicting_pairs_deterministic(chain5):
    conflicts = conflict_graph(chain5, hops=2)
    pairs1 = conflicts.pairs()
    pairs2 = conflict_graph(chain5, hops=2).pairs()
    assert pairs1 == pairs2
    assert pairs1 == sorted(pairs1)
    assert all(a < b for a, b in pairs1)
    assert len(pairs1) == conflicts.num_conflicts


def test_conflict_degree(chain5):
    conflicts = conflict_graph(chain5, hops=2)
    # middle links conflict with more links than edge links
    assert conflicts.degree((2, 3)) >= conflicts.degree((0, 1))
    assert conflicts.degree((2, 3)) == len(conflicts.neighbors((2, 3)))


class TestConflictIndex:
    def test_has_edge_matches_neighbors(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        for a in conflicts.links:
            near = set(conflicts.neighbors(a))
            assert all(conflicts.has_edge(a, b) == (b in near)
                       for b in conflicts.links)

    def test_has_edge_rejects_a_missing_link(self, chain5):
        conflicts = conflict_graph(chain5, hops=2, links=[(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError, match="not a vertex"):
            conflicts.has_edge((0, 1), (2, 3))

    def test_from_graph_rejects_a_self_loop(self):
        a, b = (0, 1), (1, 2)
        graph = nx.Graph([(a, b), (a, a)])
        with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
            ConflictIndex.from_graph(graph)

    def test_graph_export_round_trips(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        graph = conflicts.graph
        assert isinstance(graph, nx.Graph)
        assert list(graph.nodes) == list(conflicts.links)
        assert list(graph.edges) == conflicts.pairs()
        again = ConflictIndex.from_graph(graph)
        assert again.links == conflicts.links
        assert again.pairs() == conflicts.pairs()


class TestMalformedLinks:
    """Every builder names a requested link that is not a ``(u, v)`` link
    of the topology, whatever its shape."""

    def test_three_tuple_to_conflict_graph(self, grid33):
        with pytest.raises(ConfigurationError, match=r"\(0, 1, 2\)"):
            conflict_graph(grid33, 2, links=[(0, 1, 2), (1, 0)])

    def test_three_tuple_to_the_engine(self, grid33):
        with pytest.raises(ConfigurationError, match=r"\(0, 1, 7\)"):
            SolverEngine().conflict_index(grid33, links=[(0, 1, 7)])

    def test_three_tuple_to_the_sinr_model(self, grid33):
        with pytest.raises(ConfigurationError, match=r"\(0, 1, 2\)"):
            SinrModel().conflict_graph(grid33, links=[(0, 1, 2)])

    @pytest.mark.parametrize("build", [
        lambda topology, links: conflict_graph(topology, 2, links=links),
        lambda topology, links: SolverEngine().conflict_index(
            topology, links=links),
    ], ids=["conflict_graph", "engine"])
    def test_list_link(self, grid33, build):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            build(grid33, [[0, 1]])

    def test_one_tuple(self, grid33):
        with pytest.raises(ConfigurationError, match=r"\(0,\)"):
            conflict_graph(grid33, 2, links=[(0,)])


@pytest.mark.parametrize("bad", [True, 0, 2.5, "2"])
class TestHopsCheck:
    """One strict ``hops`` check behind every entry point."""

    def test_conflict_graph(self, bad):
        with pytest.raises(ConfigurationError, match="integer hops"):
            conflict_graph(grid_topology(3, 3), hops=bad)

    def test_admission_controller(self, bad):
        # a bare hops value is not a model: rejected at the boundary
        with pytest.raises(ConfigurationError,
                           match=r"ProtocolModel\(hops=k\)"):
            AdmissionController(grid_topology(3, 3), 24, 0.01, 1000.0,
                                interference=bad)

    def test_qos_admission_controller(self, bad):
        with pytest.raises(ConfigurationError,
                           match=r"ProtocolModel\(hops=k\)"):
            QosAdmissionController(grid_topology(3, 3),
                                   default_frame_config(),
                                   interference=bad)


class TestCliqueDemandBound:
    def test_node_clique_sum(self):
        demands = {(0, 1): 2, (1, 2): 3, (1, 0): 1}
        # node 1 touches all three links: 2 + 3 + 1
        assert max_conflict_clique_demand(demands) == 6

    def test_empty_demands(self):
        assert max_conflict_clique_demand({}) == 0

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            max_conflict_clique_demand({(0, 1): -1})

    def test_bound_is_valid_lower_bound(self):
        # on a star, all links conflict, so min slots == total demand
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 1, (0, 2): 2, (0, 3): 1}
        assert all(conflicts.has_edge(a, b)
                   for a in demands for b in demands if a != b)
        assert max_conflict_clique_demand(demands) == 4


class TestDegenerateHopsGuard:
    def test_whole_mesh_reach_is_rejected(self):
        # hops=4 reaches every node of a 5-chain from every link: the
        # conflict graph is complete and the schedule would serialise
        with pytest.raises(ConfigurationError, match="degenerates"):
            conflict_graph(chain_topology(5), hops=4)

    def test_error_points_at_the_sinr_alternative(self):
        with pytest.raises(ConfigurationError, match="SinrModel"):
            conflict_graph(chain_topology(4), hops=3)

    def test_two_hop_default_is_exempt_on_tiny_meshes(self):
        # on a 3-chain even hops=2 yields a complete conflict graph;
        # the 802.16-mandated default must never be rejected for it
        conflicts = conflict_graph(chain_topology(3), hops=2)
        assert conflicts.num_conflicts > 0

    def test_wide_hops_on_a_long_chain_is_fine(self):
        # hops=3 on a 10-chain does not reach the whole mesh: accepted
        conflicts = conflict_graph(chain_topology(10), hops=3)
        assert conflicts.num_conflicts > 0
