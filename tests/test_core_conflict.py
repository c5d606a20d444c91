"""Conflict-graph construction."""

import pytest

from repro.core.conflict import (
    conflict_degree,
    conflict_graph,
    conflicting_pairs,
    max_conflict_clique_demand,
)
from repro.errors import ConfigurationError
from repro.net.topology import chain_topology, star_topology


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
        n = conflicts.number_of_nodes()
        assert conflicts.number_of_edges() == n * (n - 1) // 2


class TestGeneral:
    def test_default_covers_all_links(self, chain5):
        conflicts = conflict_graph(chain5)
        assert set(conflicts.nodes) == set(chain5.links)

    def test_restricted_link_set(self, chain5):
        links = [(0, 1), (1, 2)]
        conflicts = conflict_graph(chain5, hops=2, links=links)
        assert sorted(conflicts.nodes) == links

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
        assert set(one.edges) <= set(two.edges) <= set(three.edges)

    def test_symmetric(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        for a, b in conflicts.edges:
            assert conflicts.has_edge(b, a)

    def test_no_self_conflicts(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        assert all(a != b for a, b in conflicts.edges)


def test_conflicting_pairs_deterministic(chain5):
    conflicts = conflict_graph(chain5, hops=2)
    pairs1 = list(conflicting_pairs(conflicts))
    pairs2 = list(conflicting_pairs(conflicts))
    assert pairs1 == pairs2
    assert pairs1 == sorted(pairs1)
    assert all(a < b for a, b in pairs1)


def test_conflict_degree(chain5):
    conflicts = conflict_graph(chain5, hops=2)
    degrees = conflict_degree(conflicts)
    # middle links conflict with more links than edge links
    assert degrees[(2, 3)] >= degrees[(0, 1)]


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
        graph = conflict_graph(chain_topology(3), hops=2)
        assert graph.number_of_edges() > 0

    def test_wide_hops_on_a_long_chain_is_fine(self):
        # hops=3 on a 10-chain does not reach the whole mesh: accepted
        graph = conflict_graph(chain_topology(10), hops=3)
        assert graph.number_of_edges() > 0
