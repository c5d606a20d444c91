"""Routing: shortest paths and gateway trees."""

import pytest

from repro.errors import RoutingError
from repro.net.flows import Flow, FlowSet
from repro.net.routing import (
    gateway_tree,
    route_all,
    route_on_tree,
    shortest_path_route,
)
from repro.net.topology import (
    binary_tree_topology,
    chain_topology,
    grid_topology,
    random_disk_topology,
    star_topology,
)


class TestShortestPath:
    def test_chain_route(self, chain5):
        route = shortest_path_route(chain5, 0, 4)
        assert route == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_reverse_route(self, chain5):
        route = shortest_path_route(chain5, 4, 1)
        assert route == [(4, 3), (3, 2), (2, 1)]

    def test_min_hop_on_grid(self, grid33):
        route = shortest_path_route(grid33, 0, 8)
        assert len(route) == 4

    def test_deterministic_tie_breaking(self, grid33):
        # both (0,1,2,5,8) and (0,3,6,7,8) are min-hop; BFS with sorted
        # expansion must always return the lexicographically smallest
        route1 = shortest_path_route(grid33, 0, 8)
        route2 = shortest_path_route(grid33, 0, 8)
        assert route1 == route2
        assert route1[0] == (0, 1)

    def test_same_endpoints_rejected(self, chain5):
        with pytest.raises(RoutingError):
            shortest_path_route(chain5, 2, 2)

    def test_unknown_endpoint_rejected(self, chain5):
        with pytest.raises(RoutingError):
            shortest_path_route(chain5, 0, 99)


class TestRouteAll:
    def test_routes_every_flow(self, grid33):
        flows = FlowSet([
            Flow("a", 0, 8, rate_bps=1000),
            Flow("b", 2, 6, rate_bps=1000),
        ])
        routed = route_all(grid33, flows)
        assert all(f.is_routed for f in routed)
        assert routed.get("a").hops == 4

    def test_preserves_existing_routes(self, chain5):
        pre = Flow("a", 0, 2, rate_bps=1000).with_route([(0, 1), (1, 2)])
        routed = route_all(chain5, FlowSet([pre]))
        assert routed.get("a").route == ((0, 1), (1, 2))


class TestGatewayTree:
    def test_chain_tree_is_the_chain(self, chain5):
        tree = gateway_tree(chain5, 0)
        assert {(parent, child) for child, parent in tree.items()} == {
            (0, 1), (1, 2), (2, 3), (3, 4)}

    def test_every_node_reached(self, grid33):
        tree = gateway_tree(grid33, 4)
        # child -> parent: the gateway has none
        assert set(tree) | {4} == set(range(9))
        assert len(tree) == 8

    def test_parents_are_min_hop(self, grid33):
        tree = gateway_tree(grid33, 0)
        # node 4 (centre) is 2 hops from gateway 0; its parent must be a
        # 1-hop node (1 or 3), deterministically the smallest: 1
        assert tree[4] == 1

    def test_parent_is_not_always_the_smallest_min_hop_neighbour(self):
        # the tree path from the gateway is the lexicographically smallest
        # min-hop path, which can run through a larger last hop
        disk = random_disk_topology(20, 250.0, 800.0, seed=0)
        tree = gateway_tree(disk, 0)
        depth = {n: disk.hop_distance(0, n) for n in disk.nodes}
        assert min(n for n in disk.neighbors(15)
                   if depth[n] == depth[15] - 1) == 7
        assert tree[15] == 16

    @pytest.mark.parametrize("topology", [
        chain_topology(6), grid_topology(3, 4), grid_topology(4, 4),
        binary_tree_topology(3), star_topology(5),
        *(random_disk_topology(20, 250.0, 800.0, seed=s) for s in range(6)),
    ], ids=lambda t: t.name)
    def test_tree_paths_are_the_shortest_path_routes(self, topology):
        for gateway in topology.nodes:
            tree = gateway_tree(topology, gateway)
            for node in topology.nodes:
                if node != gateway:
                    assert (route_on_tree(tree, gateway, gateway, node)
                            == shortest_path_route(topology, gateway, node))

    def test_unknown_gateway_rejected(self, chain5):
        with pytest.raises(RoutingError):
            gateway_tree(chain5, 42)


class TestRouteOnTree:
    def test_uplink_route(self, grid33):
        tree = gateway_tree(grid33, 0)
        route = route_on_tree(tree, 0, 8, 0)
        assert route[0][0] == 8
        assert route[-1][1] == 0

    def test_downlink_route(self, grid33):
        tree = gateway_tree(grid33, 0)
        route = route_on_tree(tree, 0, 0, 8)
        assert route[0][0] == 0
        assert route[-1][1] == 8

    def test_cross_route_goes_through_lca(self, grid33):
        tree = gateway_tree(grid33, 0)
        route = route_on_tree(tree, 0, 2, 6)
        nodes = [route[0][0]] + [b for ____, b in route]
        assert nodes[0] == 2
        assert nodes[-1] == 6
        # path is contiguous
        for (____, mid), (nxt, ____) in zip(route, route[1:]):
            assert mid == nxt

    def test_lca_short_circuit(self, chain5):
        tree = gateway_tree(chain5, 0)
        # 3 -> 2: LCA is 2 itself; route must be the single link (3, 2),
        # not a detour via the gateway
        assert route_on_tree(tree, 0, 3, 2) == [(3, 2)]

    def test_same_endpoints_rejected(self, chain5):
        tree = gateway_tree(chain5, 0)
        with pytest.raises(RoutingError):
            route_on_tree(tree, 0, 1, 1)

    def test_unknown_node_rejected(self, chain5):
        tree = gateway_tree(chain5, 0)
        with pytest.raises(RoutingError):
            route_on_tree(tree, 0, 1, 77)
