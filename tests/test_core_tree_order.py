"""Min-delay ordering on scheduling trees."""

import itertools

import pytest

from repro.core.conflict import conflict_graph
from repro.core.delay import order_wraps, path_delay_slots, path_wraps
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.tree_order import (
    adversarial_tree_order,
    min_delay_tree_order,
    naive_tree_order,
    tree_depths,
)
from repro.errors import ConfigurationError
from repro.net.routing import gateway_tree, route_on_tree
from repro.net.topology import (
    binary_tree_topology,
    chain_topology,
    grid_topology,
    star_topology,
)

#: On a chain of four with the gateway on an inner node, same-depth
#: uplinks go smallest link first, which puts the near leaf's uplink
#: between the far leaf's two uplink hops (on the mirror chain, the same
#: happens to the downlinks): that route takes 3 slots where another
#: order needs only 2.
_SLOT_GAP = pytest.mark.xfail(
    strict=True,
    reason="wrap-free but not slot-optimal: largest gateway-route delay "
           "3 slots against a brute-force minimum of 2")


class TestTreeDepths:
    def test_chain_depths(self, chain5):
        tree = gateway_tree(chain5, 0)
        depths = tree_depths(tree, 0)
        assert depths == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_unknown_root_rejected(self, chain5):
        tree = gateway_tree(chain5, 0)
        with pytest.raises(ConfigurationError):
            tree_depths(tree, 99)

    def test_non_tree_rejected(self):
        for tree in ({1: 0, 2: 3, 3: 2},   # 2 and 3 are each other's parent
                     {1: 0, 2: 5},         # 2's parent chain ends at 5
                     {1: 0, 0: 1}):        # the root has a parent
            with pytest.raises(ConfigurationError):
                tree_depths(tree, 0)


class TestMinDelayOrder:
    @pytest.mark.parametrize("topo_factory,gateway", [
        (lambda: chain_topology(6), 0),
        (lambda: binary_tree_topology(3), 0),
        (lambda: grid_topology(3, 3), 0),
        (lambda: grid_topology(3, 3), 4),
    ])
    def test_zero_wraps_on_all_tree_routes(self, topo_factory, gateway):
        """The ToN theorem: the order is wrap-free for EVERY tree route."""
        topology = topo_factory()
        tree = gateway_tree(topology, gateway)
        order = min_delay_tree_order(tree, gateway)
        nodes = topology.nodes
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                route = route_on_tree(tree, gateway, src, dst)
                assert order_wraps(order, route) == 0, (src, dst)

    def test_covers_both_directions(self, chain5):
        tree = gateway_tree(chain5, 0)
        order = min_delay_tree_order(tree, 0)
        links = set(order.links())
        assert (1, 0) in links and (0, 1) in links
        assert len(links) == 2 * len(tree)

    def test_uplinks_before_downlinks(self, btree2):
        tree = gateway_tree(btree2, 0)
        order = min_delay_tree_order(tree, 0)
        for child, parent in tree.items():
            assert order.precedes((child, parent), (parent, child))

    def test_deeper_uplinks_first(self, chain5):
        tree = gateway_tree(chain5, 0)
        order = min_delay_tree_order(tree, 0)
        assert order.precedes((4, 3), (3, 2))
        assert order.precedes((3, 2), (1, 0))

    def test_schedule_realizes_one_frame_delay(self, chain8):
        tree = gateway_tree(chain8, 0)
        order = min_delay_tree_order(tree, 0)
        route = tuple((i + 1, i) for i in reversed(range(7)))  # 7 -> 0
        demands = {link: 1 for link in route}
        conflicts = conflict_graph(chain8, hops=2, links=demands.keys())
        schedule = schedule_from_order(conflicts, demands, 16, order)
        assert path_wraps(schedule, route) == 0


#: Every small tree: chains of 2-4 nodes and a 3-leaf star, the gateway
#: at an end and in the middle.
SMALL_TREES = {
    "chain2-end": (chain_topology(2), 0),
    "chain3-end": (chain_topology(3), 0),
    "chain3-middle": (chain_topology(3), 1),
    "chain4-end": (chain_topology(4), 0),
    "chain4-middle": (chain_topology(4), 1),
    "chain4-middle-mirror": (chain_topology(4), 2),
    "star3-hub": (star_topology(3), 0),
    "star3-leaf": (star_topology(3), 1),
}


def _small_tree(name):
    """The tree order of ``SMALL_TREES[name]`` and a function giving any
    order's largest delay (slots) and wraps over the gateway routes.

    Every directed tree link carries a unit demand under 2-hop
    conflicts; an order's schedule is its earliest one in a frame of one
    slot per link, which every order fits.
    """
    topology, gateway = SMALL_TREES[name]
    tree = gateway_tree(topology, gateway)
    order = min_delay_tree_order(tree, gateway)
    demands = {link: 1 for link in order.links()}
    conflicts = conflict_graph(topology, hops=2, links=demands.keys())
    routes = [route_on_tree(tree, gateway, *pair)
              for node in topology.nodes if node != gateway
              for pair in ((node, gateway), (gateway, node))]

    def worst(candidate):
        schedule = schedule_from_order(conflicts, demands, len(demands),
                                       candidate)
        return (max(path_delay_slots(schedule, route) for route in routes),
                max(path_wraps(schedule, route) for route in routes))

    return order, worst


@pytest.mark.parametrize("name", SMALL_TREES)
def test_tree_order_is_wrap_free_on_small_trees(name):
    order, worst = _small_tree(name)
    assert worst(order)[1] == 0


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_SLOT_GAP) if name.startswith("chain4-middle")
    else name for name in SMALL_TREES])
def test_tree_order_matches_brute_force_over_every_order(name):
    """Over every order of the <= 6 tree links, the tree order's largest
    gateway-route delay is the minimum."""
    order, worst = _small_tree(name)
    best = min(worst(TransmissionOrder.from_ranking(list(ranking)))[0]
               for ranking in itertools.permutations(order.links()))
    assert worst(order)[0] == best


class TestBaselineOrders:
    def test_adversarial_wraps_every_hop(self, chain8):
        tree = gateway_tree(chain8, 0)
        order = adversarial_tree_order(tree, 0)
        uplink_route = tuple((i + 1, i) for i in reversed(range(7)))
        downlink_route = tuple((i, i + 1) for i in range(7))
        assert order_wraps(order, uplink_route) == 6
        assert order_wraps(order, downlink_route) == 6

    def test_naive_order_is_total_over_tree_links(self, btree2):
        tree = gateway_tree(btree2, 0)
        order = naive_tree_order(tree, 0)
        assert len(order.links()) == 2 * len(tree)

    def test_adversarial_no_worse_possible(self, chain5):
        # h-hop route has at most h-1 consecutive pairs, so h-1 wraps is
        # the ceiling; adversarial hits it
        tree = gateway_tree(chain5, 0)
        order = adversarial_tree_order(tree, 0)
        route = tuple((i, i + 1) for i in range(4))
        assert order_wraps(order, route) == len(route) - 1
