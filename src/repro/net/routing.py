"""Routing: turning flows into ordered link paths.

Two routing modes cover the paper line's scenarios:

- **Shortest path** between arbitrary endpoints (min hop count, ties broken
  deterministically by node id) -- used for peer-to-peer VoIP flows.
- **Gateway tree**: a BFS tree rooted at a gateway node; all traffic to or
  from the gateway follows tree edges.  This is the 802.16 mesh "scheduling
  tree" on which the centralized scheduler and the ToN tree-ordering
  algorithm operate.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import RoutingError
from repro.net.flows import Flow, FlowSet
from repro.net.topology import Link, MeshTopology


def _bfs_parents(topology: MeshTopology, source: int,
                 stop: Optional[int] = None) -> dict[int, int]:
    """BFS parent of every node reached from ``source`` (``source`` maps
    to itself), expanding neighbours in sorted order.

    The first discovery fixes a node's parent, so the tree path from
    ``source`` to any node is the lexicographically smallest min-hop
    path.  The search ends after the level that reaches ``stop``.
    """
    parents = {source: source}
    frontier = [source]
    rows = topology.rows
    while frontier and stop not in parents:
        following = []
        for node in frontier:
            for neighbor in rows[node]:
                if neighbor not in parents:
                    parents[neighbor] = node
                    following.append(neighbor)
        frontier = following
    return parents


def shortest_path_route(topology: MeshTopology, src: int, dst: int) -> list[Link]:
    """Min-hop route as a list of directed links, deterministic tie-breaking.

    Determinism matters: schedulers are compared on identical routed
    workloads, so the route must not depend on dict ordering.  We run BFS
    with sorted neighbour expansion, which yields the lexicographically
    smallest min-hop path.
    """
    if src == dst:
        raise RoutingError(f"src == dst == {src}")
    if not (topology.has_node(src) and topology.has_node(dst)):
        raise RoutingError(f"unknown endpoint in ({src}, {dst})")
    return route_on_tree(_bfs_parents(topology, src, stop=dst), src, src, dst)


def route_all(topology: MeshTopology, flows: FlowSet) -> FlowSet:
    """Return a new :class:`FlowSet` with every flow routed via shortest path.

    Flows that already carry a route are preserved as-is.
    """
    routed = FlowSet()
    for flow in flows:
        if flow.is_routed:
            routed.add(flow)
        else:
            routed.add(flow.with_route(
                shortest_path_route(topology, flow.src, flow.dst)))
    return routed


def choose_gateway(topology: MeshTopology) -> int:
    """The node minimizing worst-case tree depth (graph center).

    Placing the gateway at the center minimizes the deepest tier of the
    scheduling tree, which bounds both sync-beacon relay error and
    worst-case route length.  Ties break to the smallest node id.
    """
    return min(topology.nodes, key=topology.eccentricity)


def gateway_tree(topology: MeshTopology, gateway: int) -> dict[int, int]:
    """BFS scheduling tree rooted at ``gateway``, as a child -> parent map.

    Every node but the gateway maps to its parent, mirroring the 802.16
    mesh network-entry tree.  The tree path from the gateway to each node
    is the lexicographically smallest min-hop path, i.e. exactly
    :func:`shortest_path_route` from the gateway, so the tree is
    deterministic.  (A node's parent is *not* always its smallest min-hop
    neighbour: the path through a smaller grandparent wins first.)
    """
    if not topology.has_node(gateway):
        raise RoutingError(f"gateway {gateway} is not in the topology")
    tree = _bfs_parents(topology, gateway)
    del tree[gateway]
    return tree


def route_on_tree(tree: Mapping[int, int], gateway: int, src: int,
                  dst: int) -> list[Link]:
    """Route src -> dst along tree edges (up to the meeting node, then down).

    ``tree`` is a child -> parent map such as :func:`gateway_tree` returns.
    For gateway traffic (``dst == gateway`` or ``src == gateway``) this is a
    pure up- or down-tree path; otherwise it goes up to the lowest common
    ancestor and back down, as 802.16 mesh forwarding does.
    """
    if src == dst:
        raise RoutingError(f"src == dst == {src}")

    def path_to_root(node: int) -> list[int]:
        path = [node]
        while path[-1] != gateway:
            # off the tree, or a parent chain that cycles
            if path[-1] not in tree or len(path) > len(tree):
                raise RoutingError(f"node {node} is not on the scheduling "
                                   f"tree rooted at {gateway}")
            path.append(tree[path[-1]])
        return path

    up_src = path_to_root(src)       # src ... gateway
    up_dst = path_to_root(dst)       # dst ... gateway
    # Drop the climb the two share above the lowest common ancestor.
    while len(up_src) > 1 and len(up_dst) > 1 and up_src[-2] == up_dst[-2]:
        up_src.pop()
        up_dst.pop()
    path = up_src + up_dst[-2::-1]   # src ... lca ... dst
    return [(a, b) for a, b in zip(path, path[1:])]
