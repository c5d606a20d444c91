"""Routing: turning flows into ordered link paths.

Two routing modes cover the paper line's scenarios.  Both read the one row
BFS, :func:`~repro.net.topology.bfs_levels`: its parent map gives the
lexicographically smallest min-hop path from the source to every node.

- **Shortest path** between arbitrary endpoints: the parent chain of a BFS
  stopped at the destination -- used for peer-to-peer VoIP flows.
- **Gateway tree**: the whole parent map of a BFS from a gateway node; all
  traffic to or from the gateway follows tree edges.  This is the 802.16
  mesh "scheduling tree" on which the centralized scheduler and the ToN
  tree-ordering algorithm operate.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import RoutingError
from repro.net.flows import Flow, FlowSet
from repro.net.topology import Link, MeshTopology, bfs_levels


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
    parents, _ = bfs_levels(topology.rows, [src], stop=dst)
    return route_on_tree(parents, src, src, dst)


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
    return _gateway_bfs(topology, gateway)[0]


def _gateway_bfs(topology: MeshTopology, gateway: int
                 ) -> tuple[dict[int, int], list[list[int]]]:
    """:func:`gateway_tree` and its BFS levels (the gateway at depth 0)."""
    if not topology.has_node(gateway):
        raise RoutingError(f"gateway {gateway} is not in the topology")
    tree, levels = bfs_levels(topology.rows, [gateway])
    del tree[gateway]
    return tree, levels


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
