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

import networkx as nx

from repro.errors import RoutingError
from repro.net.flows import Flow, FlowSet
from repro.net.topology import Link, MeshTopology


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
    # BFS with sorted neighbours; parent pointers give the lexicographically
    # smallest shortest path.
    parents: dict[int, int] = {src: src}
    frontier = [src]
    while frontier and dst not in parents:
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor not in parents:
                    parents[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if dst not in parents:
        raise RoutingError(f"no route from {src} to {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(parents[path[-1]])
    path.reverse()
    return [(a, b) for a, b in zip(path, path[1:])]


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


def gateway_tree(topology: MeshTopology, gateway: int) -> nx.DiGraph:
    """BFS scheduling tree rooted at ``gateway``.

    Returns a directed graph with edges pointing *away* from the gateway
    (parent -> child), mirroring the 802.16 mesh network-entry tree.  Each
    node's parent is its min-hop neighbour with the smallest id, so the tree
    is deterministic.
    """
    if not topology.has_node(gateway):
        raise RoutingError(f"gateway {gateway} is not in the topology")
    tree = nx.DiGraph()
    tree.add_node(gateway)
    visited = {gateway}
    frontier = [gateway]
    while frontier:
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    tree.add_edge(node, neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return tree


def route_on_tree(tree: nx.DiGraph, gateway: int, src: int, dst: int) -> list[Link]:
    """Route src -> dst along tree edges (up to the meeting node, then down).

    For gateway traffic (``dst == gateway`` or ``src == gateway``) this is a
    pure up- or down-tree path; otherwise it goes up to the lowest common
    ancestor and back down, as 802.16 mesh forwarding does.
    """
    if src == dst:
        raise RoutingError(f"src == dst == {src}")
    for node in (src, dst):
        if node not in tree:
            raise RoutingError(f"node {node} is not on the scheduling tree")

    def path_to_root(node: int) -> list[int]:
        path = [node]
        while path[-1] != gateway:
            preds = list(tree.predecessors(path[-1]))
            if len(preds) != 1:
                raise RoutingError(
                    f"node {path[-1]} has {len(preds)} parents; not a tree")
            path.append(preds[0])
        return path

    up_src = path_to_root(src)       # src ... gateway
    up_dst = path_to_root(dst)       # dst ... gateway
    ancestors_of_dst = set(up_dst)
    # Climb from src until we hit an ancestor of dst (the LCA).
    lca_index = next(i for i, node in enumerate(up_src)
                     if node in ancestors_of_dst)
    lca = up_src[lca_index]
    upward = up_src[:lca_index + 1]                    # src ... lca
    downward = list(reversed(up_dst[:up_dst.index(lca)]))  # (lca,) ... dst minus lca
    path = upward + downward
    return [(a, b) for a, b in zip(path, path[1:])]
