"""Conflict graph construction under the k-hop protocol interference model.

The conflict graph has one vertex per *directed link* of the mesh; an edge
between two links means they may not be active in the same TDMA slot.  Under
the k-hop protocol model, links ``(u, v)`` and ``(a, b)`` conflict iff the
hop distance between their endpoint sets is at most ``k - 1``:

- ``k = 1``: only links sharing a node conflict (pure half-duplex, no
  radio interference) -- the classic "primary" or node-exclusive model.
- ``k = 2``: links whose endpoints are within one hop of each other
  conflict.  This is the model mandated by the 802.16 mesh specification
  (a node's transmission must not collide at any neighbour of the
  receiver), and the default throughout this library.

Larger ``k`` models wider interference ranges (e.g. carrier sense ranges
exceeding communication range).

One builder serves the k-hop model, the channel's exact interference rule
(:mod:`repro.phy.interference`) and the engine's delta updates: a relation
is two node sets per link (:data:`_NearSets`), :func:`_conflict_rows` scans
an incidence map for them, :func:`_graph_from_edges` materialises.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import networkx as nx

from repro.errors import ConfigurationError
from repro.net.topology import Link, MeshTopology

#: Row link ``a`` -> (nodes whose outgoing links conflict with ``a``, nodes
#: whose incoming links do): ``(tb, rb)`` conflicts with ``a`` iff ``tb`` is
#: in the first set or ``rb`` in the second.  Must define a symmetric relation.
_NearSets = Callable[[Link], tuple[set[int], set[int]]]


def conflict_graph(topology: MeshTopology, hops: int = 2,
                   links: Iterable[Link] | None = None) -> nx.Graph:
    """Build the conflict graph for (a subset of) the topology's links.

    Parameters
    ----------
    topology:
        The mesh connectivity graph.
    hops:
        The ``k`` of the k-hop interference model (>= 1).  Two distinct
        links conflict iff some endpoint of one is within ``k - 1`` hops of
        some endpoint of the other.
    links:
        Restrict the conflict graph to these directed links (default: all
        links of the topology).  Scheduling only the links that carry
        demand keeps the ILP small.

    Returns
    -------
    networkx.Graph
        Vertices are directed :data:`~repro.net.topology.Link` tuples.
    """
    link_list = _resolve_links(topology, links)
    near = _checked_khop_near_sets(topology, hops, link_list)
    return _graph_from_edges(
        link_list, _row_edges(_conflict_rows(link_list, near)))


def _checked_khop_near_sets(topology: MeshTopology, hops: int,
                            link_list: Sequence[Link]) -> _NearSets:
    """The k-hop near sets, after the one bad/degenerate ``hops`` guard."""
    if hops < 1:
        raise ConfigurationError(f"interference model needs hops >= 1, got {hops}")
    near = _khop_near_sets(topology, hops)
    # A widened model (hops > 2) whose reach spans the whole mesh from
    # every link is degenerate: all links pairwise conflict, the schedule
    # serialises, and the caller almost certainly mistook ``hops`` for a
    # distance in metres.  hops <= 2 is exempt -- on tiny meshes the
    # 802.16-mandated default legitimately yields a complete conflict
    # graph.
    if hops > 2 and link_list:
        num_nodes = topology.graph.number_of_nodes()
        if all(len(near(link)[0]) == num_nodes for link in link_list):
            raise ConfigurationError(
                f"hops={hops} reaches the whole {num_nodes}-node mesh "
                "from every link (hops >= network diameter): the "
                "conflict graph is complete and the schedule degenerates "
                "to one link per slot. Use a smaller hops value, or an "
                "SinrModel if you need wider-than-communication "
                "interference (see docs/interference.md)")
    return near


def _resolve_links(topology: MeshTopology,
                   links: Iterable[Link] | None) -> list[Link]:
    """All topology links, or the sorted, deduplicated, validated subset."""
    if links is None:
        return list(topology.links)
    link_list = sorted(set(links))
    for link in link_list:
        if not topology.has_link(link):
            raise ConfigurationError(f"{link} is not a link of the topology")
    return link_list


def _ball(neighbors: Callable[[int], Iterable[int]], seeds: Iterable[int],
          cutoff: int) -> set[int]:
    """Multi-source BFS ball: every node within ``cutoff`` hops of a seed."""
    seen = set(seeds)
    frontier = list(seen)
    for _ in range(cutoff):
        if not frontier:
            break
        nxt = []
        for node in frontier:
            for other in neighbors(node):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def _khop_near_sets(topology: MeshTopology, hops: int) -> _NearSets:
    """The k-hop model's near sets: both are ``reach(tx) | reach(rx)``.

    Reach is every node within ``hops - 1``, computed only for endpoints
    of the rows asked for.
    """
    adjacency = topology.graph.adj
    reach: dict[int, set[int]] = {}

    def near(link: Link) -> tuple[set[int], set[int]]:
        for node in link:
            if node not in reach:
                reach[node] = _ball(adjacency.__getitem__, (node,), hops - 1)
        both = reach[link[0]] | reach[link[1]]
        return both, both

    return near


def _conflict_rows(link_list: Sequence[Link], near: _NearSets,
                   rows: Optional[Iterable[Link]] = None
                   ) -> Iterator[tuple[Link, set[Link]]]:
    """The relation over ``link_list``, one ``(a, partners)`` row at a time.

    Rows come for every link of ``link_list`` (or of ``rows``, a subset)
    in sorted order; ``partners`` is the set of links conflicting with
    ``a``.  Candidates come from a node -> links incidence map, so the
    work is proportional to the output.
    """
    out_links: dict[int, list[Link]] = {}
    in_links: dict[int, list[Link]] = {}
    for link in link_list:
        out_links.setdefault(link[0], []).append(link)
        in_links.setdefault(link[1], []).append(link)
    for a in link_list if rows is None else sorted(rows):
        out_near, in_near = near(a)
        partners: set[Link] = set()
        for node in out_near:
            partners.update(out_links.get(node, ()))
        for node in in_near:
            partners.update(in_links.get(node, ()))
        partners.discard(a)
        yield a, partners


def _graph_from_edges(link_list: Iterable[Link],
                      edges: Iterable[tuple[Link, Link]]) -> nx.Graph:
    """Materialise a conflict graph in the canonical insertion order.

    ``link_list`` must be sorted and ``edges`` sorted ``(a, b)`` pairs with
    ``a < b``; every adjacency list then comes out sorted, whichever
    builder produced the edges.
    """
    graph = nx.Graph()
    graph.add_nodes_from(link_list)
    graph.add_edges_from(edges)
    return graph


def _row_edges(rows: Iterable) -> Iterator[tuple[Link, Link]]:
    """Sorted ``(a, b)``, ``a < b`` edges of sorted ``(a, partners)`` rows."""
    return ((a, b) for a, partners in rows
            for b in sorted(p for p in partners if p > a))


def conflicting_pairs(conflicts: nx.Graph) -> Iterator[tuple[Link, Link]]:
    """Iterate conflict-graph edges in a deterministic (sorted) order.

    The ILP builder relies on this ordering to index its binary variables
    consistently across runs.
    """
    return iter(sorted(tuple(sorted(edge)) for edge in conflicts.edges))


def conflict_degree(conflicts: nx.Graph) -> dict[Link, int]:
    """Number of conflicting neighbours per link (a scheduling-hardness proxy)."""
    return {link: conflicts.degree(link) for link in conflicts.nodes}


def max_conflict_clique_demand(conflicts: nx.Graph,
                               demands: dict[Link, int]) -> int:
    """A lower bound on frame slots: the heaviest known clique of conflicts.

    Enumerating maximum-weight cliques is exponential; this uses the cliques
    induced by each topology node (all links incident to one node mutually
    conflict under any k >= 1 model), which is cheap and usually tight on
    mesh topologies.

    It stays the minimum-slot search's start bound even though
    :func:`_greedy_clique_demand` often finds heavier cliques: a higher
    start would drop probes from every probe log and change the published
    ``lower_bound`` columns, while the probes below the greedy clique
    already cost no solver time -- the ILP front end refutes them with it.
    """
    best = 0
    per_node: dict[int, int] = {}
    for link, demand in demands.items():
        if demand < 0:
            raise ConfigurationError(f"negative demand on {link}")
        for node in link:
            per_node[node] = per_node.get(node, 0) + demand
    if per_node:
        best = max(per_node.values())
    return best


def _greedy_clique_demand(conflicts: nx.Graph, demands: Mapping[Link, int],
                          region: int) -> int:
    """Weight of a heavy clique of demanded links, stopping above ``region``.

    The heaviest single link is the first candidate.  Then the search
    starts once from each demanded link in canonical order and grows the
    clique by the heaviest demanded common neighbour (ties: canonical
    order) until none is left or the clique weighs more than ``region``.
    Every clique weighed is a real one, so the result never exceeds the
    maximum-weight clique: above ``region`` it proves that no conflict-free
    schedule fits the region, since pairwise-conflicting links need
    disjoint blocks.  A clique weighing at most ``region`` has at most
    ``region`` members, so after an O(conflict edges) set-up each start
    costs at most ``region + 1`` bitmask steps (the maximum-weight clique
    search of networkx recurses once per member and takes seconds on a
    dense mesh).
    """
    demanded = {link: d for link, d in demands.items() if d > 0}
    best = max(demanded.values(), default=0)
    if best > region:
        return best
    # Bit i stands for the i-th heaviest demanded link (ties: canonical
    # order), so the lowest set bit of a candidate mask is the next pick.
    heaviest = sorted(demanded, key=lambda link: (-demanded[link], link))
    rank = {link: i for i, link in enumerate(heaviest)}
    weights = [demanded[link] for link in heaviest]
    near = [sum(1 << rank[other] for other in conflicts.adj[link]
                if other in rank) if link in conflicts else 0
            for link in heaviest]
    for start in sorted(demanded):
        weight = demanded[start]
        candidates = near[rank[start]]
        while candidates and weight <= region:
            pick = (candidates & -candidates).bit_length() - 1
            weight += weights[pick]
            candidates &= near[pick]
        if weight > best:
            best = weight
            if best > region:
                break
    return best
