"""Mesh topology model and generators.

A :class:`MeshTopology` is an undirected connectivity graph (who can hear
whom) plus node positions.  Directed *links* ``(u, v)`` are the scheduling
unit: the TDMA scheduler assigns slots to directed links, and the conflict
graph (:mod:`repro.core.conflict`) has one vertex per directed link.

All generators produce deterministic node ids (integers) and a canonical,
sorted link ordering so that experiment runs are reproducible and so link
indices are stable across scheduler implementations.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable, Mapping, Optional

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError

#: A directed link: (transmitter node id, receiver node id).
Link = tuple[int, int]


class MeshTopology:
    """Connectivity with positions and canonical directed links.

    :attr:`rows` (node -> sorted neighbour tuple, nodes sorted) is the
    topology; :attr:`edges`, :attr:`links` and every query read it.
    :attr:`graph` is a one-way :mod:`networkx` export: editing it changes
    nothing (use :meth:`apply_edge_changes`).

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph` of radio connectivity.  Node ids
        must be integers.  It becomes the topology's :attr:`graph`.
    positions:
        Optional mapping node id -> (x, y) metres, used by distance-based
        propagation models and plotting.
    name:
        Human-readable label used in reports.
    """

    def __init__(self, graph: nx.Graph,
                 positions: Optional[dict[int, tuple[float, float]]] = None,
                 name: str = "mesh") -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("topology must have at least one node")
        if not all(isinstance(n, int) for n in graph.nodes):
            raise ConfigurationError("topology node ids must be integers")
        loop = next(nx.nodes_with_selfloops(graph), None)
        if loop is not None:
            # a self-loop would make a node its own radio neighbour
            raise ConfigurationError(f"degenerate edge ({loop}, {loop})")
        rows = _rows_of(graph)
        if not _is_connected(rows):
            raise ConfigurationError("topology must be connected")
        self._graph: Optional[nx.Graph] = graph
        #: graph whose node, edge and graph data a lazy export copies
        self._source: Optional[nx.Graph] = None
        self.positions = positions or {}
        self.name = name
        #: Monotone mutation counter: bumped by every in-place structural
        #: change made through :meth:`apply_edge_changes`, so state derived
        #: from the old connectivity (e.g. an admission controller's
        #: schedule) can detect that this object is no longer the graph
        #: it was computed from.
        self.mutations = 0
        self._set_rows(rows)

    @classmethod
    def _from_rows(cls, rows: dict[int, tuple[int, ...]],
                   positions: dict[int, tuple[float, float]], name: str,
                   source: Optional[nx.Graph]) -> "MeshTopology":
        """A topology on rows the caller built sorted and connected.

        ``source`` is the graph whose data the lazy :attr:`graph` export
        copies; ``None`` exports a plain :class:`networkx.Graph`.
        """
        topology = cls.__new__(cls)
        topology._graph = None
        topology._source = source
        topology.positions = positions
        topology.name = name
        topology.mutations = 0
        topology._set_rows(rows)
        return topology

    def _set_rows(self, rows: dict[int, tuple[int, ...]]) -> None:
        #: node -> sorted neighbour tuple, in sorted node order
        self.rows = rows
        # derived from the rows on first read
        self._edges: Optional[list[tuple[int, int]]] = None
        self._links: Optional[list[Link]] = None
        self._link_index: Optional[dict[Link, int]] = None
        self._eccentricities: dict[int, int] = {}
        # the last hop_distance source and its BFS depths: one entry, so
        # a loop over targets from one source runs one BFS
        self._hop_source: Optional[int] = None
        self._hop_depths: dict[int, int] = {}

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges ``(u, v)``, ``u < v``, sorted (built on first
        read)."""
        if self._edges is None:
            self._edges = _edges_of(self.rows.items())
        return self._edges

    @property
    def links(self) -> list[Link]:
        """Canonical ordering of directed links: sorted (u, v) pairs, both
        directions of every undirected edge (built on first read)."""
        if self._links is None:
            self._links = [(u, v) for u, row in self.rows.items()
                           for v in row]
        return self._links

    @property
    def graph(self) -> nx.Graph:
        """One-way :mod:`networkx` export of the connectivity.

        The caller's graph; a rows-born topology (a survivor, a mobility
        union base) builds one on first access, with sorted nodes and
        edges and data copied from its source graph, if it has one.
        """
        if self._graph is None:
            source = self._source
            if source is None:
                graph = nx.Graph()
                graph.add_nodes_from(self.rows)
                graph.add_edges_from(self.edges)
            else:
                graph = source.__class__()
                graph.graph.update(source.graph)
                graph.add_nodes_from((n, source.nodes[n])
                                     for n in self.rows)
                graph.add_edges_from((u, v, source.adj[u][v])
                                     for u, v in self.edges)
            self._graph = graph
        return self._graph

    # -- basic queries ----------------------------------------------------

    @property
    def nodes(self) -> list[int]:
        """Node ids in sorted order."""
        return list(self.rows)

    def num_nodes(self) -> int:
        return len(self.rows)

    def has_node(self, node: int) -> bool:
        return node in self.rows

    def num_links(self) -> int:
        """Number of *directed* links."""
        return len(self.links)

    def link_index(self, link: Link) -> int:
        """Stable index of a directed link in :attr:`links`."""
        if self._link_index is None:
            self._link_index = {link: i for i, link in enumerate(self.links)}
        try:
            return self._link_index[link]
        except KeyError:
            raise ConfigurationError(f"{link} is not a link of {self.name}") from None

    def has_link(self, link: Link) -> bool:
        return link[1] in self.rows.get(link[0], ())

    def neighbors(self, node: int) -> list[int]:
        """Radio neighbours of ``node``, sorted."""
        return list(self.rows[node])

    def hop_distance(self, a: int, b: int) -> int:
        """Hop distance between two nodes (memoises the last source)."""
        if a != self._hop_source:
            if a not in self.rows:
                raise self._unknown_node(a)
            self._hop_depths = hop_depths(self.rows, [a])
            self._hop_source = a
        try:
            return self._hop_depths[b]
        except KeyError:
            raise self._unknown_node(b) from None

    def eccentricity(self, node: int) -> int:
        """Hop distance from ``node`` to the farthest node (memoised)."""
        depth = self._eccentricities.get(node)
        if depth is None:
            if node not in self.rows:
                raise self._unknown_node(node)
            depth = max(hop_depths(self.rows, [node]).values())
            self._eccentricities[node] = depth
        return depth

    def _unknown_node(self, node: int) -> ConfigurationError:
        return ConfigurationError(f"node {node} is not in {self.name}")

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in metres (requires positions)."""
        if a not in self.positions or b not in self.positions:
            raise ConfigurationError("topology has no positions for distance()")
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    @property
    def has_positions(self) -> bool:
        """True iff every node has a layout position."""
        return all(n in self.positions for n in self.rows)

    def position(self, node: int) -> tuple[float, float]:
        """Layout position of ``node`` in metres.

        Every generator in this module records the positions it placed
        nodes at, so mobility models (:mod:`repro.mobility`) and
        distance-based channel models can seed from the real layout.
        """
        try:
            return self.positions[node]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no position for node {node}") from None

    # -- in-place mutation ------------------------------------------------

    def apply_edge_changes(self, add: Iterable[tuple[int, int]] = (),
                           remove: Iterable[tuple[int, int]] = ()) -> None:
        """Mutate connectivity in place, keeping every invariant intact.

        This is the *only* supported way to change a topology after
        construction: it revalidates connectivity (rolling back on
        failure), replaces :attr:`rows` (never edits them, so an engine
        index keyed by the old rows is never served for the new ones),
        rebuilds the canonical link ordering, and bumps :attr:`mutations`.
        The edit is made on a copy of :attr:`graph`, so node and edge data
        carry over to the new export.
        """
        candidate = self.graph.copy()
        for u, v in remove:
            if candidate.has_edge(u, v):
                candidate.remove_edge(u, v)
        for u, v in add:
            if u not in candidate or v not in candidate:
                raise ConfigurationError(
                    f"cannot add edge ({u}, {v}): unknown node")
            if u == v:
                raise ConfigurationError(f"degenerate edge ({u}, {v})")
            candidate.add_edge(u, v)
        rows = _rows_of(candidate)
        if not _is_connected(rows):
            raise ConfigurationError(
                "edge changes would disconnect the topology")
        self._graph = candidate
        self.mutations += 1
        self._set_rows(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MeshTopology({self.name!r}, nodes={self.num_nodes()}, "
                f"links={self.num_links()})")


def _rows_of(graph: nx.Graph) -> dict[int, tuple[int, ...]]:
    return {n: tuple(sorted(graph.adj[n])) for n in sorted(graph.nodes)}


def _edges_of(rows: Iterable[tuple[int, tuple[int, ...]]]
              ) -> list[tuple[int, int]]:
    """The undirected edges ``(u, v)``, ``u < v``, of sorted ``(node,
    row)`` pairs (e.g. ``MeshTopology.rows.items()``), in sorted order."""
    return [(u, v) for u, row in rows for v in row if u < v]


def hop_depths(adjacency: Mapping[int, Iterable[int]],
               sources: Iterable[int],
               cutoff: Optional[int] = None) -> dict[int, int]:
    """Multi-source BFS over ``adjacency`` (e.g. :attr:`MeshTopology.rows`):
    hops from the nearest source to each node within ``cutoff``."""
    depths = dict.fromkeys(sources, 0)
    frontier, depth = list(depths), 0
    while frontier and depth != cutoff:
        depth += 1
        following = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in depths:
                    depths[v] = depth
                    following.append(v)
        frontier = following
    return depths


def _is_connected(rows: dict[int, tuple[int, ...]]) -> bool:
    return len(hop_depths(rows, [next(iter(rows))])) == len(rows)


# -- generators -----------------------------------------------------------

def chain_topology(num_nodes: int, spacing: float = 100.0) -> MeshTopology:
    """A linear chain ``0 - 1 - ... - n-1`` with nodes ``spacing`` m apart.

    Chains are the canonical topology for delay-vs-hops experiments (E2/E3):
    every multihop path is forced and spatial reuse kicks in beyond the
    conflict distance.
    """
    if num_nodes < 1:
        raise ConfigurationError("chain needs at least 1 node")
    graph = nx.path_graph(num_nodes)
    positions = {i: (i * spacing, 0.0) for i in range(num_nodes)}
    return MeshTopology(graph, positions, name=f"chain{num_nodes}")


def grid_topology(rows: int, cols: int, spacing: float = 100.0) -> MeshTopology:
    """A ``rows x cols`` grid with 4-neighbour connectivity.

    Grids approximate planned metro mesh deployments and are the standard
    topology in the paper line's VoIP capacity experiments (E1/E5).
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid dimensions must be positive")
    grid = nx.grid_2d_graph(rows, cols)
    mapping = {(r, c): r * cols + c for r, c in grid.nodes}
    graph = nx.relabel_nodes(grid, mapping)
    positions = {r * cols + c: (c * spacing, r * spacing)
                 for r in range(rows) for c in range(cols)}
    return MeshTopology(graph, positions, name=f"grid{rows}x{cols}")


def star_topology(num_leaves: int, spacing: float = 100.0) -> MeshTopology:
    """A hub (node 0) with ``num_leaves`` one-hop leaves.

    Stars have a fully conflicting link set (every link shares the hub), so
    they lower-bound spatial reuse; useful as a scheduling worst case.
    """
    if num_leaves < 1:
        raise ConfigurationError("star needs at least 1 leaf")
    graph = nx.star_graph(num_leaves)
    positions = {0: (0.0, 0.0)}
    for i in range(1, num_leaves + 1):
        angle = 2 * math.pi * (i - 1) / num_leaves
        positions[i] = (spacing * math.cos(angle), spacing * math.sin(angle))
    return MeshTopology(graph, positions, name=f"star{num_leaves}")


def binary_tree_topology(depth: int, spacing: float = 100.0) -> MeshTopology:
    """A complete binary tree of the given depth, rooted at node 0.

    Trees are the topology class for which the ToN 2009 min-delay ordering
    algorithm is exact (experiment E7).
    """
    if depth < 0:
        raise ConfigurationError("tree depth must be non-negative")
    graph = nx.balanced_tree(2, depth)
    positions: dict[int, tuple[float, float]] = {}
    for node in graph.nodes:
        level = int(math.log2(node + 1))
        index_in_level = node - (2 ** level - 1)
        width = 2 ** level
        positions[node] = (
            (index_in_level - (width - 1) / 2) * spacing * 2 ** (depth - level),
            level * spacing,
        )
    return MeshTopology(graph, positions, name=f"btree{depth}")


def random_disk_topology(num_nodes: int, radio_range: float,
                         area: float,
                         rng: Optional[np.random.Generator] = None,
                         max_tries: int = 200,
                         seed: Optional[int] = None) -> MeshTopology:
    """Uniform random node placement with unit-disk connectivity.

    Nodes are placed uniformly in an ``area x area`` square; two nodes are
    connected iff their distance is at most ``radio_range``.  Placement is
    retried until the graph is connected (up to ``max_tries`` draws).

    Either ``rng`` or ``seed`` must be given.  Every retry draws its own
    child seed from the caller's generator and places nodes with a fresh
    generator seeded from it, so the whole retry loop is a pure function of
    the initial seed -- two runs with the same seed walk the exact same
    sequence of candidate placements, and the failing child seed can be
    reported when the loop gives up.

    Random-disk meshes model unplanned community deployments; they produce
    irregular conflict graphs that stress the schedulers differently from
    grids.
    """
    if num_nodes < 1:
        raise ConfigurationError("need at least one node")
    if radio_range <= 0 or area <= 0:
        raise ConfigurationError("radio_range and area must be positive")
    from repro.sim.random import resolve_rng

    rng = resolve_rng(rng, seed, what="random_disk_topology")
    try_seeds = []
    for _ in range(max_tries):
        try_seed = int(rng.integers(0, 2 ** 32))
        try_seeds.append(try_seed)
        coords = np.random.default_rng(try_seed).uniform(
            0.0, area, size=(num_nodes, 2))
        graph = nx.Graph()
        graph.add_nodes_from(range(num_nodes))
        # every pair i < j in row-major order, so edges go in as a
        # pairwise loop would add them
        i, j = np.triu_indices(num_nodes, k=1)
        close = np.hypot(coords[i, 0] - coords[j, 0],
                         coords[i, 1] - coords[j, 1]) <= radio_range
        graph.add_edges_from(zip(i[close].tolist(), j[close].tolist()))
        if num_nodes == 1 or nx.is_connected(graph):
            positions = {i: (float(coords[i][0]), float(coords[i][1]))
                         for i in range(num_nodes)}
            return MeshTopology(graph, positions,
                                name=f"disk{num_nodes}")
    raise ConfigurationError(
        f"failed to draw a connected random-disk topology in {max_tries} "
        f"tries (seed={seed if seed is not None else 'external rng'}, "
        f"first/last try seeds {try_seeds[0]}/{try_seeds[-1]}); "
        "increase radio_range or decrease area")


def from_edges(edges: Iterable[tuple[int, int]], name: str = "custom",
               positions: Optional[dict[int, tuple[float, float]]] = None,
               ) -> MeshTopology:
    """Build a topology from an explicit undirected edge list."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return MeshTopology(graph, positions, name=name)


def surviving_topology(topology: MeshTopology,
                       dead_nodes: Iterable[int] = (),
                       dead_edges: Iterable[tuple[int, int]] = (),
                       anchor: int = 0,
                       ) -> tuple[MeshTopology, frozenset[int]]:
    """Topology induced by removing failed nodes/edges, anchored at a node.

    This is the fault-injection hook used by :mod:`repro.faults` and
    :mod:`repro.core.repair`: given the base topology and the current set of
    dead nodes and dead undirected edges, it returns the
    :class:`MeshTopology` of the connected component containing ``anchor``
    (typically the gateway) together with the set of nodes that are *not*
    in that component -- dead nodes plus nodes partitioned away from the
    anchor.  Returning only the anchor's component keeps the result
    connected (a :class:`MeshTopology` invariant) and matches what the
    schedule-repair engine can actually serve: flows to unreachable nodes
    must be parked, not scheduled.

    ``dead_edges`` pairs are undirected; ``(u, v)`` and ``(v, u)`` are the
    same edge.  Dead entries that do not exist in the base topology are
    ignored, so callers can pass accumulated fault state verbatim.

    This is the cold path of the repair engine's tick: it builds every
    live row (:func:`_update_live_rows`) and runs the same anchor BFS
    (:func:`_survivor_of`).
    """
    live = _update_live_rows({}, topology.rows, topology.rows,
                             frozenset(dead_nodes), frozenset(dead_edges))
    return _survivor_of(topology, live, anchor)


def _update_live_rows(live: dict[int, tuple[int, ...]],
                      rows: Mapping[int, tuple[int, ...]],
                      nodes: Iterable[int], dead_nodes: AbstractSet[int],
                      dead_edges: AbstractSet[tuple[int, int]]
                      ) -> dict[int, tuple[int, ...]]:
    """Refresh the live rows of ``nodes`` in ``live`` for a fault state.

    ``live`` maps every live node to its base row in ``rows`` minus dead
    nodes and dead edges (either orientation); a node's entry is
    rewritten from its base row, or dropped when it is dead or not in
    ``rows``.  The live rows of a fault state are
    ``_update_live_rows({}, rows, rows, ...)``; a state that differs from
    ``live``'s in a few nodes and edges needs only the rows of the
    changed nodes, their base neighbours and the changed edges'
    endpoints.  Returns ``live``.
    """
    for node in nodes:
        row = rows.get(node)
        if row is None or node in dead_nodes:
            live.pop(node, None)
        else:
            live[node] = tuple(v for v in row if v not in dead_nodes
                               and (node, v) not in dead_edges
                               and (v, node) not in dead_edges)
    return live


def _survivor_of(topology: MeshTopology,
                 live: Mapping[int, tuple[int, ...]], anchor: int
                 ) -> tuple[MeshTopology, frozenset[int]]:
    """The anchor's component over ``topology``'s live rows
    (:func:`_update_live_rows`) and the base nodes outside it (see
    :func:`surviving_topology`)."""
    if anchor not in live:
        raise ConfigurationError(
            f"anchor node {anchor} is dead or not in the topology")
    component, depth = _nearest_sources(live, (anchor,))
    survivor_rows = {n: live[n] for n in sorted(component)}
    positions = {n: topology.positions[n] for n in survivor_rows
                 if n in topology.positions}
    source = (topology._graph if topology._graph is not None
              else topology._source)
    survivor = MeshTopology._from_rows(survivor_rows, positions,
                                       f"{topology.name}-survivor", source)
    survivor._eccentricities[anchor] = depth
    return survivor, frozenset(topology.rows).difference(survivor_rows)


def _nearest_sources(rows: Mapping[int, Iterable[int]],
                     sources: Iterable[int]) -> tuple[dict[int, int], int]:
    """Nearest source by hops for every node the sources reach.

    One level-synchronous multi-source BFS over ``rows`` (e.g. live rows,
    :func:`_update_live_rows`, whose keys are the live nodes).  Ties go
    to the smallest source id: the sources start the queue in sorted
    order and every node inherits its discoverer's source, so each level
    stays sorted by source and a node is first reached from the smallest
    of its nearest sources.  Sources outside ``rows`` reach nothing;
    unreached nodes are absent.  Also returns the depth of the last level
    (0 when the sources reach nothing else).
    """
    nearest = {source: source for source in sorted(set(sources))
               if source in rows}
    frontier, depth = list(nearest), 0
    while True:
        following = []
        for u in frontier:
            source = nearest[u]
            for v in rows[u]:
                if v not in nearest:
                    nearest[v] = source
                    following.append(v)
        if not following:
            return nearest, depth
        frontier = following
        depth += 1
