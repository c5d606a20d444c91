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
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError, require_int

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

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
        must be integers.  Only its nodes and adjacency are read; the
        topology keeps no reference to it.
    positions:
        Optional mapping node id -> (x, y) metres, used by distance-based
        propagation models and plotting.
    name:
        Human-readable label used in reports.
    """

    def __init__(self, graph: nx.Graph,
                 positions: Optional[dict[int, tuple[float, float]]] = None,
                 name: str = "mesh") -> None:
        if graph.is_directed():
            raise ConfigurationError("topology graph must be undirected")
        rows = _checked_rows(graph.adj)
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
                   positions: dict[int, tuple[float, float]], name: str
                   ) -> "MeshTopology":
        """A topology on rows the caller built sorted and connected."""
        topology = cls.__new__(cls)
        topology.positions = positions
        topology.name = name
        topology.mutations = 0
        topology._set_rows(rows)
        return topology

    def _set_rows(self, rows: dict[int, tuple[int, ...]]) -> None:
        #: node -> sorted neighbour tuple, in sorted node order
        self.rows = rows
        # derived from the rows on first read
        self._graph: Optional[nx.Graph] = None
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
            self._edges = [(u, v) for u, row in self.rows.items()
                           for v in row if u < v]
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
        """One-way :mod:`networkx` export of the connectivity: sorted
        nodes and edges, built on first read."""
        if self._graph is None:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self.rows)
            graph.add_edges_from(self.edges)
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
            depth = len(bfs_levels(self.rows, [node])[1]) - 1
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
        construction.  Edges in ``remove`` go first (absent ones are
        ignored), then edges in ``add``, whose endpoints must be nodes.
        It revalidates the topology (leaving it untouched on
        failure), replaces :attr:`rows` (never edits them, so an engine
        index keyed by the old rows is never served for the new ones),
        rebuilds the canonical link ordering, and bumps :attr:`mutations`.
        """
        rows = _checked_rows(self.rows, add, remove)
        self.mutations += 1
        self._set_rows(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MeshTopology({self.name!r}, nodes={self.num_nodes()}, "
                f"links={self.num_links()})")


def _checked_rows(adjacency: Mapping[int, Iterable[int]],
                  add: Iterable[tuple[int, int]] = (),
                  remove: Iterable[tuple[int, int]] = ()
                  ) -> dict[int, tuple[int, ...]]:
    """Sorted rows of ``adjacency`` (node -> neighbours, symmetric) with
    the undirected ``remove`` edges dropped, then the ``add`` edges added.

    Raises :class:`~repro.errors.ConfigurationError` unless the result
    is a topology: a connected simple graph on one or more int (not
    bool) node ids.  An edge must be a node pair, and an added edge's
    endpoints must be nodes.
    """
    sets: dict[int, set[int]] = {}
    for node, row in adjacency.items():
        if not isinstance(node, int) or isinstance(node, bool):
            raise ConfigurationError(
                f"topology node ids must be integers, got {node!r}")
        sets[node] = set(row)
    for u, v in _pairs(remove):
        sets.get(u, set()).discard(v)
        sets.get(v, set()).discard(u)
    for u, v in _pairs(add):
        if u not in sets or v not in sets:
            raise ConfigurationError(
                f"cannot add edge ({u}, {v}): unknown node")
        sets[u].add(v)
        sets[v].add(u)
    for node, row in sets.items():
        if node in row:
            # a self-loop would make a node its own radio neighbour
            raise ConfigurationError(f"degenerate edge ({node}, {node})")
    if not sets:
        raise ConfigurationError("topology must have at least one node")
    rows = {n: tuple(sorted(sets[n])) for n in sorted(sets)}
    if not _is_connected(rows):
        raise ConfigurationError("topology must be connected")
    return rows


def _pairs(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """``edges`` as a list of node pairs, or a ConfigurationError."""
    pairs = []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"edge {edge!r} is not a node pair") from None
        pairs.append((u, v))
    return pairs


def _adjacency(nodes: Iterable[int], edges: Iterable[tuple[int, int]]
               ) -> dict[int, list[int]]:
    """Neighbour lists of ``nodes`` over the ``edges`` between them."""
    adjacency: dict[int, list[int]] = {n: [] for n in nodes}
    for u, v in edges:
        if u in adjacency and v in adjacency:
            adjacency[u].append(v)
            adjacency[v].append(u)
    return adjacency


def bfs_levels(rows: Mapping[int, Iterable[int]], sources: Iterable[int],
               cutoff: Optional[int] = None, stop: Optional[int] = None
               ) -> tuple[dict[int, int], list[list[int]]]:
    """The one level-synchronous multi-source BFS over ``rows`` (e.g.
    :attr:`MeshTopology.rows`): each reached node's parent (a source is
    its own) and the levels, ``levels[d]`` the nodes ``d`` hops from the
    nearest source (a source without a row stays at level 0).

    Levels expand in order, neighbours in row order, and a node's first
    discovery fixes its parent: over sorted rows the parent path from one
    source is the lexicographically smallest min-hop path, and from sorted
    sources every parent chain ends at the smallest nearest source.  The
    walk stops after level ``cutoff``, or after the level reaching ``stop``.
    """
    parents = {source: source for source in sources}
    levels = [list(parents)]
    while len(levels) - 1 != cutoff and stop not in parents:
        following = []
        for u in levels[-1]:
            for v in rows.get(u, ()):
                if v not in parents:
                    parents[v] = u
                    following.append(v)
        if not following:
            break
        levels.append(following)
    return parents, levels


def hop_depths(adjacency: Mapping[int, Iterable[int]],
               sources: Iterable[int],
               cutoff: Optional[int] = None) -> dict[int, int]:
    """Hops from the nearest source to each node within ``cutoff``
    (:func:`bfs_levels`)."""
    return {node: depth for depth, level in enumerate(
        bfs_levels(adjacency, sources, cutoff)[1]) for node in level}


def _is_connected(rows: dict[int, tuple[int, ...]]) -> bool:
    return len(bfs_levels(rows, [next(iter(rows))])[0]) == len(rows)


# -- generators -----------------------------------------------------------

def chain_topology(num_nodes: int, spacing: float = 100.0) -> MeshTopology:
    """A linear chain ``0 - 1 - ... - n-1`` with nodes ``spacing`` m apart.

    Chains are the canonical topology for delay-vs-hops experiments (E2/E3):
    every multihop path is forced and spatial reuse kicks in beyond the
    conflict distance.
    """
    require_int("chain num_nodes", num_nodes, 1)
    rows = {i: tuple(n for n in (i - 1, i + 1) if 0 <= n < num_nodes)
            for i in range(num_nodes)}
    positions = {i: (i * spacing, 0.0) for i in range(num_nodes)}
    return MeshTopology._from_rows(rows, positions, f"chain{num_nodes}")


def grid_topology(rows: int, cols: int, spacing: float = 100.0) -> MeshTopology:
    """A ``rows x cols`` grid with 4-neighbour connectivity.

    Grids approximate planned metro mesh deployments and are the standard
    topology in the paper line's VoIP capacity experiments (E1/E5).
    """
    require_int("grid rows", rows, 1)
    require_int("grid cols", cols, 1)
    adjacency = {}
    positions = {}
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            adjacency[node] = tuple(
                node + step for step, ok in ((-cols, r > 0), (-1, c > 0),
                                             (1, c + 1 < cols),
                                             (cols, r + 1 < rows)) if ok)
            positions[node] = (c * spacing, r * spacing)
    return MeshTopology._from_rows(adjacency, positions,
                                   f"grid{rows}x{cols}")


def star_topology(num_leaves: int, spacing: float = 100.0) -> MeshTopology:
    """A hub (node 0) with ``num_leaves`` one-hop leaves.

    Stars have a fully conflicting link set (every link shares the hub), so
    they lower-bound spatial reuse; useful as a scheduling worst case.
    """
    require_int("star num_leaves", num_leaves, 1)
    rows = {0: tuple(range(1, num_leaves + 1))}
    positions = {0: (0.0, 0.0)}
    for i in range(1, num_leaves + 1):
        rows[i] = (0,)
        angle = 2 * math.pi * (i - 1) / num_leaves
        positions[i] = (spacing * math.cos(angle), spacing * math.sin(angle))
    return MeshTopology._from_rows(rows, positions, f"star{num_leaves}")


def binary_tree_topology(depth: int, spacing: float = 100.0) -> MeshTopology:
    """A complete binary tree of the given depth, rooted at node 0.

    Trees are the topology class for which the ToN 2009 min-delay ordering
    algorithm is exact (experiment E7).
    """
    require_int("tree depth", depth, 0)
    size = 2 ** (depth + 1) - 1
    rows: dict[int, tuple[int, ...]] = {}
    positions: dict[int, tuple[float, float]] = {}
    for node in range(size):
        rows[node] = tuple(n for n in ((node - 1) // 2, 2 * node + 1,
                                       2 * node + 2) if 0 <= n < size)
        level = int(math.log2(node + 1))
        index_in_level = node - (2 ** level - 1)
        width = 2 ** level
        positions[node] = (
            (index_in_level - (width - 1) / 2) * spacing * 2 ** (depth - level),
            level * spacing,
        )
    return MeshTopology._from_rows(rows, positions, f"btree{depth}")


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
    require_int("random disk num_nodes", num_nodes, 1)
    require_int("random disk max_tries", max_tries, 1)
    # written so that NaN fails too
    if not (radio_range > 0 and 0 < area < math.inf):
        raise ConfigurationError(
            "radio_range must be positive and area positive and finite, "
            f"got {radio_range!r} and {area!r}")
    from repro.sim.random import resolve_rng

    rng = resolve_rng(rng, seed, what="random_disk_topology")
    # every pair i < j in row-major order, so each node's neighbours come
    # out sorted: the smaller ones as i, then the larger ones as j
    i, j = np.triu_indices(num_nodes, k=1)
    try_seeds = []
    for _ in range(max_tries):
        try_seed = int(rng.integers(0, 2 ** 32))
        try_seeds.append(try_seed)
        coords = np.random.default_rng(try_seed).uniform(
            0.0, area, size=(num_nodes, 2))
        close = np.hypot(coords[i, 0] - coords[j, 0],
                         coords[i, 1] - coords[j, 1]) <= radio_range
        adjacency = _adjacency(range(num_nodes),
                               zip(i[close].tolist(), j[close].tolist()))
        rows = {n: tuple(row) for n, row in adjacency.items()}
        if _is_connected(rows):
            positions = {n: (float(coords[n][0]), float(coords[n][1]))
                         for n in range(num_nodes)}
            return MeshTopology._from_rows(rows, positions,
                                           f"disk{num_nodes}")
    raise ConfigurationError(
        f"failed to draw a connected random-disk topology in {max_tries} "
        f"tries (seed={seed if seed is not None else 'external rng'}, "
        f"first/last try seeds {try_seeds[0]}/{try_seeds[-1]}); "
        "increase radio_range or decrease area")


def from_edges(edges: Iterable[tuple[int, int]], name: str = "custom",
               positions: Optional[dict[int, tuple[float, float]]] = None,
               ) -> MeshTopology:
    """Build a topology from an explicit undirected edge list."""
    pairs = _pairs(edges)
    rows = _checked_rows({n: () for pair in pairs for n in pair}, pairs)
    return MeshTopology._from_rows(rows, positions or {}, name)


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
    This is the repair engine's cold path (every live row rebuilt).
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
    component, levels = bfs_levels(live, (anchor,))
    survivor_rows = {n: live[n] for n in sorted(component)}
    positions = {n: topology.positions[n] for n in survivor_rows
                 if n in topology.positions}
    survivor = MeshTopology._from_rows(survivor_rows, positions,
                                       f"{topology.name}-survivor")
    survivor._eccentricities[anchor] = len(levels) - 1
    return survivor, frozenset(topology.rows).difference(survivor_rows)


def _nearest_sources(rows: Mapping[int, Iterable[int]],
                     sources: Iterable[int]) -> dict[int, int]:
    """Nearest source by hops of every node the sources reach, ties to the
    smallest source id; sources outside ``rows`` (e.g. dead nodes of live
    rows, :func:`_update_live_rows`) reach nothing."""
    parents, _ = bfs_levels(rows, sorted({s for s in sources if s in rows}))
    nearest: dict[int, int] = {}
    # in discovery order parents come first; a source is its own parent
    for node, parent in parents.items():
        nearest[node] = nearest.get(parent, parent)
    return nearest
