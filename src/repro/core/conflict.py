"""The link conflict relation: one builder, one type (:class:`ConflictIndex`).

The conflict relation has one vertex per *directed link* of the mesh; two
links conflict when they may not be active in the same TDMA slot.  Under
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

Every relation -- k-hop, the channel's exact interference rule
(:mod:`repro.phy.interference`), the SINR model and the engine's zone
subindexes -- is a :class:`ConflictIndex`: sorted link rows over the
canonical link order.  Every solver layer reads it; its
:attr:`~ConflictIndex.graph` is a one-way :mod:`networkx` export.  The
row builder takes two node sets per link (:data:`_NearSets`) and scans an
incidence map for them (:func:`_conflict_rows`).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import (AbstractSet, Callable, Iterable, Iterator, Mapping,
                    Optional, Sequence)

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.net.topology import Link, MeshTopology, hop_depths

#: Row link ``a`` -> (nodes whose outgoing links conflict with ``a``, nodes
#: whose incoming links do): ``(tb, rb)`` conflicts with ``a`` iff ``tb`` is
#: in the first set or ``rb`` in the second.  Must define a symmetric relation.
_NearSets = Callable[[Link], tuple[set[int], set[int]]]


class ConflictIndex:
    """An immutable, shareable conflict (or interference) relation.

    ``links`` is the canonical (sorted) link order and ``rows[i]`` the
    sorted positions of the links conflicting with ``links[i]``; the rows
    are also kept as CSR arrays (:attr:`indptr`/:attr:`indices`).
    ``hops`` is the protocol-model distance, or ``None`` for any other
    relation.  Treat instances as frozen: they are shared across every
    consumer of the owning engine.

    :attr:`key` names the relation in the engine's caches: the engine's
    cache key for indexes it built, else ``adhoc/<fingerprint>``, derived
    from the content.
    """

    __slots__ = ("_key", "hops", "links", "indptr", "indices", "_rows",
                 "_positions", "_fingerprint", "_graph")

    def __init__(self, links: Sequence[Link], rows: list[list[int]],
                 hops: Optional[int] = None) -> None:
        self._key: Optional[str] = None
        self.hops = hops
        self.links: tuple[Link, ...] = tuple(links)
        self._positions = {link: i for i, link in enumerate(self.links)}
        self._rows = rows
        self._fingerprint: Optional[str] = None
        self._graph: Optional[nx.Graph] = None
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        self.indptr[1:] = np.cumsum([len(row) for row in rows])
        self.indices = np.array([j for row in rows for j in row], np.int64)

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "ConflictIndex":
        """The relation of a hand-built :mod:`networkx` graph over links."""
        links = sorted(graph.nodes)
        positions = {link: i for i, link in enumerate(links)}
        return cls(links, [sorted(positions[other]
                                  for other in graph.neighbors(link))
                           for link in links])

    def _attach(self, key: str) -> "ConflictIndex":
        """Name a freshly built index after its engine cache entry."""
        self._key = key
        return self

    @property
    def key(self) -> str:
        if self._key is None:
            return f"adhoc/{self.fingerprint}"
        return self._key

    @property
    def fingerprint(self) -> str:
        """Content hash: the sorted links, then :meth:`pairs` (memoised)."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(repr(list(self.links)).encode())
            digest.update(repr(self.pairs()).encode())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    @property
    def graph(self) -> nx.Graph:
        """A :mod:`networkx` export (sorted nodes, pairs in sorted order)."""
        if self._graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(self.links)
            graph.add_edges_from(self.pairs())
            self._graph = graph
        return self._graph

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_conflicts(self) -> int:
        return int(self.indices.size // 2)

    def position(self, link: Link) -> int:
        """Stable index of ``link`` in the canonical :attr:`links` order."""
        try:
            return self._positions[link]
        except KeyError:
            raise ConfigurationError(
                f"{link} is not a vertex of this conflict index (missing "
                "from the relation)") from None

    def neighbors(self, link: Link) -> tuple[Link, ...]:
        """Links conflicting with ``link``, in canonical order."""
        return tuple(map(self.links.__getitem__,
                         self._rows[self.position(link)]))

    def degree(self, link: Link) -> int:
        return len(self._rows[self.position(link)])

    def has_edge(self, a: Link, b: Link) -> bool:
        """True iff links ``a`` and ``b`` conflict."""
        row, j = self._rows[self.position(a)], self.position(b)
        k = bisect.bisect_left(row, j)
        return k < len(row) and row[k] == j

    def pairs(self) -> list[tuple[Link, Link]]:
        """Every conflict once, as ``(a, b)`` with ``a < b``, sorted."""
        return _pairs_among(self, self.links)

    def __contains__(self, link: object) -> bool:
        return link in self._positions


def _pairs_among(index: ConflictIndex,
                 links: Iterable[Link]) -> list[tuple[Link, Link]]:
    """The sorted ``(a, b)``, ``a < b`` conflicts with both ends in ``links``.

    Every link resolves through :meth:`ConflictIndex.position`, so one
    missing from the relation raises instead of passing as conflict-free.
    """
    members = sorted(map(index.position, links))
    inside = set(members)
    at, rows = index.links, index._rows
    return [(at[i], at[j]) for i in members for j in rows[i]
            if j > i and j in inside]


def _check_hops(hops: object) -> None:
    """The one ``hops`` check: the k-hop model needs an integer ``k >= 1``."""
    if not isinstance(hops, int) or isinstance(hops, bool) or hops < 1:
        raise ConfigurationError(
            f"interference model needs integer hops >= 1, got {hops!r}")


def conflict_graph(topology: MeshTopology, hops: int = 2,
                   links: Iterable[Link] | None = None) -> ConflictIndex:
    """The k-hop conflict relation over (a subset of) the topology's links.

    Parameters
    ----------
    topology:
        The mesh connectivity graph.
    hops:
        The ``k`` of the k-hop interference model (an integer >= 1).  Two
        distinct links conflict iff some endpoint of one is within
        ``k - 1`` hops of some endpoint of the other.
    links:
        Restrict the relation to these directed links (default: all
        links of the topology).  Scheduling only the links that carry
        demand keeps the ILP small.

    Returns
    -------
    ConflictIndex
        Vertices are directed :data:`~repro.net.topology.Link` tuples.
    """
    _check_hops(hops)
    link_list = _resolve_links(topology, links)
    near = _khop_near_sets(topology, hops)
    # A widened model (hops > 2) whose reach spans the whole mesh from
    # every link is degenerate: all links pairwise conflict, the schedule
    # serialises, and the caller almost certainly mistook ``hops`` for a
    # distance in metres.  hops <= 2 is exempt -- on tiny meshes the
    # 802.16-mandated default legitimately yields a complete conflict
    # graph.
    if hops > 2 and link_list:
        num_nodes = topology.num_nodes()
        if all(len(near(link)[0]) == num_nodes for link in link_list):
            raise ConfigurationError(
                f"hops={hops} reaches the whole {num_nodes}-node mesh "
                "from every link (hops >= network diameter): the "
                "conflict graph is complete and the schedule degenerates "
                "to one link per slot. Use a smaller hops value, or an "
                "SinrModel if you need wider-than-communication "
                "interference (see docs/interference.md)")
    return _index_from_rows(link_list, near, hops)


def _index_from_rows(link_list: Sequence[Link], near: _NearSets,
                     hops: Optional[int] = None) -> ConflictIndex:
    """The :class:`ConflictIndex` of relation ``near`` over ``link_list``."""
    position = {link: i for i, link in enumerate(link_list)}
    return ConflictIndex(link_list, [
        sorted(map(position.__getitem__, partners))
        for _, partners in _conflict_rows(link_list, near)], hops)


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


def _khop_near_sets(topology: MeshTopology, hops: int) -> _NearSets:
    """The k-hop model's near sets: both are ``reach(tx) | reach(rx)``.

    Reach is every node within ``hops - 1``, computed only for endpoints
    of the rows asked for.
    """
    rows = topology.rows
    reach: dict[int, AbstractSet[int]] = {}

    def near(link: Link) -> tuple[set[int], set[int]]:
        for node in link:
            if node not in reach:
                reach[node] = hop_depths(rows, (node,), hops - 1).keys()
        both = reach[link[0]] | reach[link[1]]
        return both, both

    return near


def _conflict_rows(link_list: Sequence[Link], near: _NearSets
                   ) -> Iterator[tuple[Link, set[Link]]]:
    """The relation over ``link_list``, one ``(a, partners)`` row at a time.

    Rows come for every link of ``link_list``, in its order; ``partners``
    is the set of links conflicting with ``a``.  Candidates come from a
    node -> links incidence map, so the work is proportional to the
    output.
    """
    out_links: dict[int, list[Link]] = {}
    in_links: dict[int, list[Link]] = {}
    for link in link_list:
        out_links.setdefault(link[0], []).append(link)
        in_links.setdefault(link[1], []).append(link)
    for a in link_list:
        out_near, in_near = near(a)
        partners: set[Link] = set()
        for node in out_near:
            partners.update(out_links.get(node, ()))
        for node in in_near:
            partners.update(in_links.get(node, ()))
        partners.discard(a)
        yield a, partners


def max_conflict_clique_demand(demands: Mapping[Link, int]) -> int:
    """A lower bound on frame slots: the heaviest known clique of conflicts.

    Enumerating maximum-weight cliques is exponential; this uses the cliques
    induced by each topology node (all links incident to one node mutually
    conflict under any k >= 1 model), which is cheap and usually tight on
    mesh topologies.

    It stays the published ``lower_bound`` of a minimum-slot search, so
    those columns do not depend on the search's machinery.  The search
    itself starts from a tighter *floor*, the heavier of this bound and
    :func:`_greedy_clique_demand` at the ceiling: it tries to close at the
    floor with a packing certificate and probes the ILP only for the gap
    above it (see :meth:`repro.core.engine.SolverEngine.run_search`).
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


def _greedy_clique_demand(conflicts: ConflictIndex,
                          demands: Mapping[Link, int], region: int) -> int:
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
    dense mesh).  A demanded link missing from ``conflicts`` raises
    :class:`~repro.errors.ConfigurationError`.
    """
    demanded = {link: d for link, d in demands.items() if d > 0}
    # Bit i stands for the i-th heaviest demanded link (ties: canonical
    # order), so the lowest set bit of a candidate mask is the next pick.
    heaviest = sorted(demanded, key=lambda link: (-demanded[link], link))
    positions = [conflicts.position(link) for link in heaviest]
    best = max(demanded.values(), default=0)
    if best > region:
        return best
    rank = {p: i for i, p in enumerate(positions)}
    weights = [demanded[link] for link in heaviest]
    rows = conflicts._rows
    near = [sum(1 << rank[j] for j in rows[p] if j in rank)
            for p in positions]
    for start in sorted(demanded):
        weight = demanded[start]
        candidates = near[rank[conflicts._positions[start]]]
        while candidates and weight <= region:
            pick = (candidates & -candidates).bit_length() - 1
            weight += weights[pick]
            candidates &= near[pick]
        if weight > best:
            best = weight
            if best > region:
                break
    return best
