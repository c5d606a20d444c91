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
(:mod:`repro.phy.interference`) and the SINR model -- is a
:class:`ConflictIndex`: sorted link rows over the canonical link order.
Every solver layer reads it; its :attr:`~ConflictIndex.graph` is a
one-way :mod:`networkx` export.  The k-hop relation and the channel's
exact rule come from one row kernel over link positions
(:func:`_index_from_masks`): an int bitmask per node names the positions
of the links leaving and entering it (:func:`_link_bits`), each relation
ORs those masks over a node's reach once per node, and a link's row is
the OR of its two endpoints' masks, read out in position order.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.net.topology import Link, MeshTopology, bfs_levels

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

#: Up to this many links a row's positions are read off its mask one set
#: bit at a time; wider rows go through numpy a byte at a time.
_NARROW_LINKS = 32
#: Mask bytes unpacked per numpy block (bounds the temporaries).
_BLOCK_BYTES = 1 << 18
#: ``_BYTE_BITS[b]``: the eight bits of byte ``b``, lowest first.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little")


class ConflictIndex:
    """An immutable, shareable conflict (or interference) relation.

    ``links`` is the canonical (sorted) link order and ``rows[i]`` the
    sorted positions of the links conflicting with ``links[i]``; the rows
    are also readable as CSR arrays (:attr:`indptr`/:attr:`indices`),
    built on first access.
    ``hops`` is the protocol-model distance, or ``None`` for any other
    relation.  Treat instances as frozen: they are shared across every
    consumer of the owning engine.
    """

    __slots__ = ("hops", "links", "_csr", "_rows", "_positions", "_graph")

    def __init__(self, links: Sequence[Link], rows: list[list[int]],
                 hops: Optional[int] = None) -> None:
        self.hops = hops
        self.links: tuple[Link, ...] = tuple(links)
        self._positions = {link: i for i, link in enumerate(self.links)}
        self._rows = rows
        self._graph: Optional[nx.Graph] = None
        self._csr: Optional[tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "ConflictIndex":
        """The relation of a hand-built :mod:`networkx` graph over links.

        A self-loop raises :class:`~repro.errors.ConfigurationError`: a
        link cannot conflict with itself.
        """
        loop = next((link for link in graph.nodes if link in graph.adj[link]),
                    None)
        if loop is not None:
            raise ConfigurationError(
                f"self-loop on {loop}: a link cannot conflict with itself")
        links = sorted(graph.nodes)
        positions = {link: i for i, link in enumerate(links)}
        return cls(links, [sorted(positions[other]
                                  for other in graph.neighbors(link))
                           for link in links])

    @property
    def graph(self) -> nx.Graph:
        """A :mod:`networkx` export (sorted nodes, pairs in sorted order)."""
        if self._graph is None:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self.links)
            graph.add_edges_from(self.pairs())
            self._graph = graph
        return self._graph

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            rows = self._rows
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            indptr[1:] = np.cumsum([len(row) for row in rows])
            self._csr = (indptr,
                         np.array([j for row in rows for j in row], np.int64))
        return self._csr

    @property
    def indptr(self) -> np.ndarray:
        """CSR row offsets of :attr:`indices` (int64, built on first read)."""
        return self._arrays()[0]

    @property
    def indices(self) -> np.ndarray:
        """The rows concatenated, as CSR column indices (int64)."""
        return self._arrays()[1]

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_conflicts(self) -> int:
        return sum(map(len, self._rows)) // 2

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
    rows = topology.rows
    out, into = _link_bits(link_list)
    touching = {node: out.get(node, 0) | into.get(node, 0)
                for node in out.keys() | into.keys()}
    # near[x]: the links touching a node within hops - 1 of x
    if hops == 1:
        return _index_from_masks(link_list, touching, touching, hops)
    if hops == 2:
        near = {node: _union(touching, rows[node], mask)
                for node, mask in touching.items()}
        return _index_from_masks(link_list, near, near, hops)
    reach = {node: bfs_levels(rows, (node,), hops - 1)[0].keys()
             for node in touching}
    # A widened model (hops > 2) whose reach spans the whole mesh from
    # every link is degenerate: all links pairwise conflict, the schedule
    # serialises, and the caller almost certainly mistook ``hops`` for a
    # distance in metres.  hops <= 2 is exempt -- on tiny meshes the
    # 802.16-mandated default legitimately yields a complete conflict
    # graph.
    num_nodes = topology.num_nodes()
    if link_list and all(len(reach[u] | reach[v]) == num_nodes
                         for u, v in link_list):
        raise ConfigurationError(
            f"hops={hops} reaches the whole {num_nodes}-node mesh "
            "from every link (hops >= network diameter): the "
            "conflict graph is complete and the schedule degenerates "
            "to one link per slot. Use a smaller hops value, or an "
            "SinrModel if you need wider-than-communication "
            "interference (see docs/interference.md)")
    near = {node: _union(touching, nodes) for node, nodes in reach.items()}
    return _index_from_masks(link_list, near, near, hops)


def _resolve_links(topology: MeshTopology,
                   links: Iterable[Link] | None) -> list[Link]:
    """All topology links, or the sorted, deduplicated, validated subset.

    Anything but a ``(u, v)`` tuple naming a topology link raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if links is None:
        return list(topology.links)
    checked = []
    for link in links:
        try:
            valid = (isinstance(link, tuple) and len(link) == 2
                     and topology.has_link(link))
        except TypeError:  # an unhashable endpoint
            valid = False
        if not valid:
            raise ConfigurationError(
                f"{link!r} is not a link of the topology")
        checked.append(link)
    return sorted(set(checked))


def _link_bits(link_list: Sequence[Link]
               ) -> tuple[dict[int, int], dict[int, int]]:
    """Per node, the position bits of the links leaving it and entering it.

    Bit ``i`` stands for ``link_list[i]``; a node no link leaves (or
    enters) has no entry.
    """
    out: dict[int, int] = {}
    into: dict[int, int] = {}
    for i, (u, v) in enumerate(link_list):
        bit = 1 << i
        out[u] = out.get(u, 0) | bit
        into[v] = into.get(v, 0) | bit
    return out, into


def _union(masks: Mapping[int, int], nodes: Iterable[int],
           mask: int = 0) -> int:
    """``mask`` ORed with the masks of ``nodes`` (a node without one adds
    nothing)."""
    for node in nodes:
        mask |= masks.get(node, 0)
    return mask


def _index_from_masks(link_list: Sequence[Link], tail: Mapping[int, int],
                      head: Mapping[int, int],
                      hops: Optional[int] = None) -> ConflictIndex:
    """The one row kernel: the relation over ``link_list`` as position bits.

    ``tail[u]`` holds the bits of the links that conflict with any link
    transmitting at ``u`` because of ``u``, ``head[v]`` those of the links
    that conflict with any link received at ``v`` because of ``v``
    (:func:`_link_bits` numbers the links).  Row ``i`` of ``(u, v)`` is
    ``tail[u] | head[v]`` without bit ``i``.  The masks must state a
    symmetric relation.
    """
    masks = [(tail[u] | head[v]) & ~(1 << i)
             for i, (u, v) in enumerate(link_list)]
    return ConflictIndex(link_list, _bit_rows(masks, len(link_list)), hops)


def _bit_rows(masks: Sequence[int], width: int) -> list[list[int]]:
    """The set-bit positions of each mask, ascending.

    Narrow masks pop their lowest bit until none is left.  Wide ones are
    written out as little-endian bytes, a block of masks at a time, and
    numpy reads the bits of just the nonzero bytes, which costs
    O(bytes + output) instead of a big-int step per set bit.
    """
    if width <= _NARROW_LINKS:
        rows = []
        for mask in masks:
            row = []
            while mask:
                low = mask & -mask
                row.append(low.bit_length() - 1)
                mask ^= low
            rows.append(row)
        return rows
    size = (width + 7) // 8
    step = max(1, _BLOCK_BYTES // size)
    flat: list[int] = []
    for start in range(0, len(masks), step):
        raw = np.frombuffer(b"".join(
            mask.to_bytes(size, "little")
            for mask in masks[start:start + step]), np.uint8)
        nonzero = np.flatnonzero(raw)
        byte, bit = np.nonzero(_BYTE_BITS[raw[nonzero]])
        flat += (nonzero[byte] % size * 8 + bit).tolist()
    rows, at = [], 0
    for mask in masks:
        count = mask.bit_count()
        rows.append(flat[at:at + count])
        at += count
    return rows


def _demand_pass(demands: Mapping[Link, int]) -> tuple[list[Link], int, int]:
    """The one walk over a search's demands.

    Returns the positively demanded links (in the mapping's order), the
    heaviest single demand and the heaviest node clique: the demand on
    all links touching one node, which mutually conflict under any
    k >= 1 model.  A negative demand raises
    :class:`~repro.errors.ConfigurationError` naming the first one.
    """
    demanded = []
    largest = 0
    per_node: dict[int, int] = {}
    for link, demand in demands.items():
        if demand < 0:
            raise ConfigurationError(f"negative demand on {link}")
        for node in link:
            per_node[node] = per_node.get(node, 0) + demand
        if demand > 0:
            demanded.append(link)
            if demand > largest:
                largest = demand
    return demanded, largest, max(per_node.values(), default=0)


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
    return _demand_pass(demands)[2]


class _Demanded:
    """The demanded links of one search, mapped onto a conflict index once.

    Local index ``i`` is the ``i``-th link with positive demand in sorted
    (canonical) order: :attr:`links` names it, :attr:`demand` holds its
    slots and :attr:`near` its conflicting demanded links as local
    indices, in the index's row order.  :attr:`heaviest` is every local
    index, heaviest demand first (ties: canonical order) -- the order of
    first-fit decreasing and of the greedy clique.  Every kernel of a
    search (the greedy clique, first fit, the packing descent, the S8 and
    budget checks) reads these lists instead of resolving links again.
    ``demanded`` is the positively demanded links when the caller has
    already walked ``demands`` (:func:`_demand_pass`).  A demanded link
    missing from ``conflicts`` raises
    :class:`~repro.errors.ConfigurationError`.
    """

    __slots__ = ("links", "demand", "heaviest", "local", "near")

    def __init__(self, conflicts: ConflictIndex,
                 demands: Mapping[Link, int],
                 demanded: Optional[list[Link]] = None) -> None:
        if demanded is None:
            demanded = [link for link, d in demands.items() if d > 0]
        self.links = links = sorted(demanded)
        self.demand = demand = [demands[link] for link in links]
        self.heaviest = sorted(range(len(demand)), key=demand.__getitem__,
                               reverse=True)
        self.local = {link: i for i, link in enumerate(links)}
        positions = conflicts._positions
        at = {}
        for i, link in enumerate(links):
            p = positions.get(link)
            if p is None:
                conflicts.position(link)  # raises: missing from the relation
            at[p] = i
        rows = conflicts._rows
        self.near = [[at[q] for q in rows[p] if q in at] for p in at]


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
    return _clique_weight(_Demanded(conflicts, demands), region)


def _clique_weight(view: _Demanded, region: int) -> int:
    """:func:`_greedy_clique_demand` over a search's demanded links."""
    demand = view.demand
    best = max(demand, default=0)
    if best > region:
        return best
    # Bit r stands for the r-th heaviest demanded link (ties: canonical
    # order), so the lowest set bit of a candidate mask is the next pick.
    heaviest = view.heaviest
    rank = [0] * len(demand)
    bit = [0] * len(demand)
    for r, i in enumerate(heaviest):
        rank[i] = r
        bit[i] = 1 << r
    weights = [demand[i] for i in heaviest]
    near = [sum(map(bit.__getitem__, view.near[i])) for i in heaviest]
    for i, weight in enumerate(demand):
        candidates = near[rank[i]]
        while candidates and weight <= region:
            pick = (candidates & -candidates).bit_length() - 1
            weight += weights[pick]
            candidates &= near[pick]
        if weight > best:
            best = weight
            if best > region:
                break
    return best
