"""The incremental solver engine: shared conflict indexes, warm-started
probe searches, and cross-layer problem caching.

The paper line's minimum-slots search (NET-COOP) probes a sequence of
nearly-identical feasibility ILPs, and the ToN companion recovers schedules
from a fixed order with one Bellman-Ford pass over the conflict graph.  A
:class:`SolverEngine` exploits that structure instead of treating every
probe, repair and sweep point as a cold solve:

1. **Cached conflict-graph layer.**  :meth:`SolverEngine.conflict_index`
   returns an immutable :class:`ConflictIndex` -- CSR adjacency, with the
   conflict graph materialised on demand -- keyed by a topology/links/hops
   fingerprint and kept in a small LRU, so minslots, repair, distributed
   validation and analysis share one build per scenario instead of each
   calling :func:`~repro.core.conflict.conflict_graph` independently.
   :meth:`SolverEngine.interference_index` does the same for the *exact*
   interference relation (:func:`repro.phy.interference.interference_graph`)
   that the distributed DSCH handshake packs against.  Cache *misses* on
   a churning topology are answered incrementally where possible: the
   request is diffed against the last index of the same hops value and
   only the dirty rows go back through the conflict-relation builder
   (:func:`updated_conflict_edges`) -- ``core.engine.delta_updates`` vs
   ``core.engine.index_builds`` count the rebuilds avoided.

2. **Warm-started probe search.**  Inside one
   :func:`~repro.core.minslots.minimum_slots` search the engine carries the
   last feasible probe's :class:`~repro.core.ordering.TransmissionOrder`
   forward.  Before paying for the next ILP it runs a Bellman-Ford pass
   over the carried order at the candidate region: if the recovered
   earliest schedule fits and meets every delay budget, the probe's verdict
   is certified *without the solver* (the monotone case).  ``scipy``'s
   ``milp`` cannot accept an incumbent, so the carried solution becomes a
   shortcut rather than a solver hint -- the counters
   ``core.engine.ilp_probes`` vs ``core.engine.bf_shortcuts`` prove how
   often the expensive solver is skipped.  When the *winning* probe was
   BF-certified, the engine re-solves that one region through the canonical
   ILP so the returned result is bitwise-identical to a cold search
   (schedule table, order, probe log; only wall-clock ``solve_seconds``
   differ, as they always do).

3. **Canonical problem hashing.**  :meth:`SolverEngine.solve` keys solved
   ``(problem, K)`` pairs in an in-process LRU under
   :func:`canonical_problem_key` -- a content hash over the conflict edges,
   demands, frame geometry and delay constraints, salted with the package
   version and source fingerprint exactly like the runtime's task keys --
   so sweeps that share subproblems hit the cache instead of HiGHS.

Cache scoping and the observability contract
--------------------------------------------
:mod:`repro.obs` snapshots are *deterministic*: identical runs must produce
byte-identical counter JSON, and merged per-task registries must be
identical for any ``--jobs`` (S33).  A process-global cache would break
that (the second identical run would count fewer solves), so caches are
scoped to an **owning object**: :class:`~repro.api.Scenario`,
:class:`~repro.core.repair.RepairEngine` and each experiment construct a
fresh ``SolverEngine()`` whose caches live and die with them, while the
module-level :func:`default_engine` -- which backs the bare public
functions -- is *stateless* (warm-start only, no cross-call caches).
Warm-start shortcuts are a pure function of one search's inputs, so they
are deterministic everywhere.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from repro import obs
from repro.core.conflict import (
    _ball,
    _checked_khop_near_sets,
    _conflict_rows,
    _graph_from_edges,
    _khop_near_sets,
    _resolve_links,
    _row_edges,
    conflict_graph,  # noqa: F401 -- perfbench/tracer.py wraps it by this name
    conflicting_pairs,
)
from repro.core.ilp import (
    DelayConstraint,
    ILPResult,
    SchedulingProblem,
    solve_schedule_ilp,
)
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    SolverError,
)
from repro.net.topology import Link, MeshTopology

#: Sentinel solver status marking a probe verdict certified by Bellman-Ford
#: instead of an ILP solve.  Never escapes a search: the winning probe is
#: always re-solved canonically before a result is returned.
BF_CERTIFIED = "bf-certified"


def _fingerprint_token(topology: MeshTopology) -> tuple:
    """Cheap structural signature guarding the memoized fingerprint.

    Combines the topology's monotone mutation counter
    (:meth:`~repro.net.topology.MeshTopology.apply_edge_changes` bumps it)
    with the node and edge counts, so both sanctioned in-place mutation
    and direct ``topology.graph`` edits that change either count
    invalidate the cache instead of silently serving a stale fingerprint
    -- and, through it, a stale cached :class:`ConflictIndex`.
    """
    return (getattr(topology, "mutations", 0),
            topology.graph.number_of_nodes(),
            topology.graph.number_of_edges())


def topology_fingerprint(topology: MeshTopology) -> str:
    """Content hash of a topology's connectivity (nodes + undirected edges).

    Positions and the display name are irrelevant to scheduling, so two
    topologies with the same connectivity share a fingerprint -- and hence
    share cached conflict indexes.  The hash is memoized on the topology
    object, keyed by :func:`_fingerprint_token`, so it survives repeated
    lookups but never an in-place mutation.
    """
    token = _fingerprint_token(topology)
    cached = getattr(topology, "_repro_fingerprint", None)
    if isinstance(cached, tuple) and cached[0] == token:
        return cached[1]
    digest = hashlib.sha256()
    digest.update(repr(sorted(topology.graph.nodes)).encode())
    digest.update(repr(sorted(tuple(sorted(e))
                              for e in topology.graph.edges)).encode())
    fingerprint = digest.hexdigest()[:16]
    try:
        topology._repro_fingerprint = (token, fingerprint)
    except AttributeError:  # pragma: no cover - exotic topology subclass
        pass
    return fingerprint


def _edges_fingerprint(graph: nx.Graph) -> str:
    """Content hash of a conflict graph (vertices + edges)."""
    digest = hashlib.sha256()
    digest.update(repr(sorted(graph.nodes)).encode())
    digest.update(repr(list(conflicting_pairs(graph))).encode())
    return digest.hexdigest()[:16]


_SALT_CACHE: list[str] = []


def _cache_salt() -> str:
    """Version + source fingerprint, matching the runtime content-hash keys.

    Imported lazily: :mod:`repro.runtime` sits above :mod:`repro.core` in
    the layer diagram, so the dependency must not exist at import time.
    """
    if not _SALT_CACHE:
        import repro

        try:
            from repro.runtime.tasks import source_fingerprint

            salt = f"{repro.__version__}:{source_fingerprint()}"
        except ImportError:  # pragma: no cover - trimmed installs
            salt = repro.__version__
        _SALT_CACHE.append(salt)
    return _SALT_CACHE[0]


def canonical_problem_key(problem: SchedulingProblem,
                          time_limit: Optional[float] = None,
                          node_limit: Optional[int] = None) -> str:
    """Content hash identifying a ``(problem, K)`` pair.

    Two problems share a key iff they have the same conflict edges, the
    same demands, the same frame geometry (frame length *and* region), the
    same delay constraints and objective, and the same solver budgets
    (wall-clock ``time_limit`` and branch-and-cut ``node_limit``) -- a
    budget change can flip a verdict, so budget-distinct solves must not
    share a cache entry.  The key is salted with the package version and
    source fingerprint, the same invalidation discipline as
    :func:`repro.runtime.tasks.task_key`, so it stays meaningful if
    persisted next to runtime artifacts.
    """
    digest = hashlib.sha256()
    digest.update(_cache_salt().encode())
    digest.update(_edges_fingerprint(problem.conflicts).encode())
    digest.update(repr(sorted(problem.demands.items())).encode())
    digest.update(repr((problem.frame_slots, problem.effective_region,
                        problem.minimize_max_delay, time_limit,
                        node_limit)).encode())
    digest.update(repr([(c.name, c.route, c.budget_slots)
                        for c in problem.delay_constraints]).encode())
    return digest.hexdigest()[:24]


class ConflictIndex:
    """An immutable, shareable view of one conflict (or interference) relation.

    Built as CSR adjacency over the canonical link ordering
    (:attr:`indptr`/:attr:`indices`, kept with its per-row lists); the
    :mod:`networkx` :attr:`graph` is the constructor's, or, for row-built
    (protocol and zone) indexes, materialised once on first access.

    ``hops`` is the protocol-model distance, or ``None`` for the exact
    interference relation.  Treat instances (and :attr:`graph`) as frozen:
    they are shared across every consumer of the owning engine.

    Protocol-model indexes built through :meth:`SolverEngine.conflict_index`
    additionally carry a snapshot of the topology they were computed from
    (:attr:`topo_nodes` / :attr:`topo_edges`, undirected sorted pairs).
    The snapshot is what makes *delta updates* possible: a later request
    for a slightly different topology/link set can be diffed against it
    and answered by rescanning only the dirty links instead of rebuilding
    the whole conflict relation (see :func:`updated_conflict_edges`).
    """

    __slots__ = ("key", "hops", "links", "indptr", "indices", "_rows",
                 "_graph", "_positions", "topo_nodes", "topo_edges")

    def __init__(self, key: str, hops: Optional[int],
                 graph: nx.Graph,
                 topo_nodes: Optional[frozenset[int]] = None,
                 topo_edges: Optional[frozenset[tuple[int, int]]] = None
                 ) -> None:
        links = sorted(graph.nodes)
        positions = {link: i for i, link in enumerate(links)}
        self._fill(key, hops, links,
                   [sorted(positions[other] for other in graph.neighbors(link))
                    for link in links], topo_nodes, topo_edges)
        self._graph = graph

    @classmethod
    def _from_rows(cls, key: str, hops: Optional[int],
                   links: Sequence[Link], rows: list[list[int]],
                   topo_nodes=None, topo_edges=None) -> "ConflictIndex":
        """An index over sorted ``links`` from sorted position rows, no graph."""
        index = cls.__new__(cls)
        index._fill(key, hops, links, rows, topo_nodes, topo_edges)
        return index

    def _fill(self, key, hops, links, rows, topo_nodes, topo_edges) -> None:
        self.key, self.hops = key, hops
        self.topo_nodes, self.topo_edges = topo_nodes, topo_edges
        self.links: tuple[Link, ...] = tuple(links)
        self._positions = {link: i for i, link in enumerate(self.links)}
        self._rows = rows
        self._graph: Optional[nx.Graph] = None
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        self.indptr[1:] = np.cumsum([len(row) for row in rows])
        self.indices = np.array([j for row in rows for j in row], np.int64)

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:  # the conflict_graph() order, from the rows
            self._graph = _graph_from_edges(self.links, _row_edges(
                zip(self.links, map(self.neighbors, self.links))))
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
                f"{link} is not a vertex of this conflict index") from None

    def neighbors(self, link: Link) -> tuple[Link, ...]:
        """Links conflicting with ``link``, in canonical order."""
        return tuple(map(self.links.__getitem__,
                         self._rows[self.position(link)]))

    def degree(self, link: Link) -> int:
        return len(self._rows[self.position(link)])

    def __contains__(self, link: object) -> bool:
        return link in self._positions


def updated_conflict_edges(old: "ConflictIndex", topology: MeshTopology,
                           hops: int, link_list: Sequence[Link],
                           snapshot: tuple[frozenset[int],
                                           frozenset[tuple[int, int]]]
                           ) -> Optional[list[list[int]]]:
    """Conflict rows for ``(topology, link_list)``, delta-updated.

    Diffs the request against the ``old`` index's stored topology
    snapshot and link set, identifies the *dirty* links -- added links
    plus links whose endpoints' ``hops - 1`` reach sets may have changed
    -- and rebuilds only those rows, through the same conflict-relation
    builder as a cold build (:mod:`repro.core.conflict`).  Conflict
    rows between clean links are provably unchanged: under the protocol
    model, ``conflict(a, b)`` depends only on ``a``'s endpoint reach
    sets and ``b``'s endpoint identities, so an untouched reach set
    means an untouched row, up to the dirty partners that the (symmetric)
    rebuilt rows name.  ``snapshot`` is ``topology``'s nodes and
    undirected sorted edges, the form :attr:`ConflictIndex.topo_edges` has.

    Returns one sorted position list per link of ``link_list`` -- a cold
    build's rows, property-tested in ``tests/test_property_mobility.py``
    -- or ``None`` when the delta cannot be applied (the old index has no
    snapshot, or its hops differ) or would not pay (more than half the
    links are dirty -- a rebuild is no slower then).
    """
    if old.topo_edges is None or old.topo_nodes is None or old.hops != hops:
        return None
    new_nodes, new_edges = snapshot
    seeds: set[int] = set(old.topo_nodes ^ new_nodes)
    for u, v in old.topo_edges ^ new_edges:
        seeds.add(u)
        seeds.add(v)
    old_set = set(old.links)
    new_set = set(link_list)
    if seeds:
        old_adj: dict[int, list[int]] = {}
        for u, v in old.topo_edges:
            old_adj.setdefault(u, []).append(v)
            old_adj.setdefault(v, []).append(u)
        graph = topology.graph
        dirty_nodes = (_ball(lambda n: old_adj.get(n, ()), seeds, hops - 1)
                       | _ball(lambda n: (graph.neighbors(n)
                                          if n in graph else ()),
                               seeds, hops - 1))
    else:
        dirty_nodes = set()
    dirty = {link for link in new_set
             if link not in old_set
             or link[0] in dirty_nodes or link[1] in dirty_nodes}
    if 2 * len(dirty) > len(new_set):
        return None
    clean = new_set - dirty
    position = {link: i for i, link in enumerate(link_list)}
    # old and new positions both follow link order: clean rows stay sorted
    rows = [[] if link in dirty else
            [position[b] for b in old.neighbors(link) if b in clean]
            for link in link_list]
    for a, partners in _conflict_rows(link_list,
                                      _khop_near_sets(topology, hops),
                                      rows=dirty):
        rows[position[a]] = sorted(position[b] for b in partners)
        for b in partners & clean:
            bisect.insort(rows[position[b]], position[a])
    return rows


class SolverEngine:
    """Shared, incremental front end to the scheduling solver stack.

    Parameters
    ----------
    warm_start:
        Carry each feasible probe's transmission order into later probes
        and certify their verdicts with a Bellman-Ford pass where possible
        (see the module docstring).  ``False`` gives the cold reference
        behaviour; results are bitwise-identical either way.
    max_indexes, max_problems:
        LRU capacities of the conflict-index and solved-problem caches.
        ``0`` disables a cache entirely -- the configuration of the
        module-level :func:`default_engine`, which must stay stateless so
        the deterministic-observability contract holds for the bare public
        functions.
    delta_updates:
        When a :meth:`conflict_index` request misses the cache but a
        previously-built index for the same ``hops`` exists, diff the two
        and rebuild only the dirty rows instead of the whole conflict
        relation (:func:`updated_conflict_edges`).  The
        resulting index is semantically identical to a rebuild;
        ``stats["delta_updates"]`` / the ``core.engine.delta_updates``
        counter record the rebuilds avoided.  Requires ``max_indexes > 0``
        (the stateless default engine never delta-updates).  ``False``
        gives the rebuild-always reference behaviour -- the baseline arm
        of experiment E20.
    policy:
        The engine's default :class:`~repro.core.policy.SolverPolicy`
        (also accepts a mode string or ``None`` for the default
        ``"auto"`` policy).  Searches run through this engine without an
        explicit ``policy=``/``solver=`` use it; per-call arguments still
        win.
    """

    def __init__(self, warm_start: bool = True, max_indexes: int = 32,
                 max_problems: int = 128,
                 delta_updates: bool = True,
                 policy: "SolverPolicy | str | None" = None) -> None:
        if max_indexes < 0 or max_problems < 0:
            raise ConfigurationError("cache sizes must be non-negative")
        self.warm_start = warm_start
        self.max_indexes = max_indexes
        self.max_problems = max_problems
        self.delta_updates = delta_updates
        self.policy = SolverPolicy.coerce(policy)
        self._indexes: OrderedDict[tuple, ConflictIndex] = OrderedDict()
        #: Zone-subproblem indexes live in their own LRU: a city-scale
        #: zoned solve requests dozens of small subindexes per search, and
        #: routing them through ``_indexes`` would evict the full-mesh
        #: index that repair and validation share (and poison the
        #: ``_delta_bases`` lineage).  Keyed by (base fingerprint, zone
        #: fingerprint) so identical zones of identical meshes hit.
        self._zone_indexes: OrderedDict[tuple, ConflictIndex] = OrderedDict()
        self._problems: OrderedDict[str, ILPResult] = OrderedDict()
        #: most recently used protocol-model index per (hops, full-links?)
        #: lineage: the base the next cache miss is diffed against.  Churny
        #: workloads mutate one topology a little at a time, so the last
        #: index is almost always the cheapest base -- but whole-topology
        #: requests and explicit-subset requests (e.g. a repair engine's
        #: demand links) interleave, and diffing one against the other
        #: marks every link dirty.  Keeping one lineage per kind keeps
        #: both diffs small.
        self._delta_bases: dict[tuple[int, bool], ConflictIndex] = {}
        #: actual-work accounting (plain ints, independent of :mod:`repro.obs`):
        #: cache effectiveness is a property of this engine's lifetime, not
        #: of the workload, so it lives here rather than in the registry.
        self.stats = {
            "index_builds": 0, "index_hits": 0,
            "delta_updates": 0,
            "zone_index_builds": 0, "zone_index_hits": 0,
            "ilp_solves": 0, "problem_hits": 0,
            "ilp_probes": 0, "bf_shortcuts": 0,
        }

    # -- conflict-graph layer -------------------------------------------------

    def conflict_index(self, topology: MeshTopology,
                       hops: Optional[int] = None,
                       links: Optional[Sequence[Link]] = None,
                       interference=None) -> ConflictIndex:
        """The (cached) :class:`ConflictIndex` for a topology/links/model key.

        The interference backend is either ``hops`` (the k-hop protocol
        model; default 2, the pre-seam behaviour) or ``interference=`` --
        an :class:`~repro.phy.models.InterferenceModel` or a bare hops
        integer.  A :class:`~repro.phy.models.ProtocolModel` routes
        through exactly the pre-seam path: same cache key (the bare hops
        int), same delta lineage, same rows as
        :func:`~repro.core.conflict.conflict_graph` -- bitwise
        identical.  Other models (e.g.
        :class:`~repro.phy.models.SinrModel`) are keyed by their
        :meth:`~repro.phy.models.InterferenceModel.cache_token` (which
        folds in positions and parameters -- the topology fingerprint
        covers connectivity only) and always build through the model;
        they never join the protocol delta lineage.

        Protocol-path misses are answered by the cheapest correct path:
        an incremental delta update against the last index of the same
        ``hops`` when the diff is small (see ``delta_updates``), a full
        build otherwise.  Either way the result is identical and lands
        in the same LRU.
        """
        from repro.phy.models import ProtocolModel, coerce_interference

        if hops is not None and interference is not None:
            raise ConfigurationError(
                "pass either hops= or interference=, not both")
        if hops is not None and (not isinstance(hops, int)
                                 or isinstance(hops, bool) or hops < 1):
            raise ConfigurationError(
                f"interference model needs hops >= 1, got {hops}")
        model = coerce_interference(interference,
                                    default_hops=2 if hops is None else hops)
        if not isinstance(model, ProtocolModel):
            return self._model_index(model, topology, links)
        hops = model.hops
        link_key = None if links is None else tuple(sorted(set(links)))
        lineage = (hops, link_key is None)

        def build(name: str) -> tuple[str, ConflictIndex]:
            snapshot = (frozenset(topology.graph.nodes),
                        frozenset(tuple(sorted(e))
                                  for e in topology.graph.edges))
            link_list = _resolve_links(topology, link_key)
            base = (self._delta_bases.get(lineage)
                    if self.delta_updates and self.max_indexes > 0 else None)
            rows = (None if base is None else updated_conflict_edges(
                base, topology, hops, link_list, snapshot))
            stat = "delta_updates"
            if rows is None:
                stat = "index_builds"
                near = _checked_khop_near_sets(topology, hops, link_list)
                position = {link: i for i, link in enumerate(link_list)}
                rows = [sorted(map(position.__getitem__, partners))
                        for _, partners in _conflict_rows(link_list, near)]
            index = ConflictIndex._from_rows(name, hops, link_list, rows,
                                             *snapshot)
            obs.counter("core.interference.protocol_edges").inc(
                index.num_conflicts)
            return stat, index

        key = ("conflict", topology_fingerprint(topology), hops, link_key)
        return self._index_for(key, build, lineage)

    def _model_index(self, model, topology: MeshTopology,
                     links: Optional[Sequence[Link]]) -> ConflictIndex:
        """Index for a non-protocol interference backend (e.g. SINR).

        Keyed by the model's content token next to the connectivity
        fingerprint; built through the model, cached in the same LRU as
        protocol indexes but kept out of the delta lineage (there is no
        delta rule for SINR conflicts -- a position change can touch any
        pair).  ``index.hops`` is ``None``, like the exact interference
        relation's.
        """
        link_key = None if links is None else tuple(sorted(set(links)))
        key = ("conflict", topology_fingerprint(topology),
               model.cache_token(topology), link_key)

        def build(name: str) -> tuple[str, ConflictIndex]:
            graph = model.conflict_graph(
                topology, links=None if link_key is None else list(link_key))
            obs.counter(f"core.interference.{model.kind}_edges").inc(
                graph.number_of_edges())
            return "index_builds", ConflictIndex(name, None, graph)

        return self._index_for(key, build)

    def zone_index(self, base: ConflictIndex,
                   links: Sequence[Link]) -> ConflictIndex:
        """The (cached) conflict subindex induced by a zone's links.

        ``base`` is the full-mesh index the zone was partitioned from;
        the subindex wraps the conflict subgraph induced by ``links``
        (canonical node and edge insertion order, so it is
        indistinguishable from a direct build).  Zone requests are keyed
        by ``(base.key, zone fingerprint)`` in a **dedicated LRU** --
        zoned solves touch dozens of zones per search, and sharing the
        main index cache would evict the full-mesh entry every consumer
        relies on.  ``stats["zone_index_hits"]`` and the
        ``core.engine.zone_index_hits`` counter record the re-partitions
        answered from cache.
        """
        zone = tuple(sorted(set(links)))
        digest = hashlib.sha256(repr(zone).encode()).hexdigest()[:16]
        key = ("zone", base.key, digest)
        cached = self._zone_indexes.get(key)
        if cached is not None:
            self._zone_indexes.move_to_end(key)
            self.stats["zone_index_hits"] += 1
            obs.counter("core.engine.zone_index_hits").inc()
            return cached
        # base.neighbors() checks membership and keeps rows in link order
        members = {link: i for i, link in enumerate(zone)}
        index = ConflictIndex._from_rows(
            "/".join(map(repr, key)), base.hops, zone,
            [[members[b] for b in base.neighbors(a) if b in members]
             for a in zone])
        self.stats["zone_index_builds"] += 1
        obs.counter("core.engine.zone_index_builds").inc()
        if self.max_indexes > 0:
            self._zone_indexes[key] = index
            # Zones are small and numerous; give them headroom without
            # letting a 5000-link sweep hold every subindex forever.
            while len(self._zone_indexes) > 4 * self.max_indexes:
                self._zone_indexes.popitem(last=False)
        return index

    def interference_index(self, topology: MeshTopology) -> ConflictIndex:
        """The (cached) index of the exact interference relation.

        This is the relation the distributed DSCH handshake enforces by
        overhearing (:mod:`repro.mesh16.distributed`); it is *tighter*
        than the 2-hop protocol model, so distributed outcomes must be
        validated against it, not against :meth:`conflict_index`.
        """
        from repro.phy.interference import interference_graph

        key = ("interference", topology_fingerprint(topology))
        return self._index_for(key, lambda name: (
            "index_builds",
            ConflictIndex(name, None, interference_graph(topology))))

    def _index_for(self, key: tuple, build,
                   lineage: Optional[tuple[int, bool]] = None
                   ) -> ConflictIndex:
        """The one LRU path of the main index cache.

        Returns the cached index for ``key``, or caches ``build(name)``'s
        index -- ``build`` returns ``(stats entry to count, index)`` and
        names the index after ``key``.  A ``lineage`` index becomes the
        base of that protocol delta lineage.
        """
        index = self._indexes.get(key)
        if index is not None:
            self._indexes.move_to_end(key)
            self.stats["index_hits"] += 1
            obs.counter("core.engine.index_hits").inc()
        else:
            stat, index = build("/".join(map(repr, key)))
            self.stats[stat] += 1
            obs.counter(f"core.engine.{stat}").inc()
            if self.max_indexes > 0:
                self._indexes[key] = index
                while len(self._indexes) > self.max_indexes:
                    self._indexes.popitem(last=False)
        if lineage is not None and self.max_indexes > 0:
            self._delta_bases[lineage] = index
        return index

    # -- cached ILP layer -----------------------------------------------------

    def solve(self, problem: SchedulingProblem,
              time_limit: Optional[float] = None,
              node_limit: Optional[int] = None) -> ILPResult:
        """:func:`~repro.core.ilp.solve_schedule_ilp` through the problem cache.

        Cache hits return a private copy (fresh :class:`Schedule` /
        :class:`TransmissionOrder` objects), so callers may mutate results
        freely; only deterministic fields are shared, and ``solve_seconds``
        reports the original solve's wall clock.  ``node_limit`` caps the
        branch-and-cut tree deterministically (see
        :func:`~repro.core.ilp.solve_schedule_ilp`); both budgets are part
        of the cache key.
        """
        key = canonical_problem_key(problem, time_limit, node_limit)
        cached = self._problems.get(key)
        if cached is not None:
            self._problems.move_to_end(key)
            self.stats["problem_hits"] += 1
            obs.counter("core.engine.problem_hits").inc()
            return _copy_result(cached)
        result = solve_schedule_ilp(problem, time_limit=time_limit,
                                    node_limit=node_limit)
        self.stats["ilp_solves"] += 1
        if self.max_problems > 0:
            self._problems[key] = _copy_result(result)
            while len(self._problems) > self.max_problems:
                self._problems.popitem(last=False)
        return result

    # -- warm-started order certification ------------------------------------

    def certify_order(self, conflicts: nx.Graph, demands: Mapping[Link, int],
                      frame_slots: int, region: int,
                      delay_constraints: Sequence[DelayConstraint],
                      order: TransmissionOrder) -> Optional[Schedule]:
        """Certify region-``K`` feasibility from a carried order, or ``None``.

        One Bellman-Ford pass recovers the componentwise-earliest schedule
        consistent with ``order`` inside the first ``region`` slots; if it
        exists and every delay budget holds *at the full frame length*
        (wrap cost stays ``frame_slots``), the problem is feasible at this
        region -- the ILP would only rediscover that.  Failure certifies
        nothing: a different order may still fit, so the caller falls back
        to the solver.
        """
        from repro.core.delay import path_delay_slots

        try:
            packed = schedule_from_order(conflicts, demands, region, order)
        except (InfeasibleScheduleError, ConfigurationError):
            # Infeasible under *this* order, or the order does not cover
            # the demanded links (e.g. a caller-supplied warm order from a
            # pre-fault schedule): no certificate.
            return None
        schedule = Schedule(frame_slots,
                            dict(packed.items()))
        for constraint in delay_constraints:
            if (path_delay_slots(schedule, constraint.route)
                    > constraint.budget_slots):
                return None
        return schedule

    # -- warm-started minimum-slots search -----------------------------------

    def minimum_slots(self, conflicts: nx.Graph, demands: Mapping[Link, int],
                      frame_slots: int,
                      delay_constraints: Sequence[DelayConstraint] = (),
                      search: Optional[str] = None,
                      max_region: Optional[int] = None,
                      time_limit_per_probe: Optional[float] = None,
                      warm_order: Optional[TransmissionOrder] = None,
                      policy: "SolverPolicy | str | None" = None):
        """:func:`~repro.core.minslots.minimum_slots` through this engine.

        With no ``policy=`` the engine's own :attr:`policy` governs the
        solve; explicit ``search=``/``max_region=``/``time_limit_per_probe=``
        arguments override the matching policy knobs either way.
        """
        from repro.core.minslots import minimum_slots

        return minimum_slots(
            conflicts, demands, frame_slots,
            delay_constraints=delay_constraints, search=search,
            max_region=max_region,
            time_limit_per_probe=time_limit_per_probe,
            engine=self, warm_order=warm_order, policy=policy)

    def run_search(self, conflicts: nx.Graph, demands: Mapping[Link, int],
                   frame_slots: int,
                   delay_constraints: Sequence[DelayConstraint],
                   search: str, ceiling: int,
                   time_limit_per_probe: Optional[float],
                   warm_order: Optional[TransmissionOrder] = None,
                   node_limit_per_probe: Optional[int] = None):
        """The probe loop behind :func:`~repro.core.minslots.minimum_slots`.

        Identical search structure and probe log as the pre-engine code;
        the only additions are the warm-start shortcut inside ``probe``
        and the canonical re-solve of a BF-certified winner.  Callers go
        through :func:`repro.core.minslots.minimum_slots`, which owns the
        argument validation and search-level telemetry.

        ``node_limit_per_probe`` bounds each ILP probe's branch-and-cut
        tree instead of (or in addition to) the wall clock; a probe that
        exhausts either budget undecided is treated as infeasible.  The
        node budget is *deterministic* -- the same probe reaches the same
        verdict regardless of machine load -- which is what keeps zoned
        solves bitwise-identical between serial and parallel runs.
        """
        from repro.core.minslots import MinSlotResult, demand_lower_bound

        lower = max(1, demand_lower_bound(conflicts, demands))
        probes: list[tuple[int, bool]] = []
        carried: Optional[TransmissionOrder] = (
            warm_order if self.warm_start else None)

        def probe(region: int) -> ILPResult:
            nonlocal carried
            obs.counter("core.minslots.probes").inc()
            problem = SchedulingProblem(
                conflicts=conflicts, demands=dict(demands),
                frame_slots=frame_slots,
                delay_constraints=tuple(delay_constraints),
                region_slots=region)
            if carried is not None:
                certified = self.certify_order(
                    conflicts, demands, frame_slots, region,
                    delay_constraints, carried)
                if certified is not None:
                    self.stats["bf_shortcuts"] += 1
                    obs.counter("core.engine.bf_shortcuts").inc()
                    probes.append((region, True))
                    return ILPResult(True, certified, carried, None, 0.0,
                                     BF_CERTIFIED, 0, 0)
            self.stats["ilp_probes"] += 1
            obs.counter("core.engine.ilp_probes").inc()
            try:
                result = self.solve(problem, time_limit=time_limit_per_probe,
                                    node_limit=node_limit_per_probe)
            except SolverError:
                # Undecided within the probe's budget (wall clock or node
                # count): treat as infeasible.  Conservative for admission
                # control (a call is rejected, never wrongly admitted);
                # the probe log records it like any miss.
                obs.counter("core.minslots.probe_timeouts").inc()
                result = ILPResult(False, None, None, None,
                                   time_limit_per_probe or 0.0,
                                   "probe budget exhausted", 0, 0)
            if not result.feasible:
                obs.counter("core.minslots.probes_infeasible").inc()
            elif self.warm_start and result.order is not None:
                carried = result.order
            probes.append((region, result.feasible))
            return result

        def finish(slots: Optional[int],
                   ilp: Optional[ILPResult],
                   bound: int,
                   region: Optional[int] = None) -> "MinSlotResult":
            """Resolve a BF-certified winner through the canonical ILP.

            The shortcut decides probe *verdicts*; the returned schedule
            and order must be the cold path's, so the winning region is
            solved once for real.  Every earlier certified probe stays a
            saved solve -- this trade keeps results bitwise-identical
            while still doing strictly less ILP work whenever more than
            one probe was certified.
            """
            if ilp is not None and ilp.solver_status == BF_CERTIFIED:
                problem = SchedulingProblem(
                    conflicts=conflicts, demands=dict(demands),
                    frame_slots=frame_slots,
                    delay_constraints=tuple(delay_constraints),
                    region_slots=slots if region is None else region)
                try:
                    ilp = self.solve(problem,
                                     time_limit=time_limit_per_probe,
                                     node_limit=node_limit_per_probe)
                except SolverError:
                    # The certificate *is* a valid feasible solution; keep
                    # it rather than fail the search on a solver timeout.
                    pass
            return MinSlotResult(slots=slots, ilp=ilp, lower_bound=bound,
                                 probes=probes)

        if not any(d > 0 for d in demands.values()):
            empty = probe(1)
            return finish(0 if empty.feasible else None, empty, 0, region=1)

        if lower > ceiling:
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)

        if search == "linear":
            for region in range(lower, ceiling + 1):
                result = probe(region)
                if result.feasible:
                    return finish(region, result, lower)
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)

        # Binary search: feasibility is monotone in the region size for a
        # fixed frame length.  Establish feasibility at the ceiling first.
        best: Optional[ILPResult] = None
        best_region: Optional[int] = None
        low, high = lower, ceiling
        top = probe(high)
        if not top.feasible:
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)
        best, best_region = top, high
        high -= 1
        while low <= high:
            mid = (low + high) // 2
            result = probe(mid)
            if result.feasible:
                best, best_region = result, mid
                high = mid - 1
            else:
                low = mid + 1
        return finish(best_region, best, lower)


def _copy_result(result: ILPResult) -> ILPResult:
    """A structurally-fresh copy of an ILP result (cache isolation)."""
    schedule = result.schedule
    if schedule is not None:
        schedule = Schedule(schedule.frame_slots, dict(schedule.items()))
    order = result.order
    if order is not None:
        order = order.copy()
    return replace(result, schedule=schedule, order=order)


#: Module-level default engine backing the bare public functions
#: (:func:`~repro.core.minslots.minimum_slots` with no ``engine=``).
#: Deliberately stateless (cache sizes 0): cross-call caches here would
#: make the deterministic obs counters depend on process history.  The
#: warm-start shortcut needs no cross-call state, so it stays on.
_DEFAULT_ENGINE = SolverEngine(max_indexes=0, max_problems=0)


def default_engine() -> SolverEngine:
    """The stateless module-level engine (see the module docstring)."""
    return _DEFAULT_ENGINE
