"""The incremental solver engine: shared conflict indexes, warm-started
probe searches, and cross-layer problem caching.

The paper line's minimum-slots search (NET-COOP) probes a sequence of
nearly-identical feasibility ILPs, and the ToN companion recovers schedules
from a fixed order with one Bellman-Ford pass over the conflict graph.  A
:class:`SolverEngine` exploits that structure instead of treating every
probe, repair and sweep point as a cold solve:

1. **Cached conflict-relation layer.**  :meth:`SolverEngine.conflict_index`
   returns the immutable :class:`~repro.core.conflict.ConflictIndex` that
   :func:`~repro.core.conflict.conflict_graph` builds -- sorted link rows,
   also as CSR -- keyed by a topology/links/hops fingerprint and kept in a
   small LRU, so minslots, repair, distributed validation and analysis
   share one build per scenario instead of each building it again.
   :meth:`SolverEngine.interference_index` does the same for the *exact*
   interference relation (:func:`repro.phy.interference.interference_graph`)
   that the distributed DSCH handshake packs against.  Cache *misses* on
   a churning topology are answered incrementally where possible: the
   request is diffed against the last index of the same hops value and
   only the dirty rows go back through the conflict-relation builder
   (:func:`updated_conflict_edges`) -- ``core.engine.delta_updates`` vs
   ``core.engine.index_builds`` count the rebuilds avoided.

2. **Bounded, warm-started probe search.**  Each
   :func:`~repro.core.minslots.minimum_slots` search first tries to close
   between a greedy-clique floor and a packing certificate with no ILP
   (:meth:`SolverEngine.run_search`).  Inside the gap that remains, the
   engine carries the last feasible probe's
   :class:`~repro.core.ordering.TransmissionOrder` forward.  Before
   paying for the next ILP it runs a Bellman-Ford pass over the carried
   order at the candidate region: if the recovered
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

from repro import obs
from repro.core.conflict import (
    ConflictIndex,
    _conflict_rows,
    _greedy_clique_demand,
    _khop_near_sets,
    _resolve_links,
    conflict_graph,
)
from repro.core.delay import path_delay_slots
from repro.core.greedy import greedy_schedule
from repro.core.ilp import (
    DEFAULT_NODE_LIMIT,
    DelayConstraint,
    ILPResult,
    SchedulingProblem,
    solve_schedule_ilp,
)
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    SolverError,
)
from repro.net.topology import Link, MeshTopology, hop_depths

#: Sentinel solver status marking a probe verdict certified by Bellman-Ford
#: instead of an ILP solve.  Never escapes a search: the winning probe is
#: always re-solved canonically before a result is returned.
BF_CERTIFIED = "bf-certified"

#: Solver status of a search decided with no ILP: a packing certificate
#: met the greedy-clique floor.  Such a result is published as is
#: (``num_variables == 0``); the certificate *is* the schedule.
BOUNDS_CLOSED = "bounds-closed"

#: Nodes (block placements) the exact packing descent behind a
#: bounds-closed certificate may visit before it gives up and leaves the
#: search to the ILP probes.
PACKING_NODE_LIMIT = 512


def _fingerprint_token(topology: MeshTopology) -> tuple:
    """Cheap structural signature guarding the memoized fingerprint.

    Combines the topology's monotone mutation counter
    (:meth:`~repro.net.topology.MeshTopology.apply_edge_changes` bumps it)
    with the row and edge counts, so an in-place mutation invalidates the
    cache instead of silently serving a stale fingerprint -- and, through
    it, a stale cached :class:`ConflictIndex`.
    """
    return (getattr(topology, "mutations", 0), len(topology.rows),
            len(topology.edges))


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
    digest.update(repr(topology.nodes).encode())
    digest.update(repr(topology.edges).encode())
    fingerprint = digest.hexdigest()[:16]
    try:
        topology._repro_fingerprint = (token, fingerprint)
    except AttributeError:  # pragma: no cover - exotic topology subclass
        pass
    return fingerprint


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
                          node_limit: Optional[int] = None) -> str:
    """Content hash identifying a ``(problem, K)`` pair.

    Two problems share a key iff they have the same conflict edges, the
    same demands, the same frame geometry (frame length *and* region), the
    same delay constraints and objective, and the same effective
    branch-and-cut node budget (``None`` resolves to
    :data:`~repro.core.ilp.DEFAULT_NODE_LIMIT`) -- a budget change can
    flip a verdict, so budget-distinct solves must not share a cache
    entry, while an unset and an explicitly default budget do.  The key
    is salted with the package version and source fingerprint, the same
    invalidation discipline as :func:`repro.runtime.tasks.task_key`, so
    it stays meaningful if persisted next to runtime artifacts.
    """
    digest = hashlib.sha256()
    digest.update(_cache_salt().encode())
    digest.update(problem.conflicts.fingerprint.encode())
    digest.update(repr(sorted(problem.demands.items())).encode())
    digest.update(repr((problem.frame_slots, problem.effective_region,
                        problem.minimize_max_delay,
                        DEFAULT_NODE_LIMIT if node_limit is None
                        else node_limit)).encode())
    digest.update(repr([(c.name, c.route, c.budget_slots)
                        for c in problem.delay_constraints]).encode())
    return digest.hexdigest()[:24]


def updated_conflict_edges(old: ConflictIndex, topology: MeshTopology,
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
        dirty_nodes = (hop_depths(old_adj, seeds, hops - 1).keys()
                       | hop_depths(topology.rows, seeds, hops - 1).keys())
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
        explicit ``policy=``/``solver=`` use it; a per-call policy wins.
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

    # -- conflict-relation layer ---------------------------------------------

    def conflict_index(self, topology: MeshTopology,
                       links: Optional[Sequence[Link]] = None,
                       interference=None) -> ConflictIndex:
        """The (cached) :class:`ConflictIndex` for a topology/links/model key.

        ``interference=`` is the
        :class:`~repro.phy.models.InterferenceModel` to build with
        (``None``: ``ProtocolModel(hops=2)``).  A
        :class:`~repro.phy.models.ProtocolModel` is keyed by its bare
        hops int, joins the delta lineage of that hops value and builds
        the rows of :func:`~repro.core.conflict.conflict_graph` --
        bitwise identical.  Other models (e.g.
        :class:`~repro.phy.models.SinrModel`) are keyed by their
        :meth:`~repro.phy.models.InterferenceModel.cache_token` (which
        folds in positions and parameters -- the topology fingerprint
        covers connectivity only) and always build through the model;
        they never join the protocol delta lineage.

        Protocol-path misses are answered by the cheapest correct path:
        an incremental delta update against the last index of the same
        hops value when the diff is small (see ``delta_updates``), a full
        build otherwise.  Either way the result is identical and lands
        in the same LRU.
        """
        from repro.phy.models import ProtocolModel, coerce_interference

        model = coerce_interference(interference)
        if not isinstance(model, ProtocolModel):
            return self._model_index(model, topology, links)
        hops = model.hops
        link_key = None if links is None else tuple(sorted(set(links)))
        lineage = (hops, link_key is None)

        def build(name: str) -> tuple[str, ConflictIndex]:
            snapshot = (frozenset(topology.rows),
                        frozenset(topology.edges))
            base = (self._delta_bases.get(lineage)
                    if self.delta_updates and self.max_indexes > 0 else None)
            rows = None
            if base is not None:
                link_list = _resolve_links(topology, link_key)
                rows = updated_conflict_edges(base, topology, hops,
                                              link_list, snapshot)
            if rows is None:
                stat = "index_builds"
                index = conflict_graph(topology, hops=hops, links=link_key)
            else:
                stat = "delta_updates"
                index = ConflictIndex(link_list, rows, hops)
            obs.counter("core.interference.protocol_edges").inc(
                index.num_conflicts)
            return stat, index._attach(name, *snapshot)

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
            index = model.conflict_graph(
                topology, links=None if link_key is None else list(link_key))
            obs.counter(f"core.interference.{model.kind}_edges").inc(
                index.num_conflicts)
            return "index_builds", index._attach(name)

        return self._index_for(key, build)

    def zone_index(self, base: ConflictIndex,
                   links: Sequence[Link]) -> ConflictIndex:
        """The (cached) conflict subindex induced by a zone's links.

        ``base`` is the full-mesh index the zone was partitioned from;
        the subindex holds the rows ``base`` induces on ``links``
        (canonical link order, so it is indistinguishable from a direct
        build).  Zone requests are keyed by ``(base.key, zone
        fingerprint)`` in a **dedicated LRU** --
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
        index = ConflictIndex(
            zone, [[members[b] for b in base.neighbors(a) if b in members]
                   for a in zone], base.hops)
        index._attach("/".join(map(repr, key)))
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
            "index_builds", interference_graph(topology)._attach(name)))

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
              node_limit: Optional[int] = None) -> ILPResult:
        """:func:`~repro.core.ilp.solve_schedule_ilp` through the problem cache.

        Cache hits return a private copy (fresh :class:`Schedule` /
        :class:`TransmissionOrder` objects), so callers may mutate results
        freely; only deterministic fields are shared, and ``solve_seconds``
        reports the original solve's wall clock.  ``node_limit`` caps the
        branch-and-cut tree deterministically (see
        :func:`~repro.core.ilp.solve_schedule_ilp`) and is part of the
        cache key.
        """
        key = canonical_problem_key(problem, node_limit)
        cached = self._problems.get(key)
        if cached is not None:
            self._problems.move_to_end(key)
            self.stats["problem_hits"] += 1
            obs.counter("core.engine.problem_hits").inc()
            return _copy_result(cached)
        result = solve_schedule_ilp(problem, node_limit=node_limit)
        self.stats["ilp_solves"] += 1
        if self.max_problems > 0:
            self._problems[key] = _copy_result(result)
            while len(self._problems) > self.max_problems:
                self._problems.popitem(last=False)
        return result

    # -- warm-started order certification ------------------------------------

    def certify_order(self, conflicts: ConflictIndex,
                      demands: Mapping[Link, int], frame_slots: int,
                      region: int,
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
        try:
            packed = schedule_from_order(conflicts, demands, region, order)
        except (InfeasibleScheduleError, ConfigurationError):
            # Infeasible under *this* order, or the order does not cover
            # the demanded links (e.g. a caller-supplied warm order from a
            # pre-fault schedule): no certificate.
            return None
        return _within_budgets(packed, frame_slots, delay_constraints)

    # -- warm-started minimum-slots search -----------------------------------

    def run_search(self, conflicts: ConflictIndex, demands: Mapping[Link, int],
                   frame_slots: int,
                   delay_constraints: Sequence[DelayConstraint],
                   search: str, ceiling: int,
                   warm_order: Optional[TransmissionOrder] = None,
                   node_limit_per_probe: Optional[int] = None):
        """The min-slot search behind :func:`~repro.core.minslots.minimum_slots`.

        Two bounds come first.  The *floor* is the heavier of
        :func:`~repro.core.minslots.demand_lower_bound` and the greedy
        conflict clique at the ceiling; a floor above the ceiling refutes
        the search (probe log ``[(ceiling, False)]``).  The *certificate*
        is a packing inside the floor that meets every delay budget at the
        full frame length: first-fit-decreasing
        :func:`~repro.core.greedy.greedy_schedule`, else the node-capped
        :func:`_packing_descent`.  When it holds, ``K`` is the floor and the
        certificate is the published schedule: no ILP runs, the probe log
        is ``[(K, True)]`` and the result's status is
        :data:`BOUNDS_CLOSED`.  Neither bound reads warm state, so warm and
        cold engines close the same searches identically.

        Otherwise the probe loop searches the gap ``[floor, ceiling]``:
        each probe is an ILP, or a Bellman-Ford shortcut over the carried
        order on a warm engine, and a BF-certified winner is re-solved
        through the canonical ILP so warm and cold results stay bitwise
        identical.  Callers go through
        :func:`repro.core.minslots.minimum_slots`, which owns the argument
        validation and search-level telemetry.

        ``node_limit_per_probe`` bounds each ILP probe's branch-and-cut
        tree (``None``: :data:`~repro.core.ilp.DEFAULT_NODE_LIMIT`); a
        probe that exhausts it undecided is treated as infeasible.  The
        node budget is *deterministic* -- the same probe reaches the same
        verdict regardless of machine load -- which is what keeps solves
        bitwise-identical between serial and parallel runs.
        """
        from repro.core.minslots import MinSlotResult, demand_lower_bound

        lower = max(1, demand_lower_bound(demands))
        probes: list[tuple[int, bool]] = []
        carried: Optional[TransmissionOrder] = (
            warm_order if self.warm_start else None)

        def log(region: int, feasible: bool) -> None:
            obs.counter("core.minslots.probes").inc()
            if not feasible:
                obs.counter("core.minslots.probes_infeasible").inc()
            probes.append((region, feasible))

        def probe(region: int) -> ILPResult:
            nonlocal carried
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
                    log(region, True)
                    return ILPResult(True, certified, carried, None, 0.0,
                                     BF_CERTIFIED, 0, 0)
            self.stats["ilp_probes"] += 1
            obs.counter("core.engine.ilp_probes").inc()
            try:
                result = self.solve(problem, node_limit=node_limit_per_probe)
            except SolverError:
                # Undecided within the probe's node budget: treat as
                # infeasible.  Conservative for admission control (a call
                # is rejected, never wrongly admitted); the probe log
                # records it like any miss.
                obs.counter("core.minslots.probe_timeouts").inc()
                result = ILPResult(False, None, None, None, 0.0,
                                   "probe budget exhausted", 0, 0)
            if (result.feasible and self.warm_start
                    and result.order is not None):
                carried = result.order
            log(region, result.feasible)
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
                    ilp = self.solve(problem, node_limit=node_limit_per_probe)
                except SolverError:
                    # The certificate *is* a valid feasible solution; keep
                    # it rather than fail the search on an exhausted budget.
                    pass
            return MinSlotResult(slots=slots, ilp=ilp, lower_bound=bound,
                                 probes=probes)

        if not any(d > 0 for d in demands.values()):
            empty = probe(1)
            return finish(0 if empty.feasible else None, empty, 0, region=1)

        if lower > ceiling:
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)

        floor = max(lower, _greedy_clique_demand(conflicts, demands, ceiling))
        if floor > ceiling:
            log(ceiling, False)
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)
        certificate = _packing_certificate(
            conflicts, demands, frame_slots, floor, delay_constraints)
        if certificate is not None:
            obs.counter("core.minslots.bounds_closed").inc()
            log(floor, True)
            return MinSlotResult(slots=floor, ilp=certificate,
                                 lower_bound=lower, probes=probes)

        if search == "linear":
            for region in range(floor, ceiling + 1):
                result = probe(region)
                if result.feasible:
                    return finish(region, result, lower)
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)

        # Binary search: feasibility is monotone in the region size for a
        # fixed frame length.  Establish feasibility at the ceiling first.
        best: Optional[ILPResult] = None
        best_region: Optional[int] = None
        low, high = floor, ceiling
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


def _within_budgets(packed: Schedule, frame_slots: int,
                    delay_constraints: Sequence[DelayConstraint]
                    ) -> Optional[Schedule]:
    """``packed`` in a ``frame_slots`` frame if it meets every budget.

    The copy makes a wrap cost the full frame, not the packed region.
    """
    schedule = Schedule(frame_slots, dict(packed.items()))
    for constraint in delay_constraints:
        if (path_delay_slots(schedule, constraint.route)
                > constraint.budget_slots):
            return None
    return schedule


def _packing_certificate(conflicts: ConflictIndex,
                         demands: Mapping[Link, int], frame_slots: int,
                         region: int,
                         delay_constraints: Sequence[DelayConstraint]
                         ) -> Optional[ILPResult]:
    """A packing that proves ``region`` slots suffice, or ``None``.

    First-fit-decreasing :func:`~repro.core.greedy.greedy_schedule` comes
    first (it packs conflict-free by construction and validates S8
    itself); its packing certifies the region if every delay budget also
    holds.  When it cannot pack the region, or its packing misses a
    budget, :func:`_packing_descent` searches for one exactly, within
    :data:`PACKING_NODE_LIMIT` nodes.  The result carries the schedule,
    the order its start slots induce and :data:`BOUNDS_CLOSED`.
    """
    try:
        packed = greedy_schedule(conflicts, demands, frame_slots=region)
    except InfeasibleScheduleError:
        schedule = None
    else:
        schedule = _within_budgets(packed, frame_slots, delay_constraints)
    if schedule is None:
        schedule = _packing_descent(conflicts, demands, frame_slots, region,
                                    delay_constraints)
    if schedule is None:
        return None
    max_delay = max((path_delay_slots(schedule, c.route)
                     for c in delay_constraints), default=None)
    order = TransmissionOrder.from_schedule(schedule)
    return ILPResult(True, schedule, order, max_delay, 0.0, BOUNDS_CLOSED,
                     0, 0)


def _packing_descent(conflicts: ConflictIndex,
                     demands: Mapping[Link, int], frame_slots: int,
                     region: int,
                     delay_constraints: Sequence[DelayConstraint]
                     ) -> Optional[Schedule]:
    """Depth-first search for a packing inside ``region`` meeting every budget.

    Each demanded link gets a contiguous, non-wrapping block inside
    ``[0, region)`` that overlaps no conflicting link's block.  The
    descent branches on the most constrained unplaced link (fewest
    conflict-free starts, then heaviest demand, then canonical order) and
    tries its starts in increasing order; a delay constraint is checked
    with :func:`~repro.core.delay.path_delay_slots` arithmetic at the
    full frame length as soon as every link on its route is placed.  The
    first complete packing is returned as a ``frame_slots``-long
    :class:`Schedule`.  ``None`` -- no packing exists, or the descent
    visited :data:`PACKING_NODE_LIMIT` nodes first -- proves nothing.
    A route through an undemanded link is never checked here, so such a
    search gets no packing either.
    """
    links = sorted(link for link, d in demands.items() if d > 0)
    index = {link: i for i, link in enumerate(links)}
    routes = [[index.get(link) for link in c.route]
              for c in delay_constraints]
    if any(None in route for route in routes):
        return None
    demand = [demands[link] for link in links]
    neighbours = [[index[other] for other in conflicts.neighbors(link)
                   if other in index] for link in links]
    # Bit s of fits[i] is set when link i's block may start at slot s.
    fits = [(1 << max(0, region - d + 1)) - 1 for d in demand]
    # checks[i]: the constraints on link i; waiting[c]: their unplaced links
    checks: list[list[int]] = [[] for _ in links]
    waiting = []
    for c, route in enumerate(routes):
        for i in set(route):
            checks[i].append(c)
        waiting.append(len(set(route)))
    budgets = [c.budget_slots for c in delay_constraints]
    busy = [0] * len(links)  # slots taken by placed conflicting links
    start = [0] * len(links)
    unplaced = set(range(len(links)))
    nodes = 0

    def starts_of(i: int) -> int:
        free = ~busy[i]
        mask = fits[i]
        for offset in range(demand[i]):
            mask &= free >> offset
        return mask

    def meets_budget(c: int) -> bool:
        route = routes[c]
        first = start[route[0]]
        finish = first + demand[route[0]]
        for i in route[1:]:
            finish += (start[i] - finish) % frame_slots + demand[i]
        return finish - first <= budgets[c]

    def descend() -> Optional[bool]:
        """True: packed; False: no packing below; None: node cap hit."""
        nonlocal nodes
        if not unplaced:
            return True
        pick = min(unplaced, key=lambda i: (
            starts_of(i).bit_count(), -demand[i], i))
        candidates = starts_of(pick)
        unplaced.discard(pick)
        saved = [busy[j] for j in neighbours[pick]]
        while candidates:
            if nodes == PACKING_NODE_LIMIT:
                return None
            nodes += 1
            low = candidates & -candidates
            candidates ^= low
            slot = low.bit_length() - 1
            start[pick] = slot
            block = ((1 << demand[pick]) - 1) << slot
            for j in neighbours[pick]:
                busy[j] |= block
            ok = True
            for c in checks[pick]:
                waiting[c] -= 1
                if waiting[c] == 0 and not meets_budget(c):
                    ok = False
            if ok:
                found = descend()
                if found is not False:
                    return found
            for c in checks[pick]:
                waiting[c] += 1
            for j, mask in zip(neighbours[pick], saved):
                busy[j] = mask
        unplaced.add(pick)
        return False

    found = descend()
    obs.counter("core.minslots.packing_nodes").inc(nodes)
    if found is None:
        obs.counter("core.minslots.packing_capped").inc()
    if not found:
        return None
    return Schedule(frame_slots, {
        link: SlotBlock(start[i], demand[i]) for i, link in enumerate(links)})


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
