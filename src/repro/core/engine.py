"""The incremental solver engine: shared conflict indexes, bounds-first
probe searches, and cross-layer problem caching.

The paper line's minimum-slots search (NET-COOP) probes a sequence of
nearly-identical feasibility ILPs.  A :class:`SolverEngine` exploits that
structure instead of treating every probe, repair and sweep point as a
cold solve:

1. **Cached conflict-relation layer.**  :meth:`SolverEngine.conflict_index`
   returns the immutable :class:`~repro.core.conflict.ConflictIndex` that
   :func:`~repro.core.conflict.conflict_graph` builds -- sorted link rows,
   also as CSR -- keyed by a topology/links/hops fingerprint and kept in a
   small LRU, so minslots, repair, distributed validation and analysis
   share one build per scenario instead of each building it again.
   :meth:`SolverEngine.interference_index` does the same for the *exact*
   interference relation (:func:`repro.phy.interference.interference_graph`)
   that the distributed DSCH handshake packs against.  Every cache miss
   is one build -- ``core.engine.index_builds`` counts them.

2. **Bounds-first search.**  Each
   :func:`~repro.core.minslots.minimum_slots` search, in every solver
   mode, first tries to close between a greedy-clique floor and a
   packing certificate with no ILP (:meth:`SolverEngine.run_search`).
   Only the gap that remains reaches a solver arm: the exact arm probes
   it, one ILP per probe under the policy's deterministic node budget
   (``core.engine.ilp_probes`` counts them), and the greedy arm packs it
   once.

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
functions -- is *stateless* (no cross-call caches).  A search's result
never depends on cache state: a cached engine and a stateless one return
the same ``K``, probe log and schedule.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Mapping, Optional, Sequence

import repro
from repro import obs
from repro.core.conflict import (
    ConflictIndex,
    _clique_weight,
    _Demanded,
    conflict_graph,
)
from repro.core.greedy import (
    _first_fit,
    _processing_order,
    greedy_minimum_slots,
    greedy_packings,
)
from repro.core.ilp import (
    DEFAULT_NODE_LIMIT,
    DelayConstraint,
    ILPResult,
    SchedulingProblem,
    solve_schedule_ilp,
)
from repro.core.ordering import TransmissionOrder
# Bound here only for perfbench/tracer.py, which wraps this name.
from repro.core.ordering import schedule_from_order  # noqa: F401
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule, SlotBlock, _overlapping_pairs
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    SchedulingError,
    SolverError,
)
from repro.fingerprint import source_fingerprint
from repro.net.topology import Link, MeshTopology

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


@functools.lru_cache(maxsize=None)
def _cache_salt() -> str:
    """Version + source fingerprint, matching the runtime content-hash keys."""
    return f"{repro.__version__}:{source_fingerprint()}"


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


# Nothing calls this: perfbench/tracer.py still wraps the name.
updated_conflict_edges = None


class SolverEngine:
    """Shared, incremental front end to the scheduling solver stack.

    Parameters
    ----------
    max_indexes, max_problems:
        LRU capacities of the conflict-index and solved-problem caches.
        ``0`` disables a cache entirely -- the configuration of the
        module-level :func:`default_engine`, which must stay stateless so
        the deterministic-observability contract holds for the bare public
        functions.  Each must be a non-bool ``int`` ``>= 0``.
    policy:
        The engine's default :class:`~repro.core.policy.SolverPolicy`
        (also accepts a mode string or ``None`` for the default
        ``"auto"`` policy).  Searches run through this engine without an
        explicit ``policy=``/``solver=`` use it; a per-call policy wins.
    """

    def __init__(self, max_indexes: int = 32, max_problems: int = 128,
                 policy: "SolverPolicy | str | None" = None) -> None:
        for name, size in (("max_indexes", max_indexes),
                           ("max_problems", max_problems)):
            if (not isinstance(size, int) or isinstance(size, bool)
                    or size < 0):
                raise ConfigurationError(
                    f"{name} must be an integer >= 0, got {size!r}")
        self.max_indexes = max_indexes
        self.max_problems = max_problems
        self.policy = SolverPolicy.coerce(policy)
        self._indexes: OrderedDict[tuple, ConflictIndex] = OrderedDict()
        self._problems: OrderedDict[str, ILPResult] = OrderedDict()
        #: actual-work accounting (plain ints, independent of :mod:`repro.obs`):
        #: cache effectiveness is a property of this engine's lifetime, not
        #: of the workload, so it lives here rather than in the registry.
        self.stats = {
            "index_builds": 0, "index_hits": 0,
            "ilp_solves": 0, "problem_hits": 0,
            "ilp_probes": 0,
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
        hops int and a miss builds
        :func:`~repro.core.conflict.conflict_graph` -- bitwise identical.
        Other models (e.g. :class:`~repro.phy.models.SinrModel`) are keyed
        by their :meth:`~repro.phy.models.InterferenceModel.cache_token`
        (which folds in positions and parameters -- the topology
        fingerprint covers connectivity only) and build through the model.
        """
        from repro.phy.models import ProtocolModel, coerce_interference

        model = coerce_interference(interference)
        if not isinstance(model, ProtocolModel):
            return self._model_index(model, topology, links)
        hops = model.hops
        link_key = None if links is None else tuple(sorted(set(links)))

        def build(name: str) -> ConflictIndex:
            index = conflict_graph(topology, hops=hops, links=link_key)
            obs.counter("core.interference.protocol_edges").inc(
                index.num_conflicts)
            return index._attach(name)

        key = ("conflict", topology_fingerprint(topology), hops, link_key)
        return self._index_for(key, build)

    def _model_index(self, model, topology: MeshTopology,
                     links: Optional[Sequence[Link]]) -> ConflictIndex:
        """Index for a non-protocol interference backend (e.g. SINR).

        Keyed by the model's content token next to the connectivity
        fingerprint; built through the model, cached in the same LRU as
        protocol indexes.  ``index.hops`` is ``None``, like the exact
        interference relation's.
        """
        link_key = None if links is None else tuple(sorted(set(links)))
        key = ("conflict", topology_fingerprint(topology),
               model.cache_token(topology), link_key)

        def build(name: str) -> ConflictIndex:
            index = model.conflict_graph(
                topology, links=None if link_key is None else list(link_key))
            obs.counter(f"core.interference.{model.kind}_edges").inc(
                index.num_conflicts)
            return index._attach(name)

        return self._index_for(key, build)

    def interference_index(self, topology: MeshTopology) -> ConflictIndex:
        """The (cached) index of the exact interference relation.

        This is the relation the distributed DSCH handshake enforces by
        overhearing (:mod:`repro.mesh16.distributed`); it is *tighter*
        than the 2-hop protocol model, so distributed outcomes must be
        validated against it, not against :meth:`conflict_index`.
        """
        from repro.phy.interference import interference_graph

        key = ("interference", topology_fingerprint(topology))
        return self._index_for(
            key, lambda name: interference_graph(topology)._attach(name))

    def _index_for(self, key: tuple, build) -> ConflictIndex:
        """The one LRU path of the main index cache.

        Returns the cached index for ``key``, or caches ``build(name)``'s
        index -- ``build`` names the index after ``key``.
        """
        index = self._indexes.get(key)
        if index is not None:
            self._indexes.move_to_end(key)
            self.stats["index_hits"] += 1
            obs.counter("core.engine.index_hits").inc()
            return index
        index = build("/".join(map(repr, key)))
        self.stats["index_builds"] += 1
        obs.counter("core.engine.index_builds").inc()
        if self.max_indexes > 0:
            self._indexes[key] = index
            while len(self._indexes) > self.max_indexes:
                self._indexes.popitem(last=False)
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

    # -- bounds-first minimum-slots search ------------------------------------

    def run_search(self, conflicts: ConflictIndex, demands: Mapping[Link, int],
                   frame_slots: int,
                   delay_constraints: Sequence[DelayConstraint],
                   search: str, ceiling: int,
                   node_limit_per_probe: Optional[int] = None,
                   gap_arm: str = "exact"):
        """The min-slot search behind :func:`~repro.core.minslots.minimum_slots`.

        Two bounds come first, whatever the arm.  The *floor* is the
        heavier of :func:`~repro.core.minslots.demand_lower_bound` and the
        greedy conflict clique at the ceiling; a floor above the ceiling
        refutes the search (probe log ``[(ceiling, False)]``).  The
        *certificate* is a packing inside the floor that meets every delay
        budget at the full frame length, from the ladder of
        :func:`_packing_certificate`.  When it holds, ``K`` is the floor
        and the certificate is the published schedule: no ILP runs, the
        probe log is ``[(K, True)]`` and the result's status is
        :data:`BOUNDS_CLOSED`.  A search with nothing demanded is decided
        here too, by one ILP probe at region 1.

        Only the gap ``[floor, ceiling]`` reaches ``gap_arm``.
        ``"exact"`` probes it, one ILP per probe; ``"greedy"`` hands it
        to :func:`~repro.core.greedy.greedy_minimum_slots` with the
        region capped at ``ceiling``.  Callers go through
        :func:`repro.core.minslots.minimum_slots`, which owns the argument
        validation, the arm choice and search-level telemetry.

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

        def log(region: int, feasible: bool) -> None:
            obs.counter("core.minslots.probes").inc()
            if not feasible:
                obs.counter("core.minslots.probes_infeasible").inc()
            probes.append((region, feasible))

        def probe(region: int) -> ILPResult:
            problem = SchedulingProblem(
                conflicts=conflicts, demands=dict(demands),
                frame_slots=frame_slots,
                delay_constraints=tuple(delay_constraints),
                region_slots=region)
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
            log(region, result.feasible)
            return result

        def finish(slots: Optional[int], ilp: Optional[ILPResult],
                   bound: int = lower) -> "MinSlotResult":
            return MinSlotResult(slots=slots, ilp=ilp, lower_bound=bound,
                                 probes=probes)

        if not any(d > 0 for d in demands.values()):
            empty = probe(1)
            return finish(0 if empty.feasible else None, empty, 0)

        if lower > ceiling:
            return finish(None, None)

        view = _Demanded(conflicts, demands)
        floor = max(lower, _clique_weight(view, ceiling))
        if floor > ceiling:
            log(ceiling, False)
            return finish(None, None)
        certificate = _packing_certificate(
            conflicts, demands, view, frame_slots, floor, delay_constraints)
        if certificate is not None:
            obs.counter("core.minslots.bounds_closed").inc()
            log(floor, True)
            return finish(floor, certificate)

        if gap_arm == "greedy":
            return greedy_minimum_slots(
                conflicts, demands, frame_slots, delay_constraints,
                engine=self, policy=SolverPolicy(max_region=ceiling))

        if search == "linear":
            for region in range(floor, ceiling + 1):
                result = probe(region)
                if result.feasible:
                    return finish(region, result)
            return finish(None, None)

        # Binary search: feasibility is monotone in the region size for a
        # fixed frame length.  Establish feasibility at the ceiling first.
        low, high = floor, ceiling
        best = probe(high)
        if not best.feasible:
            return finish(None, None)
        best_region = high
        high -= 1
        while low <= high:
            mid = (low + high) // 2
            result = probe(mid)
            if result.feasible:
                best, best_region = result, mid
                high = mid - 1
            else:
                low = mid + 1
        return finish(best_region, best)


def _route_delay(route: Sequence[int], start: Sequence[int],
                 demand: Sequence[int], frame_slots: int) -> int:
    """:func:`~repro.core.delay.path_delay_slots` of a route of local
    indices: first block's start to last block's end, with the cyclic
    wait before each later hop."""
    first = start[route[0]]
    finish = first + demand[route[0]]
    for i in route[1:]:
        finish += (start[i] - finish) % frame_slots + demand[i]
    return finish - first


class _Budgets:
    """A search's delay constraints over its demanded links' local indices.

    ``routes[c]`` is constraint ``c``'s route as local indices, or
    ``None`` when it crosses an undemanded link (``missing[c]``, the
    first such link on the route).
    """

    __slots__ = ("routes", "missing", "budgets")

    def __init__(self, view: _Demanded,
                 delay_constraints: Sequence[DelayConstraint]) -> None:
        local = view.local
        self.routes: list[Optional[list[int]]] = []
        self.missing: list[Optional[Link]] = []
        for constraint in delay_constraints:
            route = [local.get(link) for link in constraint.route]
            lost = None
            if None in route:
                lost = constraint.route[route.index(None)]
                route = None
            self.routes.append(route)
            self.missing.append(lost)
        self.budgets = [c.budget_slots for c in delay_constraints]

    def delays(self, start: Sequence[int], demand: Sequence[int],
               frame_slots: int) -> Optional[list[int]]:
        """Every route's delay when all meet their budgets, else ``None``.

        Checked in constraint order at the full frame length; reaching a
        route through an undemanded link raises
        :class:`~repro.errors.SchedulingError`, as
        :func:`~repro.core.delay.path_delay_slots` does on a schedule
        without that link.
        """
        delays = []
        for route, lost, budget in zip(self.routes, self.missing,
                                       self.budgets):
            if route is None:
                raise SchedulingError(f"link {lost} has no slot assignment")
            delay = _route_delay(route, start, demand, frame_slots)
            if delay > budget:
                return None
            delays.append(delay)
        return delays


def _packing_certificate(conflicts: ConflictIndex,
                         demands: Mapping[Link, int], view: _Demanded,
                         frame_slots: int, region: int,
                         delay_constraints: Sequence[DelayConstraint]
                         ) -> Optional[ILPResult]:
    """A packing that proves ``region`` slots suffice, or ``None``.

    ``view`` is the search's :class:`~repro.core.conflict._Demanded`
    mapping of ``demands``; every rung works on its local indices.  A
    ladder of three rungs, each tried only when the one before it finds
    no packing that meets every delay budget:

    1. first-fit decreasing (:func:`~repro.core.greedy._first_fit`, the
       kernel of :func:`~repro.core.greedy.greedy_schedule`);
    2. :func:`_packing_descent`, an exact search within
       :data:`PACKING_NODE_LIMIT` nodes;
    3. the greedy arm's portfolio compacted into the region by
       Bellman-Ford (:func:`~repro.core.greedy.greedy_packings`), which
       packs meshes too big for the descent's node cap
       (``core.minslots.greedy_rung_closed`` counts its certificates).

    Budgets are checked on start slots at the full frame length, so a
    wrap costs the frame, not the packed region.  The packing that
    passes is checked conflict-free (S8) and published as the result's
    schedule, with the order its start slots induce, the largest route
    delay and :data:`BOUNDS_CLOSED`.
    """
    demand = view.demand
    budgets = _Budgets(view, delay_constraints)
    try:
        start = _first_fit(view, _processing_order(demand, "demand", None),
                           region, "demand")
    except InfeasibleScheduleError:
        delays = None
    else:
        delays = budgets.delays(start, demand, frame_slots)
    if delays is None:
        start = _packing_descent(view, budgets, frame_slots, region)
        if start is not None:
            delays = budgets.delays(start, demand, frame_slots)
    if delays is None:
        for ____, ____, packed in greedy_packings(conflicts, demands, region):
            start = [packed.block(link).start for link in view.links]
            delays = budgets.delays(start, demand, frame_slots)
            if delays is not None:
                obs.counter("core.minslots.greedy_rung_closed").inc()
                break
    if delays is None:
        return None
    spans = {i: (start[i], start[i] + d) for i, d in enumerate(demand)}
    clashes = _overlapping_pairs(view.near, spans)
    if clashes:  # pragma: no cover - every rung packs conflict-free
        raise SchedulingError(
            f"packing has {len(clashes)} conflicting overlaps")
    links = view.links
    schedule = Schedule(frame_slots, {
        link: SlotBlock(start[i], demand[i]) for i, link in enumerate(links)})
    order = TransmissionOrder(
        {link: float(start[i]) for i, link in enumerate(links)})
    return ILPResult(True, schedule, order, max(delays, default=None), 0.0,
                     BOUNDS_CLOSED, 0, 0)


def _packing_descent(view: _Demanded, budgets: _Budgets, frame_slots: int,
                     region: int) -> Optional[list[int]]:
    """Depth-first search for a packing inside ``region`` meeting every budget.

    Each demanded link gets a contiguous, non-wrapping block inside
    ``[0, region)`` that overlaps no conflicting link's block.  The
    descent branches on the most constrained unplaced link (fewest
    conflict-free starts, then heaviest demand, then canonical order) and
    tries its starts in increasing order; a delay constraint is checked
    with :func:`_route_delay` at the full frame length as soon as every
    link on its route is placed.  The first complete packing is returned
    as every demanded link's start slot.  ``None`` -- no packing exists,
    or the descent visited :data:`PACKING_NODE_LIMIT` nodes first --
    proves nothing.  A packing places one link per node, so with more
    demanded links than the cap the descent is skipped at once (counted
    as capped, with no nodes).  A route through an undemanded link is
    never checked here, so such a search gets no packing either.
    """
    routes = budgets.routes
    if None in routes:
        return None
    demand, neighbours = view.demand, view.near
    count = len(demand)
    if count > PACKING_NODE_LIMIT:
        obs.counter("core.minslots.packing_nodes").inc(0)
        obs.counter("core.minslots.packing_capped").inc()
        return None
    # Bit s of fits[i] is set when link i's block may start at slot s.
    fits = [(1 << max(0, region - d + 1)) - 1 for d in demand]
    # checks[i]: the constraints on link i; waiting[c]: their unplaced links
    checks: list[list[int]] = [[] for _ in demand]
    waiting = []
    for c, route in enumerate(routes):
        for i in set(route):
            checks[i].append(c)
        waiting.append(len(set(route)))
    limits = budgets.budgets
    busy = [0] * count  # slots taken by placed conflicting links
    start = [0] * count
    unplaced = set(range(count))
    nodes = 0

    def starts_of(i: int) -> int:
        free = ~busy[i]
        mask = fits[i]
        for offset in range(demand[i]):
            mask &= free >> offset
        return mask

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
                if (waiting[c] == 0
                        and _route_delay(routes[c], start, demand,
                                         frame_slots) > limits[c]):
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
    return start if found else None


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
#: make the deterministic obs counters depend on process history.
_DEFAULT_ENGINE = SolverEngine(max_indexes=0, max_problems=0)


def default_engine() -> SolverEngine:
    """The stateless module-level engine (see the module docstring)."""
    return _DEFAULT_ENGINE
