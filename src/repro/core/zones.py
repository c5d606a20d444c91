"""Zoned and greedy large-topology solver arms (S37 in DESIGN.md).

The exact minimum-slots search solves one monolithic ILP per probe over
the whole conflict graph -- fine at the paper's 16-50-node meshes,
hopeless at city scale, where binary order variables grow quadratically
in conflicting links.  This module adds the two heuristic arms behind
the :class:`~repro.core.policy.SolverPolicy` seam:

**Zoned** (:func:`zoned_minimum_slots`).  Partition the demanded links
into *interference zones* by deterministic seed-ordered BFS over the
:class:`~repro.core.conflict.ConflictIndex` CSR adjacency
(:func:`partition_zones`): links that conflict cluster together, links
that never interact end up in different zones -- the route-interference
structure of arXiv:1106.1590 decomposed explicitly.  Each zone is then
solved *exactly* (the same delay-aware ILP search, over the zone's
induced conflict subgraph) under a **boundary-slot reservation**: the
zone's region ceiling is shrunk by the worst conflicting out-of-zone
demand any of its links faces, so the zone solution leaves room for its
neighbours.  Zone sub-searches always probe by bisection and are
**warm-started from a greedy packing** of the zone: the engine's
Bellman-Ford certificate decides the top probe for free, and the known
greedy makespan keeps the zone ceiling feasible.  Most zone searches
close between the engine's greedy-clique floor and first-fit
certificate without probing; such a zone is solved once at its region
so the stitch ranks it by an ILP solution.  Each ILP probe runs
under a bounded *deterministic* branch-and-cut node budget
(:data:`DEFAULT_ZONE_PROBE_NODE_LIMIT` unless the policy sets
``node_limit_per_probe``) with undecided probes treated as infeasible
-- on big-M disjunctive formulations a single infeasibility *proof* can
take minutes, and the zoned arm trades provable zone minimality (which
the stitch discards anyway) for bounded latency.
Finally the zone solutions are *stitched*: their links are
interleaved demand-major (heaviest demand first, zone-internal start
slot then zone creation order as tie-breaks), packed first-fit against
the full conflict adjacency, and the packing's induced order is
compacted by the existing Bellman-Ford recovery pass
(:func:`~repro.core.ordering.schedule_from_order`): one
difference-constraint solve produces the componentwise-earliest global
schedule consistent with every zone's internal order, overlapping
non-conflicting zones in time (spatial reuse across zones comes from
the stitch, not the zones).

**Greedy** (:func:`greedy_minimum_slots`).  No ILP at all: a
deterministic first-fit portfolio (first-fit-decreasing and canonical
link order) followed by the same Bellman-Ford compaction, keeping the
best makespan.  Near-linear in conflict edges; the arm of last resort
when even per-zone ILPs are too slow.

Both arms are **sound, never complete**: every schedule they emit is
validated conflict-free against the full conflict graph (the S8
contract) and checked against every delay budget they were given --
when a budget cannot be met they return infeasibility instead of
degrading a guarantee.  What they concede is *minimality*: the returned
region may exceed the exact optimum.  Experiment E21 measures that gap
(<= 10% on instances where the exact ILP is tractable) and the
asymptotic speedup.

Both arms run through the owning :class:`~repro.core.engine.SolverEngine`
-- zone subproblems hit the engine's problem cache and the dedicated
zone-index LRU (:meth:`~repro.core.engine.SolverEngine.zone_index`), so
warm starts, delta updates and problem hashing keep working unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro import obs
from repro.core.conflict import ConflictIndex
from repro.core.delay import path_delay_slots
from repro.core.greedy import greedy_schedule
from repro.core.engine import BOUNDS_CLOSED
from repro.core.ilp import DelayConstraint, ILPResult, SchedulingProblem
from repro.core.minslots import MinSlotResult, demand_lower_bound
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    SolverError,
)
from repro.net.topology import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import SolverEngine

#: Per-probe branch-and-cut node budget for zone sub-searches when the
#: policy leaves ``node_limit_per_probe`` unset.  Probes undecided within
#: the budget count as infeasible (the search keeps its best certified
#: region), so a pathological zone costs a few bounded probes instead of
#: a minutes-long HiGHS infeasibility proof.  A *node* budget rather
#: than a wall clock keeps zone verdicts deterministic -- the same
#: instance produces the same schedule serial or parallel, loaded or
#: idle -- which is what the CI serial-vs-parallel bitwise-identity
#: check relies on.  Calibrated so an undecided probe on a worst-case
#: 32-link zone costs well under a second; easy verdicts (presolve or
#: root-node proofs) are unaffected.
DEFAULT_ZONE_PROBE_NODE_LIMIT = 100


@dataclass(frozen=True)
class ZonePartition:
    """A deterministic partition of demanded links into interference zones.

    ``zones`` holds each zone's links in canonical sorted order; zone
    order is creation order (the order their BFS seeds appear in the
    canonical link ordering), which is also the order the zoned solver
    visits them and a tie-break in the stitch's demand-major
    interleaving.
    """

    zones: tuple[tuple[Link, ...], ...]

    @property
    def num_zones(self) -> int:
        return len(self.zones)

    @property
    def num_links(self) -> int:
        return sum(len(zone) for zone in self.zones)

    def zone_of(self) -> dict[Link, int]:
        """Link -> zone-index lookup over the whole partition."""
        owner: dict[Link, int] = {}
        for index, zone in enumerate(self.zones):
            for link in zone:
                owner[link] = index
        return owner

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(zone) for zone in self.zones)


def partition_zones(index: ConflictIndex,
                    demands: Mapping[Link, int],
                    max_zone_links: int) -> ZonePartition:
    """Cluster the demanded links into zones by seed-ordered BFS growth.

    Walk the canonical link order; every still-unassigned link seeds a
    new zone, which grows breadth-first over the conflict adjacency
    (CSR rows, canonical neighbour order) until it holds
    ``max_zone_links`` links or its conflict component is exhausted.
    Deterministic by construction: equal inputs produce equal
    partitions, independent of dict order or process history.

    Only links with positive demand participate; zero-demand links are
    never scheduled, so they would only dilute the zones.
    """
    if max_zone_links < 2:
        raise ConfigurationError(
            f"max_zone_links must be >= 2, got {max_zone_links}")
    demanded = [link for link in index.links if demands.get(link, 0) > 0]
    remaining = set(demanded)
    zones: list[tuple[Link, ...]] = []
    for seed in demanded:
        if seed not in remaining:
            continue
        remaining.discard(seed)
        zone = [seed]
        frontier = [seed]
        while frontier and len(zone) < max_zone_links:
            next_frontier: list[Link] = []
            for link in frontier:
                if len(zone) >= max_zone_links:
                    break
                for neighbor in index.neighbors(link):
                    if neighbor in remaining:
                        remaining.discard(neighbor)
                        zone.append(neighbor)
                        next_frontier.append(neighbor)
                        if len(zone) >= max_zone_links:
                            break
            frontier = next_frontier
        zones.append(tuple(sorted(zone)))
    partition = ZonePartition(tuple(zones))
    obs.counter("core.zones.partitions").inc()
    for size in partition.sizes():
        obs.histogram("core.zones.zone_size").observe(size)
    return partition


def boundary_reservation(index: ConflictIndex,
                         demands: Mapping[Link, int],
                         zone: Sequence[Link]) -> int:
    """Slots to reserve for a zone's conflicting out-of-zone neighbours.

    The stitch serializes a zone link behind every conflicting link of
    other zones that precedes it in the global order; in the worst case
    that is the link's whole out-of-zone conflicting demand.  Reserving
    the zone-wide maximum of that quantity shrinks the zone's region
    ceiling so the stitched schedule still fits the frame.  It is a
    heuristic headroom bound, not a certificate -- the stitch itself
    decides feasibility -- but it is what keeps zones from greedily
    spreading across slots their neighbours need.
    """
    members = set(zone)
    worst = 0
    for link in zone:
        outside = sum(demands.get(neighbor, 0)
                      for neighbor in index.neighbors(link)
                      if neighbor not in members)
        worst = max(worst, outside)
    return worst


def _first_fit_starts(index: ConflictIndex,
                      demands: Mapping[Link, int],
                      ranking: Sequence[Link]) -> dict[Link, int]:
    """Earliest-fit start slots over ``ranking`` (unbounded frame).

    Concatenating zone orders into one *total* order and handing it to
    Bellman-Ford would serialize every cross-zone conflict pair in zone
    order -- quadratic stretch the zones never asked for.  First-fit is
    the right relaxation: each link (in ranking order) takes the
    earliest slot range clear of its already-placed conflicting
    neighbours, so a later zone's link may fill an earlier zone's gap.
    The *induced* start order is what the stitch's Bellman-Ford pass
    then compacts.
    """
    starts: dict[Link, int] = {}
    for link in ranking:
        demand = demands[link]
        busy = sorted((starts[nb], starts[nb] + demands[nb])
                      for nb in index.neighbors(link) if nb in starts)
        start = 0
        for begin, end in busy:
            if start + demand <= begin:
                break
            start = max(start, end)
        starts[link] = start
    return starts


def _zone_constraints(delay_constraints: Sequence[DelayConstraint],
                      members: set[Link]) -> tuple[DelayConstraint, ...]:
    """The delay constraints whose whole route lies inside one zone.

    Cross-zone routes cannot be expressed in a zone subproblem; they are
    checked on the stitched schedule instead (and rejected, never
    silently violated, when they fail).
    """
    return tuple(c for c in delay_constraints
                 if all(link in members for link in c.route))


def _check_delays(schedule: Schedule,
                  delay_constraints: Sequence[DelayConstraint]
                  ) -> tuple[Optional[int], list[str]]:
    """Max path delay and the names of budget-violating constraints."""
    max_delay: Optional[int] = None
    violated: list[str] = []
    for constraint in delay_constraints:
        delay = path_delay_slots(schedule, constraint.route)
        if max_delay is None or delay > max_delay:
            max_delay = delay
        if delay > constraint.budget_slots:
            violated.append(constraint.name)
    return max_delay, violated


def _heuristic_result(status: str,
                      schedule: Optional[Schedule],
                      order: Optional[TransmissionOrder],
                      lower: int,
                      delay_constraints: Sequence[DelayConstraint],
                      policy: SolverPolicy,
                      meta: dict,
                      solve_seconds: float) -> MinSlotResult:
    """Package a heuristic arm's outcome as a :class:`MinSlotResult`.

    Runs the final soundness gate shared by both arms: the emitted
    schedule must meet every delay budget at the full frame length, or
    the arm reports infeasibility (``core.zones.delay_rejects``).  Also
    scores the gap against the clique lower bound and raises the
    ``core.zones.gap_exceeded`` counter when it blows past the policy's
    advertised tolerance -- observable, never fatal.
    """
    if schedule is None:
        return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                             probes=[], meta=meta)
    max_delay, violated = _check_delays(schedule, delay_constraints)
    slots = schedule.makespan()
    meta = dict(meta)
    meta["lower_bound"] = lower
    if lower > 0:
        gap = (slots - lower) / lower
        meta["gap_vs_lower_bound"] = round(gap, 6)
        if gap > policy.gap_tolerance:
            obs.counter("core.zones.gap_exceeded").inc()
    if violated:
        obs.counter("core.zones.delay_rejects").inc()
        meta["delay_violations"] = violated
        return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                             probes=[(slots, False)], meta=meta)
    ilp = ILPResult(True, schedule, order,
                    max_delay if delay_constraints else None,
                    solve_seconds, status, 0, 0)
    return MinSlotResult(slots=slots, ilp=ilp, lower_bound=lower,
                         probes=[(slots, True)], meta=meta)


def _zone_warm_start(zone_index: ConflictIndex,
                     zone_demands: Mapping[Link, int],
                     ceiling: int, frame_slots: int,
                     zone_delay: Sequence[DelayConstraint]
                     ) -> tuple[Optional[TransmissionOrder], Optional[int]]:
    """A greedy warm order for one zone and its compacted makespan.

    The order seeds the zone search's Bellman-Ford certificates; the
    makespan (``None`` when the packing misses the ceiling or a zone
    delay budget) is a known-feasible upper bound for the zone region.
    """
    raw = greedy_schedule(zone_index, zone_demands, frame_slots=None,
                          strategy="demand")
    order = TransmissionOrder.from_schedule(raw)
    try:
        packed = schedule_from_order(zone_index, zone_demands, ceiling,
                                     order)
    except InfeasibleScheduleError:
        return None, None
    if zone_delay:
        # Budgets must hold at the *full* frame wrap cost, exactly as
        # the engine's certify_order judges them during the search.
        at_frame = Schedule(frame_slots, dict(packed.items()))
        for constraint in zone_delay:
            if (path_delay_slots(at_frame, constraint.route)
                    > constraint.budget_slots):
                return None, None
    return order, packed.makespan()


def _zone_layers(engine: "SolverEngine", zone_index: ConflictIndex,
                 zone_demands: Mapping[Link, int], frame_slots: int,
                 zone_delay: Sequence[DelayConstraint],
                 outcome: MinSlotResult, node_limit: int) -> Schedule:
    """The zone schedule whose start slots rank the stitch.

    A zone search closed by its bounds publishes a first-fit packing; the
    stitch's time layers were tuned on ILP zone solutions, and ranking by
    first-fit starts moves the zoned region by a slot either way from
    instance to instance (E21's 80-node mesh goes past the 10% gap).  So
    a closed zone is solved once at its ``K`` -- one ILP instead of a
    probe search -- and keeps its certificate only if that solve is
    undecided within ``node_limit``.  The solve is feasible: the
    certificate is a solution at ``K``.
    """
    if outcome.ilp.solver_status != BOUNDS_CLOSED:
        return outcome.schedule
    problem = SchedulingProblem(
        conflicts=zone_index, demands=dict(zone_demands),
        frame_slots=frame_slots, delay_constraints=tuple(zone_delay),
        region_slots=outcome.slots)
    try:
        return engine.solve(problem, node_limit=node_limit).schedule
    except SolverError:
        return outcome.schedule


def zoned_minimum_slots(conflicts: ConflictIndex,
                        demands: Mapping[Link, int],
                        frame_slots: int,
                        delay_constraints: Sequence[DelayConstraint] = (),
                        engine: Optional["SolverEngine"] = None,
                        policy: Optional[SolverPolicy] = None
                        ) -> MinSlotResult:
    """The zoned large-topology arm: partition, solve, reserve, stitch.

    Semantics match :func:`~repro.core.minslots.minimum_slots`: find a
    region ``K`` of the ``frame_slots``-slot frame carrying all demands
    conflict-free within their delay budgets -- except ``K`` is *small*,
    not provably minimal.  See the module docstring for the algorithm
    and the soundness contract.
    """
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    policy = SolverPolicy.coerce(policy)
    ceiling = (frame_slots if policy.max_region is None
               else min(policy.max_region, frame_slots))
    lower = demand_lower_bound(demands)
    obs.counter("core.zones.zoned_solves").inc()
    started = time.perf_counter()
    with obs.span("core.zones.solve", mode="zoned",
                  frame_slots=frame_slots):
        partition = partition_zones(conflicts, demands,
                                    policy.max_zone_links)
        meta: dict = {"mode": "zoned", "num_zones": partition.num_zones,
                      "zone_sizes": partition.sizes()}
        if lower > ceiling:
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=[], meta=meta)
        if partition.num_zones == 0:
            # Nothing demanded: delegate the degenerate case to the
            # exact probe machinery for identical empty-result shape.
            outcome = engine.run_search(
                conflicts, demands, frame_slots, tuple(delay_constraints),
                policy.search, ceiling,
                node_limit_per_probe=policy.node_limit_per_probe)
            outcome.meta = meta
            return outcome

        ranked: list[tuple[int, int, Link]] = []
        zone_seconds = 0.0
        reserves: list[int] = []
        probe_nodes = (DEFAULT_ZONE_PROBE_NODE_LIMIT
                       if policy.node_limit_per_probe is None
                       else policy.node_limit_per_probe)
        for zone in partition.zones:
            members = set(zone)
            zone_index = engine.zone_index(conflicts, zone)
            zone_demands = {link: demands[link] for link in zone}
            reserve = boundary_reservation(conflicts, demands, zone)
            reserves.append(reserve)
            zone_lower = demand_lower_bound(zone_demands)
            zone_ceiling = min(ceiling, max(zone_lower, ceiling - reserve))
            zone_delay = _zone_constraints(delay_constraints, members)
            warm_order, greedy_makespan = _zone_warm_start(
                zone_index, zone_demands, ceiling, frame_slots,
                zone_delay)
            if greedy_makespan is not None:
                # The greedy packing is a feasibility certificate at its
                # makespan: capping the bisection there keeps the top
                # probe certified (never a timeout) and the probe range
                # small.  When the certificate needs more room than the
                # reservation left, the certificate wins -- the reserve
                # is headroom, the makespan is evidence.
                if greedy_makespan > zone_ceiling:
                    obs.counter("core.zones.reserve_relaxed").inc()
                zone_ceiling = greedy_makespan
            outcome = engine.run_search(
                zone_index, zone_demands, frame_slots,
                zone_delay, "binary", zone_ceiling, warm_order=warm_order,
                node_limit_per_probe=probe_nodes)
            if not outcome.feasible and zone_ceiling < ceiling:
                # The reservation is headroom, not a certificate -- the
                # stitch decides real feasibility.  A zone that cannot
                # fit under the reserved ceiling retries at the full one
                # rather than failing the whole mesh.
                obs.counter("core.zones.reserve_relaxed").inc()
                outcome = engine.run_search(
                    zone_index, zone_demands, frame_slots,
                    zone_delay, "binary", ceiling, warm_order=warm_order,
                    node_limit_per_probe=probe_nodes)
            if outcome.ilp is not None:
                zone_seconds += outcome.ilp.solve_seconds
            if not outcome.feasible or outcome.schedule is None:
                obs.counter("core.zones.zone_infeasible").inc()
                meta["infeasible_zone"] = zone[0]
                return MinSlotResult(slots=None, ilp=None,
                                     lower_bound=lower,
                                     probes=list(outcome.probes),
                                     meta=meta)
            layers = _zone_layers(engine, zone_index, zone_demands,
                                  frame_slots, zone_delay, outcome,
                                  probe_nodes)
            zone_number = len(reserves) - 1
            for link in zone:
                ranked.append((-demands[link], layers.block(link).start,
                               zone_number, link))

        # Demand-major interleaving, zone-internal start as tie-break:
        # heavy links place first (the first-fit-decreasing heuristic),
        # and equal demands follow their zone solutions' time layers so
        # non-conflicting zones overlap.  Zone-major concatenation would
        # make first-fit rediscover the spatial reuse one conflict pair
        # at a time, and it routinely overflows a frame that
        # max(zone makespans) fits easily.
        ranking = [entry[-1] for entry in sorted(ranked)]
        starts = _first_fit_starts(conflicts, demands, ranking)
        order = TransmissionOrder(
            {link: float(start) for link, start in starts.items()})
        meta["boundary_reserve"] = max(reserves)
        try:
            packed = schedule_from_order(conflicts, demands, ceiling, order)
        except InfeasibleScheduleError:
            obs.counter("core.zones.stitch_failures").inc()
            meta["stitch_failed"] = True
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=[], meta=meta)
        obs.counter("core.zones.stitches").inc()
        schedule = Schedule(frame_slots, dict(packed.items()))
        schedule.validate(conflicts)
    zone_seconds = max(zone_seconds, time.perf_counter() - started)
    return _heuristic_result(
        f"zoned({partition.num_zones} zones)", schedule, order,
        lower, delay_constraints, policy, meta, zone_seconds)


#: Deterministic first-fit strategies the greedy arm tries, in order.
GREEDY_PORTFOLIO = ("demand", "index")


def greedy_minimum_slots(conflicts: ConflictIndex,
                         demands: Mapping[Link, int],
                         frame_slots: int,
                         delay_constraints: Sequence[DelayConstraint] = (),
                         engine: Optional["SolverEngine"] = None,
                         policy: Optional[SolverPolicy] = None
                         ) -> MinSlotResult:
    """The greedy arm: first-fit portfolio + Bellman-Ford compaction.

    Each portfolio strategy packs the links first-fit into an unbounded
    frame, the packing's induced order is re-solved to its
    componentwise-earliest schedule by one Bellman-Ford pass, and the
    best makespan that fits the region wins (first strategy wins ties).
    ``engine`` is accepted for signature symmetry with the other arms;
    no ILP is ever solved.
    """
    del engine  # symmetric signature; the greedy arm never solves ILPs
    policy = SolverPolicy.coerce(policy)
    ceiling = (frame_slots if policy.max_region is None
               else min(policy.max_region, frame_slots))
    lower = demand_lower_bound(demands)
    obs.counter("core.zones.greedy_solves").inc()
    started = time.perf_counter()
    best: Optional[tuple[int, str, TransmissionOrder, Schedule]] = None
    with obs.span("core.zones.solve", mode="greedy",
                  frame_slots=frame_slots):
        if lower <= ceiling:
            for strategy in GREEDY_PORTFOLIO:
                raw = greedy_schedule(conflicts, demands, frame_slots=None,
                                      strategy=strategy)
                order = TransmissionOrder.from_schedule(raw)
                try:
                    packed = schedule_from_order(conflicts, demands, ceiling,
                                                 order)
                except InfeasibleScheduleError:
                    continue
                makespan = packed.makespan()
                if best is None or makespan < best[0]:
                    best = (makespan, strategy, order, packed)
    meta: dict = {"mode": "greedy"}
    if best is None:
        return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                             probes=[], meta=meta)
    makespan, strategy, order, packed = best
    meta["strategy"] = strategy
    schedule = Schedule(frame_slots, dict(packed.items()))
    schedule.validate(conflicts)
    return _heuristic_result(
        f"greedy({strategy})", schedule, order,
        lower, delay_constraints, policy, meta,
        time.perf_counter() - started)
