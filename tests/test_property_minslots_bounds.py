"""Property-based tests: min-slot searches closed between two bounds.

A search first tries to close at the *floor* (the heavier of the
node-clique bound and a greedy conflict clique) with a first-fit
*certificate* that meets every delay budget; only the gap between them is
probed with the ILP.  On random small chains, binary trees and disk
meshes (at most 8 demanded links, frames of at most 16 slots) this checks:

1. the search's ``K`` is the ILP's verdict: feasible at ``K`` and
   infeasible at ``K - 1`` whenever ``K - 1`` reaches the node-clique
   bound.  The oracle ILP runs with its clique pre-check switched off, so
   HiGHS decides every verdict, not the clique code the floor uses;
2. the published schedule is conflict-free, lies inside the first ``K``
   slots of a full-length frame and meets every delay budget, with the
   cyclic delay recomputed here rather than by ``core.delay``;
3. a stateless engine and a cache-warm one (its second search reads the
   problem cache the first filled) return the same ``K``, probe log and
   schedule.

A second section checks the packing certificate against a brute-force
oracle on instances of at most 6 demanded links in frames of at most 8
slots.  The oracle enumerates every contiguous, non-wrapping,
conflict-free placement inside a region, with its own cyclic delay and
pairwise overlap arithmetic (no ``core.delay``, no
``Schedule.violations``):

4. a bounds-closed schedule is conflict-free inside ``[0, K)`` and meets
   every budget, and the oracle finds a packing at that ``K``;
5. whenever the oracle finds a packing at the floor and the descent did
   not hit its node cap, the search closes there with no ILP probe;
6. ``K`` is the oracle's minimum: it packs at ``K`` and not at ``K - 1``,
   and an infeasible search has no packing in the whole frame.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.conflict import _greedy_clique_demand, conflict_graph
from repro.core.engine import BOUNDS_CLOSED, SolverEngine
from repro.core.ilp import DelayConstraint, SchedulingProblem
from repro.core.ilp import solve_schedule_ilp
from repro.core.minslots import demand_lower_bound, minimum_slots
from repro.core.policy import SolverPolicy
from repro.net.routing import shortest_path_route
from repro.net.topology import (
    binary_tree_topology,
    chain_topology,
    random_disk_topology,
)

MAX_LINKS = 8
ORACLE_LINKS = 6
ORACLE_SLOTS = 8


@st.composite
def instances(draw):
    """(conflicts, demands, frame, constraints, search)."""
    kind = draw(st.sampled_from(["chain", "tree", "disk"]))
    if kind == "chain":
        topology = chain_topology(draw(st.integers(2, 6)))
    elif kind == "tree":
        topology = binary_tree_topology(draw(st.integers(1, 2)))
    else:
        topology = random_disk_topology(
            draw(st.integers(3, 7)), radio_range=45.0, area=80.0,
            seed=draw(st.integers(0, 10_000)))
    nodes = sorted(topology.nodes)
    frame = draw(st.integers(4, 16))
    demands: dict = {}
    constraints = []
    for index in range(draw(st.integers(1, 3))):
        src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2,
                                 max_size=2, unique=True))
        route = tuple(shortest_path_route(topology, src, dst))
        if len(set(demands) | set(route)) > MAX_LINKS:
            continue
        per_hop = draw(st.integers(1, 3))
        for link in route:
            demands[link] = demands.get(link, 0) + per_hop
        if draw(st.booleans()):
            budget = draw(st.integers(1, 2 * frame))
            constraints.append(DelayConstraint(f"f{index}", route, budget))
    assume(demands)
    hops = draw(st.sampled_from([1, 2]))
    conflicts = conflict_graph(topology, hops=hops, links=sorted(demands))
    search = draw(st.sampled_from(["linear", "binary"]))
    return conflicts, demands, frame, constraints, search


def _ilp_feasible(conflicts, demands, frame, constraints, region):
    """HiGHS's verdict at ``region``, with the clique pre-check disabled."""
    problem = SchedulingProblem(conflicts=conflicts, demands=demands,
                                frame_slots=frame,
                                delay_constraints=tuple(constraints),
                                region_slots=region)
    with mock.patch("repro.core.ilp._greedy_clique_demand",
                    lambda *args: 0):
        return solve_schedule_ilp(problem).feasible


def _cyclic_delay(schedule, route):
    """First block's start to last block's end, one frame per wrap.

    Consecutive hops share a node, so their blocks are disjoint; a hop
    whose block starts before the previous hop's block ends waits for the
    next frame.
    """
    blocks = [schedule.block(link) for link in route]
    wraps = sum(1 for prev, nxt in zip(blocks, blocks[1:])
                if nxt.start < prev.start + prev.length)
    last = blocks[-1]
    return (last.start + last.length - blocks[0].start
            + wraps * schedule.frame_slots)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_bounded_search_matches_the_ilp_and_warm_equals_cold(instance):
    conflicts, demands, frame, constraints, search = instance
    policy = SolverPolicy(mode="exact", search=search)
    cold = minimum_slots(conflicts, demands, frame, constraints,
                         engine=SolverEngine(max_indexes=0, max_problems=0),
                         policy=policy)

    # (3) cache-warm == stateless
    engine = SolverEngine()
    for ____ in range(2):
        warm = minimum_slots(conflicts, demands, frame, constraints,
                             engine=engine, policy=policy)
        assert warm.slots == cold.slots
        assert warm.probes == cold.probes
        if cold.schedule is None:
            assert warm.schedule is None
        else:
            assert warm.schedule.to_dict() == cold.schedule.to_dict()

    if not cold.feasible:
        assert cold.lower_bound > frame or not _ilp_feasible(
            conflicts, demands, frame, constraints, frame)
        return

    # (1) K is the ILP's verdict
    k = cold.slots
    if cold.ilp.solver_status == BOUNDS_CLOSED:
        assert cold.probes == [(k, True)]
        assert cold.ilp.num_variables == 0
    assert _ilp_feasible(conflicts, demands, frame, constraints, k)
    if k - 1 >= max(1, cold.lower_bound):
        assert not _ilp_feasible(conflicts, demands, frame, constraints,
                                 k - 1)

    # (2) the published schedule: S8, inside the region, S30 budgets
    schedule = cold.schedule
    assert schedule.frame_slots == frame
    placed = {link: schedule.block(link) for link in demands}
    for link, block in placed.items():
        assert block.length == demands[link]
        assert 0 <= block.start and block.start + block.length <= k
    for a, b in conflicts.pairs():
        first, second = placed[a], placed[b]
        assert (first.start + first.length <= second.start
                or second.start + second.length <= first.start)
    for constraint in constraints:
        assert (_cyclic_delay(schedule, constraint.route)
                <= constraint.budget_slots)


# -- the packing certificate against a brute-force oracle ------------------


@st.composite
def packing_instances(draw):
    """(conflicts, demands, frame, constraints, search) for the oracle.

    Two to four flows on meshes big enough to demand several links; a
    budget lies within one frame of its route's own airtime, so a
    packing must pipeline the route, not merely fit it.
    """
    kind = draw(st.sampled_from(["chain", "tree", "disk"]))
    if kind == "chain":
        topology = chain_topology(draw(st.integers(4, 7)))
    elif kind == "tree":
        topology = binary_tree_topology(2)
    else:
        topology = random_disk_topology(
            draw(st.integers(5, 8)), radio_range=45.0, area=80.0,
            seed=draw(st.integers(0, 10_000)))
    nodes = sorted(topology.nodes)
    frame = draw(st.integers(5, ORACLE_SLOTS))
    demands: dict = {}
    constraints = []
    for index in range(draw(st.integers(2, 3))):
        src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2,
                                 max_size=2, unique=True))
        route = tuple(shortest_path_route(topology, src, dst))
        if len(set(demands) | set(route)) > ORACLE_LINKS:
            continue
        per_hop = draw(st.sampled_from([1, 1, 1, 2]))
        for link in route:
            demands[link] = demands.get(link, 0) + per_hop
        if draw(st.booleans()):
            airtime = per_hop * len(route)
            budget = draw(st.integers(airtime, airtime + frame // 2))
            constraints.append(DelayConstraint(f"f{index}", route, budget))
    assume(demands)
    hops = draw(st.sampled_from([1, 2]))
    conflicts = conflict_graph(topology, hops=hops, links=sorted(demands))
    search = draw(st.sampled_from(["linear", "binary"]))
    return conflicts, demands, frame, constraints, search


def _oracle_delay(starts, demands, route, frame):
    """First hop's start to last hop's end; each hop waits for the next
    occurrence (one per frame) of its block at or after the previous
    hop's end."""
    begin = now = starts[route[0]]
    for link in route:
        start = starts[link]
        while start < now:
            start += frame
        now = start + demands[link]
    return now - begin


def _overlap(start, length, other_start, other_length):
    return start < other_start + other_length and other_start < start + length


def _oracle_packing(conflicts, demands, frame, constraints, region):
    """A conflict-free, budget-meeting placement inside ``region``, or None.

    Exhaustive: every contiguous non-wrapping start of every demanded link
    is tried, in canonical link order, pruning only placements whose block
    overlaps an already placed conflicting link's block.
    """
    links = sorted(link for link, d in demands.items() if d > 0)
    conflicting = {frozenset(pair) for pair in conflicts.pairs()}
    starts = {}

    def place(depth):
        if depth == len(links):
            if all(_oracle_delay(starts, demands, c.route, frame)
                   <= c.budget_slots for c in constraints):
                return dict(starts)
            return None
        link = links[depth]
        for start in range(region - demands[link] + 1):
            if any(frozenset((link, other)) in conflicting
                   and _overlap(start, demands[link], at, demands[other])
                   for other, at in starts.items()):
                continue
            starts[link] = start
            found = place(depth + 1)
            if found is not None:
                return found
            del starts[link]
        return None

    return place(0)


@given(packing_instances())
@settings(max_examples=120, deadline=None)
def test_packing_certificate_agrees_with_a_brute_force_oracle(instance):
    conflicts, demands, frame, constraints, search = instance
    floor = max(demand_lower_bound(demands),
                _greedy_clique_demand(conflicts, demands, frame))
    registry = obs.MetricsRegistry()
    engine = SolverEngine()
    with obs.use_registry(registry):
        result = minimum_slots(conflicts, demands, frame, constraints,
                               engine=engine,
                               policy=SolverPolicy(mode="exact",
                                                   search=search))
    counters = registry.snapshot()["counters"]

    def packs(region):
        return _oracle_packing(conflicts, demands, frame, constraints,
                               region) is not None

    closed = (result.ilp is not None
              and result.ilp.solver_status == BOUNDS_CLOSED)
    # (4) a closed search publishes a valid packing at a packable K
    if closed:
        k = result.slots
        assert packs(k)
        schedule = result.schedule
        starts = {}
        for link, d in demands.items():
            block = schedule.block(link)
            assert block.length == d
            assert 0 <= block.start and block.start + d <= k
            starts[link] = block.start
        for a, b in conflicts.pairs():
            assert not _overlap(starts[a], demands[a], starts[b], demands[b])
        for constraint in constraints:
            assert (_oracle_delay(starts, demands, constraint.route, frame)
                    <= constraint.budget_slots)
    # (5) a packing at the floor closes the search unless the cap fired
    if (floor <= frame and packs(floor)
            and "core.minslots.packing_capped" not in counters):
        assert closed
        assert result.slots == floor
        assert result.probes == [(floor, True)]
        assert engine.stats["ilp_probes"] == 0
        assert "core.ilp.solves" not in counters
    # (6) K is the oracle's minimum
    if result.feasible:
        assert packs(result.slots)
        assert result.slots == 1 or not packs(result.slots - 1)
    else:
        assert not packs(frame)
