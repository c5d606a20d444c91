"""Property-based tests: scheduling invariants across algorithms.

These are the library's load-bearing guarantees: every scheduler (greedy,
order+Bellman-Ford, ILP) must produce conflict-free schedules meeting the
demands, and the delay bound ``delay <= (wraps + 1) * frame`` must hold for
any schedule and route.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.conflict import conflict_graph
from repro.core.delay import path_delay_slots, path_wraps
from repro.core.greedy import greedy_schedule
from repro.core.ilp import SchedulingProblem, solve_schedule_ilp
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.errors import InfeasibleScheduleError
from repro.net.topology import chain_topology, grid_topology


@st.composite
def chain_demand_instances(draw):
    nodes = draw(st.integers(min_value=3, max_value=8))
    topology = chain_topology(nodes)
    links = topology.links
    k = draw(st.integers(min_value=1, max_value=min(6, len(links))))
    indices = draw(st.lists(st.integers(0, len(links) - 1),
                            min_size=k, max_size=k, unique=True))
    demands = {links[i]: draw(st.integers(min_value=1, max_value=3))
               for i in indices}
    return topology, demands


@given(chain_demand_instances())
@settings(max_examples=80, deadline=None)
def test_greedy_schedules_are_conflict_free_and_meet_demands(instance):
    topology, demands = instance
    conflicts = conflict_graph(topology, hops=2)
    schedule = greedy_schedule(conflicts, demands)
    schedule.validate(conflicts)
    assert schedule.demands_met(demands)


@given(chain_demand_instances(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_any_total_order_yields_valid_schedule_or_infeasible(instance, rnd):
    topology, demands = instance
    conflicts = conflict_graph(topology, hops=2)
    links = sorted(demands)
    rnd.shuffle(links)
    order = TransmissionOrder.from_ranking(links)
    total = sum(demands.values())
    try:
        schedule = schedule_from_order(conflicts, demands,
                                       frame_slots=total, order=order)
    except InfeasibleScheduleError:
        # a total order can never be infeasible when the frame has room
        # for the serial schedule
        raise AssertionError(
            "serial frame must accommodate any total order")
    schedule.validate(conflicts)
    assert schedule.demands_met(demands)


@given(chain_demand_instances())
@settings(max_examples=30, deadline=None)
def test_ilp_matches_or_beats_greedy_makespan(instance):
    topology, demands = instance
    conflicts = conflict_graph(topology, hops=2)
    greedy = greedy_schedule(conflicts, demands)
    result = solve_schedule_ilp(SchedulingProblem(
        conflicts, demands, frame_slots=greedy.frame_slots))
    # greedy found a schedule in its makespan, so the ILP must too
    assert result.feasible
    result.schedule.validate(conflicts)


@st.composite
def schedules_with_routes(draw):
    hops = draw(st.integers(min_value=1, max_value=6))
    frame = draw(st.integers(min_value=4, max_value=24))
    route = tuple((i, i + 1) for i in range(hops))
    blocks = {}
    for link in route:
        length = draw(st.integers(min_value=1, max_value=2))
        start = draw(st.integers(min_value=0, max_value=frame - length))
        blocks[link] = (start, length)
    return frame, route, blocks


@given(schedules_with_routes())
@settings(max_examples=200, deadline=None)
def test_delay_wraps_identity(case):
    from repro.core.schedule import Schedule, SlotBlock

    frame, route, blocks = case
    schedule = Schedule(frame, {l: SlotBlock(*b) for l, b in blocks.items()})
    delay = path_delay_slots(schedule, route)
    wraps = path_wraps(schedule, route)
    # the fundamental bound the ordering optimization relies on
    assert wraps * frame < delay <= (wraps + 1) * frame
    # delay at least covers the transmission times on the path
    assert delay >= sum(schedule.block(l).length for l in route)


@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_grid_conflict_graphs_symmetric_and_loopless(rows, cols, seed):
    topology = grid_topology(rows, cols)
    conflicts = conflict_graph(topology, hops=2)
    for a, b in conflicts.pairs():
        assert a != b
        assert conflicts.has_edge(b, a)
    assert set(conflicts.links) == set(topology.links)
