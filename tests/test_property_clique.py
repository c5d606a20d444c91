"""Property tests for the ILP front end's conflict-clique refutation.

:func:`repro.core.ilp._solve` answers "infeasible" without building an ILP
when a greedy conflict clique of demanded links weighs more than the
region.  These tests pin the greedy helper against
``nx.max_weight_clique`` (the exact oracle) and show that the refutation
never changes a verdict or a schedule: with the helper monkeypatched back
to the single-link bound the front end used before, every region of every
instance gets the same answer.
"""

from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import _greedy_clique_demand, conflict_graph
from repro.core.ilp import DelayConstraint, SchedulingProblem, solve_schedule_ilp
from repro.net.routing import shortest_path_route
from repro.net.topology import (
    chain_topology,
    grid_topology,
    random_disk_topology,
)


@st.composite
def small_meshes(draw):
    kind = draw(st.sampled_from(["chain", "grid", "disk"]))
    if kind == "chain":
        return chain_topology(draw(st.integers(min_value=2, max_value=7)))
    if kind == "grid":
        return grid_topology(draw(st.integers(min_value=1, max_value=2)),
                             draw(st.integers(min_value=2, max_value=3)))
    return random_disk_topology(
        draw(st.integers(min_value=3, max_value=7)), radio_range=45.0,
        area=80.0, seed=draw(st.integers(min_value=0, max_value=10_000)))


@st.composite
def demanded_meshes(draw):
    """A mesh, its 2-hop conflict graph and demands on at most 12 links."""
    topology = draw(small_meshes())
    links = sorted(topology.links)
    chosen = draw(st.lists(st.sampled_from(links), min_size=1,
                           max_size=min(12, len(links)), unique=True))
    demands = {link: draw(st.integers(min_value=0, max_value=4))
               for link in chosen}
    return conflict_graph(topology, hops=2), demands


def _oracle_clique_weight(conflicts, demands):
    demanded = [link for link, d in demands.items() if d > 0]
    graph = conflicts.graph.subgraph(demanded).copy()
    for link in demanded:
        graph.nodes[link]["weight"] = demands[link]
    return nx.max_weight_clique(graph, weight="weight")[1]


def _clique_weights(conflicts, demands):
    """Weights of every clique of demanded links (tiny instances only)."""
    demanded = [link for link, d in demands.items() if d > 0]
    return {sum(demands[link] for link in clique) for clique in
            nx.enumerate_all_cliques(conflicts.graph.subgraph(demanded))}


@settings(max_examples=80, deadline=None)
@given(demanded_meshes(), st.integers(min_value=0, max_value=20))
def test_greedy_clique_is_a_real_clique_within_the_oracle(instance, region):
    conflicts, demands = instance
    weight = _greedy_clique_demand(conflicts, demands, region)
    largest = max(demands.values())
    if largest == 0:
        assert weight == 0
        return
    assert weight in _clique_weights(conflicts, demands)
    assert largest <= weight <= _oracle_clique_weight(conflicts, demands)


def _single_link_bound(conflicts, demands, region):
    """The front end's bound before the clique refutation."""
    return max((d for d in demands.values() if d > 0), default=0)


@st.composite
def delay_instances(draw):
    """Routed flows with delay budgets, their demands and a frame."""
    topology = draw(small_meshes())
    nodes = sorted(topology.nodes)
    constraints, demands = [], {}
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        src = draw(st.sampled_from(nodes))
        dst = draw(st.sampled_from([n for n in nodes if n != src]))
        route = tuple(shortest_path_route(topology, src, dst))
        rate = draw(st.integers(min_value=1, max_value=2))
        for link in route:
            demands[link] = demands.get(link, 0) + rate
        constraints.append(DelayConstraint(
            f"f{index}", route, draw(st.integers(min_value=2, max_value=24))))
    conflicts = conflict_graph(topology, hops=2, links=demands.keys())
    frame = draw(st.integers(min_value=2, max_value=8))
    return conflicts, demands, constraints, frame


@settings(max_examples=25, deadline=None)
@given(delay_instances())
def test_refutation_never_changes_a_verdict_or_schedule(instance):
    conflicts, demands, constraints, frame = instance
    for region in range(1, frame + 1):
        problem = SchedulingProblem(conflicts, demands, frame,
                                    delay_constraints=constraints,
                                    region_slots=region)
        refuting = solve_schedule_ilp(problem)
        with mock.patch("repro.core.ilp._greedy_clique_demand",
                        _single_link_bound):
            parent = solve_schedule_ilp(problem)
        assert refuting.feasible == parent.feasible
        if parent.feasible:
            assert refuting.schedule.to_dict() == parent.schedule.to_dict()
            assert refuting.max_delay_slots == parent.max_delay_slots
