"""Delay-aware scheduling ILP."""

import networkx as nx
import pytest

from repro import obs
from repro.analysis.scenarios import make_voip_flows
from repro.core.conflict import conflict_graph
from repro.core.delay import path_delay_slots, path_wraps
from repro.core.ilp import (
    DelayConstraint,
    SchedulingProblem,
    delay_constraints_for,
    solve_schedule_ilp,
)
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.topology import chain_topology, grid_topology, star_topology
from repro.sim.random import RngRegistry
from repro.traffic.voip import G729


def chain_problem(hops, frame_slots, budget=None, demand=1,
                  minimize=False, region=None):
    topology = chain_topology(hops + 1)
    route = tuple((i, i + 1) for i in range(hops))
    demands = {link: demand for link in route}
    conflicts = conflict_graph(topology, hops=2, links=demands.keys())
    constraints = []
    if budget is not None:
        constraints.append(DelayConstraint("f", route, budget))
    return SchedulingProblem(conflicts, demands, frame_slots,
                             delay_constraints=constraints,
                             minimize_max_delay=minimize,
                             region_slots=region), route


class TestFeasibility:
    def test_trivial_no_demands(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        result = solve_schedule_ilp(SchedulingProblem(conflicts, {}, 10))
        assert result.feasible
        assert len(result.schedule) == 0

    def test_single_link(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        result = solve_schedule_ilp(
            SchedulingProblem(conflicts, {(0, 1): 2}, 10))
        assert result.feasible
        assert result.schedule.block((0, 1)).length == 2

    def test_schedule_is_conflict_free(self):
        problem, ____ = chain_problem(hops=5, frame_slots=12)
        result = solve_schedule_ilp(problem)
        assert result.feasible
        result.schedule.validate(problem.conflicts)

    def test_demand_exceeding_frame_infeasible(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        result = solve_schedule_ilp(
            SchedulingProblem(conflicts, {(0, 1): 11}, 10))
        assert not result.feasible

    def test_clique_overload_infeasible(self):
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 2, (0, 2): 2, (0, 3): 2}  # 6 > 5 slots
        result = solve_schedule_ilp(SchedulingProblem(conflicts, demands, 5))
        assert not result.feasible

    def test_clique_exactly_fits(self):
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 2, (0, 2): 2, (0, 3): 2}
        result = solve_schedule_ilp(SchedulingProblem(conflicts, demands, 6))
        assert result.feasible
        result.schedule.validate(conflicts)


@pytest.fixture
def registry():
    reg = obs.MetricsRegistry()
    previous = obs.set_registry(reg)
    yield reg
    obs.set_registry(previous)


def _no_milp(*args, **kwargs):
    raise AssertionError("a HiGHS model was built")


class TestCliqueRefutation:
    def test_clique_overload_refuted_without_solver(self, registry,
                                                    monkeypatch):
        monkeypatch.setattr("repro.core.ilp.milp", _no_milp)
        conflicts = conflict_graph(star_topology(3), hops=2)
        demands = {(0, 1): 2, (0, 2): 2, (0, 3): 2}
        result = solve_schedule_ilp(SchedulingProblem(conflicts, demands, 5))
        assert not result.feasible
        assert result.solver_status == (
            "conflict clique of 6 slots exceeds region 5")
        counters = registry.snapshot()["counters"]
        assert counters["core.ilp.clique_refutations"] == 1
        assert counters["core.ilp.infeasible"] == 1

    def test_e5_eighth_call_is_refuted_at_the_full_frame(self, registry,
                                                         monkeypatch):
        # E5 on the 3x3 grid, seed 11: the first seven calls fit, and the
        # set with voip7 holds an 18-slot conflict clique against 16 data
        # slots.  The greedy refutation stops at the first clique above
        # the region, 17 slots; no HiGHS model is built.
        topology = grid_topology(3, 3)
        frame = default_frame_config()
        flows = make_voip_flows(topology, 8, RngRegistry(seed=11),
                                codec=G729, gateway=0, delay_budget_s=0.05)
        assert [flow.name for flow in flows][-1] == "voip7"
        demands = flows.link_demands(frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
        conflicts = conflict_graph(topology, hops=2, links=demands.keys())
        graph = conflicts.graph.subgraph(demands).copy()
        for link in graph:
            graph.nodes[link]["weight"] = demands[link]
        assert nx.max_weight_clique(graph, weight="weight")[1] == 18
        assert frame.data_slots == 16

        monkeypatch.setattr("repro.core.ilp.milp", _no_milp)
        result = solve_schedule_ilp(SchedulingProblem(
            conflicts, demands, frame.data_slots,
            delay_constraints=delay_constraints_for(
                flows, frame.frame_duration_s / frame.data_slots)))
        assert not result.feasible
        assert result.solver_status == (
            "conflict clique of 17 slots exceeds region 16")
        counters = registry.snapshot()["counters"]
        assert counters["core.ilp.clique_refutations"] == 1
        assert counters["core.ilp.solves"] == 1


class TestDelayConstraints:
    def test_one_frame_budget_forces_zero_wraps(self):
        problem, route = chain_problem(hops=5, frame_slots=16, budget=16)
        result = solve_schedule_ilp(problem)
        assert result.feasible
        assert path_wraps(result.schedule, route) == 0
        assert result.max_delay_slots <= 16

    def test_tight_budget_infeasible_when_region_small(self):
        # region 3 cannot pipeline 5 hops without wrapping, and a 1-frame
        # budget forbids wrapping
        problem, ____ = chain_problem(hops=5, frame_slots=16, budget=16,
                                      region=3)
        result = solve_schedule_ilp(problem)
        assert not result.feasible

    def test_loose_budget_feasible_in_small_region(self):
        problem, route = chain_problem(hops=5, frame_slots=16, budget=100,
                                       region=3)
        result = solve_schedule_ilp(problem)
        assert result.feasible
        assert result.schedule.makespan() <= 3
        assert path_delay_slots(result.schedule, route) <= 100

    def test_reported_max_delay_matches_schedule(self):
        problem, route = chain_problem(hops=4, frame_slots=12, budget=40)
        result = solve_schedule_ilp(problem)
        assert result.max_delay_slots == path_delay_slots(result.schedule,
                                                          route)

    def test_budget_is_respected(self):
        for budget in (16, 32, 48):
            problem, route = chain_problem(hops=6, frame_slots=16,
                                           budget=budget)
            result = solve_schedule_ilp(problem)
            assert result.feasible
            assert path_delay_slots(result.schedule, route) <= budget

    def test_undemanded_route_link_rejected(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        problem = SchedulingProblem(
            conflicts, {(0, 1): 1}, 10,
            delay_constraints=[DelayConstraint(
                "f", ((0, 1), (1, 2)), 10)])
        with pytest.raises(ConfigurationError, match="undemanded"):
            solve_schedule_ilp(problem)

    def test_undemanded_route_link_rejected_before_quick_exits(self, chain5):
        # the demand alone would be refuted without a solver; the malformed
        # route must still raise rather than read as "infeasible"
        conflicts = conflict_graph(chain5, hops=2)
        problem = SchedulingProblem(
            conflicts, {(0, 1): 11}, 10,
            delay_constraints=[DelayConstraint(
                "f", ((0, 1), (1, 2)), 10)])
        with pytest.raises(ConfigurationError, match="undemanded"):
            solve_schedule_ilp(problem)


class TestMinimizeMaxDelay:
    def test_minimized_delay_is_pipeline_depth(self):
        problem, route = chain_problem(hops=5, frame_slots=16,
                                       budget=160, minimize=True)
        result = solve_schedule_ilp(problem)
        # optimal: one slot per hop back-to-back = 5 slots
        assert result.max_delay_slots == 5

    def test_minimize_beats_or_matches_feasibility_only(self):
        feasible, route = chain_problem(hops=4, frame_slots=16, budget=64)
        optimal, ____ = chain_problem(hops=4, frame_slots=16, budget=64,
                                      minimize=True)
        d_feasible = solve_schedule_ilp(feasible).max_delay_slots
        d_optimal = solve_schedule_ilp(optimal).max_delay_slots
        assert d_optimal <= d_feasible

    def test_two_crossing_flows_minmax(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        up = ((0, 1), (1, 2), (2, 3), (3, 4))
        down = ((4, 3), (3, 2), (2, 1), (1, 0))
        demands = {l: 1 for l in up + down}
        problem = SchedulingProblem(
            conflicts, demands, 16,
            delay_constraints=[DelayConstraint("up", up, 160),
                               DelayConstraint("down", down, 160)],
            minimize_max_delay=True)
        result = solve_schedule_ilp(problem)
        assert result.feasible
        worst = max(path_delay_slots(result.schedule, up),
                    path_delay_slots(result.schedule, down))
        assert worst == result.max_delay_slots
        # each direction needs at least its own pipeline depth...
        assert worst >= 4
        # ...and the two pipelines cannot overlap in time (every up link
        # conflicts with every down link on this short chain), so the
        # schedule spans at least the total demand
        assert result.schedule.makespan() >= 8


class TestResultMetadata:
    def test_order_consistent_with_schedule(self):
        problem, route = chain_problem(hops=4, frame_slots=12, budget=48)
        result = solve_schedule_ilp(problem)
        for prev, nxt in zip(route, route[1:]):
            blocks = (result.schedule.block(prev),
                      result.schedule.block(nxt))
            if result.order.precedes(prev, nxt):
                assert blocks[0].end <= blocks[1].start
            else:
                assert blocks[1].end <= blocks[0].start

    def test_counts_reported(self):
        problem, ____ = chain_problem(hops=3, frame_slots=10)
        result = solve_schedule_ilp(problem)
        assert result.num_variables > 0
        assert result.num_constraints > 0
        assert result.solve_seconds >= 0

    def test_region_property_validation(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        problem = SchedulingProblem(conflicts, {(0, 1): 1}, 10,
                                    region_slots=11)
        with pytest.raises(ConfigurationError):
            solve_schedule_ilp(problem)

    def test_invalid_frame_rejected(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError):
            solve_schedule_ilp(SchedulingProblem(conflicts, {(0, 1): 1}, 0))


class TestDelayConstraintValidation:
    def test_empty_route_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayConstraint("f", (), 10)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayConstraint("f", ((0, 1),), 0)

    def test_discontiguous_route_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayConstraint("f", ((0, 1), (2, 3)), 10)


def test_demanded_link_missing_from_the_relation_is_rejected():
    conflicts = conflict_graph(chain_topology(4), links=[(0, 1), (1, 2)])
    problem = SchedulingProblem(
        conflicts, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, 10)
    with pytest.raises(ConfigurationError, match=r"\(2, 3\)"):
        solve_schedule_ilp(problem)
