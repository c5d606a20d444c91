"""Minimum-slots search: bounds, linear and binary probing, validation."""

import pytest

from repro.core.conflict import conflict_graph
from repro.core.ilp import DelayConstraint
from repro.core.minslots import demand_lower_bound, minimum_slots
from repro.core.policy import SolverPolicy
from repro.errors import ConfigurationError
from repro.net.topology import chain_topology, star_topology

BINARY = SolverPolicy(search="binary")


def chain_instance(hops=4):
    topology = chain_topology(hops + 1)
    route = tuple((i, i + 1) for i in range(hops))
    demands = {link: 1 for link in route}
    conflicts = conflict_graph(topology, hops=2, links=demands.keys())
    return conflicts, demands, route


class TestLowerBound:
    def test_single_link(self):
        assert demand_lower_bound({(0, 1): 3}) == 3

    def test_node_clique(self):
        demands = {(0, 1): 1, (0, 2): 1, (0, 3): 1}
        assert demand_lower_bound(demands) == 3

    def test_empty(self):
        assert demand_lower_bound({}) == 0


class TestLinearSearch:
    def test_chain_bandwidth_only(self):
        conflicts, demands, ____ = chain_instance(4)
        result = minimum_slots(conflicts, demands, frame_slots=16)
        # links (0,1),(1,2),(2,3) mutually conflict -> 3 slots; (3,4)
        # conflicts with (1,2),(2,3) but can reuse (0,1)'s slot
        assert result.slots == 3
        assert result.feasible
        result.schedule.validate(conflicts)

    def test_star_needs_total_demand(self):
        topo = star_topology(4)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, i): 2 for i in range(1, 5)}
        result = minimum_slots(conflicts, demands, frame_slots=16)
        assert result.slots == 8
        # lower bound is tight here, so the search probes exactly once
        assert result.iterations == 1

    def test_delay_constraint_grows_min_slots(self):
        conflicts, demands, route = chain_instance(4)
        unconstrained = minimum_slots(conflicts, demands, frame_slots=16)
        constrained = minimum_slots(
            conflicts, demands, frame_slots=16,
            delay_constraints=[DelayConstraint("f", route, 16)])
        # zero wraps requires a forward pipeline: 4 distinct slots
        assert constrained.slots == 4
        assert constrained.slots > unconstrained.slots

    def test_infeasible_when_ceiling_too_low(self):
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 4, (0, 2): 4, (0, 3): 4}
        result = minimum_slots(conflicts, demands, frame_slots=8)
        assert not result.feasible
        assert result.slots is None
        # lower bound 12 > frame: no probe needed
        assert result.iterations == 0

    def test_infeasible_after_probing(self):
        conflicts, demands, route = chain_instance(5)
        # 1-frame budget needs 5 forward slots; cap region at 4
        result = minimum_slots(
            conflicts, demands, frame_slots=16,
            delay_constraints=[DelayConstraint("f", route, 16)],
            policy=SolverPolicy(max_region=4))
        assert not result.feasible
        assert result.probes  # it did try

    def test_probes_recorded_in_order(self):
        conflicts, demands, ____ = chain_instance(4)
        result = minimum_slots(conflicts, demands, frame_slots=16)
        regions = [region for region, ____ in result.probes]
        assert regions == sorted(regions)
        assert result.probes[-1][1] is True
        assert all(not ok for ____, ok in result.probes[:-1])

    def test_empty_demands(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        result = minimum_slots(conflicts, {}, frame_slots=8)
        assert result.slots == 0


class TestBinarySearch:
    def test_matches_linear(self):
        conflicts, demands, route = chain_instance(5)
        constraints = [DelayConstraint("f", route, 16)]
        linear = minimum_slots(conflicts, demands, 16,
                               delay_constraints=constraints)
        binary = minimum_slots(conflicts, demands, 16,
                               delay_constraints=constraints,
                               policy=BINARY)
        assert binary.slots == linear.slots

    def test_binary_uses_fewer_probes_on_wide_ranges(self):
        topo = star_topology(4)
        conflicts = conflict_graph(topo, hops=2)
        # make the lower bound loose by mixing demands
        demands = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1,
                   (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1}
        linear = minimum_slots(conflicts, demands, 64)
        binary = minimum_slots(conflicts, demands, 64, policy=BINARY)
        assert binary.slots == linear.slots

    def test_binary_infeasible(self):
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 4, (0, 2): 4, (0, 3): 4}
        result = minimum_slots(conflicts, demands, 11, policy=BINARY)
        assert not result.feasible


class TestValidation:
    def test_unknown_search_mode(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError):
            minimum_slots(conflicts, {(0, 1): 1}, 8,
                          policy=SolverPolicy(search="exponential"))

    def test_max_region_exceeding_frame(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError):
            minimum_slots(conflicts, {(0, 1): 1}, 8,
                          policy=SolverPolicy(max_region=9))

    @pytest.mark.parametrize("frame_slots", [0, -3, 2.5, True, "16"])
    def test_frame_slots_must_be_a_positive_int(self, chain5, frame_slots):
        # each once read as "infeasible": slots=None, an empty probe log
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError,
                           match="frame_slots must be an int"):
            minimum_slots(conflicts, {(0, 1): 1}, frame_slots)

    def test_demanded_link_missing_from_the_relation(self):
        # (2, 3) is demanded but absent from the relation: treating it as
        # conflict-free would share slot 0 with its neighbour (1, 2)
        conflicts = conflict_graph(chain_topology(4),
                                   links=[(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError, match=r"\(2, 3\)"):
            minimum_slots(conflicts, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, 10)
