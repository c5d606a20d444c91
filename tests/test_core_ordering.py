"""Transmission orders and order -> schedule recovery."""

import pytest

from repro.core.conflict import conflict_graph
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.net.topology import chain_topology


class TestTransmissionOrder:
    def test_from_ranking(self):
        order = TransmissionOrder.from_ranking([(0, 1), (1, 2), (2, 3)])
        assert order.precedes((0, 1), (1, 2))
        assert order.precedes((0, 1), (2, 3))
        assert not order.precedes((2, 3), (1, 2))

    def test_duplicate_in_ranking_rejected(self):
        with pytest.raises(ConfigurationError):
            TransmissionOrder.from_ranking([(0, 1), (0, 1)])

    def test_from_pairs_both_orientations(self):
        order = TransmissionOrder.from_pairs({((0, 1), (1, 2)): True})
        assert order.precedes((0, 1), (1, 2))
        assert not order.precedes((1, 2), (0, 1))

    def test_from_schedule(self):
        schedule = Schedule(10, {(0, 1): SlotBlock(4, 1),
                                 (1, 2): SlotBlock(0, 2)})
        order = TransmissionOrder.from_schedule(schedule)
        assert order.precedes((1, 2), (0, 1))

    def test_self_comparison_rejected(self):
        order = TransmissionOrder.from_ranking([(0, 1)])
        with pytest.raises(ConfigurationError):
            order.precedes((0, 1), (0, 1))

    def test_unknown_pair_rejected(self):
        order = TransmissionOrder.from_pairs({((0, 1), (1, 2)): True})
        with pytest.raises(ConfigurationError):
            order.precedes((0, 1), (5, 6))
        assert not order.knows((0, 1), (5, 6))
        assert order.knows((0, 1), (1, 2))

    def test_equal_rank_tie_break_is_stable(self):
        order = TransmissionOrder({(0, 1): 1.0, (1, 2): 1.0})
        assert order.precedes((0, 1), (1, 2))
        assert not order.precedes((1, 2), (0, 1))

    def test_links_listing(self):
        order = TransmissionOrder.from_ranking([(2, 3), (0, 1)])
        assert order.links() == [(0, 1), (2, 3)]


class TestScheduleFromOrder:
    def test_forward_chain_order_pipelines(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        route = [(0, 1), (1, 2), (2, 3), (3, 4)]
        demands = {link: 1 for link in route}
        order = TransmissionOrder.from_ranking(route)
        schedule = schedule_from_order(conflicts, demands, 10, order)
        starts = [schedule.block(link).start for link in route]
        assert starts == sorted(starts)
        schedule.validate(conflicts)

    def test_earliest_packs_to_front(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 1, (1, 2): 1}
        order = TransmissionOrder.from_ranking([(0, 1), (1, 2)])
        schedule = schedule_from_order(conflicts, demands, 10, order,
                                       earliest=True)
        assert schedule.block((0, 1)).start == 0
        assert schedule.block((1, 2)).start == 1

    def test_latest_packs_to_back(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 1, (1, 2): 1}
        order = TransmissionOrder.from_ranking([(0, 1), (1, 2)])
        schedule = schedule_from_order(conflicts, demands, 10, order,
                                       earliest=False)
        assert schedule.block((1, 2)).end == 10
        assert schedule.block((0, 1)).end <= 9

    def test_respects_demands(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 3, (1, 2): 2}
        order = TransmissionOrder.from_ranking([(0, 1), (1, 2)])
        schedule = schedule_from_order(conflicts, demands, 10, order)
        assert schedule.block((0, 1)).length == 3
        assert schedule.block((1, 2)).start >= 3

    def test_infeasible_when_frame_too_small(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        # links (0,1),(1,2),(2,3) mutually conflict: need 3 slots
        demands = {(0, 1): 1, (1, 2): 1, (2, 3): 1}
        order = TransmissionOrder.from_ranking([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InfeasibleScheduleError):
            schedule_from_order(conflicts, demands, 2, order)

    def test_demand_exceeding_frame_infeasible(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        order = TransmissionOrder.from_ranking([(0, 1)])
        with pytest.raises(InfeasibleScheduleError):
            schedule_from_order(conflicts, {(0, 1): 5}, 4, order)

    def test_zero_demand_links_skipped(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 1, (1, 2): 0}
        order = TransmissionOrder.from_ranking([(0, 1), (1, 2)])
        schedule = schedule_from_order(conflicts, demands, 10, order)
        assert (1, 2) not in schedule

    def test_spatial_reuse_same_slot(self, chain8):
        # (0,1) and (4,5) are far apart: a total order still lets them
        # share slot 0 because no conflict edge constrains them
        conflicts = conflict_graph(chain8, hops=2)
        demands = {(0, 1): 1, (4, 5): 1}
        order = TransmissionOrder.from_ranking([(0, 1), (4, 5)])
        schedule = schedule_from_order(conflicts, demands, 10, order)
        assert schedule.block((0, 1)).start == 0
        assert schedule.block((4, 5)).start == 0

    def test_partial_order_from_ilp_pairs(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 1, (1, 2): 1, (2, 3): 1}
        pairs = {}
        links = [(0, 1), (1, 2), (2, 3)]
        for i, a in enumerate(links):
            for b in links[i + 1:]:
                pairs[(a, b)] = True  # canonical link order = frame order
        order = TransmissionOrder.from_pairs(pairs)
        schedule = schedule_from_order(conflicts, demands, 10, order)
        schedule.validate(conflicts)


def test_demanded_link_missing_from_the_relation_is_rejected():
    conflicts = conflict_graph(chain_topology(4), links=[(0, 1), (1, 2)])
    route = [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ConfigurationError, match=r"\(2, 3\)"):
        schedule_from_order(conflicts, {link: 1 for link in route}, 10,
                            TransmissionOrder.from_ranking(route))
