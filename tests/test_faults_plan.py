"""Fault events and plans: validation, ordering, seeded stochastic churn."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultPlan


class TestFaultEvent:
    def test_node_event(self):
        event = FaultEvent(1.0, "node_down", node=3)
        assert event.is_topology_event

    def test_link_normalised_to_sorted_pair(self):
        event = FaultEvent(1.0, "link_down", link=(4, 2))
        assert event.link == (2, 4)

    def test_link_loss_carries_rate(self):
        event = FaultEvent(0.5, "link_loss", link=(0, 1), value=0.3)
        assert not event.is_topology_event

    def test_clock_glitch_carries_jump(self):
        event = FaultEvent(2.0, "clock_glitch", node=1, value=-1e-3)
        assert not event.is_topology_event

    @pytest.mark.parametrize("bad", [
        dict(at_s=-1.0, kind="node_down", node=0),
        dict(at_s=0.0, kind="meteor_strike", node=0),
        dict(at_s=0.0, kind="node_down"),                      # missing node
        dict(at_s=0.0, kind="node_down", node=0, link=(0, 1)),
        dict(at_s=0.0, kind="link_down"),                      # missing link
        dict(at_s=0.0, kind="link_down", link=(0, 1), node=2),
        dict(at_s=0.0, kind="link_down", link=(1, 1)),
        dict(at_s=0.0, kind="link_loss", link=(0, 1)),         # missing rate
        dict(at_s=0.0, kind="link_loss", link=(0, 1), value=1.0),
        dict(at_s=0.0, kind="clock_glitch", node=0),           # missing jump
        dict(at_s=0.0, kind="node_down", node=0, value=1.0),
    ])
    def test_invalid_events_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            FaultEvent(**bad)

    @pytest.mark.parametrize("bad,field", [
        (dict(at_s=math.nan, kind="node_down", node=0), "at_s"),
        (dict(at_s=math.inf, kind="node_down", node=0), "at_s"),
        (dict(at_s=-math.inf, kind="link_up", link=(0, 1)), "at_s"),
        (dict(at_s=1.0, kind="clock_glitch", node=1, value=math.nan),
         "value"),
        (dict(at_s=1.0, kind="clock_glitch", node=1, value=math.inf),
         "value"),
        (dict(at_s=1.0, kind="clock_glitch", node=1, value=-math.inf),
         "value"),
        (dict(at_s=1.0, kind="link_down", link=(0, 1, 2)), "link"),
        (dict(at_s=1.0, kind="link_down", link=(0,)), "link"),
        (dict(at_s=1.0, kind="link_down", link=7), "link"),
    ], ids=["at-nan", "at-inf", "at-minus-inf", "glitch-nan", "glitch-inf",
            "glitch-minus-inf", "link-triple", "link-single", "link-int"])
    def test_non_finite_or_malformed_fields_name_the_field(self, bad, field):
        """Rejected with a ConfigurationError, never a bare ValueError."""
        with pytest.raises(ConfigurationError, match=field):
            FaultEvent(**bad)

    def test_nan_time_cannot_unorder_a_plan(self):
        with pytest.raises(ConfigurationError, match="at_s"):
            FaultPlan([FaultEvent(2.0, "node_down", node=0),
                       FaultEvent(math.nan, "node_down", node=1),
                       FaultEvent(1.0, "node_down", node=2)])


class TestScriptedPlan:
    def test_sorted_by_time(self):
        plan = FaultPlan.scripted([
            FaultEvent(2.0, "node_up", node=1),
            FaultEvent(1.0, "node_down", node=1),
        ])
        assert [e.at_s for e in plan] == [1.0, 2.0]
        assert plan.horizon_s() == 2.0

    def test_topology_validation(self, chain5):
        with pytest.raises(ConfigurationError, match="node 99"):
            FaultPlan.scripted([FaultEvent(0.0, "node_down", node=99)],
                               chain5)
        with pytest.raises(ConfigurationError, match="link"):
            FaultPlan.scripted([FaultEvent(0.0, "link_down", link=(0, 4))],
                               chain5)

    def test_topology_events_filter(self):
        plan = FaultPlan.scripted([
            FaultEvent(1.0, "link_loss", link=(0, 1), value=0.5),
            FaultEvent(2.0, "link_down", link=(0, 1)),
        ])
        assert [e.kind for e in plan.topology_events()] == ["link_down"]

    def test_empty_plan(self):
        plan = FaultPlan([])
        assert len(plan) == 0
        assert plan.horizon_s() == 0.0


class TestStochasticPlan:
    def test_same_seed_same_plan(self, grid33):
        plans = [FaultPlan.stochastic(
            grid33, np.random.default_rng(7), horizon_s=60.0,
            node_crash_rate=0.05, link_down_rate=0.1,
            link_loss_rate=0.05, clock_glitch_rate=0.02,
            protect_nodes=[0]) for _ in range(2)]
        assert plans[0].events == plans[1].events

    def test_rates_scale_event_count(self, grid33):
        def count(rate):
            return len(FaultPlan.stochastic(
                grid33, np.random.default_rng(3), horizon_s=500.0,
                link_down_rate=rate, mean_downtime_s=1e-6))
        assert count(0.2) > count(0.02)

    def test_protected_nodes_never_crash(self, grid33):
        plan = FaultPlan.stochastic(
            grid33, np.random.default_rng(5), horizon_s=200.0,
            node_crash_rate=0.2, protect_nodes=[0, 4])
        victims = {e.node for e in plan if e.kind.startswith("node")}
        assert victims and not victims & {0, 4}

    def test_every_down_within_horizon_recovery_paired(self, grid33):
        plan = FaultPlan.stochastic(
            grid33, np.random.default_rng(5), horizon_s=300.0,
            link_down_rate=0.05, mean_downtime_s=1.0)
        downs = sum(1 for e in plan if e.kind == "link_down")
        ups = sum(1 for e in plan if e.kind == "link_up")
        assert downs > 0
        # short downtimes: nearly every cut recovers inside the horizon
        assert ups >= downs - 2

    def test_all_victims_exist(self, grid33):
        plan = FaultPlan.stochastic(
            grid33, np.random.default_rng(9), horizon_s=100.0,
            node_crash_rate=0.05, link_down_rate=0.05,
            link_loss_rate=0.05, clock_glitch_rate=0.05)
        for event in plan:
            if event.node is not None:
                assert event.node in grid33.graph
            if event.link is not None:
                assert grid33.has_link(event.link)

    def test_zero_rates_empty_plan(self, grid33):
        plan = FaultPlan.stochastic(grid33, np.random.default_rng(1),
                                    horizon_s=100.0)
        assert len(plan) == 0

    def test_invalid_parameters(self, grid33):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            FaultPlan.stochastic(grid33, rng, horizon_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.stochastic(grid33, rng, horizon_s=1.0,
                                 mean_downtime_s=0.0)
        with pytest.raises(ConfigurationError, match="protected"):
            FaultPlan.stochastic(grid33, rng, horizon_s=1.0,
                                 node_crash_rate=1.0,
                                 protect_nodes=grid33.nodes)
