"""Flow model and slot-demand arithmetic."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.flows import Flow, FlowSet


def make_flow(**overrides):
    defaults = dict(name="f", src=0, dst=3, rate_bps=64_000,
                    delay_budget_s=0.1)
    defaults.update(overrides)
    return Flow(**defaults)


class TestFlow:
    def test_basic_fields(self):
        flow = make_flow()
        assert flow.name == "f"
        assert not flow.is_routed
        assert flow.hops == 0

    def test_src_equals_dst_rejected(self):
        with pytest.raises(ConfigurationError):
            make_flow(src=2, dst=2)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            make_flow(rate_bps=0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            make_flow(delay_budget_s=0.0)

    @pytest.mark.parametrize("field", ["rate_bps", "delay_budget_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # NaN slips through a bare "<= 0" check and used to surface deep
        # in link_demands as a ValueError or OverflowError
        with pytest.raises(ConfigurationError, match="finite"):
            make_flow(**{field: value})

    def test_best_effort_flow_has_no_budget(self):
        flow = make_flow(delay_budget_s=None)
        assert flow.delay_budget_s is None

    def test_with_route(self):
        flow = make_flow().with_route([(0, 1), (1, 2), (2, 3)])
        assert flow.is_routed
        assert flow.hops == 3

    def test_route_endpoint_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="endpoints"):
            make_flow().with_route([(1, 2), (2, 3)])

    def test_route_discontinuity_rejected(self):
        with pytest.raises(ConfigurationError, match="contiguous"):
            make_flow().with_route([(0, 1), (2, 3)])

    def test_slots_per_frame_ceils(self):
        flow = make_flow(rate_bps=64_000)
        # 64 kb/s over a 10 ms frame = 640 bits; one 1000-bit slot suffices
        assert flow.slots_per_frame(0.010, 1000) == 1
        # 640 bits into 500-bit slots needs 2
        assert flow.slots_per_frame(0.010, 500) == 2

    def test_slots_per_frame_minimum_one(self):
        flow = make_flow(rate_bps=1_000)
        assert flow.slots_per_frame(0.010, 100_000) == 1

    def test_slots_per_frame_validates_inputs(self):
        flow = make_flow()
        with pytest.raises(ConfigurationError):
            flow.slots_per_frame(0.0, 1000)
        with pytest.raises(ConfigurationError):
            flow.slots_per_frame(0.01, 0)


class TestFlowSet:
    def test_add_and_iterate_in_order(self):
        flows = FlowSet([make_flow(name="a"), make_flow(name="b")])
        assert flows.names() == ["a", "b"]
        assert len(flows) == 2

    def test_duplicate_name_rejected(self):
        flows = FlowSet([make_flow(name="a")])
        with pytest.raises(ConfigurationError, match="duplicate"):
            flows.add(make_flow(name="a"))

    def test_get_and_contains(self):
        flows = FlowSet([make_flow(name="a")])
        assert "a" in flows
        assert flows.get("a").name == "a"
        with pytest.raises(ConfigurationError):
            flows.get("zzz")

    def test_remove(self):
        flows = FlowSet([make_flow(name="a")])
        removed = flows.remove("a")
        assert removed.name == "a"
        assert "a" not in flows
        with pytest.raises(ConfigurationError):
            flows.remove("a")

    def test_replace(self):
        flows = FlowSet([make_flow(name="a")])
        flows.replace(make_flow(name="a", rate_bps=128_000))
        assert flows.get("a").rate_bps == 128_000
        with pytest.raises(ConfigurationError):
            flows.replace(make_flow(name="new"))

    def test_guaranteed_vs_best_effort_split(self):
        flows = FlowSet([
            make_flow(name="g"),
            make_flow(name="be", delay_budget_s=None),
        ])
        assert [f.name for f in flows.guaranteed()] == ["g"]
        assert [f.name for f in flows.best_effort()] == ["be"]

    def test_link_demands_aggregates_overlapping_routes(self):
        f1 = make_flow(name="a", rate_bps=64_000).with_route(
            [(0, 1), (1, 2), (2, 3)])
        f2 = make_flow(name="b", src=1, rate_bps=64_000).with_route(
            [(1, 2), (2, 3)])
        demands = FlowSet([f1, f2]).link_demands(0.010, 1000)
        assert demands[(0, 1)] == 1
        assert demands[(1, 2)] == 2
        assert demands[(2, 3)] == 2

    def test_link_demands_requires_routes(self):
        flows = FlowSet([make_flow()])
        with pytest.raises(ConfigurationError, match="unrouted"):
            flows.link_demands(0.010, 1000)

    def test_total_rate(self):
        flows = FlowSet([make_flow(name="a", rate_bps=10),
                         make_flow(name="b", rate_bps=20)])
        assert flows.total_rate_bps() == pytest.approx(30)
