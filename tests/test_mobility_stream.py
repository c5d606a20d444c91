"""Unit tests for repro.mobility.stream: geometry -> topology deltas."""

import math

import pytest

from repro.core.engine import SolverEngine
from repro.errors import ConfigurationError
from repro.mobility.models import ConstantVelocityModel, RandomWaypointModel
from repro.mobility.run import run_mobility
from repro.mobility.stream import (
    RadioRangeModel,
    TopologyDelta,
    TopologyStream,
    gateway_selection,
)
from repro.mobility.trace import MobilityTrace
from repro.net.flows import Flow
from repro.net.topology import random_disk_topology


def static_model(positions, horizon_s=5.0):
    return ConstantVelocityModel(positions,
                                 {n: (0.0, 0.0) for n in positions},
                                 horizon_s)


# -- radio model -----------------------------------------------------------


def test_radio_hysteresis_band_holds_previous_state():
    radio = RadioRangeModel(100.0, hysteresis=0.1)
    assert radio.initial(100.0) and not radio.initial(100.1)
    assert radio.next_state(True, 109.0)       # up survives to 110
    assert not radio.next_state(True, 111.0)
    assert not radio.next_state(False, 95.0)   # down forms only below 90
    assert radio.next_state(False, 89.0)


def test_radio_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        RadioRangeModel(0.0)
    with pytest.raises(ConfigurationError):
        RadioRangeModel(100.0, hysteresis=1.0)
    with pytest.raises(ConfigurationError):
        RadioRangeModel(100.0, hysteresis=-0.1)


@pytest.mark.parametrize("range_m", [math.nan, math.inf])
def test_radio_rejects_a_non_finite_range(range_m):
    with pytest.raises(ConfigurationError, match="range_m"):
        RadioRangeModel(range_m)


# -- deltas ----------------------------------------------------------------


def test_delta_normalises_links_and_validates():
    delta = TopologyDelta(1.0, "link_up", link=(5, 2))
    assert delta.link == (2, 5)
    with pytest.raises(ConfigurationError):
        TopologyDelta(1.0, "node_reboot", node=1)
    with pytest.raises(ConfigurationError):
        TopologyDelta(-1.0, "node_join", node=1)
    with pytest.raises(ConfigurationError):
        TopologyDelta(1.0, "node_join", link=(0, 1))
    with pytest.raises(ConfigurationError):
        TopologyDelta(1.0, "link_down", node=3)
    with pytest.raises(ConfigurationError):
        TopologyDelta(1.0, "link_up", link=(2, 2))


@pytest.mark.parametrize("bad,field", [
    (dict(at_s=math.nan, kind="node_join", node=1), "at_s"),
    (dict(at_s=math.inf, kind="node_join", node=1), "at_s"),
    (dict(at_s=-math.inf, kind="link_up", link=(0, 1)), "at_s"),
    (dict(at_s=1.0, kind="link_up", link=(0, 1, 2)), "link"),
    (dict(at_s=1.0, kind="link_down", link=(0,)), "link"),
    (dict(at_s=1.0, kind="link_down", link=7), "link"),
], ids=["at-nan", "at-inf", "at-minus-inf", "link-triple", "link-single",
        "link-int"])
def test_delta_rejects_non_finite_times_and_malformed_links(bad, field):
    """Rejected with a ConfigurationError, never a bare ValueError."""
    with pytest.raises(ConfigurationError, match=field):
        TopologyDelta(**bad)


# -- streams ---------------------------------------------------------------


def test_static_stream_reproduces_the_disk_graph():
    topology = random_disk_topology(10, radio_range=150.0, area=300.0,
                                    seed=9)
    model = static_model({n: topology.position(n) for n in topology.nodes})
    stream = TopologyStream(model, 150.0, dt=1.0)
    expected = frozenset(tuple(sorted(l)) for l in topology.links)
    for _, nodes, edges in stream.snapshots():
        assert nodes == frozenset(topology.nodes)
        assert edges == expected
    assert stream.deltas() == []


def test_hysteresis_debounces_a_boundary_oscillator():
    # node 1 oscillates across the nominal range every second
    samples = [(float(t), 0, 0.0, 0.0) for t in range(7)]
    samples += [(float(t), 1, 95.0 if t % 2 == 0 else 105.0, 0.0)
                for t in range(7)]
    trace = MobilityTrace(samples)
    flappy = TopologyStream(trace, RadioRangeModel(100.0, hysteresis=0.0),
                            dt=1.0)
    assert len(flappy.deltas()) == 6   # breaks and reforms every step
    calm = TopologyStream(trace, RadioRangeModel(100.0, hysteresis=0.1),
                          dt=1.0)
    assert calm.deltas() == []


def test_leaving_node_emits_its_link_downs_too():
    samples = [(float(t), 0, 0.0, 0.0) for t in range(7)]
    samples += [(float(t), 1, 80.0, 0.0) for t in range(7)]
    samples += [(float(t), 2, 40.0, 30.0) for t in range(2, 5)]
    stream = TopologyStream(MobilityTrace(samples), 100.0, dt=1.0)
    deltas = stream.deltas()
    join = [d for d in deltas if d.kind == "node_join"]
    leave = [d for d in deltas if d.kind == "node_leave"]
    assert [(d.at_s, d.node) for d in join] == [(2.0, 2)]
    assert [(d.at_s, d.node) for d in leave] == [(5.0, 2)]
    # the full edge-set diff rides along at the same timestamps
    assert {(d.at_s, d.link) for d in deltas if d.kind == "link_up"} == \
        {(2.0, (0, 2)), (2.0, (1, 2))}
    assert {(d.at_s, d.link) for d in deltas if d.kind == "link_down"} == \
        {(5.0, (0, 2)), (5.0, (1, 2))}
    assert deltas == sorted(deltas, key=TopologyDelta.sort_key)


def test_sample_times_and_validation():
    model = static_model({0: (0.0, 0.0), 1: (50.0, 0.0)}, horizon_s=5.0)
    assert TopologyStream(model, 100.0, dt=2.0).sample_times() == \
        [0.0, 2.0, 4.0]
    assert TopologyStream(model, 100.0, dt=1.0,
                          horizon_s=2.0).sample_times() == [0.0, 1.0, 2.0]
    with pytest.raises(ConfigurationError):
        TopologyStream(model, 100.0, dt=0.0)
    with pytest.raises(ConfigurationError):
        TopologyStream(model, 100.0, dt=1.0, horizon_s=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"dt": math.nan}, {"dt": math.inf},
    {"horizon_s": math.nan}, {"horizon_s": math.inf},
], ids=["dt-nan", "dt-inf", "horizon-nan", "horizon-inf"])
def test_stream_rejects_non_finite_sampling(kwargs):
    """Rejected at construction, before any sample grid is built."""
    model = static_model({0: (0.0, 0.0), 1: (50.0, 0.0)}, horizon_s=5.0)
    with pytest.raises(ConfigurationError, match="finite"):
        TopologyStream(model, 100.0, **{"dt": 1.0, **kwargs})


def test_union_topology_drops_nodes_outside_gateway_component():
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (1000.0, 1000.0),
                 3: (1080.0, 1000.0)}
    stream = TopologyStream(static_model(positions), 100.0, dt=1.0)
    topology, dropped = stream.union_topology(gateway=0)
    assert sorted(topology.graph.nodes) == [0, 1]
    assert dropped == frozenset({2, 3})
    assert topology.position(1) == (80.0, 0.0)
    with pytest.raises(ConfigurationError):
        stream.union_topology(gateway=99)


def test_isolated_gateway_is_a_configuration_error():
    positions = {0: (0.0, 0.0), 1: (1000.0, 0.0)}
    stream = TopologyStream(static_model(positions), 100.0, dt=1.0)
    with pytest.raises(ConfigurationError):
        stream.union_topology(gateway=0)


def test_fault_plan_lowers_the_t0_gap_into_dead_sets():
    # node 2 only joins at t=2: relative to the union base it is dead
    # at t=0, and its later arrival replays as node_up/link_up faults
    samples = [(float(t), 0, 0.0, 0.0) for t in range(7)]
    samples += [(float(t), 1, 80.0, 0.0) for t in range(7)]
    samples += [(float(t), 2, 40.0, 30.0) for t in range(2, 7)]
    stream = TopologyStream(MobilityTrace(samples), 100.0, dt=1.0)
    world = stream.fault_plan(gateway=0)
    assert sorted(world.topology.graph.nodes) == [0, 1, 2]
    assert world.dead_nodes == frozenset({2})
    assert world.dead_edges == frozenset({(0, 2), (1, 2)})
    kinds = [(e.at_s, e.kind) for e in world.plan]
    assert (2.0, "node_up") in kinds
    assert kinds.count((2.0, "link_up")) == 2
    assert all(e.kind in {"node_up", "node_down", "link_up", "link_down"}
               for e in world.plan)


def test_fault_plan_requires_the_gateway_in_every_snapshot():
    samples = [(float(t), 0, 0.0, 0.0) for t in range(2, 5)]
    samples += [(float(t), 1, 50.0, 0.0) for t in range(0, 5)]
    samples += [(float(t), 2, 90.0, 0.0) for t in range(0, 5)]
    stream = TopologyStream(MobilityTrace(samples), 100.0, dt=1.0)
    with pytest.raises(ConfigurationError):
        stream.fault_plan(gateway=0)


def test_fault_plan_is_computed_once_per_gateway_and_shared():
    samples = [(float(t), 0, 0.0, 0.0) for t in range(7)]
    samples += [(float(t), 1, 80.0, 0.0) for t in range(7)]
    samples += [(float(t), 2, 40.0, 30.0) for t in range(2, 7)]
    stream = TopologyStream(MobilityTrace(samples), 100.0, dt=1.0)
    world = stream.fault_plan(0)
    assert stream.fault_plan(0) is world
    assert stream.fault_plan(gateway=0) is world
    # another gateway gets its own world, cached in its turn
    other = stream.fault_plan(1)
    assert other is not world
    assert stream.fault_plan(1) is other
    fresh = TopologyStream(MobilityTrace(samples), 100.0,
                           dt=1.0).fault_plan(1)
    assert other.topology.rows == fresh.topology.rows
    assert (other.dead_nodes, other.dead_edges, other.dropped_nodes) == (
        fresh.dead_nodes, fresh.dead_edges, fresh.dropped_nodes)
    assert other.plan.events == fresh.plan.events
    assert stream.fault_plan(0) is world


@pytest.mark.parametrize("gateway", [0, 99])
def test_missing_gateway_raises_on_every_call(gateway):
    # gateway 0 is absent before t=2; gateway 99 never appears
    samples = [(float(t), 0, 0.0, 0.0) for t in range(2, 5)]
    samples += [(float(t), 1, 50.0, 0.0) for t in range(0, 5)]
    samples += [(float(t), 2, 90.0, 0.0) for t in range(0, 5)]
    stream = TopologyStream(MobilityTrace(samples), 100.0, dt=1.0)
    for _ in range(3):
        with pytest.raises(ConfigurationError, match=f"gateway {gateway}"):
            stream.fault_plan(gateway)
    # a valid gateway on the same stream still lowers
    assert stream.fault_plan(1).topology.nodes == [0, 1, 2]


def test_runs_on_a_shared_world_equal_a_run_on_a_fresh_stream():
    """A run reads the cached world and leaves it as it found it."""
    def stream():
        return TopologyStream(RandomWaypointModel(8, 300.0, 15.0, 8.0,
                                                  seed=4), 140.0, dt=1.0)

    def run(on):
        return run_mobility(on, [Flow("f0", src=5, dst=0, rate_bps=64_000,
                                      delay_budget_s=0.5)],
                            engine=SolverEngine())

    shared = stream()
    world = shared.fault_plan(0)
    first, second = run(shared), run(shared)
    assert shared.fault_plan(0) is world
    assert first.local + first.resolve > 0
    assert first == second == run(stream())


# -- gateway selection -----------------------------------------------------


def test_gateway_selection_picks_nearest_by_hops():
    edges = [(0, 1), (1, 2), (2, 3)]
    selection = gateway_selection([0, 1, 2, 3], edges, gateways=[0, 3])
    assert selection == {0: 0, 1: 0, 2: 3, 3: 3}


def test_gateway_selection_breaks_ties_by_smallest_id():
    selection = gateway_selection([0, 1, 2], [(0, 1), (1, 2)],
                                  gateways=[0, 2])
    assert selection[1] == 0


def test_gateway_selection_unreachable_is_none():
    selection = gateway_selection([0, 1, 5], [(0, 1)], gateways=[0, 9])
    assert selection == {0: 0, 1: 0, 5: None}
