"""Unit tests for repro.mobility.run: the stream -> repair driver."""

import math

import networkx as nx
import pytest

import repro.core.conflict
import repro.core.engine
from repro import obs
from repro.core.engine import SolverEngine
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.mobility.models import ConstantVelocityModel, RandomWaypointModel
from repro.mobility.run import _flood_margin, run_mobility
from repro.mobility.stream import RadioRangeModel, TopologyStream
from repro.net.flows import Flow
from repro.net.topology import MeshTopology


@pytest.fixture
def registry():
    reg = obs.MetricsRegistry()
    previous = obs.set_registry(reg)
    yield reg
    obs.set_registry(previous)


def drive_by_stream():
    """A static square mesh plus one node driving into it at 10 m/s.

    Nodes 0-3 sit on an 80 m square (side links only; the 113 m
    diagonals are out of the 100 m range).  Node 4 approaches from the
    east and forms links to nodes 0 and 2 around t=8 -- churn that
    never disconnects anything, so repair always succeeds.
    """
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (0.0, 80.0),
                 3: (80.0, 80.0), 4: (160.0, 40.0)}
    velocities = {n: (0.0, 0.0) for n in positions}
    velocities[4] = (-10.0, 0.0)
    model = ConstantVelocityModel(positions, velocities, 10.0)
    return TopologyStream(model, 100.0, dt=1.0)


def leaf_loss_stream():
    """A chain whose far leaf drives out of range and stays gone."""
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)}
    velocities = {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (10.0, 0.0)}
    model = ConstantVelocityModel(positions, velocities, 10.0)
    return TopologyStream(model, 100.0, dt=1.0)


def flows(*specs):
    return [Flow(f"f{i}", src=s, dst=d, rate_bps=64_000,
                 delay_budget_s=0.5) for i, (s, d) in enumerate(specs)]


def test_run_mobility_keeps_validity_under_churn(registry):
    result = run_mobility(drive_by_stream(), flows((3, 0), (4, 0)))
    assert result.conflict_ok and result.guarantee_ok
    assert len(result.steps) > 0, "the drive-by must generate churn"
    assert result.local + result.resolve + result.noop == len(result.steps)
    assert 0.0 <= result.goodput_fraction <= 1.0
    assert result.engine_stats["index_builds"] > 0
    assert registry.snapshot()["counters"]["mobility.deltas_applied"] > 0


def test_run_mobility_is_deterministic():
    a = run_mobility(drive_by_stream(), flows((3, 0), (4, 0)))
    b = run_mobility(drive_by_stream(), flows((3, 0), (4, 0)))
    assert a.steps == b.steps
    assert a.lost_packets == b.lost_packets
    assert a.reselections == b.reselections


def test_run_mobility_delta_and_rebuild_arms_agree():
    delta = run_mobility(drive_by_stream(), flows((3, 0), (4, 0)),
                         engine=SolverEngine(delta_updates=True))
    rebuild = run_mobility(drive_by_stream(), flows((3, 0), (4, 0)),
                           engine=SolverEngine(delta_updates=False))
    assert delta.steps == rebuild.steps
    assert delta.lost_packets == rebuild.lost_packets
    assert (delta.engine_stats["index_builds"]
            <= rebuild.engine_stats["index_builds"])


def test_run_mobility_counts_gateway_reselection():
    # with gateways {0, 3}, node 4 starts nearer to 3 and flips to 0
    # once its direct link to the anchor forms
    result = run_mobility(drive_by_stream(), flows((3, 0)),
                          gateways=(0, 3))
    assert result.reselections > 0


def test_run_mobility_static_stream_is_lossless():
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (0.0, 80.0)}
    model = ConstantVelocityModel(positions,
                                  {n: (0.0, 0.0) for n in positions}, 10.0)
    stream = TopologyStream(model, 100.0, dt=1.0)
    result = run_mobility(stream, flows((1, 0)))
    assert result.steps == ()
    assert result.goodput_fraction == 1.0
    assert result.parked_final == ()


def test_run_mobility_parks_flows_that_lose_their_last_path():
    result = run_mobility(leaf_loss_stream(), flows((2, 0)))
    assert result.conflict_ok and result.guarantee_ok
    assert result.parked_events > 0
    assert result.parked_final == ("f0",)
    assert result.goodput_fraction < 1.0
    assert result.lost_packets > 0


def test_run_mobility_rejects_unreachable_endpoints_and_bad_cadence():
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (1000.0, 1000.0),
                 3: (1080.0, 1000.0)}
    model = ConstantVelocityModel(positions,
                                  {n: (0.0, 0.0) for n in positions}, 5.0)
    stream = TopologyStream(model, 100.0, dt=1.0)
    with pytest.raises(ConfigurationError):
        run_mobility(stream, flows((2, 0)))
    with pytest.raises(ConfigurationError):
        run_mobility(stream, flows((1, 0)), packet_interval_s=0.0)


def test_run_mobility_never_materialises_the_alive_set_graph(monkeypatch):
    # the per-batch S8 check runs on the whole-mesh index's CSR rows;
    # only the small demand-link indexes repair solves on become graphs
    materialised, whole_mesh = [], []
    for module in (repro.core.engine, repro.core.conflict):
        real = module._graph_from_edges

        def spy(link_list, edges, real=real):
            link_list = tuple(link_list)
            materialised.append(link_list)
            return real(link_list, edges)

        monkeypatch.setattr(module, "_graph_from_edges", spy)
    real_index = SolverEngine.conflict_index

    def index_spy(self, topology, *args, **kwargs):
        index = real_index(self, topology, *args, **kwargs)
        if kwargs.get("links") is None and len(args) < 2:
            whole_mesh.append(index.links)
        return index

    monkeypatch.setattr(SolverEngine, "conflict_index", index_spy)
    result = run_mobility(drive_by_stream(), flows((3, 0), (4, 0)))
    assert result.conflict_ok and len(result.steps) > 0
    assert len(whole_mesh) >= len(result.steps)
    assert materialised, "repair still solves on demand-link graphs"
    assert not set(materialised) & set(whole_mesh)


@pytest.mark.parametrize("speed", [0.0, 10.0, 30.0])
def test_flood_margin_matches_per_node_hop_distances_on_e20_meshes(speed):
    frame = default_frame_config()
    stream = TopologyStream(
        RandomWaypointModel(36, 900.0, speed, 30.0, seed=61),
        RadioRangeModel(220.0, hysteresis=0.15), dt=0.25)
    checked = 0
    for _, nodes, edges in stream.snapshots()[::8]:
        graph = nx.Graph(edges)
        graph.add_nodes_from(nodes)
        alive = MeshTopology(graph.subgraph(
            nx.node_connected_component(graph, 0)).copy())
        depth = max((alive.hop_distance(0, n) for n in alive.nodes
                     if n != 0), default=1)
        assert _flood_margin(alive, 0, frame) == depth * math.ceil(
            alive.num_nodes() / frame.control_slots) + 1
        checked += alive.num_nodes() > 1
    assert checked > 0
    lone = nx.Graph()
    lone.add_node(0)
    assert _flood_margin(MeshTopology(lone), 0, frame) == 1 + 1
