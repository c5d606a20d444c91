"""Unit tests for repro.mobility.run: the stream -> repair driver."""

import math
import sys

import networkx as nx
import pytest

from repro import obs
from repro.core.engine import ConflictIndex, SolverEngine
from repro.core.repair import RepairEngine
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.mobility.models import ConstantVelocityModel, RandomWaypointModel
from repro.mobility.run import _flood_margin, run_mobility
from repro.mobility.stream import RadioRangeModel, TopologyStream
from repro.net.flows import Flow
from repro.net.topology import MeshTopology
from repro.phy.models import ProtocolModel


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


@pytest.mark.parametrize("interval", [math.nan, math.inf])
def test_run_mobility_rejects_a_non_finite_packet_interval(interval):
    """``inf`` used to report zero offered packets; ``nan`` crashed late."""
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0)}
    model = ConstantVelocityModel(positions,
                                  {n: (0.0, 0.0) for n in positions}, 5.0)
    stream = TopologyStream(model, 100.0, dt=1.0)
    with pytest.raises(ConfigurationError, match="packet_interval_s"):
        run_mobility(stream, flows((1, 0)), packet_interval_s=interval)


def reroute_stream():
    """A flow 2 -> 0 whose relay (node 1) drives south out of range.

    The route 2-1-0 breaks at t=8 and the flow reroutes over node 3,
    so that batch runs a local repair on a changed route.
    """
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0),
                 3: (80.0, 50.0)}
    velocities = {n: (0.0, 0.0) for n in positions}
    velocities[1] = (0.0, -10.0)
    model = ConstantVelocityModel(positions, velocities, 10.0)
    return TopologyStream(model, 100.0, dt=1.0)


def test_run_mobility_s8_checks_hit_the_repair_index_without_graphs(
        monkeypatch):
    # the per-batch S8 check indexes only the scheduled links: after a
    # commit those are the demand links the repair just solved on, so
    # the request is a cache hit, and violations read its CSR rows
    materialised, requested, checks = [], [], []
    real_graph = ConflictIndex.graph

    def graph_spy(self):
        materialised.append(self.links)
        return real_graph.fget(self)

    monkeypatch.setattr(ConflictIndex, "graph", property(graph_spy))
    real_index = SolverEngine.conflict_index

    def index_spy(self, topology, *args, **kwargs):
        requested.append(kwargs.get("links"))
        return real_index(self, topology, *args, **kwargs)

    real_violations = Schedule.violations

    def violations_spy(self, conflicts):
        # run_mobility's S8 check and the repair's unchanged-routes check;
        # solvers validate their own output on the index they solved on
        caller = sys._getframe(1).f_globals["__name__"]
        before = len(materialised)
        bad = real_violations(self, conflicts)
        if caller in ("repro.mobility.run", "repro.core.repair"):
            checks.append((caller, isinstance(conflicts, ConflictIndex),
                           len(materialised) - before))
        return bad

    monkeypatch.setattr(SolverEngine, "conflict_index", index_spy)
    monkeypatch.setattr(Schedule, "violations", violations_spy)
    for stream, specs in ((drive_by_stream, ((3, 0), (4, 0))),
                          (reroute_stream, ((2, 0),))):
        for spied in (materialised, requested, checks):
            spied.clear()
        result = run_mobility(stream(), flows(*specs))
        assert result.conflict_ok and len(result.steps) > 0
        assert requested and None not in requested
        assert result.engine_stats["index_hits"] >= len(result.steps)
        s8 = [check for check in checks
              if check[0] == "repro.mobility.run"]
        assert len(s8) == len(result.steps)
        assert all(is_index and not built for _, is_index, built in checks)
        assert not materialised, "no solver layer reads a networkx graph"


def test_run_mobility_reports_a_committed_s8_violation(monkeypatch):
    real = RepairEngine._local_repair
    broken = []

    def overlapping(self, flows, demands, conflicts):
        schedule = real(self, flows, demands, conflicts)
        if schedule is None:
            return None
        a, b = next((a, b) for a, b in conflicts.pairs()
                    if a in demands and b in demands)
        blocks = dict(schedule.items())
        blocks[b] = blocks[a]
        broken.append(self.version + 1)
        return Schedule(schedule.frame_slots, blocks)

    monkeypatch.setattr(RepairEngine, "_local_repair", overlapping)
    result = run_mobility(reroute_stream(), flows((2, 0)))
    assert broken, "the reroute must run a local repair"
    hit = [step for step in result.steps if step.version in broken]
    assert hit and not any(step.conflict_ok for step in hit)
    assert not result.conflict_ok


def test_run_mobility_with_every_flow_parked_checks_an_empty_schedule(
        monkeypatch):
    requested = []
    real_index = SolverEngine.conflict_index

    def index_spy(self, topology, *args, **kwargs):
        requested.append(kwargs.get("links"))
        return real_index(self, topology, *args, **kwargs)

    monkeypatch.setattr(SolverEngine, "conflict_index", index_spy)
    result = run_mobility(leaf_loss_stream(), flows((2, 0)))
    assert result.parked_final == ("f0",)
    assert [] in requested
    parked = [step for step in result.steps if step.parked]
    assert parked and all(step.conflict_ok for step in result.steps)


@pytest.mark.parametrize("hops", [3, 4])
def test_run_mobility_keeps_the_degenerate_hops_guard(hops):
    # every drive-by snapshot has diameter <= 2, so hops > 2 reaches the
    # whole mesh from every demanded link: the repair's own index
    # request rejects it before any scheduled-link check runs
    with pytest.raises(ConfigurationError, match="reaches the whole"):
        run_mobility(drive_by_stream(), flows((3, 0), (4, 0)),
                     interference=ProtocolModel(hops))


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
