"""Property-based tests for the mobility repair path (S36).

At the system level, a repair engine driven by a random-waypoint
mobility stream keeps its schedule S8-valid and every carried flow
inside its delay budget at every churn batch.

Two oracles pin the per-batch work of :func:`run_mobility`: an S8 check
over an index of the scheduled links reports exactly the violations of
the whole-mesh index, and the row-built
:func:`~repro.net.topology.surviving_topology` has the rows, edges and
links of the copy, delete and copy-the-component construction kept here
as the oracle, and a ``networkx`` export equal to it.  The stream's
rows-built union base is checked the same way against
:func:`~repro.net.topology.from_edges` over the kept union edges
(``tests/stream_oracle.py``).
"""

import random

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import SolverEngine
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError
from repro.mobility.models import RandomWaypointModel
from repro.mobility.run import run_mobility
from repro.mobility.stream import TopologyStream
from repro.net.flows import Flow
from repro.net.topology import (
    MeshTopology,
    random_disk_topology,
    surviving_topology,
)
from repro.phy.models import ProtocolModel, SinrModel
from tests.stream_oracle import assert_union_base_matches_from_edges


@st.composite
def mobility_runs(draw):
    """A small random-waypoint stream plus one gateway flow."""
    seed = draw(st.integers(min_value=0, max_value=300))
    num_nodes = draw(st.integers(min_value=5, max_value=8))
    speed = draw(st.sampled_from([0.0, 5.0, 15.0, 25.0]))
    return seed, num_nodes, speed


@given(mobility_runs())
@settings(max_examples=10, deadline=None)
def test_repair_under_stream_stays_valid(instance):
    seed, num_nodes, speed = instance
    model = RandomWaypointModel(num_nodes, 300.0, speed, horizon_s=8.0,
                                seed=seed)
    stream = TopologyStream(model, 140.0, dt=2.0)
    try:
        world = stream.fault_plan(gateway=0)
    except ConfigurationError:
        assume(False)  # degenerate draw: gateway isolated or absent
    src = max((n for n in world.topology.graph.nodes if n != 0),
              key=lambda n: (world.topology.hop_distance(0, n), n))
    flows = [Flow("f0", src=src, dst=0, rate_bps=64_000,
                  delay_budget_s=0.5)]
    result = run_mobility(stream, flows, engine=SolverEngine())
    # S8 validity and delay guarantees hold at every churn batch
    assert result.conflict_ok and result.guarantee_ok
    assert result.local + result.resolve + result.noop == len(result.steps)


@given(seed=st.integers(min_value=0, max_value=500),
       num_nodes=st.integers(min_value=2, max_value=12),
       speed=st.sampled_from([0.0, 5.0, 20.0]),
       range_m=st.sampled_from([90.0, 140.0, 200.0]))
@settings(max_examples=40, deadline=None)
def test_rows_built_union_base_equals_the_from_edges_construction(
        seed, num_nodes, speed, range_m):
    """The union base is built from rows; ``from_edges`` is the oracle."""
    model = RandomWaypointModel(num_nodes, 300.0, speed, horizon_s=6.0,
                                seed=seed)
    stream = TopologyStream(model, range_m, dt=1.0)
    if not any(0 in edge for _, _, edges in stream.snapshots()
               for edge in edges):
        # the gateway never hears another node
        with pytest.raises(ConfigurationError):
            stream.fault_plan(0)
        return
    world = stream.fault_plan(0)
    assert_union_base_matches_from_edges(stream, 0, world.topology,
                                         world.dropped_nodes)
    assert_union_base_matches_from_edges(stream, 0,
                                         *stream.union_topology(0))


@st.composite
def scheduled_subsets(draw):
    """A disk mesh, a backend and a schedule over some of its links.

    The frame is short and a few scheduled links copy another's block,
    so most draws overlap conflicting links.
    """
    seed = draw(st.integers(min_value=0, max_value=500))
    num_nodes = draw(st.integers(min_value=5, max_value=12))
    backend = draw(st.sampled_from([1, 2, 3, "sinr"]))
    frame = draw(st.integers(min_value=2, max_value=8))
    picks = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000),
                  st.integers(min_value=0, max_value=7),
                  st.integers(min_value=1, max_value=3)),
        min_size=0, max_size=14))
    copies = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000)), max_size=4))
    return seed, num_nodes, backend, frame, picks, copies


@given(scheduled_subsets())
@settings(max_examples=60, deadline=None)
def test_scheduled_link_index_reports_the_whole_mesh_violations(instance):
    seed, num_nodes, backend, frame, picks, copies = instance
    topology = random_disk_topology(num_nodes, radio_range=160.0,
                                    area=320.0, seed=seed)
    interference = (SinrModel() if backend == "sinr"
                    else ProtocolModel(backend))
    blocks = {}
    for pick, start, length in picks:
        link = topology.links[pick % len(topology.links)]
        start = start % frame
        blocks[link] = SlotBlock(start, min(length, frame - start))
    scheduled = sorted(blocks)
    for src, dst in copies:
        if scheduled:
            blocks[scheduled[dst % len(scheduled)]] = blocks[
                scheduled[src % len(scheduled)]]
    schedule = Schedule(frame, blocks)
    try:
        whole = SolverEngine().conflict_index(topology,
                                              interference=interference)
    except ConfigurationError:
        # hops=3 can reach the whole of a small disk mesh from every
        # link; the guard then rejects every non-empty subset as well
        if scheduled:
            with pytest.raises(ConfigurationError):
                SolverEngine().conflict_index(
                    topology, interference=interference, links=scheduled)
        assume(False)
    try:
        subset = SolverEngine().conflict_index(
            topology, interference=interference, links=scheduled)
    except ConfigurationError:
        # the guard over a subset alone can trip where the whole set
        # does not; run_mobility never gets here, because the repair's
        # own request over the same (demand) links raises first
        assume(False)
    assert subset.links == tuple(scheduled)
    assert schedule.violations(subset) == schedule.violations(whole)
    assert schedule.violations(subset) == [
        (a, b) for a, b in whole.pairs() if a in blocks and b in blocks
        and blocks[a].overlaps(blocks[b])]


def two_copy_survivor(topology, dead_nodes, dead_edges, anchor):
    """The copy, delete and copy-the-component survivor (the oracle)."""
    graph = topology.graph.copy()
    graph.remove_nodes_from(n for n in set(dead_nodes) if n in graph)
    for u, v in dead_edges:
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
    component = nx.node_connected_component(graph, anchor)
    unreachable = frozenset(topology.graph.nodes) - frozenset(component)
    survivor = graph.subgraph(component).copy()
    positions = {n: topology.positions[n] for n in component
                 if n in topology.positions}
    return (MeshTopology(survivor, positions,
                         name=f"{topology.name}-survivor"), unreachable)


@st.composite
def fault_states(draw):
    """A shuffled-order disk mesh with edge data, plus a fault state.

    Nodes and edges are inserted in a drawn order (edges in either
    orientation), so adjacency order differs from sorted order.  Dead
    edges come in either orientation and may name absent nodes.
    """
    seed = draw(st.integers(min_value=0, max_value=500))
    num_nodes = draw(st.integers(min_value=2, max_value=14))
    shuffle = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    anchor_pick = draw(st.integers(min_value=0, max_value=1000))
    dead_picks = draw(st.lists(st.integers(min_value=0, max_value=1000),
                               max_size=5))
    edge_picks = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=1000), st.booleans()),
        max_size=8))
    strays = draw(st.lists(st.tuples(
        st.integers(min_value=-3, max_value=40),
        st.integers(min_value=-3, max_value=40)), max_size=3))
    isolate = draw(st.booleans())
    return (seed, num_nodes, shuffle, anchor_pick, dead_picks, edge_picks,
            strays, isolate)


@given(fault_states())
# components under half the mesh, whose networkx copy lists its nodes in
# set order rather than node order
@example((127, 7, 0, 0, [], [(1, False)], [], False))
@example((178, 13, 99999999, 141, [2, 7, 224, 501], [], [], False))
@settings(max_examples=200, deadline=None)
def test_one_pass_survivor_equals_the_two_copy_construction(instance):
    (seed, num_nodes, shuffle, anchor_pick, dead_picks, edge_picks, strays,
     isolate) = instance
    disk = random_disk_topology(num_nodes, radio_range=160.0, area=320.0,
                                seed=seed)
    rng = random.Random(shuffle)
    nodes = list(disk.graph.nodes)
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u, v in disk.graph.edges]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    graph = nx.Graph(kind="disk")
    graph.add_nodes_from((n, {"label": f"n{n}"}) for n in nodes)
    graph.add_edges_from((u, v, {"weight": i}) for i, (u, v)
                         in enumerate(edges))
    topology = MeshTopology(graph, disk.positions, name=disk.name)
    anchor = nodes[anchor_pick % len(nodes)]
    others = [n for n in nodes if n != anchor]
    dead_nodes = {others[p % len(others)] for p in dead_picks if others}
    dead_edges = [edges[p % len(edges)][::-1 if flip else 1]
                  for p, flip in edge_picks if edges]
    dead_edges += strays
    if isolate:  # cut every anchor edge: an anchor-only component
        dead_edges += [(anchor, n) for n in graph.adj[anchor]]
    got, got_unreachable = surviving_topology(topology, dead_nodes,
                                              dead_edges, anchor=anchor)
    want, want_unreachable = two_copy_survivor(topology, dead_nodes,
                                               dead_edges, anchor)
    assert got_unreachable == want_unreachable
    assert got.rows == want.rows
    assert list(got.rows) == sorted(want.graph.nodes)
    assert got.links == want.links
    assert got.edges == want.edges
    # the export: the oracle's nodes and edges, in sorted order
    assert nx.utils.graphs_equal(got.graph, want.graph)
    assert list(got.graph.nodes) == sorted(want.graph.nodes)
    assert list(got.graph.edges) == got.edges
    assert got.positions == want.positions
    assert got.name == want.name
    if isolate:
        assert list(got.graph.nodes) == [anchor]
