"""Property-based tests for the mobility repair path (S36).

The delta-update contract :func:`repro.core.engine.updated_conflict_edges`
promises: after *any* sequence of in-place edge changes, the
delta-updated conflict index is indistinguishable from one rebuilt from
scratch -- same vertices, same conflict edges, same CSR adjacency
arrays.  And at the system level: a repair engine driven by a mobility
stream through a delta-updating engine keeps its schedule S8-valid, in
lockstep with a rebuild-always engine.

Two oracles pin the per-batch work of :func:`run_mobility`: an S8 check
over an index of the scheduled links reports exactly the violations of
the whole-mesh index, and the row-built
:func:`~repro.net.topology.surviving_topology` has the rows, edges and
links of the copy, delete and copy-the-component construction kept here
as the oracle, and a ``networkx`` export equal to it.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import SolverEngine, topology_fingerprint
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError
from repro.mobility.models import RandomWaypointModel
from repro.mobility.run import run_mobility
from repro.mobility.stream import TopologyStream
from repro.net.flows import Flow
from repro.net.topology import (
    MeshTopology,
    grid_topology,
    random_disk_topology,
    surviving_topology,
)
from repro.phy.models import ProtocolModel, SinrModel


def make_topology(kind, seed):
    if kind == "grid34":
        return grid_topology(3, 4)
    if kind == "grid44":
        return grid_topology(4, 4)
    return random_disk_topology(10, radio_range=160.0, area=320.0,
                                seed=seed)


@st.composite
def mutation_sequences(draw):
    """A base topology plus 1-4 connectivity-preserving edge changes."""
    kind = draw(st.sampled_from(["grid34", "grid44", "disk"]))
    seed = draw(st.integers(min_value=0, max_value=500))
    hops = draw(st.sampled_from([2, 3]))
    ops = draw(st.lists(st.tuples(st.booleans(),
                                  st.integers(min_value=0, max_value=63)),
                        min_size=1, max_size=4))
    return kind, seed, hops, ops


def apply_op(topology, removed, is_remove, index):
    """One connectivity-preserving mutation; returns False when skipped."""
    if is_remove:
        bridges = set(map(frozenset, nx.bridges(topology.graph)))
        candidates = sorted(e for e in
                            (tuple(sorted(e)) for e in topology.graph.edges)
                            if frozenset(e) not in bridges)
        if not candidates:
            return False
        edge = candidates[index % len(candidates)]
        topology.apply_edge_changes(remove=[edge])
        removed.append(edge)
    else:
        if not removed:
            return False
        edge = removed.pop(index % len(removed))
        topology.apply_edge_changes(add=[edge])
    return True


@given(mutation_sequences())
@settings(max_examples=15, deadline=None)
def test_delta_updated_index_equals_cold_rebuild(instance):
    kind, seed, hops, ops = instance
    topology = make_topology(kind, seed)
    engine = SolverEngine(delta_updates=True)
    try:
        engine.conflict_index(topology, interference=ProtocolModel(hops))
    except ConfigurationError:
        # hops=3 can reach the whole of a small disk mesh from every
        # link; the degenerate-hops guard rejects such a base by design
        assume(False)
    removed = []
    fingerprint = topology_fingerprint(topology)
    for is_remove, index in ops:
        if not apply_op(topology, removed, is_remove, index):
            continue
        # the mutation must never serve a stale fingerprint: every edge
        # change moves the fingerprint off the pre-mutation value (a
        # remove/re-add cycle may legitimately revisit an older state)
        before, fingerprint = fingerprint, topology_fingerprint(topology)
        assert fingerprint != before
        delta_idx = engine.conflict_index(
            topology, interference=ProtocolModel(hops))
        cold = SolverEngine(delta_updates=False).conflict_index(
            topology, interference=ProtocolModel(hops))
        assert delta_idx.links == cold.links
        assert list(delta_idx.graph.nodes) == list(cold.graph.nodes)
        assert list(delta_idx.graph.edges) == list(cold.graph.edges)
        assert np.array_equal(delta_idx.indptr, cold.indptr)
        assert np.array_equal(delta_idx.indices, cold.indices)
        assert delta_idx.key == cold.key


@st.composite
def mobility_runs(draw):
    """A small random-waypoint stream plus one gateway flow."""
    seed = draw(st.integers(min_value=0, max_value=300))
    num_nodes = draw(st.integers(min_value=5, max_value=8))
    speed = draw(st.sampled_from([0.0, 5.0, 15.0, 25.0]))
    return seed, num_nodes, speed


@given(mobility_runs())
@settings(max_examples=10, deadline=None)
def test_repair_under_stream_stays_valid_in_both_arms(instance):
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
    results = [run_mobility(stream, flows,
                            engine=SolverEngine(delta_updates=arm))
               for arm in (True, False)]
    delta, rebuild = results
    # S8 validity and delay guarantees hold at every churn batch
    assert delta.conflict_ok and delta.guarantee_ok
    # the incremental-index arm is step-for-step identical to rebuilds
    assert delta.steps == rebuild.steps
    assert delta.lost_packets == rebuild.lost_packets
    assert (delta.engine_stats["index_builds"]
            <= rebuild.engine_stats["index_builds"])


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
    # the export: the oracle's nodes, edges and data, in sorted order
    assert nx.utils.graphs_equal(got.graph, want.graph)
    assert list(got.graph.nodes) == sorted(want.graph.nodes)
    assert list(got.graph.edges) == got.edges
    assert list(got.graph.edges(data=True)) == sorted(
        (*sorted((u, v)), d) for u, v, d in want.graph.edges(data=True))
    # the survivor owns its data: nothing aliases the base's dicts
    assert not any(got.graph.nodes[n] is graph.nodes[n] for n in got.graph)
    assert not any(got.graph.adj[u][v] is graph.adj[u][v]
                   for u, v in got.graph.edges)
    assert got.graph.graph is not graph.graph
    assert got.positions == want.positions
    assert got.name == want.name
    if isolate:
        assert list(got.graph.nodes) == [anchor]
