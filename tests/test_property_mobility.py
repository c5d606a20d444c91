"""Property-based tests: incremental ConflictIndex ≡ cold rebuild (S36).

The delta-update contract :func:`repro.core.engine.updated_conflict_edges`
promises: after *any* sequence of in-place edge changes, the
delta-updated conflict index is indistinguishable from one rebuilt from
scratch -- same vertices, same conflict edges, same CSR adjacency
arrays.  And at the system level: a repair engine driven by a mobility
stream through a delta-updating engine keeps its schedule S8-valid, in
lockstep with a rebuild-always engine.
"""

import networkx as nx
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import SolverEngine, topology_fingerprint
from repro.errors import ConfigurationError
from repro.mobility.models import RandomWaypointModel
from repro.mobility.run import run_mobility
from repro.mobility.stream import TopologyStream
from repro.net.flows import Flow
from repro.net.topology import grid_topology, random_disk_topology


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
        engine.conflict_index(topology, hops=hops)
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
        delta_idx = engine.conflict_index(topology, hops=hops)
        cold = SolverEngine(delta_updates=False).conflict_index(
            topology, hops=hops)
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
