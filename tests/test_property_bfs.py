"""Property test of the one row BFS and every consumer of it.

:func:`~repro.net.topology.bfs_levels` replaced three loops that
recorded depth, nearest source and parent; ``tests/bfs_reference.py``
keeps them unchanged.  On chains, grids, trees, stars and random disks,
with dead nodes, dead edges and gateways drawn as in
``test_property_mesh_tick.py`` (gateways may be dead or absent), every
min-hop route, gateway tree, tree depth map, control-plane roster, hop
depth map (with and without a cutoff), eccentricity, surviving
topology and nearest-gateway selection equals what the reference loops
give.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree_order import tree_depths
from repro.mesh16.frame import default_frame_config
from repro.mesh16.network import ControlPlane
from repro.mobility.stream import gateway_selection
from repro.net.routing import gateway_tree, shortest_path_route
from repro.net.topology import (
    _nearest_sources,
    binary_tree_topology,
    chain_topology,
    grid_topology,
    hop_depths,
    random_disk_topology,
    star_topology,
    surviving_topology,
)
from tests import bfs_reference as reference


def _disk(num_nodes: int, seed: int):
    return random_disk_topology(
        num_nodes, radio_range=100.0,
        area=100.0 * math.sqrt(num_nodes * math.pi / 7.0), seed=seed)


TOPOLOGIES = st.one_of(
    st.builds(chain_topology, st.integers(1, 10)),
    st.builds(grid_topology, st.integers(1, 4), st.integers(1, 4)),
    st.builds(binary_tree_topology, st.integers(0, 3)),
    st.builds(star_topology, st.integers(1, 8)),
    st.builds(_disk, st.integers(2, 16), st.integers(0, 2 ** 16)),
)


@st.composite
def bfs_worlds(draw):
    """A generated topology, dead nodes, dead edges (sorted pairs, as
    the fault injector keeps them), gateways that may be dead or absent,
    and a hop-depth query: sources (duplicates and absent nodes
    allowed) and a cutoff."""
    topology = draw(TOPOLOGIES)
    num_nodes = topology.num_nodes()
    node_ids = st.integers(min_value=0, max_value=num_nodes - 1)
    dead_nodes = frozenset(draw(st.lists(node_ids, max_size=4)))
    dead_edges = frozenset(draw(st.lists(
        st.sampled_from(topology.edges), max_size=8))
        if topology.edges else ())
    any_ids = st.integers(min_value=0, max_value=num_nodes + 2)
    gateways = draw(st.lists(any_ids, min_size=1, max_size=4))
    sources = draw(st.lists(any_ids, max_size=4))
    cutoff = draw(st.none() | st.integers(min_value=0, max_value=3))
    return topology, dead_nodes, dead_edges, gateways, sources, cutoff


def _reference_live_rows(topology, dead_nodes, dead_edges):
    return {n: tuple(v for v in row if v not in dead_nodes
                     and (n, v) not in dead_edges
                     and (v, n) not in dead_edges)
            for n, row in topology.rows.items() if n not in dead_nodes}


def _reference_route(topology, src, dst):
    parents = reference._bfs_parents(topology, src, stop=dst)
    path = [dst]
    while path[-1] != src:
        path.append(parents[path[-1]])
    path.reverse()
    return list(zip(path, path[1:]))


@settings(max_examples=150, deadline=None)
@given(bfs_worlds())
def test_one_row_bfs_matches_the_three_reference_loops(world):
    topology, dead_nodes, dead_edges, gateways, sources, cutoff = world
    rows = topology.rows
    frame = default_frame_config()
    for gateway in topology.nodes:
        # parent: the gateway tree and every min-hop route from the node
        tree = reference._bfs_parents(topology, gateway)
        del tree[gateway]
        assert gateway_tree(topology, gateway) == tree
        for dst in topology.nodes:
            if dst != gateway:
                assert (shortest_path_route(topology, gateway, dst)
                        == _reference_route(topology, gateway, dst))
        # depth: the tree's depths, the control plane's tiers and the
        # eccentricity, all from the graph BFS
        depths = reference.hop_depths(rows, [gateway])
        assert tree_depths(tree, gateway) == depths
        plane = ControlPlane(topology, gateway, frame)
        assert plane.tree == tree
        assert plane.depths == depths
        assert plane.roster == sorted(rows, key=lambda n: (depths[n], n))
        assert topology.eccentricity(gateway) == max(depths.values())
    # depth with and without a cutoff, discovery order included
    assert (list(hop_depths(rows, sources, cutoff).items())
            == list(reference.hop_depths(rows, sources, cutoff).items()))

    # nearest source over the live rows, and the survivor of each anchor
    live = _reference_live_rows(topology, dead_nodes, dead_edges)
    nearest, _ = reference._nearest_sources(live, gateways)
    assert _nearest_sources(live, gateways) == nearest
    for anchor in live:
        component, depth = reference._nearest_sources(live, [anchor])
        survivor, unreached = surviving_topology(
            topology, dead_nodes, dead_edges, anchor=anchor)
        assert survivor.rows == {n: live[n] for n in sorted(component)}
        assert unreached == frozenset(rows) - component.keys()
        # the anchor's eccentricity is kept from the survivor's BFS
        assert survivor._eccentricities == {anchor: depth}

    # gateway selection over the present nodes and edges
    nodes = set(rows) - dead_nodes
    edges = sorted(set(topology.edges) - dead_edges)
    adjacency = {n: [] for n in nodes}
    for u, v in edges:
        if u in nodes and v in nodes:
            adjacency[u].append(v)
            adjacency[v].append(u)
    selected, _ = reference._nearest_sources(adjacency, gateways)
    assert (gateway_selection(nodes, edges, gateways)
            == {n: selected.get(n) for n in sorted(nodes)})


def test_single_node_topologies_keep_their_lone_source():
    # a childless root is the tree's only node, at depth 0; a lone source
    # without a row is kept by hop_depths but reaches nothing as a
    # nearest source
    lone = chain_topology(1)
    assert gateway_tree(lone, 0) == {}
    assert tree_depths({}, 0) == {0: 0}
    assert hop_depths({}, [3]) == reference.hop_depths({}, [3]) == {3: 0}
    assert _nearest_sources({}, [3]) == {}
    assert surviving_topology(lone)[0].rows == {0: ()}
