"""Property-based differential tests of the per-tick mesh kernels.

Every repair tick of :func:`~repro.mobility.run.run_mobility` updates
the live rows, builds the surviving mesh, re-selects each node's nearest
gateway and builds a conflict index.  Each kernel is checked here
against an independent reference on random graphs with random dead
nodes and edges:

- nearest-gateway selection over the live rows (run's kernel and the
  public :func:`~repro.mobility.stream.gateway_selection`) against a
  copy of the set-difference, adjacency and per-gateway BFS construction
  it replaced, with dead gateways, ties and unreachable nodes;
- :func:`~repro.net.topology.surviving_topology` against the anchor's
  ``networkx`` component, eccentricity included;
- the repair engine's incremental live rows and survivor, after every
  step of a random walk of dead sets, against a cold
  :func:`~repro.net.topology.surviving_topology`, and its gateway
  selection against a copy of the union-rows kernel it replaced;
- the lazily built ``links``, ``link_index`` and ``has_link`` of a
  topology before and after :meth:`~MeshTopology.apply_edge_changes`;
- the CSR arrays and ``num_conflicts`` of a
  :class:`~repro.core.conflict.ConflictIndex` against arrays built
  eagerly from its rows.
"""

import itertools
from typing import Optional

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import conflict_graph
from repro.core.repair import RepairEngine
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.mobility.stream import gateway_selection
from repro.net.topology import (
    MeshTopology,
    _nearest_sources,
    _update_live_rows,
    bfs_levels,
    from_edges,
    surviving_topology,
)
from tests.bfs_reference import hop_depths


@st.composite
def dead_worlds(draw, max_nodes: int = 12):
    """A connected random graph, dead nodes, dead edges and gateways.

    Dead edges come as sorted pairs, as the fault injector keeps them.
    Gateways may be dead or absent from the graph.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    # a random spanning tree keeps the base connected; extra edges on top
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v)
             for v in range(1, num_nodes)}
    pairs = list(itertools.combinations(range(num_nodes), 2))
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=20)))
    edges = sorted(edges)
    dead_nodes = frozenset(draw(st.lists(
        st.integers(min_value=0, max_value=num_nodes - 1), max_size=4)))
    dead_edges = frozenset(draw(st.lists(st.sampled_from(edges),
                                         max_size=8)))
    gateways = draw(st.lists(st.integers(min_value=0,
                                         max_value=num_nodes + 2),
                             min_size=1, max_size=4))
    return from_edges(edges), dead_nodes, dead_edges, gateways


def _reference_selection(nodes, edges, gateways
                         ) -> dict[int, Optional[int]]:
    """The per-gateway BFS selection the one-pass kernel replaced."""
    node_set = set(nodes)
    adjacency: dict[int, list[int]] = {n: [] for n in node_set}
    for u, v in edges:
        if u in adjacency and v in adjacency:
            adjacency[u].append(v)
            adjacency[v].append(u)
    best: dict[int, tuple[int, int]] = {}
    for gateway in sorted(set(gateways) & node_set):
        for node, hops in hop_depths(adjacency, [gateway]).items():
            candidate = (hops, gateway)
            if node not in best or candidate < best[node]:
                best[node] = candidate
    return {n: best[n][1] if n in best else None for n in sorted(node_set)}


def _live_rows(topology, dead_nodes, dead_edges):
    """Cold live rows: every live node's base row minus the dead."""
    return _update_live_rows({}, topology.rows, topology.rows,
                             dead_nodes, dead_edges)


def _present(topology, dead_nodes, dead_edges):
    """Live nodes and edges by set difference, as the driver built them."""
    nodes = set(topology.rows) - dead_nodes
    edges = {e for e in set(topology.edges) - dead_edges
             if e[0] in nodes and e[1] in nodes}
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(dead_worlds())
def test_nearest_gateway_kernel_matches_per_gateway_bfs(world):
    topology, dead_nodes, dead_edges, gateways = world
    reference = _reference_selection(
        *_present(topology, dead_nodes, dead_edges), gateways)
    live = _live_rows(topology, dead_nodes, dead_edges)
    nearest = _nearest_sources(live, gateways)
    assert nearest == {n: g for n, g in reference.items() if g is not None}
    # dead edges given in either orientation are the same edges
    flipped = frozenset((v, u) for u, v in dead_edges)
    assert _live_rows(topology, dead_nodes, flipped) == live


@settings(max_examples=200, deadline=None)
@given(dead_worlds())
def test_gateway_selection_matches_per_gateway_bfs(world):
    topology, dead_nodes, dead_edges, gateways = world
    nodes, edges = _present(topology, dead_nodes, dead_edges)
    # edges naming nodes outside ``nodes`` are ignored
    stray = set(topology.edges) - edges
    assert (gateway_selection(nodes, sorted(edges | stray), gateways)
            == _reference_selection(nodes, edges | stray, gateways))


def test_selection_ties_go_to_the_smallest_gateway():
    # 2 is two hops from both gateways; 1 and 3 are one hop from one each
    rows = {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2, 4), 4: (3,)}
    assert _nearest_sources(rows, [4, 0]) == {0: 0, 4: 4, 1: 0, 3: 4, 2: 0}
    # the kernel it reads: 2 descends from 0 through its parent 1
    assert bfs_levels(rows, [0, 4]) == ({0: 0, 4: 4, 1: 0, 3: 4, 2: 1},
                                        [[0, 4], [1, 3], [2]])


@settings(max_examples=200, deadline=None)
@given(dead_worlds(), st.data())
def test_survivor_matches_networkx_component(world, data):
    topology, dead_nodes, dead_edges, _ = world
    anchor = data.draw(st.sampled_from(topology.nodes), label="anchor")
    if anchor in dead_nodes:
        with pytest.raises(ConfigurationError):
            surviving_topology(topology, dead_nodes, dead_edges, anchor)
        return
    flip = data.draw(st.booleans(), label="flip")
    given_edges = ({(v, u) for u, v in dead_edges} if flip
                   else dead_edges)
    survivor, unreachable = surviving_topology(
        topology, dead_nodes, given_edges, anchor=anchor)

    live = nx.Graph(topology.graph)
    live.remove_edges_from(dead_edges)
    live.remove_nodes_from(dead_nodes)
    component = live.subgraph(nx.node_connected_component(live, anchor))
    assert survivor.rows == {n: tuple(sorted(component.adj[n]))
                             for n in sorted(component)}
    assert survivor.edges == sorted(tuple(sorted(e))
                                    for e in component.edges)
    assert unreachable == frozenset(topology.nodes) - set(component)
    assert survivor.eccentricity(anchor) == nx.eccentricity(component,
                                                            anchor)
    for node in survivor.nodes:
        assert survivor.eccentricity(node) == nx.eccentricity(component,
                                                              node)


def _union_rows_selection(rows, sources, dead_nodes, dead_edges):
    """The selection kernel the live-rows walk replaced: a multi-source
    BFS over the union rows that skips dead nodes and, from each node,
    its dead-edge partners (either orientation)."""
    excluded: dict[int, set[int]] = {}
    for u, v in dead_edges:
        excluded.setdefault(u, set(dead_nodes)).add(v)
        excluded.setdefault(v, set(dead_nodes)).add(u)
    nearest = {s: s for s in sorted(set(sources))
               if s in rows and s not in dead_nodes}
    frontier = list(nearest)
    while frontier:
        following = []
        for u in frontier:
            dead = excluded.get(u, dead_nodes)
            for v in rows[u]:
                if v not in nearest and v not in dead:
                    nearest[v] = nearest[u]
                    following.append(v)
        frontier = following
    return nearest


@st.composite
def fault_walks(draw, max_nodes: int = 10, max_steps: int = 12):
    """A base mesh, a live gateway, an initial fault state and a walk of
    fault states: node down/up, a node and its neighbours down/up, dead
    edges in either orientation (also absent from the base), and cuts
    that partition the mesh and rejoin it one step later."""
    topology, dead_nodes, dead_edges, gateways = draw(
        dead_worlds(max_nodes=max_nodes))
    nodes = topology.nodes
    gateway = draw(st.sampled_from(nodes), label="gateway")
    dead_nodes = set(dead_nodes) - {gateway}
    dead_edges = set(dead_edges)
    initial = (frozenset(dead_nodes), frozenset(dead_edges))
    pairs = list(itertools.combinations(nodes, 2))
    states = []
    rejoin: set[tuple[int, int]] = set()
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        if rejoin:
            dead_edges -= rejoin
            rejoin = set()
        else:
            kind = draw(st.sampled_from(["node", "hood", "edge", "cut"]))
            if kind == "node":
                dead_nodes ^= {draw(st.sampled_from(nodes))} - {gateway}
            elif kind == "hood":
                node = draw(st.sampled_from(nodes))
                hood = ({node, *topology.rows[node]}) - {gateway}
                if draw(st.booleans(), label="down"):
                    dead_nodes |= hood
                else:
                    dead_nodes -= hood
            elif kind == "edge":
                dead_edges ^= {draw(st.sampled_from(pairs))}
            else:
                side = set(draw(st.lists(st.sampled_from(nodes),
                                         min_size=1)))
                rejoin = {e for e in topology.edges
                          if (e[0] in side) != (e[1] in side)} - dead_edges
                dead_edges |= rejoin
        flip = draw(st.booleans(), label="flip")
        given = frozenset((v, u) if flip else (u, v) for u, v in dead_edges)
        states.append((frozenset(dead_nodes), given))
    return topology, gateway, gateways, initial, states


@settings(max_examples=150, deadline=None)
@given(fault_walks())
def test_incremental_survivor_matches_cold_survivor(walk):
    topology, gateway, gateways, (dead_nodes, dead_edges), states = walk
    engine = RepairEngine(topology, default_frame_config(), gateway=gateway,
                          dead_nodes=dead_nodes, dead_edges=dead_edges)
    engine.install([])
    for dead_nodes, dead_edges in [(dead_nodes, dead_edges), *states]:
        engine.retarget(dead_nodes, dead_edges)
        survivor, unreachable = surviving_topology(
            topology, dead_nodes, dead_edges, anchor=gateway)
        assert engine.live_rows == _live_rows(topology, dead_nodes,
                                              dead_edges)
        assert engine.alive.rows == survivor.rows
        assert engine.unreachable == unreachable
        assert (engine.alive.eccentricity(gateway)
                == survivor.eccentricity(gateway))
        assert (_nearest_sources(engine.live_rows, gateways)
                == _union_rows_selection(topology.rows, gateways,
                                         dead_nodes, dead_edges))


def test_incremental_survivor_follows_a_mutated_base():
    # a base edited in place is re-read in full on the next pass
    topology = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
    engine = RepairEngine(topology, default_frame_config(),
                          dead_edges=[(0, 1)])
    engine.install([])
    topology.apply_edge_changes(add=[(0, 2)], remove=[(2, 3)])
    engine.retarget(frozenset({3}), frozenset({(0, 1)}))
    survivor, unreachable = surviving_topology(topology, {3}, {(0, 1)})
    assert engine.live_rows == {0: (2,), 1: (2,), 2: (0, 1)}
    assert engine.alive.rows == survivor.rows
    assert engine.unreachable == unreachable == {3}


def _expected_links(graph: nx.Graph) -> list[tuple[int, int]]:
    return sorted(link for u, v in graph.edges for link in ((u, v), (v, u)))


@settings(max_examples=150, deadline=None)
@given(dead_worlds(max_nodes=9), st.data())
def test_lazy_links_follow_edge_changes(world, data):
    topology, _, _, _ = world
    nodes = topology.nodes
    if data.draw(st.booleans(), label="read first"):
        assert topology.links == _expected_links(topology.graph)
        topology.link_index(topology.links[0])
    pairs = list(itertools.permutations(nodes, 2))
    add = data.draw(st.lists(st.sampled_from(pairs), max_size=4),
                    label="add")
    remove = data.draw(st.lists(st.sampled_from(pairs), max_size=4),
                       label="remove")
    before = list(topology.links)
    try:
        topology.apply_edge_changes(add=add, remove=remove)
    except ConfigurationError:
        # rolled back: the old links still stand
        assert topology.links == before
    links = _expected_links(topology.graph)
    assert topology.links == links
    assert topology.num_links() == len(links)
    for i, link in enumerate(links):
        assert topology.link_index(link) == i
    present = set(links)
    for pair in itertools.product(nodes + [max(nodes) + 1], repeat=2):
        assert topology.has_link(pair) == (pair in present)
        if pair not in present:
            with pytest.raises(ConfigurationError):
                topology.link_index(pair)


@settings(max_examples=100, deadline=None)
@given(dead_worlds(), st.integers(min_value=1, max_value=2), st.data())
def test_csr_arrays_match_eager_arrays(world, hops, data):
    topology = world[0]
    links = topology.links
    subset = data.draw(st.lists(st.sampled_from(links), max_size=12),
                       label="links")
    index = conflict_graph(topology, hops=hops, links=subset or None)
    rows = [[index.position(other) for other in index.neighbors(link)]
            for link in index.links]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    assert index.num_conflicts == index.graph.number_of_edges()
    assert index.indptr.dtype == index.indices.dtype == np.int64
    assert np.array_equal(index.indptr, indptr)
    assert np.array_equal(index.indices, indices)
    assert index.indptr is index.indptr  # built once
    assert index.num_conflicts == indices.size // 2


def test_topology_without_links_read_has_none_built():
    topology = MeshTopology(nx.path_graph(4))
    assert topology._links is None and topology._link_index is None
    assert topology.has_link((1, 2)) and not topology.has_link((0, 2))
    assert topology._links is None
