"""Sorted adjacency rows are the topology; ``.graph`` is a one-way export.

A survivor (:func:`~repro.net.topology.surviving_topology`) is built
straight from filtered rows, with no :mod:`networkx` graph.  Two checks
hold it to that contract:

- an independent oracle: on generator meshes under drawn fault states,
  the survivor matches a component computed by :mod:`networkx` on the
  base graph, and everything the scheduler reads from it (rows, links,
  edges, fingerprint, k-hop conflict rows, min-hop routes) equals what
  a topology rebuilt through the constructor from its export gives,
  with routes checked against the lexicographically smallest min-hop
  path;
- a hot-path guard: replaying a ``mesh-churn`` motion through
  :func:`~repro.mobility.run.run_mobility` builds no survivor export.
"""

import contextlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import conflict_graph
from repro.errors import ConfigurationError
from repro.mobility.models import RandomWaypointModel
from repro.mobility.run import run_mobility
from repro.mobility.stream import RadioRangeModel, TopologyStream
from repro.net.flows import Flow
from repro.net.routing import shortest_path_route
from repro.net.topology import (
    MeshTopology,
    binary_tree_topology,
    chain_topology,
    grid_topology,
    random_disk_topology,
    star_topology,
    surviving_topology,
)


@contextlib.contextmanager
def counted_exports():
    """Names of the topologies whose ``.graph`` export gets built."""
    built = []
    export = MeshTopology.graph.fget

    def graph(self):
        if self._graph is None:
            built.append(self.name)
        return export(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MeshTopology, "graph", property(graph))
        yield built


@st.composite
def faulted_meshes(draw):
    """A generator mesh, an anchor and dead nodes and edges around it."""
    kind = draw(st.sampled_from(["chain", "grid", "star", "btree", "disk"]))
    if kind == "chain":
        topology = chain_topology(draw(st.integers(2, 9)))
    elif kind == "grid":
        topology = grid_topology(draw(st.integers(1, 4)),
                                 draw(st.integers(2, 5)))
    elif kind == "star":
        topology = star_topology(draw(st.integers(1, 7)))
    elif kind == "btree":
        topology = binary_tree_topology(draw(st.integers(1, 3)))
    else:
        topology = random_disk_topology(
            draw(st.integers(3, 14)), radio_range=45.0, area=80.0,
            seed=draw(st.integers(0, 10_000)))
    nodes = topology.nodes
    anchor = draw(st.sampled_from(nodes))
    dead_nodes = draw(st.sets(st.sampled_from(nodes), max_size=4)) - {anchor}
    dead_edges = [edge[::-1] if flip else edge
                  for edge, flip in draw(st.lists(st.tuples(
                      st.sampled_from(topology.edges), st.booleans()),
                      max_size=6))]
    return topology, anchor, dead_nodes, dead_edges


def component_reference(topology, anchor, dead_nodes, dead_edges):
    """The anchor's component of the base graph minus the dead, by networkx."""
    graph = topology.graph.copy()
    graph.remove_nodes_from(dead_nodes)
    graph.remove_edges_from(dead_edges)
    return graph.subgraph(nx.node_connected_component(graph, anchor))


def conflict_rows(topology, hops):
    """A k-hop index's links and rows, or the error building it raises."""
    try:
        index = conflict_graph(topology, hops=hops)
    except ConfigurationError as exc:
        return str(exc)
    return index.links, [index.neighbors(link) for link in index.links]


@settings(max_examples=80, deadline=None)
@given(faulted_meshes())
def test_row_survivor_matches_its_rebuilt_export(instance):
    topology, anchor, dead_nodes, dead_edges = instance
    reference = component_reference(topology, anchor, dead_nodes,
                                    dead_edges)
    with counted_exports() as built:
        survivor, unreachable = surviving_topology(
            topology, dead_nodes, dead_edges, anchor=anchor)
        conflicts = {hops: conflict_rows(survivor, hops)
                     for hops in (1, 2, 3)}
        pairs = [(a, b) for a in survivor.nodes for b in survivor.nodes
                 if a != b]
        routes = {pair: shortest_path_route(survivor, *pair)
                  for pair in pairs}
    assert built == []  # everything above reads rows
    assert survivor.nodes == sorted(reference.nodes)
    assert survivor.edges == sorted(tuple(sorted(e))
                                    for e in reference.edges)
    assert unreachable == frozenset(topology.nodes) - set(reference.nodes)

    rebuilt = MeshTopology(survivor.graph)
    assert list(survivor.rows) == sorted(survivor.rows)
    assert all(list(row) == sorted(row) for row in survivor.rows.values())
    assert rebuilt.rows == survivor.rows
    assert rebuilt.links == survivor.links
    assert rebuilt.edges == survivor.edges
    for hops, rows in conflicts.items():
        assert conflict_rows(rebuilt, hops) == rows
    for (a, b), route in routes.items():
        assert shortest_path_route(rebuilt, a, b) == route
        path = min(nx.all_shortest_paths(reference, a, b))
        assert route == list(zip(path, path[1:]))


def test_mesh_churn_replay_builds_no_survivor_export():
    """One ``mesh-churn`` motion: every repair tick stays on rows."""
    stream = TopologyStream(RandomWaypointModel(36, 900.0, 10.0, 10.0,
                                                seed=2),
                            RadioRangeModel(220.0, hysteresis=0.15),
                            dt=0.25)
    topology = stream.fault_plan(0).topology
    far = sorted((n for n in topology.nodes if n != 0),
                 key=lambda n: (topology.hop_distance(0, n), n))
    second_gateway = far[-1]
    sources = [n for n in far if n != second_gateway][-4:]
    flows = [Flow(f"mob{i}", src, 0, rate_bps=80_000, delay_budget_s=0.3)
             for i, src in enumerate(sources)]
    with counted_exports() as built:
        result = run_mobility(stream, flows, gateways=(0, second_gateway))
    # the replay repaired on survivors and indexed them
    assert result.local + result.resolve > 0
    assert result.engine_stats["index_builds"] > 1
    assert result.conflict_ok and result.guarantee_ok
    assert built == []
