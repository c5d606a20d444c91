"""Property-based tests: the interference seam is invisible.

The load-bearing contract: routing the default backend through the
pluggable seam -- ``conflict_index(interference=ProtocolModel(hops))``
-- must be *bitwise-identical* to the row builder
``conflict_graph(topology, hops=...)``.  Same link universe, same CSR
adjacency arrays, same conflict edges, same canonical problem hash; on
arbitrary random-disk meshes, through in-place mobility-style churn, and
through the shared engine cache (``None`` and equal protocol models must
resolve to the *same* index object, or warm solver state would silently
fork per spelling).

Both relations -- k-hop and the channel's exact rule -- come from one
row kernel over link-position bitsets; the reference tests at the end pin
it, and the engine's CSR builds, to naive pairwise scans, down to node,
edge and adjacency order -- on small generator meshes (narrow rows) and
on an E21 city-scale disk (wide rows, across numpy blocks) -- and check
S8 validation on an index against validation on its graph.
"""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.conflict as conflict_module
from repro.core.conflict import conflict_graph
from repro.core.engine import SolverEngine
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError
from repro.net.topology import (
    chain_topology,
    grid_topology,
    random_disk_topology,
)
from repro.phy.interference import _channel_index, interference_graph
from repro.phy.models import ProtocolModel

HOPS = st.integers(min_value=1, max_value=2)


@st.composite
def disk_meshes(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=3, max_value=8))
    return random_disk_topology(num_nodes, radio_range=45.0, area=80.0,
                                seed=seed)


def _assert_same_index(via_hops, via_model):
    assert via_hops.links == via_model.links
    assert np.array_equal(via_hops.indptr, via_model.indptr)
    assert np.array_equal(via_hops.indices, via_model.indices)
    assert via_hops.pairs() == via_model.pairs()


@settings(max_examples=40, deadline=None)
@given(disk_meshes(), HOPS)
def test_protocol_model_is_bitwise_identical(topology, hops):
    via_hops = conflict_graph(topology, hops=hops)
    via_model = SolverEngine().conflict_index(
        topology, interference=ProtocolModel(hops=hops))
    _assert_same_index(via_hops, via_model)


@settings(max_examples=25, deadline=None)
@given(disk_meshes(), HOPS)
def test_both_spellings_share_one_cache_entry(topology, hops):
    engine = SolverEngine()
    first = engine.conflict_index(topology,
                                  interference=ProtocolModel(hops=hops))
    via_model = engine.conflict_index(
        topology, interference=ProtocolModel(hops=hops))
    assert first is via_model
    if hops == 2:
        assert engine.conflict_index(topology) is first


@settings(max_examples=25, deadline=None)
@given(disk_meshes(), HOPS, st.data())
def test_identity_survives_in_place_churn(topology, hops, data):
    """Churn the mesh in place; the engine that indexed it before must
    not serve that stale index, but one equal to a cold build by the
    row builder."""
    engine_model = SolverEngine()
    before = engine_model.conflict_index(
        topology, interference=ProtocolModel(hops=hops))
    rows = dict(topology.rows)

    edges = sorted(tuple(sorted(e)) for e in topology.graph.edges)
    removable = [e for e in edges
                 if topology.graph.degree(e[0]) > 1
                 and topology.graph.degree(e[1]) > 1]
    changed = False
    if removable:
        victim = data.draw(st.sampled_from(removable), label="remove")
        try:
            topology.apply_edge_changes(remove=[victim])
            changed = True
        except Exception:
            pass  # removal would disconnect; churn is optional here
    nodes = sorted(topology.graph.nodes)
    if len(nodes) >= 2 and not changed:
        u = data.draw(st.sampled_from(nodes), label="u")
        v = data.draw(st.sampled_from([n for n in nodes if n != u]),
                      label="v")
        if not topology.graph.has_edge(u, v):
            topology.apply_edge_changes(add=[(u, v)])
            changed = True

    via_model = engine_model.conflict_index(
        topology, interference=ProtocolModel(hops=hops))
    if changed:
        assert topology.rows != rows
        assert via_model is not before
    cold = conflict_graph(topology, hops=hops)
    _assert_same_index(cold, via_model)


# -- the shared builder against pairwise reference scans --------------------

def _khop_reach(topology, hops):
    """Node -> every node within ``hops - 1`` of it, by networkx BFS."""
    return {node: set(nx.single_source_shortest_path_length(
        topology.graph, node, cutoff=hops - 1))
        for node in topology.graph.nodes}


def _khop_reference(topology, hops, link_list):
    """The O(L^2) pairwise k-hop scan: link pairs in i < j order."""
    reach = _khop_reach(topology, hops)
    graph = nx.Graph()
    graph.add_nodes_from(link_list)
    for i, a in enumerate(link_list):
        near_a = reach[a[0]] | reach[a[1]]
        for b in link_list[i + 1:]:
            if set(a) & set(b) or b[0] in near_a or b[1] in near_a:
                graph.add_edge(a, b)
    return graph


def _channel_reference(topology, link_list):
    """The O(L^2) pairwise scan of the channel's exact collision rule."""
    graph = nx.Graph()
    graph.add_nodes_from(link_list)
    for i, (ta, ra) in enumerate(link_list):
        for tb, rb in link_list[i + 1:]:
            if ({ta, ra} & {tb, rb} or tb in topology.graph[ra]
                    or ta in topology.graph[rb]):
                graph.add_edge((ta, ra), (tb, rb))
    return graph


@st.composite
def generator_meshes(draw):
    kind = draw(st.sampled_from(["chain", "grid", "disk"]))
    if kind == "chain":
        return chain_topology(draw(st.integers(min_value=2, max_value=10)))
    if kind == "grid":
        return grid_topology(draw(st.integers(min_value=1, max_value=4)),
                             draw(st.integers(min_value=2, max_value=5)))
    return random_disk_topology(
        draw(st.integers(min_value=3, max_value=14)), radio_range=45.0,
        area=80.0, seed=draw(st.integers(min_value=0, max_value=10_000)))


def _adjacency(graph):
    return [list(graph.adj[node]) for node in graph.nodes]


@pytest.mark.parametrize("relation", ["hops=1", "hops=2", "hops=3",
                                      "exact"])
@settings(max_examples=30, deadline=None)
@given(generator_meshes(), st.data())
def test_builder_matches_pairwise_reference(relation, topology, data):
    links = topology.links
    requested = None
    if data.draw(st.booleans(), label="subset"):
        requested = data.draw(st.lists(st.sampled_from(links)),
                              label="links")
    link_list = links if requested is None else sorted(set(requested))
    if relation == "exact":
        reference = _channel_reference(topology, link_list)
        built = (interference_graph(topology) if requested is None
                 else _channel_index(topology, link_list))
    else:
        hops = int(relation.split("=")[1])
        reference = _khop_reference(topology, hops, link_list)
        try:
            built = conflict_graph(topology, hops=hops, links=requested)
        except ConfigurationError:
            # the degenerate-hops guard: only when every link reaches
            # the whole mesh
            reach = _khop_reach(topology, hops)
            assert hops > 2 and link_list
            assert all(len(reach[u] | reach[v]) == topology.num_nodes()
                       for u, v in link_list)
            return
    _assert_same_graph_order(built.graph, reference)


def _e21_disk(num_nodes):
    """E21's random-disk mesh of ``num_nodes`` (~7 neighbours each)."""
    radio_range = 100.0
    return random_disk_topology(
        num_nodes, radio_range=radio_range,
        area=radio_range * math.sqrt(num_nodes * math.pi / 7.0),
        seed=29 + num_nodes)


@pytest.mark.parametrize("block_bytes", [1 << 10, 1 << 18])
@pytest.mark.parametrize("relation", ["hops=1", "hops=2", "hops=3",
                                      "exact"])
def test_wide_rows_match_pairwise_reference(relation, block_bytes,
                                            monkeypatch):
    """Full indexes of E21's 60-node disk, whose rows are unpacked by
    numpy: in one block, and in many (1 KB blocks of 22 rows each)."""
    monkeypatch.setattr(conflict_module, "_BLOCK_BYTES", block_bytes)
    topology = _e21_disk(60)
    links = topology.links
    assert len(links) > conflict_module._NARROW_LINKS
    if relation == "exact":
        built = interference_graph(topology)
        reference = _channel_reference(topology, links)
    else:
        hops = int(relation.split("=")[1])
        built = conflict_graph(topology, hops=hops)
        reference = _khop_reference(topology, hops, links)
    _assert_same_graph_order(built.graph, reference)


# -- engine CSR builds against the same references --------------------------

def _assert_csr_matches(index, reference):
    links = list(reference.nodes)
    position = {link: i for i, link in enumerate(links)}
    rows = [sorted(position[b] for b in reference.adj[a]) for a in links]
    assert index.links == tuple(links)
    assert index.indptr.dtype == index.indices.dtype == np.int64
    assert index.indptr.tolist() == [0, *itertools.accumulate(map(len, rows))]
    assert index.indices.tolist() == [j for row in rows for j in row]
    assert [index.neighbors(link) for link in links] == [
        tuple(links[j] for j in row) for row in rows]


def _assert_same_graph_order(built, expected):
    assert list(built.nodes) == list(expected.nodes)
    assert list(built.edges) == list(expected.edges)
    assert _adjacency(built) == _adjacency(expected)


@pytest.mark.parametrize("hops", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(generator_meshes(), st.data())
def test_engine_csr_cold_matches_pairwise_reference(hops, topology, data):
    links = topology.links
    model = ProtocolModel(hops)
    requested = None
    if data.draw(st.booleans(), label="subset"):
        requested = data.draw(st.lists(st.sampled_from(links)),
                              label="links")
    link_list = links if requested is None else sorted(set(requested))
    reference = _khop_reference(topology, hops, link_list)
    try:
        expected = conflict_graph(topology, hops=hops, links=requested)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as from_engine:
            SolverEngine().conflict_index(topology, interference=model,
                                          links=requested)
        assert str(from_engine.value) == str(exc)
        return
    cold = SolverEngine(max_indexes=0).conflict_index(
        topology, interference=model, links=requested)
    _assert_csr_matches(cold, reference)
    _assert_same_graph_order(cold.graph, expected.graph)


@pytest.mark.parametrize("relation", ["hops=1", "hops=2", "exact"])
@settings(max_examples=30, deadline=None)
@given(generator_meshes(), st.data())
def test_violations_on_index_match_violations_on_graph(relation, topology,
                                                       data):
    links = topology.links
    engine = SolverEngine()
    if relation == "exact":
        index = engine.interference_index(topology)
    else:
        requested = data.draw(st.one_of(st.none(),
                                        st.lists(st.sampled_from(links))),
                              label="links")
        index = engine.conflict_index(
            topology, interference=ProtocolModel(int(relation[-1])),
            links=requested)
    frame = 6
    scheduled = data.draw(st.lists(st.sampled_from(links), unique=True),
                          label="scheduled")
    blocks = {}
    for link in scheduled:
        start = data.draw(st.integers(0, frame - 1), label="start")
        blocks[link] = SlotBlock(start, data.draw(
            st.integers(1, frame - start), label="length"))
    schedule = Schedule(frame, blocks)
    on_graph = sorted((a, b) for a, b in map(sorted, index.graph.edges)
                      if a in blocks and b in blocks
                      and blocks[a].overlaps(blocks[b]))
    assert schedule.violations(index) == on_graph
