"""Topology model and generators."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.topology import (
    MeshTopology,
    binary_tree_topology,
    chain_topology,
    from_edges,
    grid_topology,
    random_disk_topology,
    star_topology,
    surviving_topology,
)
from tests.bfs_reference import hop_depths


class TestMeshTopology:
    def test_links_are_both_directions_of_each_edge(self, chain5):
        assert (0, 1) in chain5.links
        assert (1, 0) in chain5.links
        assert chain5.num_links() == 2 * chain5.graph.number_of_edges()

    def test_links_sorted_canonically(self, chain5):
        assert chain5.links == sorted(chain5.links)

    def test_link_index_is_stable(self, chain5):
        for i, link in enumerate(chain5.links):
            assert chain5.link_index(link) == i

    def test_link_index_unknown_link_raises(self, chain5):
        with pytest.raises(ConfigurationError):
            chain5.link_index((0, 4))

    def test_has_link(self, chain5):
        assert chain5.has_link((2, 3))
        assert not chain5.has_link((0, 3))

    def test_neighbors_sorted(self, grid33):
        assert grid33.neighbors(4) == [1, 3, 5, 7]

    def test_hop_distance(self, grid33):
        assert grid33.hop_distance(0, 8) == 4
        assert grid33.hop_distance(0, 0) == 0

    def test_hop_distance_memo_follows_edge_changes(self):
        grid = grid_topology(3, 3)
        assert grid.hop_distance(0, 2) == 2
        grid.apply_edge_changes(remove=[(0, 1)], add=[(0, 8)])
        assert grid.hop_distance(0, 2) == 3
        assert grid.hop_distance(0, 8) == 1
        assert grid.eccentricity(0) == 3

    def test_hop_distance_with_alternating_sources_matches_bfs(self):
        topology = random_disk_topology(25, radio_range=220.0, area=700.0,
                                        seed=3)
        depths = {n: hop_depths(topology.rows, [n]) for n in topology.nodes}
        for a, b in itertools.product(topology.nodes, repeat=2):
            assert topology.hop_distance(a, b) == depths[a][b]
            assert topology.hop_distance(b, a) == depths[b][a]

    @pytest.mark.parametrize("query", [
        lambda t: t.eccentricity(99),
        lambda t: t.hop_distance(99, 99),
        lambda t: t.hop_distance(0, 99),
        lambda t: t.hop_distance(99, 0),
        # the memoised source path: the BFS from 0 has already run
        lambda t: (t.hop_distance(0, 8), t.hop_distance(0, 99)),
    ], ids=["eccentricity", "self-distance", "target", "source",
            "memoised-target"])
    def test_hop_queries_reject_an_unknown_node(self, grid33, query):
        with pytest.raises(ConfigurationError, match="node 99 is not in"):
            query(grid33)

    def test_hop_distance_leaves_eccentricities_alone(self, grid33):
        survivor, _ = surviving_topology(grid33, dead_nodes=[8], anchor=0)
        anchor_entry = dict(survivor._eccentricities)
        assert anchor_entry == {0: 3}
        assert [survivor.hop_distance(n, 0) for n in survivor.nodes] == \
            [0, 1, 2, 1, 2, 3, 2, 3]
        assert survivor._eccentricities == anchor_entry
        assert survivor.eccentricity(0) == 3
        assert survivor.eccentricity(4) == 2
        assert grid33.eccentricity(0) == 4

    def test_distance_requires_positions(self):
        topo = from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            topo.distance(0, 1)

    def test_distance_euclidean(self, chain5):
        assert chain5.distance(0, 3) == pytest.approx(300.0)

    def test_disconnected_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(ConfigurationError, match="connected"):
            MeshTopology(graph)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshTopology(nx.Graph())

    def test_non_integer_nodes_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(ConfigurationError, match="integer"):
            MeshTopology(graph)

    def test_self_loop_rejected(self):
        # a loop would list node 1 among its own links and neighbours, so
        # the channel would deliver its frames to itself
        with pytest.raises(ConfigurationError,
                           match=r"degenerate edge \(1, 1\)"):
            MeshTopology(nx.Graph([(0, 1), (1, 1)]))


@pytest.mark.parametrize("build, match", [
    (lambda: random_disk_topology(5, 100.0, 200.0, max_tries=0, seed=1),
     "max_tries"),
    (lambda: random_disk_topology(5, 100.0, 200.0, max_tries=-1, seed=1),
     "max_tries"),
    (lambda: random_disk_topology(5, float("nan"), 200.0, seed=1),
     "radio_range"),
    (lambda: random_disk_topology(5, 100.0, float("inf"), seed=1), "area"),
    (lambda: chain_topology(2.5), "num_nodes"),
    (lambda: chain_topology(True), "num_nodes"),
    (lambda: grid_topology(2.0, 2), "rows"),
    (lambda: star_topology(1.5), "num_leaves"),
    (lambda: binary_tree_topology(1.5), "depth"),
    (lambda: MeshTopology(nx.DiGraph([(0, 1), (1, 2)])), "undirected"),
    (lambda: MeshTopology(nx.DiGraph([(1, 0), (1, 2)])), "undirected"),
    (lambda: from_edges([(0, 1, 2)]), "node pair"),
    (lambda: from_edges([(True, 2)]), "integers"),
    (lambda: chain_topology(3).apply_edge_changes(remove=[(0,)]),
     "node pair"),
], ids=["disk-max-tries-0", "disk-max-tries-negative", "disk-nan-range",
        "disk-infinite-area", "chain-float", "chain-bool", "grid-float",
        "star-float", "btree-float", "digraph-chain", "digraph-fork",
        "edge-triple", "bool-node", "remove-single"])
def test_bad_topology_input_raises_configuration_error(build, match):
    with pytest.raises(ConfigurationError, match=match):
        build()


class TestChain:
    def test_structure(self):
        topo = chain_topology(4)
        assert topo.num_nodes() == 4
        assert topo.num_links() == 6
        assert topo.neighbors(1) == [0, 2]

    def test_single_node(self):
        topo = chain_topology(1)
        assert topo.num_nodes() == 1
        assert topo.num_links() == 0

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            chain_topology(0)

    def test_positions_spaced(self):
        topo = chain_topology(3, spacing=50.0)
        assert topo.positions[2] == (100.0, 0.0)


class TestGrid:
    def test_structure(self):
        topo = grid_topology(2, 3)
        assert topo.num_nodes() == 6
        # 2*3 grid has 7 undirected edges
        assert topo.num_links() == 14

    def test_node_ids_row_major(self):
        topo = grid_topology(3, 3)
        # node 4 is the center; corner 0 connects right (1) and down (3)
        assert topo.neighbors(0) == [1, 3]

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            grid_topology(0, 3)


class TestStar:
    def test_all_leaves_connect_to_hub(self):
        topo = star_topology(5)
        assert topo.num_nodes() == 6
        for leaf in range(1, 6):
            assert topo.neighbors(leaf) == [0]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            star_topology(0)


class TestBinaryTree:
    def test_depth_zero_is_single_node(self):
        assert binary_tree_topology(0).num_nodes() == 1

    def test_complete_tree_node_count(self):
        assert binary_tree_topology(3).num_nodes() == 15

    def test_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            binary_tree_topology(-1)


class TestRandomDisk:
    def test_connected_and_within_range(self):
        rng = np.random.default_rng(5)
        topo = random_disk_topology(12, radio_range=400.0, area=800.0,
                                    rng=rng)
        assert topo.num_nodes() == 12
        assert nx.is_connected(topo.graph)
        for u, v in topo.graph.edges:
            assert topo.distance(u, v) <= 400.0 + 1e-9

    def test_non_edges_out_of_range(self):
        rng = np.random.default_rng(5)
        topo = random_disk_topology(10, radio_range=400.0, area=800.0,
                                    rng=rng)
        for u in topo.nodes:
            for v in topo.nodes:
                if u < v and not topo.graph.has_edge(u, v):
                    assert topo.distance(u, v) > 400.0

    def test_reproducible_given_rng_seed(self):
        topo1 = random_disk_topology(8, 400.0, 700.0,
                                     np.random.default_rng(3))
        topo2 = random_disk_topology(8, 400.0, 700.0,
                                     np.random.default_rng(3))
        assert set(topo1.graph.edges) == set(topo2.graph.edges)

    def test_impossible_parameters_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="connected"):
            random_disk_topology(20, radio_range=10.0, area=10_000.0,
                                 rng=rng, max_tries=5)

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            random_disk_topology(0, 100.0, 100.0, rng)
        with pytest.raises(ConfigurationError):
            random_disk_topology(5, -1.0, 100.0, rng)

    def test_seed_kwarg_reproducible(self):
        topo1 = random_disk_topology(8, 400.0, 700.0, seed=11)
        topo2 = random_disk_topology(8, 400.0, 700.0, seed=11)
        assert set(topo1.graph.edges) == set(topo2.graph.edges)
        assert topo1.positions == topo2.positions

    def test_rng_and_seed_agree(self):
        """seed=N is exactly rng=default_rng(N): same derived placements."""
        via_seed = random_disk_topology(8, 400.0, 700.0, seed=7)
        via_rng = random_disk_topology(8, 400.0, 700.0,
                                       rng=np.random.default_rng(7))
        assert via_seed.positions == via_rng.positions

    def test_needs_rng_or_seed(self):
        with pytest.raises(ConfigurationError, match="rng or a seed"):
            random_disk_topology(5, 100.0, 100.0)

    def test_failure_message_includes_seed(self):
        with pytest.raises(ConfigurationError, match="seed=99"):
            random_disk_topology(20, radio_range=10.0, area=10_000.0,
                                 seed=99, max_tries=5)


class TestSurvivingTopology:
    def test_identity_with_no_faults(self, chain5):
        survivor, unreachable = surviving_topology(chain5)
        assert survivor.nodes == chain5.nodes
        assert survivor.links == chain5.links
        assert unreachable == frozenset()

    def test_dead_node_partitions_chain(self, chain5):
        survivor, unreachable = surviving_topology(chain5, dead_nodes=[2],
                                                   anchor=0)
        assert survivor.nodes == [0, 1]
        assert unreachable == frozenset({2, 3, 4})

    def test_dead_edge_is_undirected(self, chain5):
        for edge in [(1, 2), (2, 1)]:
            survivor, unreachable = surviving_topology(
                chain5, dead_edges=[edge], anchor=0)
            assert survivor.nodes == [0, 1]
            assert unreachable == frozenset({2, 3, 4})

    def test_redundant_edge_keeps_everyone(self):
        grid = grid_topology(2, 2)
        survivor, unreachable = surviving_topology(grid, dead_edges=[(0, 1)])
        assert survivor.nodes == grid.nodes
        assert unreachable == frozenset()
        assert not survivor.has_link((0, 1))

    def test_positions_carried_over(self, chain5):
        survivor, _ = surviving_topology(chain5, dead_nodes=[4])
        assert survivor.positions[3] == chain5.positions[3]

    def test_dead_anchor_raises(self, chain5):
        with pytest.raises(ConfigurationError, match="anchor"):
            surviving_topology(chain5, dead_nodes=[0], anchor=0)

    def test_unknown_dead_entries_ignored(self, chain5):
        survivor, unreachable = surviving_topology(
            chain5, dead_nodes=[99], dead_edges=[(7, 8)])
        assert survivor.nodes == chain5.nodes
        assert unreachable == frozenset()

    def test_base_topology_unmodified(self, chain5):
        before = list(chain5.graph.edges)
        surviving_topology(chain5, dead_nodes=[2], dead_edges=[(0, 1)])
        assert list(chain5.graph.edges) == before


def test_from_edges():
    topo = from_edges([(0, 1), (1, 2)], name="tiny")
    assert topo.name == "tiny"
    assert topo.num_links() == 4
