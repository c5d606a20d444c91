"""Scalar references for :class:`TopologyStream`.

The pair-by-pair loop ``snapshots`` ran before it became one batched
distance sweep, kept here as the oracle the sweep is checked against:
every node's position at every sample time, one ``math.hypot`` per
present pair in row-major order, and the radio's disk rule at t=0 and
its hysteresis rule after.  The edge sets are built by inserting the
live pairs in that order into a ``set`` and freezing it, so their
iteration order is part of what the oracle pins.

The union base of :meth:`TopologyStream.fault_plan` is checked against
the ``from_edges`` construction it was built with before it was built
from rows: a ``networkx`` union of the snapshots, the gateway's
component of it, and :func:`~repro.net.topology.from_edges` over the
kept edges.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.net.topology import from_edges


def scalar_snapshots(stream):
    """``(snapshots, first_seen)`` of ``stream``, computed pair by pair.

    Reads only the stream's motion, radio and sample grid; the stream's
    own cache is left untouched.
    """
    radio = stream.radio
    nominal = radio.range_m
    keep = radio.range_m * (1.0 + radio.hysteresis)
    form = radio.range_m * (1.0 - radio.hysteresis)
    nodes = tuple(stream.motion.nodes)
    first_seen: dict[int, tuple[float, float]] = {}
    up: set[tuple[int, int]] = set()
    result = []
    for step, t in enumerate(stream.sample_times()):
        positions = {}
        for node in nodes:
            xy = stream.motion.position(node, t)
            if xy is not None:
                positions[node] = xy
                first_seen.setdefault(node, xy)
        present = sorted(positions)
        edges = set()
        for i, u in enumerate(present):
            for v in present[i + 1:]:
                (xu, yu), (xv, yv) = positions[u], positions[v]
                d = math.hypot(xu - xv, yu - yv)
                if step == 0:
                    alive = d <= nominal
                else:
                    alive = d <= (keep if (u, v) in up else form)
                if alive:
                    edges.add((u, v))
        up = edges
        result.append((t, frozenset(present), frozenset(edges)))
    return result, first_seen


def assert_same_snapshots(stream) -> None:
    """``stream.snapshots()`` equals the oracle, down to set order.

    Each snapshot's time, node set and edge set must be equal, and both
    sets must iterate in the same order (consumers walk them), as must
    the first-seen positions.
    """
    expected, first_seen = scalar_snapshots(stream)
    got = list(stream.snapshots())
    assert got == expected
    for (t, nodes, edges), (_, want_nodes, want_edges) in zip(got,
                                                             expected):
        assert list(nodes) == list(want_nodes), t
        assert list(edges) == list(want_edges), t
    assert stream._first_seen == first_seen
    assert list(stream._first_seen.items()) == list(first_seen.items())


def assert_union_base_matches_from_edges(stream, gateway, topology,
                                         dropped) -> None:
    """``(topology, dropped)`` is the ``from_edges`` union base.

    Rows, edges, links, positions (each node's first-seen sample, read
    from the motion), name, and the node and edge sets of ``.graph``
    must all equal the oracle's; ``dropped`` must be the union nodes
    outside the gateway's component.
    """
    union = nx.Graph()
    for _, nodes, edges in stream.snapshots():
        union.add_nodes_from(nodes)
        union.add_edges_from(edges)
    component = nx.node_connected_component(union, gateway)
    first_seen = {n: next(xy for xy in (stream.motion.position(n, t)
                                        for t in stream.sample_times())
                          if xy is not None)
                  for n in component}
    want = from_edges(sorted(e for e in union.edges if e[0] in component),
                      name="mobility-union", positions=first_seen)
    assert topology.rows == want.rows
    assert topology.edges == want.edges
    assert topology.links == want.links
    assert topology.positions == want.positions
    assert topology.name == want.name
    assert set(topology.graph.nodes) == set(want.graph.nodes)
    assert ({tuple(sorted(e)) for e in topology.graph.edges}
            == {tuple(sorted(e)) for e in want.graph.edges})
    assert dropped == frozenset(union) - component
