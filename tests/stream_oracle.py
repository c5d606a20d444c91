"""A scalar reference for :meth:`TopologyStream.snapshots`.

The pair-by-pair loop ``snapshots`` ran before it became one batched
distance sweep, kept here as the oracle the sweep is checked against:
every node's position at every sample time, one ``math.hypot`` per
present pair in row-major order, and the radio's disk rule at t=0 and
its hysteresis rule after.  The edge sets are built by inserting the
live pairs in that order into a ``set`` and freezing it, so their
iteration order is part of what the oracle pins.
"""

from __future__ import annotations

import math


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
