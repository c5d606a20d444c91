"""The three BFS loops :func:`repro.net.topology.bfs_levels` replaced.

Each walked the same sorted rows level by level and differed only in
what it recorded per discovery: the depth (``hop_depths``), the nearest
source (``_nearest_sources``) or the parent (``_bfs_parents``).  They
are kept here unchanged as the references the one kernel and its
consumers are checked against, so no oracle calls the code under test.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional


def hop_depths(adjacency: Mapping[int, Iterable[int]],
               sources: Iterable[int],
               cutoff: Optional[int] = None) -> dict[int, int]:
    """Multi-source BFS over ``adjacency`` (e.g. :attr:`MeshTopology.rows`):
    hops from the nearest source to each node within ``cutoff``."""
    depths = dict.fromkeys(sources, 0)
    frontier, depth = list(depths), 0
    while frontier and depth != cutoff:
        depth += 1
        following = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in depths:
                    depths[v] = depth
                    following.append(v)
        frontier = following
    return depths


def _nearest_sources(rows: Mapping[int, Iterable[int]],
                     sources: Iterable[int]) -> tuple[dict[int, int], int]:
    """Nearest source by hops for every node the sources reach.

    One level-synchronous multi-source BFS over ``rows`` (e.g. live rows,
    :func:`_update_live_rows`, whose keys are the live nodes).  Ties go
    to the smallest source id: the sources start the queue in sorted
    order and every node inherits its discoverer's source, so each level
    stays sorted by source and a node is first reached from the smallest
    of its nearest sources.  Sources outside ``rows`` reach nothing;
    unreached nodes are absent.  Also returns the depth of the last level
    (0 when the sources reach nothing else).
    """
    nearest = {source: source for source in sorted(set(sources))
               if source in rows}
    frontier, depth = list(nearest), 0
    while True:
        following = []
        for u in frontier:
            source = nearest[u]
            for v in rows[u]:
                if v not in nearest:
                    nearest[v] = source
                    following.append(v)
        if not following:
            return nearest, depth
        frontier = following
        depth += 1


def _bfs_parents(topology, source: int,
                 stop: Optional[int] = None) -> dict[int, int]:
    """BFS parent of every node reached from ``source`` (``source`` maps
    to itself), expanding neighbours in sorted order.

    The first discovery fixes a node's parent, so the tree path from
    ``source`` to any node is the lexicographically smallest min-hop
    path.  The search ends after the level that reaches ``stop``.
    """
    parents = {source: source}
    frontier = [source]
    rows = topology.rows
    while frontier and stop not in parents:
        following = []
        for node in frontier:
            for neighbor in rows[node]:
                if neighbor not in parents:
                    parents[neighbor] = node
                    following.append(neighbor)
        frontier = following
    return parents
