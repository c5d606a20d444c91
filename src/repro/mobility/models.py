"""Deterministic node-motion models (S36).

A motion model animates node positions over a bounded horizon.  All
models share one duck-typed interface, which :class:`MobilityTrace`
(:mod:`repro.mobility.trace`) also implements:

- ``nodes`` -- sorted tuple of node ids the model animates;
- ``horizon_s`` -- the time span covered, seconds;
- ``position(node, t)`` -- the node's ``(x, y)`` metres at time ``t``,
  or ``None`` when the node is absent from the field at ``t``.

Everything is a pure function of the constructor arguments: the
random-waypoint model pre-draws its whole itinerary from the supplied
RNG at construction, so two models built from the same seed walk
byte-identical paths -- the property that lets the runtime cache and
shard mobility experiments (E20) like any other sweep.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.net.topology import MeshTopology

#: A scalar speed or an inclusive (low, high) uniform speed range, m/s.
SpeedLike = Union[float, tuple[float, float]]

#: One straight-line leg: (t_start, t_end, (x0, y0), (x1, y1)).
Segment = tuple[float, float, tuple[float, float], tuple[float, float]]


def _speed_range(speed_mps: SpeedLike) -> tuple[float, float]:
    if isinstance(speed_mps, tuple):
        lo, hi = float(speed_mps[0]), float(speed_mps[1])
    else:
        lo = hi = float(speed_mps)
    if not 0 <= lo <= hi < math.inf:  # NaN fails every comparison
        raise ConfigurationError(
            f"speed range must be finite, 0 <= low <= high, got {speed_mps}")
    return lo, hi


def _interpolate(segment: Segment, t: float) -> tuple[float, float]:
    t0, t1, (x0, y0), (x1, y1) = segment
    if t1 <= t0:
        return (x0, y0)
    frac = (t - t0) / (t1 - t0)
    return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))


class _SegmentModel:
    """Shared piecewise-linear playback over per-node segment lists."""

    def __init__(self, segments: Mapping[int, Sequence[Segment]],
                 horizon_s: float) -> None:
        if horizon_s <= 0:
            raise ConfigurationError("horizon_s must be positive")
        self.horizon_s = float(horizon_s)
        self._segments = {node: list(segs)
                          for node, segs in segments.items()}
        self._starts = {node: [s[0] for s in segs]
                        for node, segs in self._segments.items()}
        self.nodes: tuple[int, ...] = tuple(sorted(self._segments))

    def position(self, node: int, t: float
                 ) -> Optional[tuple[float, float]]:
        """The node's (x, y) at time ``t``, or ``None`` if absent."""
        segments = self._segments.get(node)
        if not segments or t < 0:
            return None
        index = bisect.bisect_right(self._starts[node], t) - 1
        if index < 0:
            return None
        segment = segments[index]
        if t > segment[1]:
            return None
        return _interpolate(segment, min(t, segment[1]))


class RandomWaypointModel(_SegmentModel):
    """The classic seeded random-waypoint model on a square field.

    Each node starts at a uniform position in the ``area x area`` field
    (every start is drawn before any leg, so the t=0 layout depends only
    on the seed and node count -- not on speed), then repeatedly picks a
    uniform waypoint, travels to it at a speed drawn uniformly from
    ``speed_mps`` (a scalar pins the speed), and pauses ``pause_s``
    before the next leg.  A zero speed degenerates to a static layout,
    which is the E20 baseline arm.

    Randomness follows the standard ``rng=``/``seed=`` pair.
    ``initial_positions`` (e.g. a generated topology's layout, see
    :meth:`from_topology`) overrides the uniform starts.
    """

    def __init__(self, num_nodes: int, area: float, speed_mps: SpeedLike,
                 horizon_s: float, pause_s: float = 0.0,
                 rng=None, seed: Optional[int] = None,
                 initial_positions: Optional[
                     Mapping[int, tuple[float, float]]] = None) -> None:
        from repro.sim.random import resolve_rng

        if num_nodes < 1:
            raise ConfigurationError("need at least one node")
        # written so that NaN fails too: every comparison with it is False
        if not 0 < area < math.inf:
            raise ConfigurationError(
                f"area must be positive and finite, got {area!r}")
        if not 0 < horizon_s < math.inf:
            raise ConfigurationError(
                f"horizon_s must be positive and finite, got {horizon_s!r}")
        if not 0 <= pause_s < math.inf:
            raise ConfigurationError(
                f"pause_s must be non-negative and finite, got {pause_s!r}")
        low, high = _speed_range(speed_mps)
        moving = high > 0
        rng = (resolve_rng(rng, seed, what="RandomWaypointModel")
               if moving or initial_positions is None else None)
        self.area = float(area)
        starts: dict[int, tuple[float, float]] = {}
        for node in range(num_nodes):
            if initial_positions is not None:
                try:
                    x, y = initial_positions[node]
                except KeyError:
                    raise ConfigurationError(
                        f"initial_positions misses node {node}") from None
                starts[node] = (float(x), float(y))
            else:
                starts[node] = (float(rng.uniform(0.0, area)),
                                float(rng.uniform(0.0, area)))
        segments: dict[int, list[Segment]] = {}
        for node in range(num_nodes):
            position = starts[node]
            if not moving:
                segments[node] = [(0.0, float(horizon_s), position,
                                   position)]
                continue
            legs: list[Segment] = []
            t = 0.0
            while t < horizon_s:
                target = (float(rng.uniform(0.0, area)),
                          float(rng.uniform(0.0, area)))
                speed = float(rng.uniform(low, high)) if high > low else high
                distance = math.hypot(target[0] - position[0],
                                      target[1] - position[1])
                if speed <= 0 or distance == 0:
                    legs.append((t, float(horizon_s), position, position))
                    t = float(horizon_s)
                    break
                arrive = t + distance / speed
                legs.append((t, arrive, position, target))
                position = target
                t = arrive
                if pause_s > 0 and t < horizon_s:
                    legs.append((t, t + pause_s, position, position))
                    t += pause_s
            segments[node] = legs
        super().__init__(segments, horizon_s)

    @classmethod
    def from_topology(cls, topology: MeshTopology, speed_mps: SpeedLike,
                      horizon_s: float, area: Optional[float] = None,
                      pause_s: float = 0.0, rng=None,
                      seed: Optional[int] = None) -> "RandomWaypointModel":
        """Waypoint motion seeded from a generated topology's real layout.

        Node ids and t=0 positions come from ``topology.positions`` (see
        :meth:`~repro.net.topology.MeshTopology.position`); ``area``
        defaults to the layout's bounding square.
        """
        if not topology.has_positions:
            raise ConfigurationError(
                f"{topology.name} has no positions to seed motion from")
        nodes = topology.nodes
        if nodes != list(range(len(nodes))):
            raise ConfigurationError(
                "from_topology needs contiguous node ids 0..n-1")
        positions = {n: topology.position(n) for n in nodes}
        if area is None:
            area = max(coord for xy in positions.values()
                       for coord in xy) or 1.0
        return cls(len(nodes), area, speed_mps, horizon_s, pause_s=pause_s,
                   rng=rng, seed=seed, initial_positions=positions)


def _fold(value: float, span: float) -> float:
    """Reflect an unbounded coordinate into ``[0, span]`` (billiard walls)."""
    period = 2.0 * span
    value %= period
    return value if value <= span else period - value


class ConstantVelocityModel:
    """Straight-line motion, optionally reflecting off a square field.

    Every node moves from its initial position at a constant per-node
    velocity.  With ``area`` set, nodes bounce elastically off the walls
    of the ``[0, area] x [0, area]`` field (closed-form triangle-wave
    fold, no integration error); without it they drift unbounded.  This
    is the vehicular "constant-velocity path" model: good for convoys,
    drive-bys and worst-case link-lifetime analysis.
    """

    def __init__(self, positions: Mapping[int, tuple[float, float]],
                 velocities: Mapping[int, tuple[float, float]],
                 horizon_s: float,
                 area: Optional[float] = None) -> None:
        if not 0 < horizon_s < math.inf:
            raise ConfigurationError(
                f"horizon_s must be positive and finite, got {horizon_s!r}")
        if not positions:
            raise ConfigurationError("need at least one node")
        missing = sorted(set(positions) - set(velocities))
        if missing:
            raise ConfigurationError(
                f"velocities missing for nodes {missing}")
        if area is not None and not 0 < area < math.inf:
            raise ConfigurationError(
                f"area must be positive and finite, got {area!r}")
        if not all(map(math.isfinite, itertools.chain.from_iterable(
                (*positions.values(), *velocities.values())))):
            raise ConfigurationError("positions and velocities must be finite")
        self.horizon_s = float(horizon_s)
        self.area = area
        self._positions = {n: (float(x), float(y))
                           for n, (x, y) in positions.items()}
        self._velocities = {n: (float(vx), float(vy))
                            for n, (vx, vy) in velocities.items()}
        self.nodes: tuple[int, ...] = tuple(sorted(self._positions))

    def position(self, node: int, t: float
                 ) -> Optional[tuple[float, float]]:
        """The node's (x, y) at time ``t``, or ``None`` if absent."""
        start = self._positions.get(node)
        if start is None or t < 0 or t > self.horizon_s:
            return None
        vx, vy = self._velocities[node]
        x, y = start[0] + vx * t, start[1] + vy * t
        if self.area is not None:
            x, y = _fold(x, self.area), _fold(y, self.area)
        return (x, y)
