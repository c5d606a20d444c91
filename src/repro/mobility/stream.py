"""Positions -> timestamped topology deltas (S36).

A :class:`TopologyStream` samples a motion model (or replayed trace)
every ``dt`` seconds, maps pairwise distances through a
:class:`RadioRangeModel`, and emits the *differences* between
consecutive connectivity snapshots as :class:`TopologyDelta` events:
links forming and breaking, nodes joining and leaving the field.

The stream is the bridge between geometry and the fault machinery.
:meth:`TopologyStream.fault_plan` lowers the delta stream onto the
existing :class:`~repro.faults.plan.FaultPlan` vocabulary against a
fixed *union* base topology (every node and link that ever exists,
restricted to the gateway's component), plus the initial dead sets that
describe the t=0 world.  A :class:`~repro.core.repair.RepairEngine`
seeded with that base and those dead sets then survives sustained
churn exactly as it survives scripted faults -- mobility needs no new
repair code, only this lowering.

Hysteresis matters: with ``hysteresis=0`` a node oscillating around the
range boundary flaps its links every step.  The radio model forms a
link only once the pair is *well* inside range and breaks it only once
*well* outside, which is also how real drivers debounce association.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent, _check_time, _sorted_link
from repro.faults.plan import FaultPlan
from repro.net.topology import (
    MeshTopology,
    _adjacency,
    _nearest_sources,
    bfs_levels,
)

#: Delta kinds a stream can emit.
DELTA_KINDS = frozenset({"link_up", "link_down", "node_join", "node_leave"})

#: Pair-samples per block of :meth:`TopologyStream.snapshots`' distance
#: sweep: bounds its arrays to a few MB whatever the node count.
_SWEEP_PAIR_SAMPLES = 1 << 20

#: Coordinates stored for an absent node (its pairs are never linked).
_ABSENT = (0.0, 0.0)

#: How stream delta kinds lower onto the fault-event vocabulary.
_FAULT_KIND = {"link_up": "link_up", "link_down": "link_down",
               "node_join": "node_up", "node_leave": "node_down"}


class RadioRangeModel:
    """Disk connectivity with symmetric hysteresis debouncing.

    A link *forms* once the pair distance drops to ``range_m * (1 -
    hysteresis)`` and *breaks* once it exceeds ``range_m * (1 +
    hysteresis)``; in between, the previous state holds.  At t=0 (no
    previous state) the nominal ``d <= range_m`` disk rule applies, so a
    stream over a static layout reproduces exactly the graph
    :func:`~repro.net.topology.random_disk_topology` would build from
    the same positions and range.
    """

    def __init__(self, range_m: float, hysteresis: float = 0.1) -> None:
        # written so that NaN fails too: every comparison with it is False
        if not 0 < range_m < math.inf:
            raise ConfigurationError(
                f"range_m must be positive and finite, got {range_m!r}")
        if not 0.0 <= hysteresis < 1.0:
            raise ConfigurationError(
                f"hysteresis must be in [0, 1), got {hysteresis}")
        self.range_m = float(range_m)
        self.hysteresis = float(hysteresis)

    @classmethod
    def from_path_loss(cls, path_loss, tx_power_dbm: float,
                       sensitivity_dbm: float,
                       hysteresis: float = 0.1) -> "RadioRangeModel":
        """The disk range implied by a link budget.

        ``path_loss`` is any object with a ``range_m(tx_power_dbm,
        rss_dbm)`` inverse (a :class:`~repro.phy.models.PathLossModel`):
        the disk radius is the distance at which the received power
        falls to ``sensitivity_dbm``.  This is how an
        :class:`~repro.phy.models.SinrModel` and a mobility stream share
        one set of radio physics instead of two hand-picked ranges --
        see :meth:`~repro.phy.models.SinrModel.radio_range_model`.
        """
        return cls(path_loss.range_m(tx_power_dbm, sensitivity_dbm),
                   hysteresis=hysteresis)

    def thresholds(self) -> tuple[float, float, float]:
        """``(nominal, keep, form)`` distances in metres.

        A pair is linked at t=0 iff its distance is at most ``nominal``;
        after that an up link stays up iff it is at most ``keep`` and a
        down link forms iff it is at most ``form``.
        """
        return (self.range_m, self.range_m * (1.0 + self.hysteresis),
                self.range_m * (1.0 - self.hysteresis))

    def initial(self, distance: float) -> bool:
        """Nominal disk rule for the very first snapshot."""
        return distance <= self.thresholds()[0]

    def next_state(self, was_up: bool, distance: float) -> bool:
        """Debounced link state given the previous state and new distance."""
        _, keep, form = self.thresholds()
        return distance <= (keep if was_up else form)


@dataclass(frozen=True)
class TopologyDelta:
    """One timestamped connectivity change emitted by a stream.

    ``link_up``/``link_down`` carry the undirected ``link`` (normalised
    to the sorted pair); ``node_join``/``node_leave`` carry the ``node``.
    A leaving node's incident links get their own ``link_down`` deltas at
    the same timestamp, so the link state is always the full edge-set
    diff -- consumers never need to infer implied link changes.
    """

    at_s: float
    kind: str
    node: Optional[int] = None
    link: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KINDS:
            raise ConfigurationError(
                f"unknown delta kind {self.kind!r}; expected one of "
                f"{sorted(DELTA_KINDS)}")
        _check_time(self.at_s, "delta")
        if self.kind.startswith("node"):
            if self.node is None or self.link is not None:
                raise ConfigurationError(f"{self.kind} delta needs a node")
        else:
            if self.link is None or self.node is not None:
                raise ConfigurationError(f"{self.kind} delta needs a link")
            object.__setattr__(self, "link", _sorted_link(self.link))

    def sort_key(self) -> tuple:
        """Deterministic total order: time, kind, victim."""
        return (self.at_s, self.kind,
                self.node if self.node is not None else -1,
                self.link or (-1, -1))


@dataclass(frozen=True)
class StreamWorld:
    """A stream lowered onto the fault machinery's vocabulary.

    ``topology`` is the union base (the gateway's component of every
    node/link that ever exists); ``dead_nodes``/``dead_edges`` describe
    what is *missing at t=0* relative to that base; ``plan`` replays the
    remaining deltas as fault events.  ``dropped_nodes`` lists union
    nodes outside the gateway component -- they never matter to the
    scheduled mesh and are excised from the plan too.
    """

    topology: MeshTopology
    dead_nodes: frozenset[int]
    dead_edges: frozenset[tuple[int, int]]
    plan: FaultPlan
    dropped_nodes: frozenset[int] = field(default_factory=frozenset)


class TopologyStream:
    """Sampled motion + radio range -> snapshots and deltas.

    Parameters
    ----------
    motion:
        Any motion-interface object (:mod:`repro.mobility.models` model
        or :class:`~repro.mobility.trace.MobilityTrace`).
    radio:
        A :class:`RadioRangeModel`, a bare range in metres (default
        hysteresis applies), or an object with a ``radio_range_model()``
        method -- e.g. an :class:`~repro.phy.models.SinrModel`, whose
        link budget then drives connectivity, so the stream and the
        SINR conflict backend agree on the communication range.
    dt:
        Sampling period, seconds.  Also the delta timestamp grain.
    horizon_s:
        Stream end time; defaults to the motion's own horizon.
    """

    def __init__(self, motion, radio: Union[RadioRangeModel, float],
                 dt: float = 1.0,
                 horizon_s: Optional[float] = None) -> None:
        if not 0 < dt < math.inf:
            raise ConfigurationError(
                f"dt must be positive and finite, got {dt!r}")
        if not isinstance(radio, RadioRangeModel):
            if hasattr(radio, "radio_range_model"):
                radio = radio.radio_range_model()
            else:
                radio = RadioRangeModel(float(radio))
        self.motion = motion
        self.radio = radio
        self.dt = float(dt)
        self.horizon_s = float(motion.horizon_s if horizon_s is None
                               else horizon_s)
        if not 0 <= self.horizon_s < math.inf:
            raise ConfigurationError(
                "horizon_s must be non-negative and finite, got "
                f"{self.horizon_s!r}")
        self._snapshots: Optional[list[tuple[float, frozenset[int],
                                    frozenset[tuple[int, int]]]]] = None
        self._first_seen: dict[int, tuple[float, float]] = {}
        self._worlds: dict[int, StreamWorld] = {}

    def sample_times(self) -> list[float]:
        """The sampling grid ``0, dt, 2*dt, ...`` up to the horizon."""
        steps = int(self.horizon_s / self.dt + 1e-9)
        return [round(k * self.dt, 9) for k in range(steps + 1)]

    def snapshots(self) -> list[tuple[float, frozenset[int],
                                      frozenset[tuple[int, int]]]]:
        """``(t, present_nodes, present_edges)`` per sample time.

        Computed once per stream and cached; every other accessor derives
        from this list.  One sweep: every node's position at every sample
        time, then every present pair's distance at once (one
        ``np.hypot`` over a block of samples), then one vectorised
        radio step per sample -- the disk rule at t=0, hysteresis after
        (:meth:`RadioRangeModel.thresholds`).  A distance within a
        relative 1e-12 of a threshold is recomputed with ``math.hypot``,
        so every link decision is the one the scalar
        :meth:`RadioRangeModel.initial`/:meth:`~RadioRangeModel.next_state`
        make.  Each edge set is built by inserting its pairs in
        row-major order into a ``set`` before freezing it, so its
        iteration order -- which :meth:`deltas` and :meth:`fault_plan`
        follow -- is that of the pair-by-pair construction.
        """
        if self._snapshots is not None:
            return self._snapshots
        times = self.sample_times()
        ids = sorted(set(self.motion.nodes))
        shape = (len(times), len(ids))
        grid = [[self.motion.position(node, t) for node in ids]
                for t in times]
        for row in grid:
            for node, xy in zip(ids, row):
                if xy is not None:
                    self._first_seen.setdefault(node, xy)
            if len(self._first_seen) == len(ids):
                break
        here = np.fromiter((xy is not None for row in grid for xy in row),
                           dtype=bool, count=shape[0] * shape[1]
                           ).reshape(shape)
        coords = np.fromiter(itertools.chain.from_iterable(
            _ABSENT if xy is None else xy for row in grid for xy in row),
            dtype=float, count=2 * shape[0] * shape[1]).reshape(*shape, 2)
        first, second = np.triu_indices(len(ids), 1)
        pairs = [(ids[i], ids[j])
                 for i, j in zip(first.tolist(), second.tolist())]
        thresholds = self.radio.thresholds()
        nominal, keep, form = thresholds
        block = max(1, _SWEEP_PAIR_SAMPLES // max(1, len(pairs)))
        up = None
        result = []
        for start in range(0, len(times), block):
            samples = slice(start, start + block)
            dx = coords[samples, first, 0] - coords[samples, second, 0]
            dy = coords[samples, first, 1] - coords[samples, second, 1]
            distance = np.hypot(dx, dy)
            # np.hypot and math.hypot may round an ulp apart: re-decide
            # every distance that close to a threshold with math.hypot
            near = np.zeros(distance.shape, dtype=bool)
            for threshold in thresholds:
                near |= np.abs(distance - threshold) <= 1e-12 * threshold
            for k, i in zip(*np.nonzero(near)):
                distance[k, i] = math.hypot(dx[k, i], dy[k, i])
            linked = here[samples, first] & here[samples, second]
            for k, t in enumerate(times[samples]):
                if up is None:
                    up = linked[k] & (distance[k] <= nominal)
                else:
                    up = linked[k] & (distance[k]
                                      <= np.where(up, keep, form))
                present = [node for node, xy in zip(ids, grid[start + k])
                           if xy is not None]
                # insert in row-major order, then freeze: the set layout
                # (and so iteration order) of the pair-by-pair build
                edges = set([pairs[i] for i in np.flatnonzero(up).tolist()])
                result.append((t, frozenset(present), frozenset(edges)))
        self._snapshots = result
        return result

    def deltas(self) -> list[TopologyDelta]:
        """The full diff between consecutive snapshots, time-sorted.

        The t=0 snapshot is the starting state, not a delta: the first
        deltas carry the second sample's timestamp.
        """
        out: list[TopologyDelta] = []
        snaps = self.snapshots()
        for (t0, nodes0, edges0), (t1, nodes1, edges1) in zip(snaps,
                                                              snaps[1:]):
            for node in nodes1 - nodes0:
                out.append(TopologyDelta(t1, "node_join", node=node))
            for node in nodes0 - nodes1:
                out.append(TopologyDelta(t1, "node_leave", node=node))
            for link in edges1 - edges0:
                out.append(TopologyDelta(t1, "link_up", link=link))
            for link in edges0 - edges1:
                out.append(TopologyDelta(t1, "link_down", link=link))
        out.sort(key=TopologyDelta.sort_key)
        return out

    def union(self) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
        """Every node and edge present in *any* snapshot."""
        nodes: set[int] = set()
        edges: set[tuple[int, int]] = set()
        for _, snap_nodes, snap_edges in self.snapshots():
            nodes |= snap_nodes
            edges |= snap_edges
        return frozenset(nodes), frozenset(edges)

    def union_topology(self, gateway: int = 0
                       ) -> tuple[MeshTopology, frozenset[int]]:
        """The gateway's component of the union graph, plus dropped nodes.

        Positions record each node's first-seen sample (for plotting and
        re-seeding).  Nodes that never connect to the gateway's
        component -- even transitively, even briefly -- are dropped: no
        schedule can ever carry their traffic.
        """
        nodes, edges = self.union()
        if gateway not in nodes:
            raise ConfigurationError(
                f"gateway {gateway} never appears in the stream")
        adjacency = _adjacency(nodes, edges)
        component, _ = bfs_levels(adjacency, [gateway])
        if len(component) == 1:
            raise ConfigurationError(
                f"gateway {gateway} never hears another node; "
                "no mesh to schedule")
        rows = {n: tuple(sorted(adjacency[n])) for n in sorted(component)}
        positions = {n: self._first_seen[n] for n in rows}
        topology = MeshTopology._from_rows(rows, positions, "mobility-union")
        return topology, frozenset(nodes.difference(component))

    def fault_plan(self, gateway: int = 0) -> StreamWorld:
        """Lower the stream onto the fault machinery (see module docs).

        The gateway anchors repair, so it must be present in *every*
        snapshot -- a mobile gateway that leaves the field mid-run is a
        configuration error, not a fault to survive; that error is
        raised on every call.

        Computed once per stream and gateway and cached, like
        :meth:`snapshots`: later calls return the same
        :class:`StreamWorld`, shared by every caller and read-only to
        them (:func:`~repro.mobility.run.run_mobility` only reads it).
        """
        world = self._worlds.get(gateway)
        if world is not None:
            return world
        for t, nodes, _ in self.snapshots():
            if gateway not in nodes:
                raise ConfigurationError(
                    f"gateway {gateway} is absent from the stream at "
                    f"t={t}; the repair anchor must always be present")
        topology, dropped = self.union_topology(gateway)
        kept_nodes = frozenset(topology.rows)
        kept_edges = frozenset(topology.edges)
        t0, nodes0, edges0 = self.snapshots()[0]
        dead_nodes = kept_nodes - nodes0
        dead_edges = kept_edges - edges0
        events = []
        for delta in self.deltas():
            if delta.node is not None:
                if delta.node not in kept_nodes:
                    continue
                events.append(FaultEvent(delta.at_s,
                                         _FAULT_KIND[delta.kind],
                                         node=delta.node))
            else:
                if delta.link not in kept_edges:
                    continue
                events.append(FaultEvent(delta.at_s,
                                         _FAULT_KIND[delta.kind],
                                         link=delta.link))
        world = StreamWorld(topology=topology,
                            dead_nodes=frozenset(dead_nodes),
                            dead_edges=frozenset(dead_edges),
                            plan=FaultPlan.scripted(events, topology),
                            dropped_nodes=dropped)
        self._worlds[gateway] = world
        return world


def gateway_selection(nodes: Iterable[int],
                      edges: Iterable[tuple[int, int]],
                      gateways: Iterable[int]) -> dict[int, Optional[int]]:
    """Nearest-gateway assignment by hop count over the given edge set.

    Every node maps to the gateway with the smallest hop distance
    (smallest gateway id breaks ties), or ``None`` when no gateway is
    reachable.  E20 tracks how often this assignment *changes* per node
    as the mesh morphs -- the gateway re-selection rate, a proxy for the
    route-stability cost of mobility.
    """
    node_set = set(nodes)
    nearest = _nearest_sources(_adjacency(node_set, edges), gateways)
    return {n: nearest.get(n) for n in sorted(node_set)}
