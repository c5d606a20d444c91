"""End-to-end mobility driver: stream -> injector -> repair (S36).

:func:`run_mobility` wires the pieces together the way experiment E20
uses them: lower a :class:`~repro.mobility.stream.TopologyStream` onto
the fault machinery (:meth:`~repro.mobility.stream.TopologyStream.fault_plan`),
install the flow set on the t=0 world, then replay the motion-derived
fault plan through a :class:`~repro.faults.injector.FaultInjector` with
the :class:`~repro.core.repair.RepairEngine` retargeting once per sample
batch.  Batching matters under sustained churn: motion flips several
links per sample tick, and repairing once per tick instead of once per
link is what keeps the convergence window bounded as speed grows.

After every repair pass the live schedule must still pass the S8
conflict validator and every carried guaranteed flow its slot budget --
the driver records both, and E20's headline claim is that they hold at
every sampled speed.  All accounting is in frames and packets (never
wall-clock), so results are bitwise reproducible across ``--jobs``.

The driver publishes ``mobility.*`` metrics through :mod:`repro.obs`:
event counters (``deltas_applied``, ``links_flapped``, ``node_churn``,
``repairs_local``, ``repairs_resolve``, ``reselections``) and the
``repair_frames`` convergence histogram, all deterministic under the
S33 snapshot contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro import obs
from repro.core.delay import path_delay_slots
from repro.core.engine import SolverEngine
from repro.core.repair import RepairEngine
from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent
from repro.faults.injector import FaultInjector
from repro.mesh16.frame import MeshFrameConfig, default_frame_config
from repro.mobility.stream import TopologyStream
from repro.net.flows import Flow
from repro.net.topology import MeshTopology, _nearest_sources


@dataclass(frozen=True)
class MobilityStepOutcome:
    """One sample batch's repair result."""

    at_s: float
    #: fault events applied in this batch
    events: int
    #: repair strategy used ("noop" when the batch changed nothing)
    strategy: str
    #: schedule version after the batch
    version: int
    #: convergence window of this batch's repair, frames (0 for noop)
    repair_frames: int
    #: live schedule passes the S8 conflict validator
    conflict_ok: bool
    #: every carried guaranteed flow meets its slot budget
    guarantee_ok: bool
    #: nodes whose nearest gateway changed this batch
    reselections: int
    rerouted: int
    parked: int
    readmitted: int


def _flood_margin(alive: MeshTopology, gateway: int,
                  frame: MeshFrameConfig) -> int:
    # E17's and E20's dissemination model: depth flood rounds (1 for a
    # lone gateway), each ceil(nodes / control_slots) frames, + activation
    depth = alive.eccentricity(gateway) or 1
    return depth * math.ceil(alive.num_nodes() / frame.control_slots) + 1


@dataclass(frozen=True)
class MobilityRunResult:
    """Aggregates of one mobility run (the E20 row material)."""

    steps: tuple[MobilityStepOutcome, ...]
    #: batches whose repair used each strategy
    local: int
    resolve: int
    noop: int
    #: flows parked across all batches (events, not distinct names)
    parked_events: int
    #: mean convergence window over changed batches, frames
    mean_repair_frames: float
    #: total gateway re-selections across the run
    reselections: int
    #: conjunction of per-batch validity bits
    conflict_ok: bool
    guarantee_ok: bool
    #: packets lost to convergence windows and parked time
    lost_packets: int
    #: packets every managed flow would offer over the horizon
    offered_packets: int
    #: engine cache statistics snapshot at run end
    engine_stats: dict
    #: flows still parked when the horizon ends
    parked_final: tuple[str, ...]

    @property
    def goodput_fraction(self) -> float:
        """Delivered fraction of offered packets (1.0 = no mobility loss)."""
        if self.offered_packets == 0:
            return 1.0
        return max(0.0, 1.0 - self.lost_packets / self.offered_packets)


def run_mobility(stream: TopologyStream, flows: Iterable[Flow],
                 frame: Optional[MeshFrameConfig] = None, *,
                 gateway: int = 0,
                 gateways: Optional[Sequence[int]] = None,
                 engine: Optional[SolverEngine] = None,
                 packet_interval_s: float = 0.02,
                 interference=None) -> MobilityRunResult:
    """Carry ``flows`` across the moving mesh described by ``stream``.

    ``gateway`` anchors repair (it must be present in every snapshot);
    ``gateways`` is the candidate set for nearest-gateway selection
    (default: just the anchor, under which re-selection is trivially 0);
    every candidate must be an int node of the gateway's union component.
    ``engine`` shares a :class:`SolverEngine` across runs -- E20 passes
    a fresh one per speed, so its ``index_builds`` count covers that
    run alone.
    ``packet_interval_s`` converts convergence windows and parked time
    into lost packets (default 20 ms, the G.729 VoIP cadence).
    ``interference=`` is the
    :class:`~repro.phy.models.InterferenceModel` the repair engine
    schedules against (``None``: ``ProtocolModel(hops=2)``).

    After every batch the live schedule is S8-checked on the conflict
    index of its scheduled links -- the demand-link index the repair
    just solved on, served from the engine cache -- and every carried
    guaranteed flow against its slot budget.
    """
    if frame is None:
        frame = default_frame_config()
    if not 0 < packet_interval_s < math.inf:
        raise ConfigurationError(
            "packet_interval_s must be positive and finite, got "
            f"{packet_interval_s!r}")
    selection_gateways = tuple(gateways) if gateways else (gateway,)
    for entry in (gateway, *selection_gateways):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise ConfigurationError(f"gateway {entry!r} is not a node id")
    world = stream.fault_plan(gateway)
    flows = list(flows)
    union_nodes = set(world.topology.rows)
    stray = sorted(set(selection_gateways) - union_nodes)
    if stray:
        raise ConfigurationError(f"gateway candidate(s) {stray} never "
                                 "join the gateway's component")
    for flow in flows:
        bad = {flow.src, flow.dst} - union_nodes
        if bad:
            raise ConfigurationError(
                f"flow {flow.name} endpoint(s) {sorted(bad)} never join "
                "the gateway's component")
    solver = engine if engine is not None else SolverEngine()
    repair = RepairEngine(world.topology, frame, gateway=gateway,
                          interference=interference,
                          engine=solver,
                          dead_nodes=world.dead_nodes,
                          dead_edges=world.dead_edges)
    repair.install(flows)

    injector = FaultInjector(world.plan, world.topology)
    # seed the injector with the t=0 world so its dead sets stay the
    # single source of truth for the whole run
    for node in sorted(world.dead_nodes):
        injector.apply(FaultEvent(0.0, "node_down", node=node))
    for link in sorted(world.dead_edges):
        injector.apply(FaultEvent(0.0, "link_down", link=link))

    def nearest_gateways() -> dict[int, int]:
        # gateway_selection over the live mesh, unreached nodes left out:
        # the repair engine's live rows follow the injector's dead sets
        return _nearest_sources(repair.live_rows, selection_gateways)

    selection = nearest_gateways()

    # group the plan into per-timestamp batches: one repair per sample tick
    batches: list[tuple[float, list[FaultEvent]]] = []
    for event in world.plan:
        if batches and batches[-1][0] == event.at_s:
            batches[-1][1].append(event)
        else:
            batches.append((event.at_s, [event]))

    steps: list[MobilityStepOutcome] = []
    local = resolve = noop = parked_events = reselections = 0
    lost = 0
    frames_seen: list[int] = []
    conflict_ok_all = guarantee_ok_all = True
    horizon = stream.horizon_s
    # parked-time loss: walk the timeline, charging each interval the
    # packets its currently-parked flows would have delivered
    timeline_prev = 0.0
    for at_s, events in batches:
        interval = max(0.0, min(at_s, horizon) - timeline_prev)
        lost += len(repair.parked_flows) * int(interval / packet_interval_s)
        timeline_prev = min(at_s, horizon)
        for event in events:
            injector.apply(event)
        obs.counter("mobility.deltas_applied").inc(len(events))
        obs.counter("mobility.links_flapped").inc(
            sum(1 for e in events if e.link is not None))
        obs.counter("mobility.node_churn").inc(
            sum(1 for e in events if e.node is not None))
        outcome = repair.retarget(injector.dead_nodes, injector.dead_edges)
        parked_events += len(outcome.parked)
        if outcome.changed:
            margin = _flood_margin(repair.alive, gateway, frame)
            if outcome.strategy == "local":
                local += 1
                frames = 1 + margin
            else:
                resolve += 1
                frames = 1 + max(1, outcome.ilp_probes) + margin
                obs.counter("mobility.repairs_resolve").inc()
            if outcome.strategy == "local":
                obs.counter("mobility.repairs_local").inc()
            frames_seen.append(frames)
            obs.histogram("mobility.repair_frames").observe(frames)
            affected = len(set(outcome.rerouted) | set(outcome.parked)
                           | set(outcome.readmitted))
            lost += affected * math.ceil(
                frames * frame.frame_duration_s / packet_interval_s)
        else:
            noop += 1
            frames = 0
        # S8 + guarantee validity of the live schedule, every batch.
        # Violations are pairs of *scheduled* links, and whether two
        # links conflict does not depend on which other links are
        # indexed, so an index over the scheduled links gives the
        # whole-mesh answer.  After a commit those are the repair's
        # demand links: this request hits the index it just solved on.
        conflicts = solver.conflict_index(
            repair.alive, interference=repair.interference,
            links=[link for link in repair.schedule.links()
                   if repair.alive.has_link(link)])
        conflict_ok = not repair.schedule.violations(conflicts)
        guarantee_ok = True
        for flow in repair.carried_flows:
            if flow.delay_budget_s is None:
                continue
            delay = path_delay_slots(repair.schedule, flow.route)
            guarantee_ok &= delay <= repair.budget_slots(flow)
        conflict_ok_all &= conflict_ok
        guarantee_ok_all &= guarantee_ok
        new_selection = nearest_gateways()
        changed = sum(1 for n, g in new_selection.items()
                      if selection.get(n, g) != g)
        reselections += changed
        obs.counter("mobility.reselections").inc(changed)
        selection = new_selection
        steps.append(MobilityStepOutcome(
            at_s=at_s, events=len(events), strategy=outcome.strategy,
            version=repair.version, repair_frames=frames,
            conflict_ok=conflict_ok, guarantee_ok=guarantee_ok,
            reselections=changed, rerouted=len(outcome.rerouted),
            parked=len(outcome.parked),
            readmitted=len(outcome.readmitted)))
    # tail interval: flows still parked keep losing packets to the horizon
    lost += len(repair.parked_flows) * int(
        max(0.0, horizon - timeline_prev) / packet_interval_s)
    offered = len(flows) * int(horizon / packet_interval_s)
    mean_frames = (round(sum(frames_seen) / len(frames_seen), 2)
                   if frames_seen else 0.0)
    return MobilityRunResult(
        steps=tuple(steps), local=local, resolve=resolve, noop=noop,
        parked_events=parked_events, mean_repair_frames=mean_frames,
        reselections=reselections, conflict_ok=conflict_ok_all,
        guarantee_ok=guarantee_ok_all, lost_packets=lost,
        offered_packets=offered, engine_stats=dict(solver.stats),
        parked_final=tuple(repair.parked_flows))
