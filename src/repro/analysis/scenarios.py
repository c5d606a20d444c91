"""End-to-end packet-level scenario runners.

Two symmetric entry points run the *same* routed workload over the two
stacks the paper compares:

- :func:`run_tdma_scenario` -- the WiMAX-mesh-over-WiFi emulation: raw
  broadcast MACs driven by per-node drifting clocks, a TDMA schedule, and
  the beacon synchronization protocol;
- :func:`run_dcf_scenario` -- native 802.11 DCF.

Both return a :class:`ScenarioResult` carrying per-flow QoS and the shared
trace, so experiments diff exactly one variable (the MAC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.schedule import Schedule
from repro.dot11.dcf import DcfMac
from repro.dot11.params import DOT11B_PARAMS, Dot11Params
from repro.errors import ConfigurationError
from repro.mesh16.frame import MeshFrameConfig
from repro.mesh16.network import ControlPlane
from repro.net.flows import Flow, FlowSet
from repro.net.forwarding import SourceRoutedForwarder
from repro.net.packet import Packet
from repro.net.routing import route_all
from repro.net.topology import MeshTopology
from repro.overlay.emulation import TdmaOverlay
from repro.overlay.sync import SyncConfig, SyncDaemon
from repro.phy.channel import BroadcastChannel
from repro.sim.clock import DriftingClock
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry, resolve_rngs
from repro.sim.trace import Trace
from repro.traffic.qos import FlowQoS
from repro.traffic.sink import SinkRegistry
from repro.traffic.sources import CbrSource
from repro.traffic.voip import G711, VoipCodec
from repro.units import ppm as ppm_ratio


@dataclass
class ScenarioResult:
    """Outcome of one packet-level run."""

    qos: dict[str, FlowQoS]
    trace: Trace
    duration_s: float
    #: scenario-specific extras (sync errors, queue stats, ...)
    extras: dict[str, object] = field(default_factory=dict)

    def total_loss_fraction(self) -> float:
        sent = sum(q.sent for q in self.qos.values())
        received = sum(q.received for q in self.qos.values())
        if sent == 0:
            return 0.0
        return 1.0 - received / sent


def _check_run_args(duration_s: float, warmup_s: float,
                    channel_error_rate: float) -> None:
    """Reject the arguments both runners share before anything is built.

    Written as positive range tests so that NaN fails every one of them.
    """
    if not 0.0 < duration_s < math.inf:
        raise ConfigurationError(
            f"duration_s must be positive and finite, got {duration_s}")
    if not 0.0 <= warmup_s < math.inf:
        raise ConfigurationError(
            f"warmup_s must be >= 0 and finite, got {warmup_s}")
    if not 0.0 <= channel_error_rate < 1.0:
        raise ConfigurationError(
            f"channel_error_rate must be in [0, 1), got {channel_error_rate}")


def schedule_for_flows(topology: MeshTopology, flows: FlowSet,
                       frame_config: MeshFrameConfig,
                       method: str = "ilp",
                       enforce_delay: bool = True,
                       gateway: int = 0,
                       engine=None, interference=None) -> Schedule:
    """Build a conflict-free TDMA schedule carrying ``flows``.

    Methods: ``"ilp"`` (delay-aware joint ILP, min-max delay objective),
    ``"greedy"`` (first-fit decreasing; delay-oblivious baseline),
    ``"tree"`` (wrap-free ordering on the gateway tree + Bellman-Ford,
    valid when all routes follow tree links).  ``engine`` optionally
    shares a :class:`~repro.core.engine.SolverEngine` (and its conflict
    index cache) across calls.  ``interference=`` swaps the
    conflict backend (default: the 2-hop protocol model).
    """
    from repro.core.engine import SolverEngine
    from repro.core.greedy import greedy_schedule
    from repro.core.ilp import SchedulingProblem, delay_constraints_for
    from repro.core.ordering import schedule_from_order
    from repro.core.tree_order import min_delay_tree_order
    from repro.net.routing import gateway_tree

    eng = engine if engine is not None else SolverEngine()
    demands = flows.link_demands(frame_config.frame_duration_s,
                                 frame_config.data_slot_capacity_bits)
    conflicts = eng.conflict_index(topology, interference=interference,
                                   links=demands.keys())
    slots = frame_config.data_slots

    if method == "greedy":
        return greedy_schedule(conflicts, demands, frame_slots=slots)
    if method == "tree":
        order = min_delay_tree_order(gateway_tree(topology, gateway),
                                     gateway)
        return schedule_from_order(conflicts, demands, slots, order)
    if method != "ilp":
        raise ConfigurationError(f"unknown schedule method {method!r}")

    slot_s = frame_config.frame_duration_s / slots
    constraints = (delay_constraints_for(flows, slot_s)
                   if enforce_delay else [])
    problem = SchedulingProblem(
        conflicts=conflicts, demands=demands, frame_slots=slots,
        delay_constraints=constraints,
        minimize_max_delay=bool(constraints))
    result = eng.solve(problem)
    if not result.feasible:
        raise ConfigurationError(
            f"no feasible schedule for {len(flows)} flows in {slots} slots "
            f"({result.solver_status})")
    return result.schedule


def make_voip_flows(topology: MeshTopology, num_calls: int,
                    rngs: Optional[RngRegistry] = None,
                    codec: VoipCodec = G711,
                    gateway: Optional[int] = None,
                    delay_budget_s: float = 0.1,
                    min_hops: int = 1,
                    seed: Optional[int] = None) -> FlowSet:
    """Random unidirectional VoIP calls, routed via shortest paths.

    Randomness follows the standard ``rngs=``/``seed=`` pair (a registry
    for stream sharing, or an integer seed for a self-contained call).

    With ``gateway`` set, every call runs between the gateway and a random
    node (half up, half down), modelling voice trunked through the mesh's
    internet gateway; otherwise endpoints are arbitrary distinct nodes at
    least ``min_hops`` apart.
    """
    rngs = resolve_rngs(rngs, seed, what="make_voip_flows")
    rng = rngs.stream("workload/voip")
    nodes = topology.nodes
    flows = FlowSet()
    attempts = 0
    while len(flows) < num_calls:
        attempts += 1
        if attempts > 100 * (num_calls + 1):
            raise ConfigurationError(
                "could not draw enough distinct call endpoints; "
                "relax min_hops or shrink num_calls")
        index = len(flows)
        if gateway is not None:
            other = int(rng.choice([n for n in nodes if n != gateway]))
            src, dst = ((gateway, other) if index % 2 == 0
                        else (other, gateway))
        else:
            src, dst = (int(n) for n in rng.choice(nodes, size=2,
                                                   replace=False))
        if topology.hop_distance(src, dst) < min_hops:
            continue
        flows.add(Flow(name=f"voip{index}", src=src, dst=dst,
                       rate_bps=codec.wire_rate_bps,
                       delay_budget_s=delay_budget_s))
    return route_all(topology, flows)


def run_tdma_scenario(topology: MeshTopology, flows: FlowSet,
                      frame_config: MeshFrameConfig, schedule: Schedule,
                      duration_s: float,
                      rngs: Optional[RngRegistry] = None,
                      gateway: int = 0,
                      drift_ppm: float = 10.0,
                      sync_config: Optional[SyncConfig] = None,
                      start_synced: bool = True,
                      initial_offset_bound_s: float = 0.0,
                      codec: VoipCodec = G711,
                      warmup_s: float = 0.5,
                      channel_error_rate: float = 0.0,
                      arq: bool = False,
                      seed: Optional[int] = None) -> ScenarioResult:
    """Run the routed ``flows`` over the TDMA emulation.

    Randomness follows the standard ``rngs=``/``seed=`` pair.

    Parameters
    ----------
    schedule:
        Conflict-free TDMA schedule over exactly the links the flows use;
        ``schedule.frame_slots`` must match ``frame_config.data_slots``.
    drift_ppm:
        Per-node oscillator skews are drawn uniformly in +-``drift_ppm``.
    start_synced:
        If true, clocks start with zero offset (the steady-state regime);
        otherwise offsets start uniform in +-``initial_offset_bound_s`` and
        the sync protocol must acquire lock first.
    """
    _check_run_args(duration_s, warmup_s, channel_error_rate)
    if not 0.0 <= drift_ppm < math.inf:
        raise ConfigurationError(
            f"drift_ppm must be >= 0 and finite, got {drift_ppm}")
    if not 0.0 <= initial_offset_bound_s < math.inf:
        raise ConfigurationError(
            f"initial_offset_bound_s must be >= 0 and finite, "
            f"got {initial_offset_bound_s}")
    rngs = resolve_rngs(rngs, seed, what="run_tdma_scenario")
    sim = Simulator()
    trace = Trace(capacity=200_000)
    channel = BroadcastChannel(sim, topology, frame_config.phy, trace)
    if channel_error_rate > 0.0:
        channel.set_error_model(rngs.stream("channel_error"),
                                channel_error_rate)
    sync_config = sync_config or SyncConfig()
    clock_rng = rngs.stream("clocks")

    clocks: dict[int, DriftingClock] = {}
    daemons: dict[int, SyncDaemon] = {}
    for node in topology.nodes:
        if node == gateway:
            skew, offset = 0.0, 0.0
        else:
            skew = float(clock_rng.uniform(-ppm_ratio(drift_ppm),
                                           ppm_ratio(drift_ppm)))
            offset = (0.0 if start_synced else float(
                clock_rng.uniform(-initial_offset_bound_s,
                                  initial_offset_bound_s)))
        clocks[node] = DriftingClock(skew=skew, offset=offset)
        daemons[node] = SyncDaemon(node, gateway, clocks[node], sync_config,
                                   rngs.stream(f"sync/{node}"), trace)

    control_plane = ControlPlane(topology, gateway, frame_config)
    sinks = SinkRegistry()
    overlay = TdmaOverlay(sim, topology, channel, frame_config,
                          control_plane, schedule, clocks, daemons,
                          on_packet=lambda node, packet: forwarder
                          .packet_arrived(node, packet, sim.now),
                          trace=trace, arq=arq)
    forwarder = SourceRoutedForwarder(overlay, sinks.on_delivered, trace)

    sources = {}
    jitter_rng = rngs.stream("workload/phase")
    for flow in flows:
        start = float(jitter_rng.uniform(0.0, codec.packet_interval_s))
        sources[flow.name] = CbrSource.for_codec(
            sim, flow, forwarder.originate, codec, start_s=start,
            stop_s=duration_s)

    overlay.start()
    sync_samples: list[float] = []

    def sample_sync() -> None:
        sync_samples.append(overlay.max_sync_error_s())
        if sim.now + 0.1 < duration_s:
            sim.schedule(0.1, sample_sync)

    sim.schedule(0.05, sample_sync)
    sim.run(until=duration_s + 0.2)

    qos = {name: sinks.sink(name).qos(sent=src.sent, warmup_s=warmup_s)
           for name, src in sources.items()}
    return ScenarioResult(
        qos=qos, trace=trace, duration_s=duration_s,
        extras={
            "max_sync_error_s": max(sync_samples) if sync_samples else 0.0,
            "sync_error_samples": sync_samples,
            "slot_collisions": trace.count("tdma.rx_corrupt"),
            "arq_retransmissions": trace.count("tdma.arq_retx"),
            "arq_drops": trace.count("tdma.arq_drop"),
        })


def run_dcf_scenario(topology: MeshTopology, flows: FlowSet,
                     duration_s: float,
                     rngs: Optional[RngRegistry] = None,
                     params: Dot11Params = DOT11B_PARAMS,
                     codec: VoipCodec = G711,
                     warmup_s: float = 0.5,
                     channel_error_rate: float = 0.0,
                     seed: Optional[int] = None,
                     interference=None) -> ScenarioResult:
    """Run the routed ``flows`` over native 802.11 DCF.

    Randomness follows the standard ``rngs=``/``seed=`` pair.  With
    ``interference=`` an :class:`~repro.phy.models.SinrModel`, the
    channel is widened with that model's physical couplings
    (:meth:`~repro.phy.models.SinrModel.channel_couplings`): carrier
    sense reaches past radio neighbours and hidden-node transmitters
    corrupt in-flight receptions (counted in the ``"jams"`` extra).  A
    :class:`~repro.phy.models.ProtocolModel` (or ``None``) leaves the
    channel's native collision rule alone.
    """
    from repro.phy.models import SinrModel, coerce_interference

    _check_run_args(duration_s, warmup_s, channel_error_rate)
    model = coerce_interference(interference)
    rngs = resolve_rngs(rngs, seed, what="run_dcf_scenario")
    sim = Simulator()
    trace = Trace(capacity=200_000)
    channel = BroadcastChannel(sim, topology, params.phy, trace)
    if isinstance(model, SinrModel):
        channel.set_physical_couplings(model.channel_couplings(topology))
    if channel_error_rate > 0.0:
        channel.set_error_model(rngs.stream("channel_error"),
                                channel_error_rate)
    sinks = SinkRegistry()

    macs: dict[int, DcfMac] = {}

    class _DcfAdapter:
        """MacAdapter over the per-node DCF MACs."""

        def transmit(self, node: int, packet: Packet) -> bool:
            link = packet.current_link
            if link is None:  # pragma: no cover - forwarder guards this
                raise ConfigurationError("packet already delivered")
            return macs[node].send(link[1], packet, packet.size_bits)

    forwarder = SourceRoutedForwarder(_DcfAdapter(), sinks.on_delivered,
                                      trace)

    def deliver(node: int, payload: object) -> None:
        if isinstance(payload, Packet):
            forwarder.packet_arrived(node, payload, sim.now)

    for node in topology.nodes:
        macs[node] = DcfMac(sim, channel, node, params,
                            rngs.stream(f"dcf/{node}"), deliver, trace)

    sources = {}
    jitter_rng = rngs.stream("workload/phase")
    for flow in flows:
        start = float(jitter_rng.uniform(0.0, codec.packet_interval_s))
        sources[flow.name] = CbrSource.for_codec(
            sim, flow, forwarder.originate, codec, start_s=start,
            stop_s=duration_s)

    sim.run(until=duration_s + 0.2)

    qos = {name: sinks.sink(name).qos(sent=src.sent, warmup_s=warmup_s)
           for name, src in sources.items()}
    return ScenarioResult(
        qos=qos, trace=trace, duration_s=duration_s,
        extras={
            "collisions": trace.count("phy.rx_collision"),
            "jams": trace.count("phy.jam"),
            "mac_drops": trace.count("mac.drop"),
            "queue_drops": trace.count("mac.queue_drop"),
        })
