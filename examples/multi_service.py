#!/usr/bin/env python3
"""Multi-service mesh: guaranteed VoIP + elastic best effort, distributed
in-band.

The NET-COOP companion paper's setting end to end:

1. guaranteed VoIP flows are scheduled into the *minimum* region that meets
   their bandwidth and delay budgets (linear search + delay-aware ILP);
2. elastic best-effort transfers get the largest blocks that fit in the
   leftover slots;
3. the combined schedule is flooded through the control subframe with the
   MSH-DSCH-style distributor and activates mesh-wide on a frame boundary;
4. a packet-level run verifies the VoIP class keeps its guarantees while
   best effort moves real bytes in the background.

Run:  python examples/multi_service.py          (~1 minute)
"""

from repro.analysis.reporting import format_table
from repro.core.besteffort import schedule_two_classes
from repro.core.conflict import conflict_graph
from repro.core.ilp import delay_constraints_for
from repro.core.schedule import Schedule
from repro.mesh16.frame import default_frame_config
from repro.mesh16.network import ControlPlane
from repro.net.flows import Flow, FlowSet
from repro.net.forwarding import SourceRoutedForwarder
from repro.net.routing import route_all
from repro.net.topology import grid_topology
from repro.overlay.distribution import ScheduleDistributor
from repro.overlay.emulation import TdmaOverlay
from repro.overlay.sync import SyncConfig, SyncDaemon
from repro.phy.channel import BroadcastChannel
from repro.sim.clock import DriftingClock
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.sim.trace import Trace
from repro.traffic.sink import SinkRegistry
from repro.traffic.sources import CbrSource, PoissonSource
from repro.traffic.voip import G729
from repro.units import ppm

DURATION_S = 4.0


def main() -> None:
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    rngs = RngRegistry(seed=64)

    # -- traffic mix --------------------------------------------------------
    voip = route_all(topology, FlowSet([
        Flow("voip0", 8, 0, rate_bps=G729.wire_rate_bps, delay_budget_s=0.05),
        Flow("voip1", 0, 6, rate_bps=G729.wire_rate_bps, delay_budget_s=0.05),
        Flow("voip2", 2, 0, rate_bps=G729.wire_rate_bps, delay_budget_s=0.05),
    ]))
    bulk = route_all(topology, FlowSet([
        Flow("bulk0", 0, 4, rate_bps=400_000),   # elastic downloads
        Flow("bulk1", 5, 0, rate_bps=400_000),
    ]))

    # -- two-class schedule ----------------------------------------------------
    g_demands = voip.link_demands(frame.frame_duration_s,
                                  frame.data_slot_capacity_bits)
    be_demands = bulk.link_demands(frame.frame_duration_s,
                                   frame.data_slot_capacity_bits)
    all_links = set(g_demands) | set(be_demands)
    conflicts = conflict_graph(topology, hops=2, links=all_links)
    two = schedule_two_classes(
        conflicts, g_demands, be_demands, frame.data_slots,
        delay_constraints=delay_constraints_for(
            voip, frame.frame_duration_s / frame.data_slots))
    print(f"guaranteed region: {two.guaranteed_region} slots; best effort "
          f"got {sum(two.best_effort_grants.values())} of "
          f"{sum(be_demands.values())} requested slots "
          f"({two.grant_fraction(be_demands):.0%})")

    # -- emulated mesh with in-band distribution ---------------------------------
    sim = Simulator()
    trace = Trace(capacity=100_000)
    channel = BroadcastChannel(sim, topology, frame.phy, trace)
    clocks, daemons = {}, {}
    for node in topology.nodes:
        skew = 0.0 if node == 0 else float(
            rngs.stream(f"skew/{node}").uniform(-ppm(10), ppm(10)))
        clocks[node] = DriftingClock(skew=skew)
        daemons[node] = SyncDaemon(node, 0, clocks[node], SyncConfig(),
                                   rngs.stream(f"sync/{node}"), trace)
    sinks = SinkRegistry()
    overlay = TdmaOverlay(
        sim, topology, channel, frame, ControlPlane(topology, 0, frame),
        # nodes boot with an EMPTY schedule; the real one arrives in-band
        Schedule(frame.data_slots),
        clocks, daemons,
        on_packet=lambda n, p: forwarder.packet_arrived(n, p, sim.now),
        trace=trace)
    forwarder = SourceRoutedForwarder(overlay, sinks.on_delivered, trace)
    distributor = ScheduleDistributor(overlay, gateway=0)
    overlay.attach_distributor(distributor)

    overlay.start()
    activation = 20  # frames; enough for the flood to cover a 3x3 grid
    distributor.announce(two, activation_frame=activation)

    sources = {}
    for flow in voip:
        sources[flow.name] = CbrSource.for_codec(
            sim, flow, forwarder.originate, G729, stop_s=DURATION_S)
    for flow in bulk:
        sources[flow.name] = PoissonSource(
            sim, flow, forwarder.originate,
            packet_bits=frame.data_slot_capacity_bits,
            rate_pps=flow.rate_bps / frame.data_slot_capacity_bits,
            rng=rngs.stream(f"bulk/{flow.name}"), stop_s=DURATION_S)

    sim.run(until=DURATION_S + 0.3)

    print(f"schedule flooded to {distributor.coverage():.0%} of nodes, "
          f"activated at frame {activation} "
          f"({activation * frame.frame_duration_s * 1e3:.0f} ms)\n")

    rows = []
    for name, source in sorted(sources.items()):
        qos = sinks.sink(name).qos(sent=source.sent, warmup_s=0.5)
        klass = "guaranteed" if name.startswith("voip") else "best effort"
        rows.append([name, klass, qos.sent, qos.received,
                     f"{qos.p95_delay_s * 1e3:.1f}",
                     f"{qos.loss_fraction:.3f}"])
    print(format_table(
        ["flow", "class", "sent", "rx", "p95 ms", "loss"], rows,
        title="per-flow outcome (packets before activation queue up "
              "and drain afterwards)"))


if __name__ == "__main__":
    main()
