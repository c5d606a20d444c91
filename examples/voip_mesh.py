#!/usr/bin/env python3
"""VoIP over a 3x3 mesh: TDMA emulation vs native 802.11 DCF.

This is the paper's headline scenario.  Ten G.729 calls are offered to a
nine-node grid mesh with an internet gateway at node 0:

- the **TDMA emulation** offers each call in turn to an
  ``AdmissionController``, which admits it only if a minimum-slot search
  still schedules every admitted call within the frame and its delay
  budget, and carries only that subset -- every admitted call keeps its
  50 ms / zero-loss guarantee;
- **DCF** carries everything offered and lets contention sort it out.

Both stacks then run a full packet-level simulation on identical workloads
and the per-call QoS is printed side by side.

Run:  python examples/voip_mesh.py          (~2 s on a 2-CPU machine)
"""

from repro.analysis.reporting import format_table
from repro.analysis.scenarios import (
    make_voip_flows,
    run_dcf_scenario,
    run_tdma_scenario,
)
from repro.core.admission import AdmissionController
from repro.mesh16.frame import default_frame_config
from repro.net.topology import grid_topology
from repro.sim.random import RngRegistry
from repro.traffic.voip import G729

OFFERED_CALLS = 10
DURATION_S = 3.0
DELAY_TARGET_S = 0.05


def main() -> None:
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    rngs = RngRegistry(seed=2007)

    flows = make_voip_flows(topology, OFFERED_CALLS, rngs, codec=G729,
                            gateway=0, delay_budget_s=DELAY_TARGET_S)
    print(f"offered: {len(flows)} G.729 calls through gateway 0 "
          f"on {topology.name}")

    controller = AdmissionController(topology, frame.data_slots,
                                     frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
    for flow in flows:
        controller.try_admit(flow)
    admitted, schedule = controller.admitted, controller.schedule
    rejected = sorted(set(flows.names()) - set(admitted.names()))
    print(f"admission control accepted {len(admitted)} calls "
          f"(rejected: {', '.join(rejected) if rejected else 'none'}) "
          f"using {schedule.makespan()} of {frame.data_slots} data slots")

    print("\nrunning TDMA emulation (admitted calls only)...")
    tdma = run_tdma_scenario(topology, admitted, frame, schedule,
                             DURATION_S, rngs=rngs.spawn("tdma"), codec=G729)
    print("running 802.11 DCF (all offered calls)...")
    dcf = run_dcf_scenario(topology, flows, DURATION_S,
                           rngs=rngs.spawn("dcf"), codec=G729)

    rows = []
    for name in flows.names():
        tq = tdma.qos.get(name)
        dq = dcf.qos[name]
        rows.append([
            name,
            flows.get(name).hops,
            "-" if tq is None else f"{tq.p95_delay_s * 1e3:.1f}",
            f"{dq.p95_delay_s * 1e3:.1f}",
            "-" if tq is None else f"{tq.loss_fraction:.3f}",
            f"{dq.loss_fraction:.3f}",
            "-" if tq is None else f"{tq.mos(G729):.2f}",
            f"{dq.mos(G729):.2f}",
        ])
    print()
    print(format_table(
        ["call", "hops", "tdma p95 ms", "dcf p95 ms", "tdma loss",
         "dcf loss", "tdma MOS", "dcf MOS"], rows,
        title="per-call QoS ('-' = rejected by admission control)"))

    print(f"\naggregate loss: tdma {tdma.total_loss_fraction():.4f}, "
          f"dcf {dcf.total_loss_fraction():.4f}")
    print(f"tdma slot collisions: {tdma.extras['slot_collisions']}, "
          f"max sync error: "
          f"{tdma.extras['max_sync_error_s'] * 1e6:.1f} us "
          f"(guard {frame.guard_s * 1e6:.0f} us)")


if __name__ == "__main__":
    main()
