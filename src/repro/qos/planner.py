"""Grant planning for service-class workloads.

Two planners, for the two halves of the QoS story:

- :func:`schedule_service_classes` is the class-aware successor of the
  hand-rolled two-class split (E16): the guaranteed classes (UGS, rtPS,
  nrtPS) get the smallest region the min-slots search accepts under
  their latency bounds, best effort elastically fills the leftover.
  With two classes (rtPS + BE) it reproduces the legacy
  :func:`~repro.core.besteffort.schedule_two_classes` tables bit for bit.

- :func:`waterfill_grants` / :func:`grant_schedule_for` build the
  *saturating-load* grant map E19 needs: reservations first (these must
  fit, or the workload is inadmissible), then leftover slots are
  water-filled one at a time toward the largest unmet ask, so every link
  with elastic demand grows in proportion instead of first-fit-decreasing
  starving the short asks.  The result is a plain contiguous
  :class:`~repro.core.schedule.Schedule` whose grants the intra-node
  disciplines then arbitrate packet by packet.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.besteffort import TwoClassSchedule, schedule_two_classes
from repro.core.conflict import ConflictIndex
from repro.core.greedy import greedy_schedule
from repro.core.ilp import delay_constraints_for
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.mesh16.frame import MeshFrameConfig
from repro.net.topology import Link, MeshTopology
from repro.qos.model import ServiceFlowSet, route_service_flows


def schedule_service_classes(conflicts: ConflictIndex,
                             service_flows: ServiceFlowSet,
                             frame: MeshFrameConfig) -> TwoClassSchedule:
    """Two-region schedule from a class-aware flow set.

    Guaranteed-class reservations (with latency bounds where the class
    defines them) size the guaranteed region via the paper's linear
    min-slots search; best-effort asks fill the leftover elastically.  Raises
    :class:`~repro.errors.InfeasibleScheduleError` only when the
    guaranteed classes cannot be carried.
    """
    guaranteed = service_flows.guaranteed_flow_set()
    g_demands = guaranteed.link_demands(frame.frame_duration_s,
                                        frame.data_slot_capacity_bits)
    be_demands = service_flows.best_effort_flow_set().link_demands(
        frame.frame_duration_s, frame.data_slot_capacity_bits)
    constraints = delay_constraints_for(
        guaranteed, frame.frame_duration_s / frame.data_slots)
    return schedule_two_classes(conflicts, g_demands, be_demands,
                                frame.data_slots,
                                delay_constraints=constraints)


def waterfill_grants(conflicts: ConflictIndex,
                     min_demands: Mapping[Link, int],
                     asks: Mapping[Link, int],
                     frame_slots: int) -> dict[Link, int]:
    """Grow per-link grants from reservations toward asks, one slot at a
    time, while a conflict-free packing still exists.

    Starts at ``min_demands`` (which must be packable -- raises
    :class:`~repro.errors.InfeasibleScheduleError` otherwise) and
    repeatedly awards one slot to the link with the largest unmet ask
    (ties: canonical link order).  A link whose growth no longer packs is
    frozen.  Deterministic; terminates when every link is satisfied or
    frozen.
    """
    grants: dict[Link, int] = {}
    for link in asks:
        grants[link] = int(min_demands.get(link, 0))
    for link, demand in min_demands.items():
        grants.setdefault(link, int(demand))

    def packs(candidate: Mapping[Link, int]) -> bool:
        try:
            greedy_schedule(conflicts, dict(candidate), frame_slots)
        except InfeasibleScheduleError:
            return False
        return True

    if not packs(grants):
        raise InfeasibleScheduleError(
            f"reservations do not fit in {frame_slots} slots")

    frozen: set[Link] = set()
    while True:
        hungry = [(asks.get(link, 0) - grants[link], link)
                  for link in grants
                  if link not in frozen and asks.get(link, 0) > grants[link]]
        if not hungry:
            break
        hungry.sort(key=lambda item: (-item[0], item[1]))
        _, link = hungry[0]
        grants[link] += 1
        if not packs(grants):
            grants[link] -= 1
            frozen.add(link)
    return {link: count for link, count in grants.items() if count > 0}


def grant_schedule_for(topology: MeshTopology,
                       service_flows: ServiceFlowSet,
                       frame: MeshFrameConfig,
                       engine=None,
                       interference=None) -> tuple[Schedule, ServiceFlowSet]:
    """A saturating-load grant schedule for a service-class workload.

    Routes the flows, reserves slots for the guaranteed minimums, then
    water-fills the leftover toward the *offered* rates (rtPS bursts and
    BE asks).  Returns the packed schedule and the routed flow set.
    The conflict graph comes from the engine's interference seam:
    ``interference=`` is any :class:`~repro.phy.models.InterferenceModel`
    (``None``: ``ProtocolModel(hops=2)``).
    """
    from repro.core.engine import SolverEngine

    routed = route_service_flows(topology, service_flows)
    if engine is None:
        engine = SolverEngine()

    duration = frame.frame_duration_s
    capacity = frame.data_slot_capacity_bits
    min_demands = routed.guaranteed_flow_set().link_demands(
        duration, capacity)

    asks: dict[Link, int] = {}
    for flow in routed:
        per_link = -(-int(flow.offered_rate_bps * duration) // int(capacity))
        per_link = max(per_link, 1)
        for link in flow.route:
            asks[link] = asks.get(link, 0) + per_link

    all_links = set(asks) | set(min_demands)
    if not all_links:
        raise ConfigurationError("no routed service flows to schedule")
    conflicts = engine.conflict_index(topology, interference=interference,
                                      links=all_links)
    grants = waterfill_grants(conflicts, min_demands, asks,
                              frame.data_slots)
    schedule = greedy_schedule(conflicts, grants, frame.data_slots)
    return schedule, routed
