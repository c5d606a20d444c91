"""Incremental admission control for guaranteed-QoS flows.

A thin stateful layer over the minimum-slots search: flows arrive one at a
time; each candidate is tentatively routed and the full guaranteed set is
re-scheduled.  The flow is admitted iff the schedule still fits in the
guaranteed region and meets every admitted flow's delay budget -- admitting
a new call must never break an existing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.ilp import DelayConstraint, delay_constraints_for
from repro.core.minslots import MinSlotResult, minimum_slots
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError, require_int
from repro.net.flows import Flow, FlowSet
from repro.net.routing import shortest_path_route
from repro.net.topology import Link, MeshTopology
from repro.obs.metrics import counter as obs_counter


#: An admitted flow, its slots per frame on each route link and its
#: delay constraint (``None``: best effort).
_FlowTerms = tuple[Flow, int, Optional[DelayConstraint]]


@dataclass
class AdmissionDecision:
    """Outcome of an admission attempt."""

    admitted: bool
    flow: Flow
    reason: str
    #: Guaranteed-region size after the decision (admitted flows only).
    slots_used: int
    schedule: Optional[Schedule] = None


class AdmissionController:
    """Admits guaranteed flows while a feasible schedule exists.

    Parameters
    ----------
    topology:
        The mesh.
    frame_slots:
        Data slots per frame (fixed frame length).
    frame_duration_s:
        Frame duration in seconds; slot duration is
        ``frame_duration_s / frame_slots``.
    slot_capacity_bits:
        Application bits moved one hop per slot.
    interference:
        The :class:`~repro.phy.models.InterferenceModel` calls are
        scheduled against (``None``: ``ProtocolModel(hops=2)``, the
        802.16 mesh default).
    guaranteed_region_slots:
        Cap on the slots available to guaranteed traffic (the rest is
        reserved for best effort); default: the whole frame.

    Every decision runs a min-slot search capped at the guaranteed region
    (:attr:`policy`), and most close between two bounds with no ILP: a
    conflict clique heavier than the region rejects the call, and a
    packing certificate (first-fit, else the packing descent or the
    greedy portfolio) that fits the clique's weight and meets every
    admitted call's delay budget admits it with that packing as the
    schedule.  Only when no certificate meets every budget does the
    search probe the ILP, upward from the clique's weight like the
    paper's linear search.  Each ILP probe runs under the deterministic
    node budget :data:`~repro.core.ilp.DEFAULT_NODE_LIMIT`; a probe
    undecided within it counts as infeasible, so a call is rejected
    rather than wrongly admitted.  ``frame_duration_s`` and
    ``slot_capacity_bits`` must be positive and finite, else
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, topology: MeshTopology, frame_slots: int,
                 frame_duration_s: float, slot_capacity_bits: float,
                 interference=None,
                 guaranteed_region_slots: Optional[int] = None) -> None:
        from repro.phy.models import coerce_interference

        for name, value in (("frame_duration_s", frame_duration_s),
                            ("slot_capacity_bits", slot_capacity_bits)):
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value!r}")
        require_int("frame_slots", frame_slots, 1)
        self.topology = topology
        self.frame_slots = frame_slots
        self.frame_duration_s = frame_duration_s
        self.slot_capacity_bits = slot_capacity_bits
        self.region_cap = (frame_slots if guaranteed_region_slots is None
                           else guaranteed_region_slots)
        require_int("guaranteed_region_slots", self.region_cap, 1)
        if self.region_cap > frame_slots:
            raise ConfigurationError(
                f"guaranteed region {self.region_cap} must be in 1..frame_slots")
        self.policy = SolverPolicy(max_region=self.region_cap)
        #: the interference-model backend the conflict relation comes from
        self.interference = coerce_interference(interference)
        self.conflicts = self.interference.conflict_graph(topology)
        self.admitted = FlowSet()
        self._flow_terms: dict[str, _FlowTerms] = {}
        #: (src, dst) -> route, and name -> (offered flow, its routed
        #: copy) for calls offered and not admitted; both are valid for
        #: the topology's :attr:`~MeshTopology.mutations` count they
        #: were routed at
        self._routes: dict[tuple[int, int], tuple[Link, ...]] = {}
        self._routed: dict[str, tuple[Flow, Flow]] = {}
        self._routed_at = topology.mutations
        self.schedule: Optional[Schedule] = None
        self.slots_used = 0

    @property
    def slot_duration_s(self) -> float:
        return self.frame_duration_s / self.frame_slots

    def _terms(self, flow: Flow) -> _FlowTerms:
        """``flow``'s per-link slots and delay constraint.

        Derived when a flow is offered and kept while it stays admitted.
        """
        cached = self._flow_terms.get(flow.name)
        if cached is not None and cached[0] is flow:
            return cached
        constraints = delay_constraints_for((flow,), self.slot_duration_s)
        return (flow,
                flow.slots_per_frame(self.frame_duration_s,
                                     self.slot_capacity_bits),
                constraints[0] if constraints else None)

    def _routed_copy(self, flow: Flow) -> Flow:
        """``flow`` on its shortest path, routed once per endpoint pair.

        An unchanged topology keeps its routes, so a call offered again
        as the same object gets the same routed copy back.
        """
        if self._routed_at != self.topology.mutations:
            self._routes.clear()
            self._routed.clear()
            self._routed_at = self.topology.mutations
        cached = self._routed.get(flow.name)
        if cached is not None and cached[0] is flow:
            return cached[1]
        key = (flow.src, flow.dst)
        route = self._routes.get(key)
        if route is None:
            route = tuple(shortest_path_route(self.topology, *key))
            self._routes[key] = route
        routed = flow.with_route(route)
        self._routed[flow.name] = (flow, routed)
        return routed

    def _schedule_flows(self, flows: FlowSet
                        ) -> tuple[MinSlotResult, dict[str, _FlowTerms]]:
        """The min-slot search over ``flows``, and each flow's terms.

        The demands add up in flow order, then route order, as
        :meth:`~repro.net.flows.FlowSet.link_demands` does.
        """
        terms = {flow.name: self._terms(flow) for flow in flows}
        demands: dict = {}
        for flow, per_link, ____ in terms.values():
            for link in flow.route:
                demands[link] = demands.get(link, 0) + per_link
        constraints = [constraint for ____, ____, constraint
                       in terms.values() if constraint is not None]
        result = minimum_slots(self.conflicts, demands, self.frame_slots,
                               delay_constraints=constraints,
                               policy=self.policy)
        return result, terms

    def try_admit(self, flow: Flow) -> AdmissionDecision:
        """Attempt to admit ``flow``; commits state only on success."""
        if flow.name in self.admitted:
            raise ConfigurationError(f"flow {flow.name!r} already admitted")
        if not flow.is_routed:
            flow = self._routed_copy(flow)

        candidate = FlowSet(list(self.admitted) + [flow])
        result, terms = self._schedule_flows(candidate)
        if not result.feasible:
            return AdmissionDecision(
                admitted=False, flow=flow,
                reason=(f"no feasible schedule within "
                        f"{self.region_cap} guaranteed slots"),
                slots_used=self.slots_used, schedule=self.schedule)

        self.admitted = candidate
        self._routed.pop(flow.name, None)
        self._flow_terms = terms
        self.schedule = result.schedule
        self.slots_used = result.slots
        return AdmissionDecision(
            admitted=True, flow=flow, reason="admitted",
            slots_used=self.slots_used, schedule=self.schedule)

    def release(self, name: str) -> None:
        """Remove an admitted flow and re-schedule the remainder.

        Releasing a name that was never admitted is a caller bug:
        it raises :class:`~repro.errors.ConfigurationError` and bumps the
        ``core.admission.release_unknown`` counter, so a caller that
        catches the error still leaves the miscount in its metrics.
        """
        if name not in self.admitted:
            obs_counter("core.admission.release_unknown").inc()
            raise ConfigurationError(
                f"cannot release {name!r}: no such admitted flow")
        self.admitted.remove(name)
        if len(self.admitted) == 0:
            self._flow_terms = {}
            self.schedule = None
            self.slots_used = 0
            return
        result, self._flow_terms = self._schedule_flows(self.admitted)
        if not result.feasible:  # pragma: no cover - removing cannot hurt
            raise ConfigurationError(
                "internal error: schedule infeasible after release")
        self.schedule = result.schedule
        self.slots_used = result.slots

    def admitted_count(self) -> int:
        return len(self.admitted)
