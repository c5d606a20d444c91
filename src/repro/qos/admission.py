"""Class-aware admission control over the min-slots search.

The 802.16 admission rule, layered on
:class:`repro.core.admission.AdmissionController`:

- **UGS / rtPS / nrtPS** requests reserve bandwidth, so they pass through
  the incremental min-slots check: the reservation (and, for the
  real-time classes, the latency bound) must fit the guaranteed region
  alongside everything already admitted, or the request is **rejected**.
- **BE** requests are **always admitted and never guaranteed**: they
  consume no reserved slots and simply register with the scheduler
  layer, competing for leftover grants.

Rejected or displaced guaranteed flows can be *parked* and re-tried
later (:meth:`QosAdmissionController.readmit_parked`), mirroring the
repair engine's park/readmit loop; :func:`class_shed_key` plugs the
class order into :class:`repro.core.repair.RepairEngine` so capacity
sheds take best effort first and UGS last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.admission import AdmissionController
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.mesh16.frame import MeshFrameConfig
from repro.net.topology import MeshTopology
from repro.obs.metrics import counter
from repro.qos.model import ServiceClass, ServiceFlow, ServiceFlowSet

#: Shed order under capacity pressure: larger sheds first.
_SHED_RANK = {ServiceClass.UGS: 0, ServiceClass.RTPS: 1,
              ServiceClass.NRTPS: 2, ServiceClass.BE: 3}


@dataclass
class QosAdmissionDecision:
    """Outcome of a service-flow admission request."""

    admitted: bool
    flow: ServiceFlow
    reason: str
    #: guaranteed-region slots in use after the decision
    slots_used: int
    schedule: Optional[Schedule] = None
    #: True for BE: carried opportunistically, no reservation backs it
    guaranteed: bool = False


class QosAdmissionController:
    """Admit service flows according to their class contracts."""

    def __init__(self, topology: MeshTopology, frame: MeshFrameConfig,
                 interference=None,
                 guaranteed_region_slots: Optional[int] = None) -> None:
        self.frame = frame
        self._core = AdmissionController(
            topology, frame.data_slots, frame.frame_duration_s,
            frame.data_slot_capacity_bits, interference=interference,
            guaranteed_region_slots=guaranteed_region_slots)
        #: every admitted service flow, insertion-ordered (incl. BE)
        self.service_flows = ServiceFlowSet()
        #: guaranteed flows rejected/released but kept for re-try
        self.parked = ServiceFlowSet()
        self._admit_seq = 0
        self._admit_index: dict[str, int] = {}

    # -- state views --------------------------------------------------------

    @property
    def schedule(self) -> Optional[Schedule]:
        return self._core.schedule

    @property
    def slots_used(self) -> int:
        return self._core.slots_used

    def admitted_count(self, service_class: Optional[ServiceClass] = None
                       ) -> int:
        if service_class is None:
            return len(self.service_flows)
        return len(self.service_flows.by_class(service_class))

    # -- admission ----------------------------------------------------------

    def request(self, flow: ServiceFlow, park_on_reject: bool = False
                ) -> QosAdmissionDecision:
        """Admit ``flow`` per its class contract.

        BE is always admitted (never guaranteed).  Guaranteed classes go
        through the min-slots search and are rejected -- optionally
        parked for later :meth:`readmit_parked` -- when the schedule
        cannot carry their reservation.
        """
        if flow.name in self.service_flows:
            raise ConfigurationError(
                f"service flow {flow.name!r} already admitted")
        if flow.name in self.parked:
            self.parked.remove(flow.name)

        cls = flow.service_class
        if cls is ServiceClass.BE:
            self._register(flow)
            counter("qos.admission.admitted.BE").inc()
            return QosAdmissionDecision(
                admitted=True, flow=flow,
                reason="best effort: admitted, not guaranteed",
                slots_used=self.slots_used, schedule=self.schedule,
                guaranteed=False)

        decision = self._core.try_admit(flow.to_flow())
        if not decision.admitted:
            counter(f"qos.admission.rejected.{cls.value}").inc()
            if park_on_reject:
                self.parked.add(flow)
            return QosAdmissionDecision(
                admitted=False, flow=flow, reason=decision.reason,
                slots_used=self.slots_used, schedule=self.schedule,
                guaranteed=False)
        self._register(flow.with_route(decision.flow.route))
        counter(f"qos.admission.admitted.{cls.value}").inc()
        return QosAdmissionDecision(
            admitted=True, flow=self.service_flows.get(flow.name),
            reason="admitted", slots_used=self.slots_used,
            schedule=self.schedule, guaranteed=True)

    def release(self, name: str, park: bool = False) -> None:
        """Release an admitted service flow (freeing its reservation).

        With ``park=True`` the flow definition is retained for a later
        :meth:`readmit_parked` pass.  Unknown names raise
        :class:`~repro.errors.ConfigurationError` (and count through the
        core ``release_unknown`` counter for guaranteed flows).
        """
        if name not in self.service_flows:
            counter("qos.admission.release_unknown").inc()
            raise ConfigurationError(
                f"cannot release {name!r}: no such service flow")
        flow = self.service_flows.remove(name)
        self._admit_index.pop(name, None)
        if flow.service_class.is_guaranteed:
            self._core.release(name)
        if park:
            self.parked.add(flow)

    def readmit_parked(self) -> list[QosAdmissionDecision]:
        """Re-try every parked flow, oldest first; admitted ones unpark.

        The repair-engine analogue: after capacity returns (a release, a
        recovered link), parked reservations get another admission pass.
        """
        decisions = []
        for flow in list(self.parked):
            self.parked.remove(flow.name)
            decision = self.request(flow, park_on_reject=True)
            decisions.append(decision)
        return decisions

    # -- repair-engine integration ------------------------------------------

    def shed_key(self):
        """Key for :class:`repro.core.repair.RepairEngine`'s shed order:
        BE sheds first, then nrtPS, rtPS, and UGS last; within one class,
        newest admission first.  Names this controller does not manage
        shed like BE (nothing is known to back them)."""
        return class_shed_key(self.service_flows, self._admit_index)

    def _register(self, flow: ServiceFlow) -> None:
        self.service_flows.add(flow)
        self._admit_index[flow.name] = self._admit_seq
        self._admit_seq += 1


def class_shed_key(service_flows: ServiceFlowSet,
                   admit_index: Optional[dict] = None):
    """Build a ``name -> (rank, age)`` shed key from a service-flow set.

    Pass the result as ``RepairEngine(shed_key=...)``: the repair loop
    stably sorts its shed candidates by this key and pops the largest
    first, so best effort is sacrificed before any reserved class.
    """
    index = admit_index or {}

    def key(name: str):
        if name in service_flows:
            rank = _SHED_RANK[service_flows.get(name).service_class]
        else:
            rank = _SHED_RANK[ServiceClass.BE]
        return (rank, index.get(name, 0))

    return key
