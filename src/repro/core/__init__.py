"""Guaranteed-QoS TDMA scheduling (systems S7-S16 in DESIGN.md).

This package implements the paper line's algorithmic contribution:

- the conflict relation over directed links, :class:`ConflictIndex`
  (:mod:`repro.core.conflict`);
- the schedule data model with conflict-freeness validation
  (:mod:`repro.core.schedule`);
- a difference-constraint / Bellman-Ford solver used to recover concrete
  slot assignments from transmission *orders* (:mod:`repro.core.bellman_ford`
  and :mod:`repro.core.ordering`);
- the delay-aware joint ILP over slots and orders (:mod:`repro.core.ilp`);
- the NET-COOP linear search for the minimum number of data slots
  (:mod:`repro.core.minslots`);
- the polynomial min-delay ordering on scheduling trees
  (:mod:`repro.core.tree_order`);
- greedy baselines (:mod:`repro.core.greedy`);
- end-to-end delay analysis (:mod:`repro.core.delay`);
- incremental admission control (:mod:`repro.core.admission`);
- online schedule repair under fault churn (:mod:`repro.core.repair`);
- the incremental solver engine front end -- shared conflict indexes,
  bounds-first probe searches, problem caching
  (:mod:`repro.core.engine`);
- the solver-policy seam selecting between the exact search and the
  large-topology arms (:mod:`repro.core.policy`), and the zoned /
  greedy arms themselves (:mod:`repro.core.zones`).
"""

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.bellman_ford import DifferenceConstraints, NegativeCycle
from repro.core.besteffort import (
    TwoClassSchedule,
    pack_best_effort,
    schedule_two_classes,
)
from repro.core.conflict import ConflictIndex, conflict_graph
from repro.core.delay import path_delay_slots, path_wraps, worst_case_delay_slots
from repro.core.engine import SolverEngine, default_engine
from repro.core.greedy import greedy_schedule
from repro.core.guarantees import GuaranteeReport, check_guarantees
from repro.core.ilp import ILPResult, SchedulingProblem, solve_schedule_ilp
from repro.core.minslots import MinSlotResult, minimum_slots
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.repair import RepairEngine, RepairOutcome
from repro.core.schedule import Schedule, SlotBlock
from repro.core.tree_order import min_delay_tree_order
from repro.core.zones import (
    ZonePartition,
    greedy_minimum_slots,
    partition_zones,
    zoned_minimum_slots,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ConflictIndex",
    "DifferenceConstraints",
    "ILPResult",
    "MinSlotResult",
    "NegativeCycle",
    "RepairEngine",
    "RepairOutcome",
    "Schedule",
    "SchedulingProblem",
    "SlotBlock",
    "SolverEngine",
    "SolverPolicy",
    "TransmissionOrder",
    "ZonePartition",
    "GuaranteeReport",
    "TwoClassSchedule",
    "check_guarantees",
    "pack_best_effort",
    "schedule_two_classes",
    "conflict_graph",
    "default_engine",
    "greedy_minimum_slots",
    "greedy_schedule",
    "min_delay_tree_order",
    "minimum_slots",
    "partition_zones",
    "path_delay_slots",
    "path_wraps",
    "schedule_from_order",
    "solve_schedule_ilp",
    "worst_case_delay_slots",
    "zoned_minimum_slots",
]
